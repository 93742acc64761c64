from itertools import combinations, permutations

import numpy as np
import pytest

from spreadrank import algebra, atlas, codec, gf, search
from spreadrank.errors import NotIrreducible, NotRankOne, SingularMatrix


def oracle_det(mats, q):
    """Leibniz expansion over every permutation, the old determinant."""
    A = np.asarray(mats, dtype=np.int64) % q
    k = A.shape[-1]
    total = np.zeros(A.shape[0], dtype=np.int64)
    for p in permutations(range(k)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(k), 2))
        term = np.ones(A.shape[0], dtype=np.int64)
        for i in range(k):
            term = (term * A[:, i, p[i]]) % q
        total = (total + (-1) ** inversions * term) % q
    return total


def oracle_charpoly(mats, q):
    """The coefficient of x^(n-k) is (-1)^k times the sum of the k x k
    principal minors, the old charpoly."""
    A = np.asarray(mats, dtype=np.int64) % q
    nb, n, _ = A.shape
    out = np.zeros((nb, n + 1), dtype=np.int64)
    out[:, 0] = 1
    for k in range(1, n + 1):
        for S in combinations(range(n), k):
            idx = np.array(S)
            out[:, k] += oracle_det(A[:, idx[:, None], idx[None, :]], q)
        out[:, k] = (out[:, k] * (-1) ** k) % q
    return out.astype(np.int8)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("n", range(7))
def test_charpoly_and_det_kernel_match_oracles(q, n):
    # n = 5 and 6 are the sizes the old determinant reduced by elimination
    rng = np.random.default_rng(10 * q + n)
    mats = rng.integers(0, q, (40, n, n)).astype(np.uint8)
    if n:
        mats[::3, -1] = mats[::3, 0] if n > 1 else 0  # singular
        mats[1] = 0
    dets = gf.det_batch(mats, q)
    assert dets.dtype == np.int64
    assert dets.tobytes() == oracle_det(mats, q).tobytes()
    if n:
        assert not dets[::3].any() and dets.any()
    cps = gf.charpoly_batch(mats, q)
    assert cps.shape == (40, n + 1)
    assert cps.tobytes() == oracle_charpoly(mats, q).tobytes()
    assert [gf.mat_det(M, q) for M in mats[:5]] == dets[:5].tolist()


def test_rank_identity_and_zero():
    assert gf.mat_rank(np.eye(4, dtype=np.uint8), 2) == 4
    assert gf.mat_rank(np.zeros((4, 4), dtype=np.uint8), 2) == 0


def test_rank_of_published_rank_one():
    # rows 1010/1010/0000/0000
    assert gf.mat_rank(codec.decode(85, 2, 4), 2) == 1


def test_det_identity_and_companion():
    assert gf.mat_det(np.eye(4, dtype=np.uint8), 2) == 1
    # second basis matrix of the order-16 field: companion of x^4+x+1
    companion = codec.decode(14402, 2, 4)
    assert gf.mat_det(companion, 2) == 1


def test_inverse_errors_on_singular():
    with pytest.raises(SingularMatrix):
        gf.mat_inverse(np.zeros((3, 3), dtype=np.uint8), 2)


def test_inverse_round_trip():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5, 7):
        for _ in range(20):
            M = rng.integers(0, q, (4, 4))
            if gf.mat_det(M, q) == 0:
                continue
            inv = gf.mat_inverse(M, q)
            assert np.array_equal(gf.mat_mul(M, inv, q), np.eye(4, dtype=np.uint8))


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_inverse_batch_matches_mat_inverse(q, n):
    rng = np.random.default_rng(100 * q + n)
    mats = rng.integers(0, q, (60, n, n)).astype(np.uint8)
    mats[::4, -1] = mats[::4, 0]  # a repeated row: singular
    mats[1] = 0
    inverses, invertible = gf.inverse_batch(mats, q)
    assert inverses.shape == mats.shape and inverses.dtype == np.uint8
    assert 0 < invertible.sum() < len(mats)
    for M, inv, ok in zip(mats, inverses, invertible):
        try:
            expected = gf.mat_inverse(M, q)
        except SingularMatrix:
            assert not ok
            assert not inv.any()
        else:
            assert ok
            assert np.array_equal(inv, expected)


# (r, c) shapes of the batch kernel tests: square, wide, tall, one row, one column
BATCH_SHAPES = [(4, 4), (7, 7), (5, 9), (3, 6), (9, 5), (1, 6), (6, 1)]


def test_rank_batch_matches_single():
    for q in gf.SUPPORTED_Q:
        rng = np.random.default_rng(3 + q)
        for r, c in BATCH_SHAPES:
            mats = rng.integers(0, q, (50, r, c))
            mats[::5, -1] = mats[::5, 0]  # rank-deficient
            batch = gf.rank_batch(mats, q)
            singles = [gf.mat_rank(m, q) for m in mats]
            assert batch.tolist() == singles


def test_rref_batch_matches_single():
    for q in gf.SUPPORTED_Q:
        rng = np.random.default_rng(11 + q)
        for r, c in BATCH_SHAPES:
            mats = rng.integers(0, q, (40, r, c))
            mats[::4, -1] = mats[::4, 0]  # rank-deficient
            reduced, ranks = gf.rref_batch(mats, q)
            assert reduced.shape == mats.shape and reduced.dtype == np.uint8
            for i in range(40):
                single, piv = gf.rref(mats[i], q)
                assert ranks[i] == single.shape[0]
                assert np.array_equal(reduced[i, : len(piv)], single)
                assert not reduced[i, len(piv):].any()


# ---------------------------------------------------------------------------
# The batch elimination kernel against the subset-gather kernel it replaced
# ---------------------------------------------------------------------------


def oracle_eliminate(A, q, ncols):
    """Oracle: Gauss-Jordan elimination of an int16 (B, r, c) residue stack,
    in place, gathering the items that have a pivot in each column and
    scattering them back, with pivots from the first ncols columns only.
    Returns (the uint8 stack, the number of pivots of each item)."""
    nb, nr, _ = A.shape
    inv = gf.inv_table(q).astype(np.int16)
    row = np.zeros(nb, dtype=np.int64)
    rowidx = np.arange(nr)
    for c in range(ncols):
        cand = (A[:, :, c] != 0) & (rowidx[None, :] >= row[:, None])
        b = np.nonzero(cand.any(axis=1))[0]
        if b.size == 0:
            continue
        piv = np.argmax(cand[b], axis=1)
        cur = row[b]
        tmp = A[b, piv, :].copy()
        A[b, piv, :] = A[b, cur, :]
        A[b, cur, :] = tmp
        pivrow = (A[b, cur, :] * inv[A[b, cur, c]][:, None]) % q
        A[b, cur, :] = pivrow
        factors = A[b, :, c].copy()
        factors[np.arange(b.size), cur] = 0
        A[b] = (A[b] - factors[:, :, None] * pivrow[:, None, :]) % q
        row[b] += 1
    return A.astype(np.uint8), row


def oracle_inverse_batch(mats, q):
    """Oracle: inverse_batch through oracle_eliminate."""
    A = np.asarray(mats, dtype=np.int16) % q
    n = A.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=np.int16), A.shape)
    R, ranks = oracle_eliminate(np.concatenate([A, eye], axis=2), q, n)
    inverses = R[:, :, n:]
    inverses[ranks != n] = 0
    return inverses, ranks == n


def kernel_stacks(q):
    """Named (B, r, c) test stacks over F_q: tall, wide and square with
    singular items, all-zero, sparse, single-row, and the empty shapes
    r = 0, c = 0, n = 0 and B = 0."""
    rng = np.random.default_rng(50 + q)
    stacks = {
        "tall": rng.integers(0, q, (40, 9, 4)),
        "wide": rng.integers(0, q, (40, 4, 9)),
        "square": rng.integers(0, q, (60, 5, 5)),
        "all-zero": np.zeros((6, 4, 4), dtype=np.int64),
        "sparse": rng.integers(0, q, (60, 6, 6)) * (rng.random((60, 6, 6)) < 0.2),
        "single-row": rng.integers(0, q, (30, 1, 7)),
        "r=0": np.zeros((5, 0, 6), dtype=np.int64),
        "c=0": np.zeros((5, 3, 0), dtype=np.int64),
        "n=0": np.zeros((4, 0, 0), dtype=np.int64),
        "B=0": np.zeros((0, 4, 4), dtype=np.int64),
    }
    for name in ("tall", "wide", "square"):
        stacks[name][::3, -1] = stacks[name][::3, 0]  # singular items
    return stacks


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_batch_kernels_match_gather_oracle(q):
    for name, mats in kernel_stacks(q).items():
        for given in (mats, mats.astype(np.uint8)):
            before = given.copy()
            reduced, ranks = gf.rref_batch(given, q)
            want = oracle_eliminate(given.astype(np.int16) % q, q, given.shape[2])
            assert_same_bytes(reduced, want[0])
            assert_same_bytes(ranks, want[1])
            assert_same_bytes(gf.rank_batch(given, q), want[1])
            if given.shape[1] == given.shape[2]:
                for got, want_part in zip(gf.inverse_batch(given, q), oracle_inverse_batch(given, q)):
                    assert_same_bytes(got, want_part)
            for ncols in range(given.shape[2] + 1):  # pivots from a left block only
                got = gf._eliminate(given, q, ncols)
                want = oracle_eliminate(given.astype(np.int16), q, ncols)
                assert_same_bytes(got[0], want[0])
                assert_same_bytes(got[1], want[1])
            assert given.tobytes() == before.tobytes(), name  # the caller's stack is untouched


# ---------------------------------------------------------------------------
# The per-matrix code tables against the kernels
# ---------------------------------------------------------------------------

TABLE_SIZES = [(q, n) for q in gf.SUPPORTED_Q for n in range(1, 5) if q ** (n * n) <= 1 << 16]


def every_matrix(q, n):
    """Every n x n matrix over F_q as a uint8 stack, item i of code i."""
    return np.ascontiguousarray(gf.coefficient_grid(q, n * n)[:, ::-1]).astype(np.uint8).reshape(-1, n, n)


def oracle_table_fields(mats, q):
    """(ranks, inverses, invertible, minimal-polynomial degrees, charpoly
    ids) of a (B, n, n) stack straight from the kernels: rref_batch, one
    _eliminate of [M | I] with pivots in M, the rank of the rows vec(g^i),
    i < n, by rref_batch, and charpoly_batch."""
    n = mats.shape[-1]
    ranks = gf.rref_batch(mats, q)[1]
    eye = np.broadcast_to(np.eye(n, dtype=np.uint8), mats.shape)
    R, pivots = gf._eliminate(np.concatenate([mats, eye], axis=2), q, n)
    inverses = R[:, :, n:]
    inverses[pivots != n] = 0
    powers = [eye]
    for _ in range(n - 1):  # a sum is at most n (q - 1)^2 <= 72: uint8 holds it
        powers.append(powers[-1] @ mats % q)
    degrees = gf.rref_batch(np.stack(powers, axis=1).reshape(len(mats), n, n * n), q)[1]
    ids = codec.encode_rows(gf.charpoly_batch(mats, q)[:, 1:], q)
    return ranks, inverses, pivots == n, degrees, ids


def table_fields(mats, q):
    """The same five arrays from the table's readers."""
    inverses, invertible = gf.inverse_batch(mats, q)
    return gf.rank_batch(mats, q), inverses, invertible, gf.min_degrees(mats, q), gf.charpoly_ids(mats, q)


@pytest.mark.parametrize("q, n", TABLE_SIZES)
def test_code_table_matches_kernels_on_every_code(monkeypatch, q, n):
    mats = every_matrix(q, n)
    want = oracle_table_fields(mats, q)
    # lazy fill: shuffled batches of about 1/16 of the codes, each with
    # half the codes of the batch before again, the readers taking turns
    gf._code_table.cache_clear()
    order = np.random.default_rng(q * 10 + n).permutation(len(mats))
    step = max(2, len(mats) // 16)
    readers = [gf.rank_batch, gf.inverse_batch, gf.min_degrees, gf.charpoly_ids]
    for turn, lo in enumerate(range(0, len(mats), step)):
        batch = order[max(0, lo - step // 2):lo + step]
        readers[turn % len(readers)](mats[batch], q)
    table = gf._code_table(q, n)
    assert (table["rank"] >= 0).all()  # the half-filled rule filled the rest
    got = table_fields(mats, q)
    for got_part, want_part in zip(got, want):
        assert_same_bytes(got_part, want_part)

    def no_kernel(*args):
        raise AssertionError("a table hit ran a kernel")

    monkeypatch.setattr(gf, "_eliminate", no_kernel)
    monkeypatch.setattr(gf, "charpoly_batch", no_kernel)
    again = np.concatenate([order[:50], order[:50]])  # repeats
    for got_part, hit_part, want_part in zip(got, table_fields(mats[again], q), want):
        assert_same_bytes(hit_part, want_part[again])
    for got_part, hit_part in zip(got, table_fields(mats, q)):
        assert_same_bytes(hit_part, got_part)


def test_stacks_outside_the_tables_reach_the_kernels(monkeypatch):
    # 3^16 codes of q = 3, n = 4 (F81), a 2^25-code square stack and
    # non-square stacks get no table: every reader runs its kernel
    shapes = []
    eliminate, charpoly_batch = gf._eliminate, gf.charpoly_batch

    def counting_eliminate(A, q, ncols):
        shapes.append(("eliminate", q, A.shape[1:]))
        return eliminate(A, q, ncols)

    def counting_charpoly(mats, q):
        shapes.append(("charpoly", q, np.shape(mats)[1:]))
        return charpoly_batch(mats, q)

    monkeypatch.setattr(gf, "_eliminate", counting_eliminate)
    monkeypatch.setattr(gf, "charpoly_batch", counting_charpoly)
    gf._code_table.cache_clear()
    rng = np.random.default_rng(81)
    f81 = rng.integers(0, 3, (20, 4, 4)).astype(np.uint8)
    want = oracle_table_fields(f81, 3)
    del shapes[:]
    for got_part, want_part in zip(table_fields(f81, 3), want):
        assert_same_bytes(got_part, want_part)
    assert shapes == [("eliminate", 3, (4, 8)), ("eliminate", 3, (4, 4)),
                      ("eliminate", 3, (16, 4)), ("charpoly", 3, (4, 4))]
    del shapes[:]
    assert gf.rank_batch(rng.integers(0, 2, (10, 5, 5)), 2).shape == (10,)
    assert shapes == [("eliminate", 2, (5, 5))]
    # the rank-one profile ranks (children, members, dim + 1) rows: at F16
    # every child has one member, which needs no elimination; at a child of
    # F16 the two-member children reach the kernel
    del shapes[:]
    f16, pts = atlas.atlas_get("F16").space(), algebra.points_for(2, 4)
    search._process_parents([f16], pts, 0)
    assert not any(kind == "eliminate" and shape[1] == 5 for kind, _, shape in shapes)
    search._process_parents([f16.extend(pts.flat[3])], pts, 0)
    assert ("eliminate", 2, (2, 6)) in shapes
    assert gf._code_table.cache_info().currsize == 0


def test_min_degrees_outside_the_tables_take_each_distinct_matrix_once(monkeypatch):
    # q = 3, n = 4: repeats and unreduced int16 entries, against the oracle
    rng = np.random.default_rng(34)
    base = rng.integers(0, 3, (12, 4, 4))
    mats = (base[rng.integers(0, 12, 60)] + 3 * rng.integers(-2, 3, (60, 4, 4))).astype(np.int16)
    want = oracle_table_fields(mats % 3, 3)[3]
    sizes, kernel = [], gf._min_degree_kernel
    monkeypatch.setattr(gf, "_min_degree_kernel", lambda G, q: sizes.append(len(G)) or kernel(G, q))
    assert_same_bytes(gf.min_degrees(mats, 3), want)
    assert sizes == [len({m.tobytes() for m in (mats % 3).astype(np.uint8)})]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_single_row_ranks_match_the_kernel(q):
    # a one-row stack is ranked by a nonzero test: zero rows, residues and
    # unreduced int16 entries (negative and >= q) against _eliminate
    rng = np.random.default_rng(q)
    rows = rng.integers(-3 * q, 3 * q, (400, 1, 7)).astype(np.int16)
    rows[::5] = 0
    rows[1::5] *= q  # zero mod q, nonzero as integers
    for stack in (rows, rows % q, rows[:, :, :1], rows[:0]):
        want = gf._eliminate(np.asarray(stack) % q, q, stack.shape[-1])[1]
        assert_same_bytes(gf.rank_batch(stack, q), want)


def oracle_decode(codes, q, n):
    """The n x n matrices of the codes by int64 floor division."""
    digits = np.asarray(codes, dtype=np.int64)[:, None] // q ** np.arange(n * n, dtype=np.int64) % q
    return digits.astype(np.uint8).reshape(-1, n, n)


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_mod_matches_the_integer_remainder(q, dtype):
    # products of residues, and negative entries (two's complement at q = 2)
    a = np.random.default_rng(q).integers(-300, 300, (64, 4, 4)).astype(dtype)
    prods = np.abs(a) % q @ (np.abs(a) % q).transpose(0, 2, 1)
    for x in (a, prods):
        got, want = gf.mod(x, q), x % q
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_decode_matches_integer_division_on_every_code(q, n):
    codes = np.arange(q ** (n * n))
    for dtype in (np.int64, np.uint16):
        assert_same_bytes(gf._decode(codes.astype(dtype), q, n), oracle_decode(codes, q, n))
    assert_same_bytes(gf._decode(codes, q, n), every_matrix(q, n))


def test_charpoly_matches_determinant_shift():
    # char(M) evaluated at x must equal det(xI - M) for every scalar x
    rng = np.random.default_rng(5)
    for q in (2, 3, 5):
        for _ in range(10):
            M = rng.integers(0, q, (4, 4))
            cp = gf.charpoly(M, q)
            for x in range(q):
                shifted = (x * np.eye(4, dtype=np.int64) - M) % q
                val = sum(c * pow(x, 4 - i, q) for i, c in enumerate(cp)) % q
                assert val == gf.mat_det(shifted, q)


def test_rank_one_factor_published_example():
    u, w = gf.rank_one_factor(codec.decode(85, 2, 4), 2)
    assert u.tolist() == [1, 1, 0, 0]
    assert w.tolist() == [1, 0, 1, 0]


def test_rank_one_factor_order81_example():
    # rows 1002/2001/1002/0000
    M = np.array([[1, 0, 0, 2], [2, 0, 0, 1], [1, 0, 0, 2], [0, 0, 0, 0]])
    u, w = gf.rank_one_factor(M, 3)
    assert np.array_equal(np.outer(u, w) % 3, M % 3)
    assert w[np.nonzero(w)[0][0]] == 1


def test_rank_one_factor_round_trip_random():
    rng = np.random.default_rng(13)
    for q in (2, 3, 5):
        for _ in range(50):
            u = rng.integers(0, q, 4)
            w = rng.integers(0, q, 4)
            if not u.any() or not w.any():
                continue
            M = np.outer(u, w) % q
            uu, ww = gf.rank_one_factor(M, q)
            assert np.array_equal(np.outer(uu, ww) % q, M)


def test_rank_one_factor_rejects_higher_rank():
    with pytest.raises(NotRankOne):
        gf.rank_one_factor(np.eye(2, dtype=np.uint8), 2)
    with pytest.raises(NotRankOne):
        gf.rank_one_factor(np.zeros((2, 2), dtype=np.uint8), 2)


def test_solve_membership():
    ident = np.eye(3, dtype=np.uint8)
    coeffs = gf.solve_membership([ident], ident, 2)
    assert coeffs.tolist() == [1]
    e11 = np.zeros((3, 3), dtype=np.uint8)
    e11[0, 0] = 1
    assert gf.solve_membership([ident], e11, 2) is None


def test_solve_membership_reconstructs():
    rng = np.random.default_rng(17)
    basis = [rng.integers(0, 3, (4, 4)) for _ in range(5)]
    coeffs = rng.integers(0, 3, 5)
    target = sum(int(c) * b for c, b in zip(coeffs, basis)) % 3
    got = gf.solve_membership(basis, target, 3)
    assert got is not None
    recon = sum(int(c) * b for c, b in zip(got, basis)) % 3
    assert np.array_equal(recon % 3, target)


def test_nullspace():
    A = np.array([[1, 1, 0], [0, 0, 0]])
    ns = gf.nullspace(A, 2)
    assert ns.shape[0] == 2
    for row in ns:
        assert not ((A @ row) % 2).any()


# ---------------------------------------------------------------------------
# Extension fields
# ---------------------------------------------------------------------------


def test_ext_field_rejects_reducible():
    with pytest.raises(NotIrreducible):
        gf.ExtField(2, 4, (1, 0, 0, 0, 1))  # x^4 + 1 = (x+1)^4


def test_ext_mul_matrix_identity_and_zero():
    F = gf.ExtField(2, 4)
    assert np.array_equal(F.mul_matrix(F.one), np.eye(4, dtype=np.uint8))
    assert not F.mul_matrix(F.zero).any()


def test_ext_mul_matrix_generator_is_published_companion():
    F = gf.ExtField(2, 4)
    assert codec.encode(F.mul_matrix(F.gen), 2) == 14402


def test_ext_mul_matrix_multiplicative():
    rng = np.random.default_rng(23)
    for q, n in ((2, 4), (3, 4), (5, 2)):
        F = gf.ExtField(q, n)
        for _ in range(20):
            a = F.element(rng.integers(0, q, n))
            b = F.element(rng.integers(0, q, n))
            lhs = gf.mat_mul(F.mul_matrix(a), F.mul_matrix(b), q)
            assert np.array_equal(lhs, F.mul_matrix(F.mul(a, b)))


def test_ext_field_inverses():
    F = gf.ExtField(3, 4)
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = F.element(rng.integers(0, 3, 4))
        if not a.any():
            continue
        assert np.array_equal(F.mul(a, F.inverse(a)), F.one)


def test_companion_field_is_nonsingular():
    # every nonzero combination of the companion powers is invertible
    F = gf.ExtField(2, 4)
    from itertools import product

    mats = [F.mul_matrix(e) for e in np.eye(4, dtype=np.uint8)]
    for coeffs in product(range(2), repeat=4):
        if not any(coeffs):
            continue
        M = sum(c * m for c, m in zip(coeffs, mats)) % 2
        assert gf.mat_rank(M, 2) == 4
