from itertools import combinations, permutations

import numpy as np
import pytest

from spreadrank import codec, gf
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


@pytest.mark.parametrize("q", [2, 3, 5])
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


def test_rank_batch_matches_single():
    rng = np.random.default_rng(3)
    for q in (2, 3, 5):
        mats = rng.integers(0, q, (50, 4, 4))
        batch = gf.rank_batch(mats, q)
        singles = [gf.mat_rank(m, q) for m in mats]
        assert batch.tolist() == singles


def test_rref_batch_matches_single():
    rng = np.random.default_rng(11)
    mats = rng.integers(0, 3, (40, 5, 9))
    reduced, ranks = gf.rref_batch(mats, 3)
    for i in range(40):
        single, piv = gf.rref(mats[i], 3)
        assert ranks[i] == single.shape[0]
        assert np.array_equal(reduced[i, : len(piv)], single)


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
