import numpy as np
import pytest

from spreadrank import algebra, codec, gf
from spreadrank.errors import BadParameters, DimensionMismatch, NotNonsingular

F16_BASIS = (33825, 14402, 25476, 50744)
F81_BASIS = (14408200, 15058227, 16660575, 21463326)


def field16():
    return algebra.field_construct(2, 4)


# ---------------------------------------------------------------------------
# MatSpace
# ---------------------------------------------------------------------------


def test_matspace_canonical_equality():
    mats = [codec.decode(v, 2, 4) for v in F16_BASIS]
    s1 = algebra.MatSpace.from_matrices(2, 4, mats)
    s2 = algebra.MatSpace.from_matrices(2, 4, mats[::-1])
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.dim == 4


def test_matspace_from_matrices_zero_space_and_shape_check():
    zero = algebra.MatSpace.from_matrices(2, 4, [])
    assert zero.dim == 0 and zero.encodings() == []
    assert not zero.contains(np.eye(4, dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        algebra.MatSpace.from_matrices(2, 2, [np.eye(3, dtype=np.uint8)] * 4)


def test_matspace_membership_and_extend():
    space = algebra.MatSpace.from_encodings(2, 4, F16_BASIS)
    assert space.contains(np.eye(4, dtype=np.uint8))
    e12 = np.zeros((4, 4), dtype=np.uint8)
    e12[0, 1] = 1
    assert not space.contains(e12)
    bigger = space.extend(e12)
    assert bigger.dim == 5 and bigger.contains(e12)
    assert space.extend(np.eye(4, dtype=np.uint8)) is space  # already inside
    zero = algebra.MatSpace.from_matrices(2, 4, [])
    line = zero.extend(3 * e12)  # residues mod q
    assert line == algebra.MatSpace.from_matrices(2, 4, [e12]) and line.pivots == (1,)


@pytest.mark.parametrize("q, basis", [(2, F16_BASIS), (3, F81_BASIS)])
def test_extend_batch_matches_rref_of_the_stacked_rows(q, basis):
    # per parent dimension 4..8: every rank-one point outside one of three seeded
    # spaces of that dimension, all in one batch, against the RREF of the
    # space's basis and the point computed from scratch, and against extend
    rng = np.random.default_rng(q)
    pts = algebra.points_for(q, 4)
    level = [algebra.MatSpace.from_encodings(q, 4, basis)]
    for _ in range(5):
        pairs = [(s, i) for s in level for i in np.nonzero(~s.contains_batch(pts.flat))[0]]
        spaces, mats = [s for s, _ in pairs], pts.flat[[i for _, i in pairs]]
        built = algebra.MatSpace.extend_batch(spaces, mats)
        for space, mat, got in zip(spaces, mats, built):
            want, want_piv = gf.rref(np.vstack([space.basis, mat]), q)
            assert got.basis.dtype == np.uint8 and not got.basis.flags.writeable
            assert np.array_equal(got.basis, want)
            assert got.pivots == tuple(want_piv) and all(type(p) is int for p in got.pivots)
            one = space.extend(mat)
            assert one.basis.tobytes() == got.basis.tobytes() and one.pivots == got.pivots
        level = [built[i] for i in rng.choice(len(built), 3, replace=False)]
    with pytest.raises(BadParameters, match="lies in the space"):
        algebra.MatSpace.extend_batch(level[:1], level[0].basis[:1])
    assert algebra.MatSpace.extend_batch([], pts.flat[[]]) == []


def test_matspace_elements_count():
    space = algebra.MatSpace.from_encodings(2, 4, F16_BASIS)
    assert space.nonzero_elements().shape == (15, 16)


# ---------------------------------------------------------------------------
# Hypercubes
# ---------------------------------------------------------------------------


def test_hypercube_slices_are_basis():
    ss = field16()
    H = algebra.hypercube_from_spreadset(ss)
    for i in range(4):
        assert np.array_equal(H[i], ss.matrices[i])
    back = algebra.spreadset_from_hypercube(H, 2)
    assert [codec.encode(m, 2) for m in back.matrices] == list(F16_BASIS)


def test_hypercube_n1():
    H = algebra.hypercube_from_spreadset([np.array([[1]], dtype=np.uint8)])
    assert H[0, 0, 0] == 1


def test_hypercube_wrong_size():
    with pytest.raises(DimensionMismatch):
        algebra.hypercube_from_spreadset(
            [codec.decode(v, 2, 4) for v in F16_BASIS[:3]]
        )


def test_multiply_field_identity_and_square():
    ss = field16()
    H = ss.hypercube()
    one = np.array([1, 0, 0, 0], dtype=np.uint8)
    x = np.array([0, 1, 0, 0], dtype=np.uint8)
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, 4).astype(np.uint8)
    assert np.array_equal(algebra.multiply(H, one, y, 2), y)
    # x * x = x^2 in the power basis
    assert algebra.multiply(H, x, x, 2).tolist() == [0, 0, 1, 0]
    zero = np.zeros(4, dtype=np.uint8)
    assert not algebra.multiply(H, zero, y, 2).any()


def test_multiply_bilinear():
    rng = np.random.default_rng(4)
    H = rng.integers(0, 3, (4, 4, 4)).astype(np.uint8)
    for _ in range(20):
        a = int(rng.integers(0, 3))
        x1, x2, y = (rng.integers(0, 3, 4) for _ in range(3))
        lhs = algebra.multiply(H, (a * x1 + x2) % 3, y, 3)
        rhs = (a * algebra.multiply(H, x1, y, 3) + algebra.multiply(H, x2, y, 3)) % 3
        assert np.array_equal(lhs, rhs.astype(np.uint8))


# ---------------------------------------------------------------------------
# Nonsingularity and constructions
# ---------------------------------------------------------------------------


def test_is_nonsingular():
    assert algebra.is_nonsingular(field16().space)
    diag = algebra.MatSpace.from_rows(
        2, 4, np.stack([np.diag(e).reshape(-1) for e in np.eye(4, dtype=np.uint8)])
    )
    assert not algebra.is_nonsingular(diag)
    gtf = algebra.SpreadSet.from_encodings(
        3, (14408200, 37463637, 34827984, 8282925), 4
    )
    assert algebra.is_nonsingular(gtf.space)


def test_field_construct_published_encodings():
    assert [codec.encode(m, 2) for m in field16().matrices] == list(F16_BASIS)
    f81 = algebra.field_construct(3, 4)
    assert [codec.encode(m, 3) for m in f81.matrices] == list(F81_BASIS)


def test_field_construct_small():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    assert np.array_equal(f4.matrices[0], np.eye(2, dtype=np.uint8))
    assert f4.matrices[1].tolist() == [[0, 1], [1, 1]]


def test_field_construct_rejects_reducible():
    from spreadrank.errors import NotIrreducible

    with pytest.raises(NotIrreducible):
        algebra.field_construct(2, 4, (1, 0, 0, 0, 1))


def test_gtf_construct_nonsingular():
    F = gf.ExtField(3, 4)
    P = algebra.gtf_construct(3, 4, 1, 2, F.gen)
    assert algebra.is_nonsingular(P.space)


def test_gtf_construct_bad_parameters():
    F = gf.ExtField(3, 4)
    with pytest.raises(BadParameters):
        algebra.gtf_construct(3, 4, 2, 2, F.gen)
    # norm(c) = c^40; any square has norm (c^40)^2 = c^80 = 1
    c = F.pow(F.gen, 2)
    assert np.array_equal(F.norm_over_prime(c), F.one)
    with pytest.raises(NotNonsingular):
        algebra.gtf_construct(3, 4, 1, 2, c)


def test_kaplansky_field_fixed_point():
    ss = algebra.kaplansky_normalize(field16().space)
    assert [codec.encode(m, 2) for m in ss.matrices] == list(F16_BASIS)


def test_kaplansky_gtf_contains_identity_and_equivalent():
    from spreadrank.equivalence import are_equivalent

    F = gf.ExtField(3, 4)
    P = algebra.gtf_construct(3, 4, 1, 2, F.gen)
    S = algebra.kaplansky_normalize(P)
    assert np.array_equal(S.matrices[0], np.eye(4, dtype=np.uint8))
    # two-sided identity e_1: first rows are the standard basis
    for i, M in enumerate(S.matrices):
        expected = np.zeros(4, dtype=np.uint8)
        expected[i] = 1
        assert np.array_equal(M[0], expected)
    assert are_equivalent(S.space, P.space) is not None


def test_kaplansky_rejects_singular():
    diag = algebra.MatSpace.from_rows(
        2, 4, np.stack([np.diag(e).reshape(-1) for e in np.eye(4, dtype=np.uint8)])
    )
    with pytest.raises(NotNonsingular):
        algebra.kaplansky_normalize(diag)


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------


def test_contract_slot1_gives_basis_matrix():
    ss = field16()
    H = ss.hypercube()
    e1 = np.array([1, 0, 0, 0], dtype=np.uint8)
    assert np.array_equal(algebra.contract(H, 1, e1, 2), ss.matrices[0])
    zero = np.zeros(4, dtype=np.uint8)
    assert not algebra.contract(H, 1, zero, 2).any()


def test_contract_pure_tensor():
    rng = np.random.default_rng(6)
    u, v, w = (rng.integers(0, 3, 3) for _ in range(3))
    T = np.einsum("i,j,k->ijk", u, v, w) % 3
    f = rng.integers(0, 3, 3)
    got = algebra.contract(T, 2, f, 3)
    scale = int(f @ v) % 3
    expect = (scale * np.einsum("i,k->ik", u, w)) % 3
    assert np.array_equal(got, expect.astype(np.uint8))


def test_contract_bad_slot():
    from spreadrank.errors import BadSlot

    with pytest.raises(BadSlot):
        algebra.contract(np.zeros((2, 2, 2)), 4, np.array([1, 0]), 2)


def test_contraction_space_and_concise():
    ss = field16()
    H = ss.hypercube()
    basis = algebra.contraction_space(H, 1, 2)
    span = algebra.MatSpace.from_matrices(2, 4, basis)
    assert span == ss.space
    assert algebra.is_concise(H, 2)
    assert algebra.contraction_space(np.zeros((3, 3, 3), dtype=np.uint8), 1, 2) == []
    rng = np.random.default_rng(8)
    u, v, w = (rng.integers(0, 2, 3) | np.array([1, 0, 0]) for _ in range(3))
    pure = np.einsum("i,j,k->ijk", u, v, w) % 2
    for slot in (1, 2, 3):
        assert len(algebra.contraction_space(pure, slot, 2)) == 1


def test_nonsingular_hypercubes_concise():
    from spreadrank import atlas

    for name in atlas.atlas_list():
        ss = atlas.atlas_get(name).spread_set()
        assert algebra.is_concise(ss.hypercube(), ss.q), name


# ---------------------------------------------------------------------------
# Knuth action
# ---------------------------------------------------------------------------


def test_knuth_identity():
    rng = np.random.default_rng(9)
    H = rng.integers(0, 2, (4, 4, 4)).astype(np.uint8)
    assert np.array_equal(algebra.knuth_act(H, (1, 2, 3)), H)


def test_knuth_group_action():
    rng = np.random.default_rng(10)
    H = rng.integers(0, 3, (4, 4, 4)).astype(np.uint8)
    for sigma in algebra.S3:
        for tau in algebra.S3:
            lhs = algebra.knuth_act(algebra.knuth_act(H, sigma), tau)
            comp = tuple(tau[s - 1] for s in sigma)  # tau after sigma
            assert np.array_equal(lhs, algebra.knuth_act(H, comp)), (sigma, tau)


def test_transpose_of_spread_set_is_spread_set():
    ss = field16()
    transposed = algebra.SpreadSet(2, [m.T for m in ss.matrices])
    assert algebra.is_nonsingular(transposed.space)


def test_knuth_orbit_of_field_collapses():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    assert len(algebra.knuth_orbit(f4)) == 1
    f16 = algebra.field_construct(2, 4)
    assert len(algebra.knuth_orbit(f16)) == 1


# ---------------------------------------------------------------------------
# Rank-one enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "q,n,count", [(2, 2, 9), (2, 4, 225), (3, 4, 3200)]
)
def test_rank_one_counts(q, n, count):
    mats = algebra.rank_one_elements(q, n)
    assert len(mats) == count
    sample = mats[:: max(1, len(mats) // 40)]
    assert all(gf.mat_rank(m, q) == 1 for m in sample)
    encs = [codec.encode(m, q) for m in mats]
    assert encs == sorted(encs)
    assert len(set(encs)) == count
