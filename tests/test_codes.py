import numpy as np
import pytest

from spreadrank import algebra, atlas, codec, codes, gf
from spreadrank.errors import (
    BadSlot,
    DependentGenerators,
    NotContained,
    SpreadRankError,
    TooLarge,
    UnknownBound,
)

# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------


def test_decomposition_from_rank_ones_f16():
    e = atlas.atlas_get("F16")
    D = codes.decomposition_from_rank_ones(e.spread_set(), e.decomposition_matrices())
    assert D.R == 9
    assert np.array_equal(D.tensor(), e.spread_set().hypercube())


def test_decomposition_from_rank_ones_f81():
    e = atlas.atlas_get("F81")
    D = codes.decomposition_from_rank_ones(e.spread_set(), e.decomposition_matrices())
    assert D.R == 9


def test_decomposition_missing_matrix_not_contained():
    e = atlas.atlas_get("F16")
    mats = e.decomposition_matrices()
    for drop in range(9):
        subset = [m for i, m in enumerate(mats) if i != drop]
        with pytest.raises(NotContained):
            codes.decomposition_from_rank_ones(e.spread_set(), subset)


def test_decomposition_rejects_failed_reconstruction(monkeypatch):
    e = atlas.atlas_get("F16")
    monkeypatch.setattr(
        codes.PureDecomposition, "tensor", lambda D: np.zeros(D.dims, dtype=np.uint8)
    )
    with pytest.raises(NotContained):
        codes.decomposition_from_rank_ones(e.spread_set(), e.decomposition_matrices())


def test_decomposition_rejects_dependent():
    e = atlas.atlas_get("F16")
    mats = e.decomposition_matrices()
    with pytest.raises(DependentGenerators):
        codes.decomposition_from_rank_ones(e.spread_set(), mats + [mats[0]])


def test_codes_from_decomposition_presemifield_properties():
    for name in ("F16", "GTF81", "V"):
        e = atlas.atlas_get(name)
        D = codes.decomposition_from_rank_ones(
            e.spread_set(), e.decomposition_matrices()
        )
        for G in codes.codes_from_decomposition(D):
            assert gf.rank(G.T, e.q) == e.n  # full row rank: concise
            assert codes.min_distance(G, e.q) >= e.n


def test_single_pure_tensor_codes():
    s = algebra.SpreadSet(2, [np.array([[1]], dtype=np.uint8)])
    D = codes.decomposition_from_rank_ones(s, [np.array([[1]], dtype=np.uint8)])
    for G in codes.codes_from_decomposition(D):
        assert G.shape == (1, 1) and G[0, 0] == 1


def test_f4_rank3_decomposition_gives_322_codes():
    # brute-forced 3-term decomposition of the order-4 field tensor
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    pts = algebra.rank_one_elements(2, 2)
    from itertools import combinations

    found = None
    for trio in combinations(pts, 3):
        span = algebra.MatSpace.from_matrices(2, 2, list(trio))
        if span.dim == 3 and span.contains_space(f4.space):
            found = list(trio)
            break
    assert found is not None
    D = codes.decomposition_from_rank_ones(f4, found)
    for G in codes.codes_from_decomposition(D):
        assert G.shape == (2, 3)
        assert codes.min_distance(G, 2) == 2


# ---------------------------------------------------------------------------
# Published generator matrices
# ---------------------------------------------------------------------------


def test_published_g_matrices_are_9_4_4():
    for G in (atlas.G1, atlas.G2, atlas.G3):
        assert gf.rank(G, 3) == 4
        assert codes.min_distance(G, 3) == 4


def test_published_weight_distributions():
    assert tuple(codes.weight_distribution(atlas.G1, 3)) == atlas.WEIGHT_DIST_G1
    assert tuple(codes.weight_distribution(atlas.G2, 3)) == atlas.WEIGHT_DIST_G1
    assert tuple(codes.weight_distribution(atlas.G3, 3)) == atlas.WEIGHT_DIST_G3


def test_published_code_equivalences():
    assert codes.code_equivalent(atlas.G1, atlas.G2, 3)
    assert not codes.code_equivalent(atlas.G1, atlas.G3, 3)
    assert not codes.code_equivalent(atlas.G2, atlas.G3, 3)


def test_code_equivalent_monomial_invariance():
    rng = np.random.default_rng(0)
    G = atlas.G3
    perm = rng.permutation(9)
    scal = rng.integers(1, 3, 9)
    moved = (G[:, perm] * scal[None, :]) % 3
    assert codes.code_equivalent(G, moved, 3)


def test_code_equivalent_zero_dimensional_codes():
    zero = np.zeros((1, 3), dtype=np.uint8)
    assert codes.code_equivalent(zero, zero, 2)
    assert not codes.code_equivalent(zero, np.array([[1, 0, 1]]), 2)
    assert not codes.code_equivalent(np.array([[1, 0, 1]]), zero, 2)


def test_computed_codes_match_published_up_to_slot_cycle():
    # slot labelling differs by one cyclic shift from the published choice;
    # with that shift the generator matrices agree entry-exact
    e = atlas.atlas_get("F81")
    D = codes.decomposition_from_rank_ones(e.spread_set(), e.decomposition_matrices())
    g1, g2, g3 = codes.codes_from_decomposition(D)
    assert np.array_equal(g2, atlas.G1)
    assert np.array_equal(g3, atlas.G2)
    assert np.array_equal(g1, atlas.G3)


def test_weight_distribution_identity_code():
    dist = codes.weight_distribution(np.eye(3, dtype=np.uint8), 2)
    assert dist == [1, 3, 3, 1]
    assert codes.min_distance(np.eye(3, dtype=np.uint8), 2) == 1


def test_weight_distribution_sums():
    for G, q in ((atlas.G1, 3), (atlas.G3, 3)):
        dist = codes.weight_distribution(G, q)
        assert sum(dist) == q ** gf.rank(G, q)


def test_weight_enumeration_too_large():
    with pytest.raises(TooLarge):
        codes.weight_distribution(np.eye(21, dtype=np.uint8), 2)


# ---------------------------------------------------------------------------
# Bound table
# ---------------------------------------------------------------------------


def test_nq_published_entries():
    assert codes.nq_lookup(2, 4, 4) == 8
    assert codes.nq_lookup(3, 4, 4) == 8


def test_no_8_4_5_ternary_code():
    assert codes.code_exists(3, 8, 4, 5) is False


def test_nq_derived_small_values():
    assert codes.nq_lookup(2, 3, 3) == 6
    assert codes.nq_lookup(5, 2, 2) == 3


def test_code_exists_small_searches():
    assert codes.code_exists(2, 5, 3, 3) is False
    assert codes.code_exists(2, 6, 3, 3) is True
    assert codes.code_exists(2, 7, 4, 3) is True  # Hamming
    assert codes.code_exists(2, 8, 4, 5) is False  # Griesmer
    assert codes.code_exists(2, 9, 4, 5) is False  # Griesmer: needs length 11


def test_nq_singleton_inequality():
    for (q, k, d), value in ((2, 4, 4), 8), ((3, 4, 4), 8):
        assert value >= k + d - 1


def test_nq_unknown_raises():
    with pytest.raises(UnknownBound):
        codes.nq_lookup(2, 12, 6)


# ---------------------------------------------------------------------------
# The generator search against the subspace enumeration
# ---------------------------------------------------------------------------


def _gaussian_binomial(n, k, q):
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def oracle_code_exists(q, length, k, d):
    """code_exists by the subspace enumeration it once ran: every
    k-subspace of F_q^length in RREF, None past 2^17 of them or q^k > 4096."""
    if k < 1 or d < 1 or length < k:
        return False
    if d > length - k + 1:
        return False  # Singleton
    if length < codes.griesmer_bound(q, k, d):
        return False
    if _gaussian_binomial(length, k, q) > 1 << 17 or q**k > 4096:
        return None
    return any(codes.min_distance(G, q) >= d for G in gf.rref_subspaces(length, k, q))


def oracle_domain(small):
    """Every (q, length, k, d) the oracle answers: those with at most 2^12
    subspaces to enumerate when small, the others when not."""
    for q in gf.SUPPORTED_Q:
        k = 1
        while q**k <= 4096:
            length = k
            while _gaussian_binomial(length, k, q) <= 1 << 17:
                if (_gaussian_binomial(length, k, q) <= 1 << 12) == small:
                    for d in range(1, length + 1):
                        yield q, length, k, d
                length += 1
            k += 1


@pytest.mark.parametrize(
    "small", [pytest.param(True, id="small"), pytest.param(False, marks=pytest.mark.slow, id="wide")]
)
def test_code_exists_matches_the_subspace_enumeration(small):
    cases = list(oracle_domain(small))
    assert len(cases) > 200
    for case in cases:
        assert codes.code_exists(*case) == oracle_code_exists(*case), case


def test_every_found_code_is_certified(monkeypatch):
    # True only after min_distance has checked the generator the search found
    seen = []
    min_distance = codes.min_distance

    def recording(G, q):
        seen.append((np.array(G), q, min_distance(G, q)))
        return seen[-1][2]

    monkeypatch.setattr(codes, "min_distance", recording)
    codes.code_exists.cache_clear()
    for q, length, k, d in ((2, 8, 4, 4), (3, 8, 4, 4), (7, 5, 3, 3), (2, 7, 4, 3)):
        del seen[:]
        assert codes.code_exists(q, length, k, d) is True
        [(G, at_q, distance)] = seen
        assert at_q == q and G.shape == (k, length) and distance >= d
        assert np.array_equal(G[:, :k], np.eye(k))
    monkeypatch.setattr(codes, "min_distance", lambda G, q: 0)
    codes.code_exists.cache_clear()
    with pytest.raises(SpreadRankError):
        codes.code_exists(2, 8, 4, 4)
    codes.code_exists.cache_clear()


def test_code_exists_decides_what_no_bound_excludes():
    # [8, 4, 4]_3 and [8, 4, 5]_5 pass the Singleton and Griesmer bounds; the
    # search finds the first and exhausts the second
    for q, d in ((3, 4), (5, 5)):
        assert codes.griesmer_bound(q, 4, d) == 8 and d <= 8 - 4 + 1
    assert codes.code_exists(3, 8, 4, 4) is True
    assert codes.code_exists(5, 8, 4, 5) is False


def test_filter_consultations_are_excluded_where_the_enumeration_excluded():
    # disprove_rank prunes by dimension 2n - 1 only where code_exists(q, R,
    # n, n + 1) is False; over these runs the search turns unknowns into
    # True only, so every filter stays on or off as before
    for q, ns in ((2, range(2, 6)), (3, range(2, 6)), (5, range(1, 4)), (7, range(1, 4))):
        for n in ns:
            for R in range(n, min(n * n, 3 * n) + 1):
                case = (q, R, n, n + 1)
                assert (codes.code_exists(*case) is False) == (oracle_code_exists(*case) is False), case


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


def test_min_rank_in_space():
    f16 = atlas.atlas_get("F16").space()
    assert codes.min_rank_in_space(f16) == 4
    diag = algebra.MatSpace.from_rows(
        2, 4, np.stack([np.diag(e).reshape(-1) for e in np.eye(4, dtype=np.uint8)])
    )
    assert codes.min_rank_in_space(diag) == 1
    e12 = np.zeros((2, 2), dtype=np.uint8)
    e12[0, 1] = 1
    span = algebra.MatSpace.from_matrices(2, 2, [np.eye(2, dtype=np.uint8), e12])
    assert codes.min_rank_in_space(span) == 1


def test_genbound_order16_and_81():
    for name in ("F16", "S1", "S2"):
        H = atlas.atlas_get(name).spread_set().hypercube()
        assert codes.genbound(H, 2) == 8
    for name in ("F81", "GTF81", "I", "X"):
        H = atlas.atlas_get(name).spread_set().hypercube()
        assert codes.genbound(H, 3) == 8


def test_genbound_order8():
    f8 = algebra.field_construct(2, 3)
    assert codes.genbound(f8.hypercube(), 2) == 6


def test_genbound_takes_the_griesmer_length_of_an_unknown_slot():
    # the search gives up on [12, 5, 5]_2, so N_2(5, 5) stays unknown and
    # genbound(F32) takes the Griesmer length
    with pytest.raises(UnknownBound):
        codes.nq_lookup(2, 5, 5)
    assert codes.griesmer_bound(2, 5, 5) == 12
    assert codes.genbound(algebra.field_construct(2, 5).hypercube(), 2) == 12


def test_genbound_of_f343_is_a_computed_length():
    # N_7(3, 3) = 5 comes from a found [5, 3, 3]_7 generator
    assert codes.code_exists(7, 5, 3, 3) is True
    assert codes.nq_lookup(7, 3, 3) == 5
    assert codes.genbound(algebra.field_construct(7, 3).hypercube(), 7) == 5


def test_genbound_equality_when_q_large():
    # 2n-1 bound attained at q = 5, n = 2
    f25 = algebra.field_construct(5, 2)
    assert codes.genbound(f25.hypercube(), 5) == 3


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def test_oracle_trivial_cases():
    assert codes.brute_force_tensor_rank(np.zeros((2, 2, 2), dtype=np.uint8), 2, 4) == 0
    pure = np.einsum("i,j,k->ijk", [1, 0], [1, 1], [0, 1]) % 2
    assert codes.brute_force_tensor_rank(pure.astype(np.uint8), 2, 4) == 1
    M = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    assert codes.brute_force_tensor_rank(M, 2, 4) == 2


def test_oracle_f4_rank3():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    assert codes.brute_force_tensor_rank(f4.hypercube(), 2, 4) == 3


def test_oracle_returns_none_over_cap():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    assert codes.brute_force_tensor_rank(f4.hypercube(), 2, 2) is None


# ---------------------------------------------------------------------------
# Codeword support check and distance lemma
# ---------------------------------------------------------------------------


def test_codeword_support_check_semifield():
    e = atlas.atlas_get("F16")
    D = codes.decomposition_from_rank_ones(e.spread_set(), e.decomposition_matrices())
    f = np.array([1, 0, 0, 0], dtype=np.uint8)
    codeword, contraction, (rank_val, weight, verified) = codes.codeword_support_check(
        D, f, 1
    )
    assert gf.mat_rank(contraction, 2) == 4
    assert weight >= 4
    assert verified and rank_val <= weight
    zero = np.zeros(4, dtype=np.uint8)
    cw, ct, _ = codes.codeword_support_check(D, zero, 1)
    assert not cw.any() and not ct.any()


def test_codeword_support_check_rejects_a_bad_slot():
    e = atlas.atlas_get("F16")
    D = codes.decomposition_from_rank_ones(e.spread_set(), e.decomposition_matrices())
    for slot in (0, 4):
        with pytest.raises(BadSlot):
            codes.codeword_support_check(D, np.array([1, 0, 0, 0], dtype=np.uint8), slot)


def test_mindist_lemma_contraction_rank_at_most_weight():
    # every contraction's rank is bounded by its codeword weight, n <= 3
    rng = np.random.default_rng(7)
    f8 = algebra.field_construct(2, 3)
    pts = algebra.rank_one_elements(2, 3)
    from spreadrank import search

    rank, witness, _ = search.tensor_rank(f8)
    mats = [codec.decode(v, 2, 3) for v in witness]
    D = codes.decomposition_from_rank_ones(f8, mats)
    for slot in (1, 2, 3):
        for _ in range(25):
            f = rng.integers(0, 2, 3).astype(np.uint8)
            codeword, contraction, _ = codes.codeword_support_check(D, f, slot)
            assert gf.mat_rank(contraction, 2) <= int(np.count_nonzero(codeword))


def test_sub_lemma_intersection_property():
    # the spread set meets the span of the first R-k rank ones in dim >= n-k
    for name in ("F16", "S1", "S2", "F81", "GTF81", "I", "V", "X"):
        e = atlas.atlas_get(name)
        mats = e.decomposition_matrices()
        space = e.space()
        q, n, R = e.q, e.n, len(mats)
        for k in range(0, n + 1):
            prefix = mats[: R - k]
            span = algebra.MatSpace.from_matrices(q, n, prefix)
            join_rows = np.concatenate([span.basis, space.basis])
            join_dim = gf.rank(join_rows, q)
            inter_dim = span.dim + space.dim - join_dim
            assert inter_dim >= n - k, (name, k)


def test_maxdim_lemma_on_order4_tensors():
    # min distance of each code is at least
    #   min over nonzero covectors f of max over other slots j of
    #   dim(f applied to the slot-j contraction space)
    rng = np.random.default_rng(11)
    from itertools import product as iproduct

    dims = (2, 2, 3, 3)
    for _ in range(8):
        summands = []
        for _ in range(4):
            vecs = []
            for d in dims:
                v = rng.integers(0, 2, d).astype(np.uint8)
                if not v.any():
                    v[rng.integers(0, d)] = 1
                vecs.append(v)
            summands.append(tuple(vecs))
        D = codes.PureDecomposition(2, dims, tuple(summands))
        T = D.tensor()
        gs = codes.codes_from_decomposition(D)
        for i in range(1, 5):
            d_i = codes.min_distance(gs[i - 1], 2)
            bound = None
            for fvec in iproduct(range(2), repeat=dims[i - 1]):
                f = np.array(fvec, dtype=np.uint8)
                if not f.any():
                    continue
                best = 0
                for j in range(1, 5):
                    if j == i:
                        continue
                    basis = algebra.contraction_space(T, j, 2)
                    if not basis:
                        continue
                    # position of original slot i inside the order-3 tensors
                    pos = i if i < j else i - 1
                    applied = [algebra.contract(b, pos, f, 2) for b in basis]
                    rows = np.stack([a.reshape(-1) for a in applied])
                    best = max(best, gf.rank(rows, 2))
                bound = best if bound is None else min(bound, best)
            if bound and d_i:
                assert d_i >= bound
