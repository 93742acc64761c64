"""Acceptance suite: one test per published-result criterion.

Each test prints a PASS/FAIL line (visible with -s or -rA).  Slow searches
carry the slow marker; the GTF81 exhaustion (about 4 minutes) and the
published order-81 counts additionally require --run-extended.

Where a published intermediate count is representative-dependent (see the
module docstring of spreadrank.search), the default assertions pin this
package's deterministic convention and the comparison against the printed
value lives in the extended tests, flagged rather than silently skipped.
"""

import numpy as np
import pytest

from spreadrank import algebra, atlas, codec, codes, equivalence, gf, search

# Frozen level counts produced by this package's conventions (deterministic;
# see NOTES.md for the comparison against the published tables).
OUR_ORDER16_LEVELS = {
    5: {"spaces": 165, "classes": 19},
    6: {"spaces": 2830, "classes": 236, "survivors": 33},
    7: {"spaces": 4414, "classes": 910, "survivors": 2},
    8: {"spaces": 201, "classes": 23},
}
OUR_F81_LEVELS = {
    5: {"classes": 1},
    6: {"classes": 215},
    7: {"spaces": 317900, "survivors": 2688},
    8: {"spaces": 3584353, "witnesses": 0},
}
OUR_GTF81_LEVELS = {
    5: {"classes": 10},
    6: {"classes": 7722},
    7: {"spaces": 11423400, "survivors": 95520},
    8: {"spaces": 127509714, "witnesses": 0},
}


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Codec goldens
# ---------------------------------------------------------------------------


def test_criterion_1_codec_goldens():
    ok = np.array_equal(codec.decode(33825, 2, 4), np.eye(4, dtype=np.uint8))
    ok &= np.array_equal(codec.decode(14408200, 3, 4), np.eye(4, dtype=np.uint8))
    for name in ("F16", "S1", "S2", "F81", "GTF81"):
        e = atlas.atlas_get(name)
        for grid, enc in zip(e.displayed_basis, e.basis):
            ok &= np.array_equal(atlas._grid_matrix(grid, e.q), codec.decode(enc, e.q, e.n))
        for grid, enc in zip(e.displayed_decomposition, e.decomposition):
            ok &= np.array_equal(atlas._grid_matrix(grid, e.q), codec.decode(enc, e.q, e.n))
    report(1, ok, "codec goldens and displayed-matrix consistency")


# ---------------------------------------------------------------------------
# 2. Decomposition witnesses
# ---------------------------------------------------------------------------


def test_criterion_2_all_witnesses_verify():
    nine = ("F16", "S1", "S2", "F81", "GTF81")
    eight = atlas.EIGHT_MATRIX_NAMES
    ok = True
    for name in nine + eight:
        e = atlas.atlas_get(name)
        verified, reason = search.verify_decomposition(
            e.spread_set(), e.decomposition_matrices()
        )
        ok &= verified
        expected_terms = 9 if name in nine else 8
        ok &= len(e.decomposition) == expected_terms
    report(2, ok, "5 nine-matrix and 10 eight-matrix witnesses verify")


# ---------------------------------------------------------------------------
# 3. Code parameters
# ---------------------------------------------------------------------------


def test_criterion_3_code_parameters():
    ok = True
    for G in (atlas.G1, atlas.G2, atlas.G3):
        ok &= gf.rank(G, 3) == 4
        ok &= codes.min_distance(G, 3) == 4
    ok &= tuple(codes.weight_distribution(atlas.G1, 3)) == atlas.WEIGHT_DIST_G1
    ok &= tuple(codes.weight_distribution(atlas.G2, 3)) == atlas.WEIGHT_DIST_G1
    ok &= tuple(codes.weight_distribution(atlas.G3, 3)) == atlas.WEIGHT_DIST_G3
    ok &= codes.code_equivalent(atlas.G1, atlas.G2, 3)
    ok &= not codes.code_equivalent(atlas.G1, atlas.G3, 3)
    report(3, ok, "G1, G2, G3 are [9,4,4]_3 with the published distributions")


# ---------------------------------------------------------------------------
# 4. Bound suite
# ---------------------------------------------------------------------------


def test_criterion_4_bounds():
    ok = codes.nq_lookup(2, 4, 4) == 8 and codes.nq_lookup(3, 4, 4) == 8
    ok &= codes.code_exists(3, 8, 4, 5) is False
    for name in ("F16", "S1", "S2") + atlas.ORDER81_NAMES:
        e = atlas.atlas_get(name)
        ok &= codes.genbound(e.spread_set().hypercube(), e.q) == 8
    # the code-nonexistence consultation drives the dimension-(2n-1) filter:
    # with an excluded code the filter stays on ([4,2,3]_2 for F4), otherwise
    # it is flagged off ([7,3,4]_2, the simplex code, for F8)
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    on = search.disprove_rank(f4, 4)
    off = search.disprove_rank(algebra.field_construct(2, 3), 7)
    ok &= not any(f.startswith("filter-disabled") for f in on.flags)
    ok &= any(f.startswith("filter-disabled") for f in off.flags)
    report(4, ok, "genbound = 8 on every atlas entry; [8,4,5]_3 excluded")


# ---------------------------------------------------------------------------
# 5. Small exact ranks
# ---------------------------------------------------------------------------


def test_criterion_5_small_ranks():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    rank4, witness4, _ = search.tensor_rank(f4)
    oracle4 = codes.brute_force_tensor_rank(f4.hypercube(), 2, 5)
    # every semifield of order 8 is the field, so one spread set suffices
    f8 = algebra.field_construct(2, 3)
    rank8, witness8, _ = search.tensor_rank(f8)
    ok = rank4 == 3 and oracle4 == 3 and rank8 == 6
    ok &= search.verify_decomposition(f4, [codec.decode(v, 2, 2) for v in witness4])[0]
    ok &= search.verify_decomposition(f8, [codec.decode(v, 2, 3) for v in witness8])[0]
    report(5, ok, f"rank(F4)={rank4} (oracle {oracle4}), rank(F8)={rank8}")


# ---------------------------------------------------------------------------
# 6. Order-16 classification
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_order16_classification():
    rep, classes = search.spread_sets_by_rank(2, 4, 8)
    ok = rep.extra["spread_set_classes"] == 0 and classes == []
    for dim, expect in OUR_ORDER16_LEVELS.items():
        entry = rep.level(dim)
        for key, value in expect.items():
            ok &= entry[key] == value
    # published class counts reproduce exactly; the dim-7 raw count differs
    # (published 4371 vs 4414 here, see NOTES.md), flagged
    published = atlas.ORDER16_COUNTS
    ok &= rep.level(5)["classes"] == published["dim5_classes"]
    ok &= rep.level(6)["classes"] == published["dim6_classes"]
    ok &= rep.level(6)["survivors"] == published["dim6_survivors"]
    ok &= rep.level(7)["classes"] == published["dim7_classes"]
    ok &= rep.level(7)["survivors"] == published["dim7_survivors"]
    ok &= rep.level(8)["classes"] == published["dim8_classes"]
    ok &= rep.level(8)["spaces"] == published["dim8_spaces"]
    flag = ""
    if rep.level(7)["spaces"] != published["dim7_spaces"]:
        flag = (f"[flagged: dim-7 raw {rep.level(7)['spaces']} vs published "
                f"{published['dim7_spaces']}, see NOTES.md]")
    report(6, ok, f"order-16 classes 19/236/33/910/2/23, 0 spread sets {flag}")


@pytest.mark.slow
def test_criterion_6_order16_ranks():
    ok = True
    details = []
    for name in ("F16", "S1", "S2"):
        e = atlas.atlas_get(name)
        rank, witness, _ = search.tensor_rank(e.spread_set())
        verified, _ = search.verify_decomposition(
            e.spread_set(), [codec.decode(v, 2, 4) for v in witness]
        )
        ok &= rank == 9 and verified
        details.append(f"{name}={rank}")
    report(6, ok, "tensor ranks with verified witnesses: " + ", ".join(details))


# ---------------------------------------------------------------------------
# 7. Order-81 rank-8 families
# ---------------------------------------------------------------------------


def test_criterion_7_rank8_families():
    ok = True
    for name in atlas.EIGHT_MATRIX_NAMES:
        e = atlas.atlas_get(name)
        verified, _ = search.verify_decomposition(
            e.spread_set(), e.decomposition_matrices()
        )
        lower = codes.genbound(e.spread_set().hypercube(), 3)
        ok &= verified and lower == 8 and e.expected_rank == 8
    report(7, ok, "families I-VIII, X, XI have rank exactly 8")


# ---------------------------------------------------------------------------
# 8. Order-81 lower bounds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def f81_report():
    f81 = atlas.atlas_get("F81").spread_set()
    return search.disprove_rank(f81, 8)


@pytest.fixture(scope="module")
def gtf_report():
    gtf = atlas.atlas_get("GTF81").spread_set()
    return search.disprove_rank(gtf, 8)


@pytest.mark.slow
def test_criterion_8_f81_exhaustion(f81_report):
    rep = f81_report
    ok = rep.outcome == "exhausted"
    for dim, expect in OUR_F81_LEVELS.items():
        entry = rep.level(dim)
        for key, value in expect.items():
            ok &= entry[key] == value
    published = atlas.F81_DISPROVE_COUNTS
    flags = []
    if rep.level(6)["classes"] != published["dim6_classes"]:
        flags.append(
            f"dim-6 classes {rep.level(6)['classes']} vs published "
            f"{published['dim6_classes']} (engine-dependent, see NOTES.md)"
        )
    if rep.level(7)["spaces"] != published["dim7_spaces"]:
        flags.append(
            f"dim-7 spaces {rep.level(7)['spaces']} vs published "
            f"{published['dim7_spaces']}"
        )
    note = f" [flagged: {'; '.join(flags)}]" if flags else ""
    report(8, ok, f"rank(F81) > 8: exhausted, 0 witnesses{note}")


@pytest.mark.extended
def test_criterion_8_published_f81_counts(f81_report):
    """Literal published intermediate counts.

    The exact-orbit engine proves there are at most 403 classes of
    six-dimensional spaces over the one five-dimensional class (215 under
    the full automorphism group), so the printed 662 cannot be an exact
    equivalence-class count; see NOTES.md for the analysis.
    This assertion is kept faithful to the criterion text and is expected
    to fail.
    """
    rep = f81_report
    published = atlas.F81_DISPROVE_COUNTS
    assert rep.outcome == "exhausted"
    assert rep.level(6)["classes"] == published["dim6_classes"], (
        f"six-dimensional level: {rep.level(6)['classes']} classes under the "
        f"exact engine vs published {published['dim6_classes']}; the printed "
        "count is an artifact of the original partially-merging equivalence "
        "step (NOTES.md: order-81 intermediate counts)"
    )
    assert rep.level(7)["spaces"] == published["dim7_spaces"]
    assert rep.level(7)["survivors"] == published["dim7_survivors"]


@pytest.mark.extended
def test_criterion_8_gtf81_exhaustion(gtf_report):
    rep = gtf_report
    ok = rep.outcome == "exhausted"
    ok &= rep.level(5)["classes"] == atlas.GTF81_DISPROVE_COUNTS["dim5_classes"]
    for dim, expect in OUR_GTF81_LEVELS.items():
        entry = rep.level(dim)
        for key, value in expect.items():
            ok &= entry[key] == value
    report(8, ok, "rank(GTF81) > 8: exhausted, 0 witnesses")


@pytest.mark.extended
def test_criterion_8_published_gtf81_counts(gtf_report):
    """Literal published intermediate counts (expected to fail; see NOTES.md)."""
    rep = gtf_report
    published = atlas.GTF81_DISPROVE_COUNTS
    assert rep.outcome == "exhausted"
    assert rep.level(6)["classes"] == published["dim6_spaces"]
    assert rep.level(7)["spaces"] == published["dim7_spaces"]
    assert rep.level(7)["survivors"] == published["dim7_survivors"]
    assert rep.level(8)["spaces"] == published["dim8_spaces"]


# ---------------------------------------------------------------------------
# 9. Property suites (always on)
# ---------------------------------------------------------------------------


def test_criterion_9_properties():
    rng = np.random.default_rng(99)
    ok = True

    # equivalence-class determinism under permutation
    spaces = []
    for _ in range(4):
        mats = [np.eye(4, dtype=np.uint8)] + [
            rng.integers(0, 2, (4, 4)).astype(np.uint8) for _ in range(2)
        ]
        s = algebra.MatSpace.from_matrices(2, 4, mats)
        A = B = None
        while True:
            A = rng.integers(0, 2, (4, 4)).astype(np.uint8)
            B = rng.integers(0, 2, (4, 4)).astype(np.uint8)
            if gf.mat_det(A, 2) and gf.mat_det(B, 2):
                break
        spaces += [s, equivalence.act(equivalence.Isotopism(A, B, 2), s)]
    reps_a = equivalence.equivalence_classes(spaces)
    shuffled = list(spaces)
    rng.shuffle(shuffled)
    reps_b = equivalence.equivalence_classes(shuffled)
    ok &= [r.key for r in reps_a] == [r.key for r in reps_b]

    # fingerprint invariance over 1000 random actions
    for _ in range(1000):
        q = int(rng.choice([2, 3]))
        mats = [np.eye(4, dtype=np.uint8)] + [
            rng.integers(0, q, (4, 4)).astype(np.uint8) for _ in range(2)
        ]
        s = algebra.MatSpace.from_matrices(q, 4, mats)
        while True:
            A = rng.integers(0, q, (4, 4)).astype(np.uint8)
            B = rng.integers(0, q, (4, 4)).astype(np.uint8)
            if gf.mat_det(A, q) and gf.mat_det(B, q):
                break
        moved = equivalence.act(equivalence.Isotopism(A, B, q), s)
        ok &= (
            equivalence.space_data(s).fingerprint
            == equivalence.space_data(moved).fingerprint
        )

    # subspace-intersection property on every verified decomposition
    for name in atlas.atlas_list():
        e = atlas.atlas_get(name)
        mats = e.decomposition_matrices()
        space = e.space()
        R = len(mats)
        for k in range(0, e.n + 1):
            span = algebra.MatSpace.from_matrices(e.q, e.n, mats[: R - k])
            join = gf.rank(np.concatenate([span.basis, space.basis]), e.q)
            ok &= span.dim + space.dim - join >= e.n - k

    # contraction rank bounded by codeword weight at q = 2, n <= 3
    f8 = algebra.field_construct(2, 3)
    _, witness, _ = search.tensor_rank(f8)
    D = codes.decomposition_from_rank_ones(
        f8, [codec.decode(v, 2, 3) for v in witness]
    )
    for slot in (1, 2, 3):
        for _ in range(30):
            f = rng.integers(0, 2, 3).astype(np.uint8)
            cw, contraction, _ = codes.codeword_support_check(D, f, slot)
            ok &= gf.mat_rank(contraction, 2) <= int(np.count_nonzero(cw))

    # automorphism group of C_F4 and rank-one orbit struct
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    aut = equivalence.automorphism_group(f4.space)
    orbits = equivalence.rank_one_orbits(aut)
    ok &= aut.order == 18 and [s for _, s in orbits] == [9]

    # rank-one counts
    ok &= len(algebra.rank_one_elements(2, 4)) == 225
    ok &= len(algebra.rank_one_elements(3, 4)) == 3200

    report(9, ok, "determinism, invariance, and lemma property suites")
