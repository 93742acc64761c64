import numpy as np
import pytest

from spreadrank import algebra, atlas, equivalence, gf, search
from spreadrank.errors import BadParameters, NotContained, NotInvertible


def random_invertible(rng, q, n):
    while True:
        M = rng.integers(0, q, (n, n)).astype(np.uint8)
        if gf.mat_det(M, q) != 0:
            return M


def random_space_with_identity(rng, q, n, extra):
    mats = [np.eye(n, dtype=np.uint8)]
    mats += [rng.integers(0, q, (n, n)).astype(np.uint8) for _ in range(extra)]
    return algebra.MatSpace.from_matrices(q, n, mats)


def random_isotopism(rng, q, n):
    return equivalence.Isotopism(
        random_invertible(rng, q, n), random_invertible(rng, q, n), q
    )


# ---------------------------------------------------------------------------
# Action
# ---------------------------------------------------------------------------


def test_act_identity():
    space = algebra.field_construct(2, 4).space
    ident = np.eye(4, dtype=np.uint8)
    assert equivalence.act(equivalence.Isotopism(ident, ident, 2), space) == space


def test_act_preserves_nonsingularity_and_inverts():
    rng = np.random.default_rng(0)
    space = algebra.field_construct(2, 4).space
    for _ in range(10):
        g = random_isotopism(rng, 2, 4)
        moved = equivalence.act(g, space)
        assert algebra.is_nonsingular(moved)
        assert equivalence.act(g.inverse(), moved) == space


def test_isotopism_rejects_singular():
    with pytest.raises(NotInvertible):
        equivalence.Isotopism(
            np.zeros((2, 2), dtype=np.uint8), np.eye(2, dtype=np.uint8), 2
        )


# ---------------------------------------------------------------------------
# Equivalence testing
# ---------------------------------------------------------------------------


def test_are_equivalent_round_trip():
    rng = np.random.default_rng(1)
    for q in (2, 3):
        for trial in range(5):
            space = random_space_with_identity(rng, q, 4, 3)
            g = random_isotopism(rng, q, 4)
            moved = equivalence.act(g, space)
            witness = equivalence.are_equivalent(space, moved)
            assert witness is not None
            assert equivalence.act(witness, space) == moved


def test_atlas_spread_sets_inequivalent():
    from spreadrank import atlas

    f16 = atlas.atlas_get("F16").space()
    s1 = atlas.atlas_get("S1").space()
    s2 = atlas.atlas_get("S2").space()
    assert equivalence.are_equivalent(f16, s1) is None
    assert equivalence.are_equivalent(f16, s2) is None
    assert equivalence.are_equivalent(s1, s2) is None


def test_f81_vs_gtf81_inequivalent():
    from spreadrank import atlas

    f81 = atlas.atlas_get("F81").space()
    gtf = atlas.atlas_get("GTF81").space()
    assert equivalence.are_equivalent(f81, gtf) is None


def test_fingerprint_invariance():
    rng = np.random.default_rng(2)
    trials = 0
    for _ in range(200):
        q = int(rng.choice([2, 3]))
        space = random_space_with_identity(rng, q, 4, int(rng.integers(2, 4)))
        g = random_isotopism(rng, q, 4)
        moved = equivalence.act(g, space)
        fp1 = equivalence.space_data(space).fingerprint
        fp2 = equivalence.space_data(moved).fingerprint
        assert fp1 == fp2
        trials += 1
    assert trials == 200


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_equivalence_classes_merges_and_separates():
    rng = np.random.default_rng(3)
    s = random_space_with_identity(rng, 2, 4, 2)
    g = random_isotopism(rng, 2, 4)
    other = random_space_with_identity(rng, 2, 4, 3)
    while equivalence.are_equivalent(s, other) is not None:
        other = random_space_with_identity(rng, 2, 4, 3)
    reps = equivalence.equivalence_classes([s, equivalence.act(g, s), other])
    assert len(reps) == 2


def test_equivalence_classes_deterministic_under_permutation():
    rng = np.random.default_rng(4)
    spaces = []
    for _ in range(6):
        s = random_space_with_identity(rng, 2, 4, 2)
        g = random_isotopism(rng, 2, 4)
        spaces += [s, equivalence.act(g, s)]
    reps1 = equivalence.equivalence_classes(spaces)
    shuffled = list(spaces)
    rng.shuffle(shuffled)
    reps2 = equivalence.equivalence_classes(shuffled)
    assert [r.key for r in reps1] == [r.key for r in reps2]


def test_equivalence_classes_worker_invariance():
    rng = np.random.default_rng(5)
    spaces = []
    for _ in range(5):
        s = random_space_with_identity(rng, 2, 4, 2)
        g = random_isotopism(rng, 2, 4)
        spaces += [s, equivalence.act(g, s)]
    reps1 = equivalence.equivalence_classes(spaces, workers=1)
    reps2 = equivalence.equivalence_classes(spaces, workers=2)
    assert [r.key for r in reps1] == [r.key for r in reps2]


def test_equivalence_classes_under_subgroup():
    # orbits under an explicit subgroup, not the full group
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    aut = equivalence.automorphism_group(f4.space)
    pts = [m for m in algebra.rank_one_elements(2, 2)]
    spaces = [f4.space.extend(p) for p in pts]
    reps = equivalence.equivalence_classes(spaces, group=aut)
    # all rank-one extensions of the F4 spread set are equivalent under Aut
    assert len(reps) == 1


# ---------------------------------------------------------------------------
# Stabilizers
# ---------------------------------------------------------------------------


def test_automorphism_group_f4_order_18():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    aut = equivalence.automorphism_group(f4.space)
    assert aut.order == 18
    # brute-force agreement over all 36 pairs in GL2(2)^2
    brute = equivalence._brute_force_stabilizer(f4.space)
    assert brute.order == 18
    keys = {a.tobytes() + b.tobytes() for a, b in zip(aut.A, aut.B)}
    keys_b = {a.tobytes() + b.tobytes() for a, b in zip(brute.A, brute.B)}
    assert keys == keys_b


def test_automorphism_group_elements_fix_space():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    aut = equivalence.automorphism_group(f4.space)
    for iso in aut.isotopisms():
        assert equivalence.act(iso, f4.space) == f4.space


def test_automorphism_group_f8_order():
    f8 = algebra.field_construct(2, 3)
    aut = equivalence.automorphism_group(f8.space)
    # n (q^n - 1)^2 = 3 * 49^2 / 7^0 ... the field group is {(a x^{2^i}, b x^{2^{3-i}})}
    assert aut.order == 3 * 49
    orbits = equivalence.rank_one_orbits(aut, 2, 3)
    assert [size for _, size in orbits] == [49]


def test_automorphism_group_f16_order_900():
    f16 = algebra.field_construct(2, 4)
    aut = equivalence.automorphism_group(f16.space)
    assert aut.order == 900
    assert aut.order % (2**4 - 1) ** 2 == 0 or aut.order >= (2**4 - 1) ** 2


def test_rank_one_orbits_transitive_for_field():
    f16 = algebra.field_construct(2, 4)
    aut = equivalence.automorphism_group(f16.space)
    orbits = equivalence.rank_one_orbits(aut, 2, 4)
    assert [size for _, size in orbits] == [225]


def test_rank_one_orbits_trivial_group():
    trivial = equivalence.StabilizerGroup.trivial(2, 2)
    orbits = equivalence.rank_one_orbits(trivial, 2, 2)
    assert len(orbits) == 9
    assert all(size == 1 for _, size in orbits)
    # without the scalar pairs (I, lambda I), the scalar multiples of a
    # rank-one matrix lie in different orbits
    orbits = equivalence.rank_one_orbits(equivalence.StabilizerGroup.trivial(3, 2), 3, 2)
    assert len(orbits) == 32
    assert all(size == 1 for _, size in orbits)


def test_stabilizer_of_space_subgroup():
    f16 = algebra.field_construct(2, 4)
    aut = equivalence.automorphism_group(f16.space)
    pts = algebra.rank_one_elements(2, 4)
    sub = f16.space.extend(pts[0])
    stab = aut.stabilizer_of_space(sub)
    assert 1 <= stab.order < aut.order
    assert aut.order % stab.order == 0
    for iso in stab.isotopisms():
        assert equivalence.act(iso, sub) == sub
        assert equivalence.act(iso, f16.space) == f16.space


def test_order_divides_gl_squared():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    aut = equivalence.automorphism_group(f4.space)
    gl2 = 6
    assert (gl2 * gl2) % aut.order == 0


# ---------------------------------------------------------------------------
# Point-table action against the matrix action it replaces
# ---------------------------------------------------------------------------


def rref_orbit_key(space, group):
    """Oracle orbit key: least RREF of the basis images over the group."""
    images = equivalence._act_arrays(group.A, group.B, space.basis, space.q)
    reduced, _ = gf.rref_batch(images, space.q)
    return min(img.tobytes() for img in reduced)


def partition(spaces, key):
    classes = {}
    for s in spaces:
        classes.setdefault(key(s), set()).add(s.key)
    return sorted(sorted(members) for members in classes.values())


def children(parent):
    pts = search.points_for(parent.q, parent.n)
    ext = search.extension_groups(parent, pts)
    return [parent.extend(pts.flat[i]) for i in ext.group_reps]


def assert_same_partition(spaces, group):
    classes = partition(spaces, lambda s: rref_orbit_key(s, group))
    assert partition(spaces, lambda s: equivalence._orbit_canonical_key(s, group)) == classes
    return len(classes)


def test_point_key_partitions_like_rref_key_f16():
    f16 = atlas.atlas_get("F16").space()
    aut = equivalence.automorphism_group(f16)
    dim5 = children(f16)
    assert assert_same_partition(dim5, aut) == 1
    dim6 = children(equivalence.equivalence_classes(dim5, group=aut)[0])
    assert assert_same_partition(dim6, aut) == 32


def test_point_key_partitions_like_rref_key_s1_sample():
    rng = np.random.default_rng(6)
    s1 = atlas.atlas_get("S1").space()
    aut = equivalence.automorphism_group(s1)
    reps5 = equivalence.equivalence_classes(children(s1), group=aut)
    dim6 = [c for rep in reps5 for c in children(rep)]
    sample = [dim6[i] for i in rng.choice(len(dim6), 150, replace=False)]
    # images under random automorphisms make sure that classes merge
    isos = aut.isotopisms()
    sample += [equivalence.act(isos[rng.integers(aut.order)], s) for s in sample[:50]]
    assert assert_same_partition(sample, aut) < len({s.key for s in sample})


def field_cases():
    """(group, parent) pairs: an automorphism group on its own space and
    the stabilizer of a child on that child; q = 3 has scalar pairs."""
    for q, n in ((2, 4), (3, 3)):
        space = algebra.field_construct(q, n).space
        aut = equivalence.automorphism_group(space)
        yield aut, space
        child = children(space)[3]
        yield aut.stabilizer_of_space(child), child


def brute_point_orbit_reps(group, ext, pts):
    """Orbit representatives from the matrix images of every child's point
    under every group element."""
    child_of = {}
    for child_no, members in enumerate(ext.group_members):
        for p in members:
            child_of[pts.flat[p].astype(np.uint8).tobytes()] = child_no
    reps = set()
    for point in ext.group_reps:
        moved = equivalence._act_arrays(group.A, group.B, pts.flat[point], pts.q)
        rows = search._normalize_rows(moved[:, 0], pts.q).astype(np.uint8)
        orbit = {child_of[row.tobytes()] for row in rows}
        reps.add(ext.group_reps[min(orbit)])
    return sorted(reps)


def test_point_orbit_reps_match_brute_scan():
    for group, parent in field_cases():
        pts = search.points_for(parent.q, parent.n)
        ext = search.extension_groups(parent, pts)
        reps = search._point_orbit_reps(group, ext, pts)
        assert reps == brute_point_orbit_reps(group, ext, pts)
        assert len(reps) < len(ext.group_reps)


def test_stabilizer_of_space_matches_brute_scan():
    for group, parent in field_cases():
        for child in children(parent)[:2]:
            stab = group.stabilizer_of_space(child)
            keep = [equivalence.act(g, child) == child for g in group.isotopisms()]
            assert np.array_equal(stab.A, group.A[keep])
            assert np.array_equal(stab.B, group.B[keep])
            fresh = equivalence.StabilizerGroup(stab.q, stab.n, stab.A, stab.B)
            for sliced, built in zip(stab.point_tables(), fresh.point_tables()):
                assert np.array_equal(sliced, built)


def test_point_action_requires_group_space_plus_rank_one_span():
    f16 = atlas.atlas_get("F16").space()
    aut = equivalence.automorphism_group(f16)
    pts = search.points_for(2, 4)
    without_f16 = algebra.MatSpace.from_rows(2, 4, pts.flat[:1])
    # F16 plus a matrix that brings in no rank-one point
    rng = np.random.default_rng(7)
    while True:
        extra = f16.extend(rng.integers(0, 2, 16))
        if extra.dim == 5 and not extra.contains_batch(pts.flat).any():
            break
    for bad in (without_f16, extra):
        with pytest.raises(BadParameters):
            equivalence._orbit_canonical_key(bad, aut)
        with pytest.raises(BadParameters):
            aut.stabilizer_of_space(bad)
        with pytest.raises(BadParameters):
            equivalence.equivalence_classes([bad], group=aut)


# ---------------------------------------------------------------------------
# Checks that guard results raise, so that python -O keeps them
# ---------------------------------------------------------------------------


def test_unital_generators_rejects_space_without_identity():
    space = algebra.MatSpace.from_rows(2, 2, np.array([[0, 1, 1, 0]]))
    with pytest.raises(NotContained):
        equivalence._unital_generators(space)


def test_are_equivalent_rejects_false_witness(monkeypatch):
    rng = np.random.default_rng(8)
    space = random_space_with_identity(rng, 2, 4, 2)
    moved = equivalence.act(random_isotopism(rng, 2, 4), space)
    assert moved != space
    monkeypatch.setattr(equivalence, "act", lambda g, s: s)
    with pytest.raises(NotContained):
        equivalence.are_equivalent(space, moved)
