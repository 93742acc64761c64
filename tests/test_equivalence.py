from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spreadrank import algebra, atlas, codec, equivalence, gf, search
from spreadrank.errors import (
    BadParameters,
    NotContained,
    NotInvertible,
    TooLarge,
)


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
    orbits = equivalence.rank_one_orbits(aut)
    assert [size for _, size in orbits] == [49]


def test_automorphism_group_f16_order_900():
    f16 = algebra.field_construct(2, 4)
    aut = equivalence.automorphism_group(f16.space)
    assert aut.order == 900
    assert aut.order % (2**4 - 1) ** 2 == 0 or aut.order >= (2**4 - 1) ** 2


def test_rank_one_orbits_transitive_for_field():
    f16 = algebra.field_construct(2, 4)
    aut = equivalence.automorphism_group(f16.space)
    orbits = equivalence.rank_one_orbits(aut)
    assert [size for _, size in orbits] == [225]


def test_rank_one_orbits_trivial_group():
    trivial = equivalence.StabilizerGroup.trivial(2, 2)
    orbits = equivalence.rank_one_orbits(trivial)
    assert len(orbits) == 9
    assert all(size == 1 for _, size in orbits)
    # without the scalar pairs (I, lambda I), the scalar multiples of a
    # rank-one matrix lie in different orbits
    orbits = equivalence.rank_one_orbits(equivalence.StabilizerGroup.trivial(3, 2))
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
    ext = search.extension_groups([parent], pts)
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
    under every group element; ext groups the children of one parent."""
    child_of = {}
    for p, child_no in enumerate(ext.child[0]):
        if child_no >= 0:
            child_of[pts.flat[p].astype(np.uint8).tobytes()] = child_no
    reps = set()
    for point in ext.group_reps:
        moved = equivalence._act_arrays(group.A, group.B, pts.flat[point], pts.q)
        rows = moved[:, 0].astype(np.int64) % pts.q
        lead = gf.leading_coeff(rows, pts.q)
        rows = ((rows * gf.inv_table(pts.q)[lead][:, None]) % pts.q).astype(np.uint8)
        orbit = {child_of[row.tobytes()] for row in rows}
        reps.add(ext.group_reps[min(orbit)])
    return sorted(reps)


def test_point_orbit_reps_match_brute_scan():
    for group, parent in field_cases():
        pts = search.points_for(parent.q, parent.n)
        ext = search.extension_groups([parent], pts)
        reps = search._point_orbit_reps(group, ext, 0)
        assert reps == brute_point_orbit_reps(group, ext, pts)
        assert len(reps) < len(ext.group_reps)


def test_stabilizer_of_space_matches_brute_scan():
    for group, parent in field_cases():
        for child in children(parent)[:2]:
            stab = group.stabilizer_of_space(child)
            keep = [equivalence.act(g, child) == child for g in group.isotopisms()]
            assert np.array_equal(stab.A, group.A[keep])
            assert np.array_equal(stab.B, group.B[keep])
            fresh = equivalence.StabilizerGroup.of_elements(stab.q, stab.n, stab.A, stab.B)
            per_row = stab.order // len(stab.tables[0])  # each row's unit multiples act alike
            for sliced, built in zip(stab.tables, fresh.tables):
                assert np.array_equal(np.repeat(sliced, per_row, axis=0), built)


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
    # given member lists are checked too: extra has no rank-one point, and
    # the F16 plus one point of a dim-6 space span only dim 5
    point = int(np.nonzero(~f16.contains_batch(pts.flat))[0][0])
    wide = f16.extend(pts.flat[point]).extend(rng.integers(0, 2, 16))
    for bad, members in ((extra, np.zeros((1, 0), dtype=np.int64)), (wide, np.array([[point]]))):
        with pytest.raises(BadParameters):
            equivalence.orbit_keys(members, aut, [bad.dim])
        with pytest.raises(BadParameters):
            aut.stabilizer_of_space(bad, members[0])
        with pytest.raises(BadParameters):
            equivalence.equivalence_classes([bad], group=aut, members=members)


# ---------------------------------------------------------------------------
# Orbit keys from member lists against the per-space key they replaced
# ---------------------------------------------------------------------------


def oracle_rank_one_points_inside(space, group):
    """Sorted indices (into points_for) of the rank-one points in the space.

    They determine the space only when it is group.space plus their span,
    so that is checked: for such spaces, g maps V onto V' iff it maps the
    points of V onto those of V', since g fixes group.space.
    """
    pts = search.points_for(space.q, space.n)
    inside = np.nonzero(space.contains_batch(pts.flat))[0]
    rows = pts.flat[inside]
    if group.space is not None:
        if not space.contains_space(group.space):
            raise BadParameters("space does not contain the group's space")
        rows = np.concatenate([group.space.basis, rows])
    if gf.rank(rows, space.q) != space.dim:
        raise BadParameters("space is not the group's space plus its rank-one points")
    return inside


def oracle_orbit_canonical_key(space, group):
    """Least sorted image, over the group, of the space's rank-one points."""
    images = np.sort(group.point_images(oracle_rank_one_points_inside(space, group)), axis=1)
    for col in range(images.shape[1]):
        images = images[images[:, col] == images[:, col].min()]
    return images[0].tobytes()


def member_lists(members, npts):
    """The rows of a member array, each sorted and without its padding."""
    return [np.sort(row[row < npts]).tolist() for row in members]


def classified_inputs(monkeypatch, space, R):
    """(spaces, group, members) of each equivalence_classes call of the
    classified levels of disprove_rank(space, R), diagonal probe off."""
    calls = []
    classes = search.equivalence_classes

    def recording(spaces, group=None, members=None):
        calls.append((list(spaces), group, members))
        return classes(spaces, group=group, members=members)

    monkeypatch.setattr(search, "_diag_probe", lambda space, R, pts: None)
    monkeypatch.setattr(search, "equivalence_classes", recording)
    search.disprove_rank(space, R)
    monkeypatch.undo()
    return calls


def test_orbit_keys_of_spaces_without_rank_one_points(monkeypatch):
    # one space a pass, so that a pass holds only a space without members
    monkeypatch.setattr(equivalence, "_ORBIT_KEY_ROWS", 1)
    group = equivalence.StabilizerGroup.trivial(2, 2)
    zero = algebra.MatSpace.from_rows(2, 2, np.zeros((0, 4), dtype=np.uint8))
    one = algebra.MatSpace.from_rows(2, 2, search.points_for(2, 2).flat[:1])
    members = equivalence._points_inside([zero, one, zero], group)
    keys = equivalence.orbit_keys(members, group, [0, 1, 0])
    assert keys == [b"", oracle_orbit_canonical_key(one, group), b""]


@pytest.mark.parametrize("name, R, seed", [("F16", 8, None), ("S1", 8, None), ("S2", 8, None),
                                           ("F81", 7, None), ("F81", 7, 1), ("F81", 7, 2)])
def test_orbit_keys_match_per_space_oracle_on_classified_levels(monkeypatch, name, R, seed):
    # every input of every classified level, on the atlas presentation and
    # on two seeded isotopic images of F81
    space = atlas.atlas_get(name).space()
    if seed is not None:
        rng = np.random.default_rng(seed)
        moved = equivalence.Isotopism(random_invertible(rng, 3, 4), random_invertible(rng, 3, 4), 3)
        space = equivalence.act(moved, space)
    calls = classified_inputs(monkeypatch, space, R)
    assert [len(spaces) > 0 for spaces, _, _ in calls] == [True, True]
    for spaces, group, members in calls:
        npts = len(search.points_for(group.q, group.n))
        inside = [oracle_rank_one_points_inside(s, group).tolist() for s in spaces]
        assert member_lists(members, npts) == inside  # the kernel's lists are the containment lists
        keys = equivalence.orbit_keys(members, group, [s.dim for s in spaces])
        assert keys == [oracle_orbit_canonical_key(s, group) for s in spaces]
        with monkeypatch.context() as patch:  # a few spaces a pass
            patch.setattr(equivalence, "_ORBIT_KEY_ROWS", 100)
            assert equivalence.orbit_keys(members, group, [s.dim for s in spaces]) == keys
        assert [equivalence._orbit_canonical_key(s, group) for s in spaces[:20]] == keys[:20]
        for s, row in list(zip(spaces, members))[:5]:
            with_members, found = group.stabilizer_of_space(s, row), group.stabilizer_of_space(s)
            assert np.array_equal(with_members.A, found.A) and np.array_equal(with_members.B, found.B)


def test_orbit_keys_under_a_group_with_several_point_orbits():
    # Aut(GTF81) has 160 rows (640 elements) and 10 orbits on the 1,600
    # points, so the rows sending a point to the least of a later orbit sit
    # past the first orbit's column
    space = atlas.atlas_get("GTF81").space()
    group = equivalence.automorphism_group(space)
    flat = search.points_for(3, 4).flat
    spaces = [space.extend(point) for point in flat[::5]]
    members = equivalence._points_inside(spaces, group)
    keys = equivalence.orbit_keys(members, group, [s.dim for s in spaces])
    assert keys == [oracle_orbit_canonical_key(s, group) for s in spaces]
    assert len(set(keys)) == 10


# ---------------------------------------------------------------------------
# The nullspace-intersection conjugacy search, the oracle of _conjugators
# ---------------------------------------------------------------------------


def right_translate(space, m_inv):
    """The space S m^-1, given the inverse of m."""
    n = space.n
    rows = space.basis.reshape(-1, n, n).astype(np.int64) @ m_inv.astype(np.int64) % space.q
    return algebra.MatSpace.from_rows(space.q, n, rows.reshape(-1, n * n))


def unital_generators(space):
    """Basis of the space of the form [I, g2, .., gk], as [g2, .., gk]."""
    n = space.n
    ident = np.eye(n, dtype=np.int64).reshape(-1)
    coeffs = gf.solve(space.basis.T, ident, space.q)
    if coeffs is None:
        raise NotContained("space does not contain the identity")
    pivot = int(np.nonzero(coeffs)[0][0])
    gens = [space.basis[i] for i in range(space.dim) if i != pivot]
    return [g.reshape(n, n).astype(np.int64) for g in gens]


def constraint_matrix(g, W, q, n):
    """Matrix of A -> A g - W A acting on row-major flattened A.

    Entry [(i, j), (k, l)] is [i = k] g[l, j] - W[i, k] [j = l].
    """
    eye = np.eye(n, dtype=np.int64)
    C = (
        eye[:, None, :, None] * g.T[None, :, None, :]
        - W[:, None, :, None] * eye[None, :, None, :]
    )
    return C.reshape(n * n, n * n) % q


def intersect(basis, C, q):
    """Intersect span(basis rows) with the nullspace of C (acting on columns)."""
    if basis.shape[0] == 0:
        return basis
    proj = (C @ basis.T.astype(np.int64)) % q
    null = gf.nullspace(proj, q)
    if null.shape[0] == 0:
        return basis[:0]
    return (null.astype(np.int64) @ basis.astype(np.int64)) % q


def oracle_conjugating(cands, u_mats, V_space, q):
    """The candidates A of a (B, n, n) stack with A U A^-1 in V_space for
    every U in u_mats, in input order: one rank batch, then one inverse and
    one membership test per candidate, as a (k, n, n) uint8 stack."""
    n = cands.shape[-1]
    good = []
    invertible = gf.rank_batch(cands, q) == n
    for A, ok in zip(cands, invertible):
        if not ok:
            continue
        A = A.astype(np.int64)
        A_inv = gf.mat_inverse(A, q).astype(np.int64)
        images = np.stack([(A @ bm @ A_inv) % q for bm in u_mats])
        if V_space.contains_batch(images.reshape(len(u_mats), -1)).all():
            good.append(A.astype(np.uint8))
    return np.array(good, dtype=np.uint8).reshape(-1, n, n)


def oracle_conjugators(dataU, dataV, find_all):
    """Oracle: invertible A with A U A^-1 = V, as a (k, n, n) uint8 stack,
    all of them with find_all, else at most the first, for unital spaces of
    one dimension.  Each generator of U is sent to an element of V with its
    charpoly (fewest choices first); each guess is a linear constraint on A,
    so the search intersects nullspaces and scans the last small solution
    space (TooLarge past _ENUMERATE_CAP candidates)."""
    q, n = dataU.q, dataU.n
    gens = unital_generators(dataU.space)
    if not gens and not find_all:
        return np.eye(n, dtype=np.uint8)[None]
    v_mats = dataV.elems.reshape(-1, n, n).astype(np.int64)
    v_ids = gf.charpoly_ids(dataV.elems.reshape(-1, dataV.n, dataV.n), dataV.q)
    if gens:
        gen_ids = gf.charpoly_ids(np.stack(gens), q)
        by_count = sorted(range(len(gens)), key=lambda i: int((v_ids == gen_ids[i]).sum()))
        gens, gen_ids = [gens[i] for i in by_count], gen_ids[by_count]
    u_mats = dataU.space.basis.reshape(-1, n, n).astype(np.int64)
    empty = np.zeros((0, n, n), dtype=np.uint8)

    def search(idx, basis):
        """Conjugators in span(basis), guessing images of gens[idx:] in V."""
        d = basis.shape[0]
        if d == 0:
            return empty
        if idx == len(gens) or q**d <= 256:
            if q**d > equivalence._ENUMERATE_CAP:
                raise TooLarge(f"conjugacy solution space q^{d} too large to scan")
            cands = (gf.coefficient_grid(q, d)[1:] @ basis.astype(np.int64)) % q
            found = oracle_conjugating(cands.reshape(-1, n, n), u_mats, dataV.space, q)
            return found if find_all else found[:1]
        found = []
        for wi in np.nonzero(v_ids == gen_ids[idx])[0]:
            sub = search(idx + 1, intersect(basis, constraint_matrix(gens[idx], v_mats[wi], q, n), q))
            if len(sub) and not find_all:
                return sub
            found.append(sub)
        return np.concatenate(found) if found else empty

    return search(0, np.eye(n * n, dtype=np.uint8))


def test_unital_generators_rejects_space_without_identity():
    space = algebra.MatSpace.from_rows(2, 2, np.array([[0, 1, 1, 0]]))
    with pytest.raises(NotContained):
        unital_generators(space)


def kron_constraint_matrix(g, W, q, n):
    """Oracle: the matrix of A -> A g - W A from Kronecker products."""
    eye = np.eye(n, dtype=np.int64)
    return (np.kron(eye, g.T) - np.kron(W, eye)) % q


@pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (3, 4)])
def test_constraint_matrix_matches_kron(q, n):
    rng = np.random.default_rng(10 * q + n)
    for _ in range(20):
        g = rng.integers(0, q, (n, n)).astype(np.int64)
        W = rng.integers(0, q, (n, n)).astype(np.int64)
        fast = constraint_matrix(g, W, q, n)
        slow = kron_constraint_matrix(g, W, q, n)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()


def oracle_automorphism_group(space, x_idx):
    """Oracle: the automorphism group anchored on element x_idx, with every
    conjugator found by its own find-all search per image y, one
    mat_inverse per anchor, y and conjugator and one B per (conjugator,
    unit), as uint8 (A, B) stacks."""
    q, n = space.q, space.n
    data = equivalence.space_data(space)
    mats = data.elems.reshape(-1, n, n)
    _, per_y = data.division_data
    cpm_x = {yi: k for k, yi, _ in per_y}[x_idx]
    x1 = mats[x_idx].astype(np.int64)
    dataU = equivalence.space_data(right_translate(space, gf.mat_inverse(x1, q)))
    pairs_A, pairs_B = [], []
    for cpm2, y_idx, _ in per_y:
        if cpm2 != cpm_x:
            continue
        y = mats[y_idx].astype(np.int64)
        dataV = equivalence.space_data(right_translate(space, gf.mat_inverse(y, q)))
        for A in oracle_conjugators(dataU, dataV, find_all=True):
            base = gf.mat_inverse((A.astype(np.int64) @ x1) % q, q).astype(np.int64)
            for lam in range(1, q):
                pairs_A.append(A)
                pairs_B.append(((base * lam % q) @ y % q).astype(np.uint8))
    return tuple(np.array(pairs, dtype=np.uint8).reshape(-1, n, n) for pairs in (pairs_A, pairs_B))


def oracle_anchor(d1, d2):
    """(cpm key, index) of the anchor of S1: the projective invertible
    element whose cpm key is rarest in S2, least index on ties."""
    count2 = Counter(k for k, _, _ in d2.division_data[1])
    cpm1, x_idx, _ = min(d1.division_data[1], key=lambda item: (count2[item[0]], item[1]))
    return cpm1, x_idx


def oracle_are_equivalent(s1, s2):
    """Oracle: the anchor loop over the conjugacy search, for spaces that
    hold invertible elements: the anchor of S1 is the element whose cpm key
    is rarest in S2, least index on ties, and the witness is the first
    conjugator's (A, (A x)^-1 y), with one mat_inverse per y and one mat_mul
    per witness, or None."""
    q, n = s1.q, s1.n
    if s1.dim != s2.dim:
        return None
    d1, d2 = equivalence.space_data(s1), equivalence.space_data(s2)
    _, per_y2 = d2.division_data
    cpm1, x_idx = oracle_anchor(d1, d2)
    mats1 = d1.elems.reshape(-1, n, n)
    mats2 = d2.elems.reshape(-1, n, n)
    x1 = mats1[x_idx].astype(np.int64)
    dataU = equivalence.space_data(right_translate(s1, gf.mat_inverse(x1, q)))
    for cpm2, y_idx, _ in per_y2:
        if cpm2 != cpm1:
            continue
        y = mats2[y_idx].astype(np.int64)
        dataV = equivalence.space_data(right_translate(s2, gf.mat_inverse(y, q)))
        for A in oracle_conjugators(dataU, dataV, find_all=False):
            B = gf.mat_mul(gf.mat_inverse((A.astype(np.int64) @ x1) % q, q), y, q)
            return equivalence.Isotopism(A, B, q)
    return None


# ---------------------------------------------------------------------------
# Checks that guard results raise, so that python -O keeps them
# ---------------------------------------------------------------------------


def test_are_equivalent_rejects_false_witness(monkeypatch):
    rng = np.random.default_rng(8)
    space = random_space_with_identity(rng, 2, 4, 2)
    moved = equivalence.act(random_isotopism(rng, 2, 4), space)
    assert moved != space
    monkeypatch.setattr(equivalence, "act", lambda g, s: s)
    with pytest.raises(NotContained):
        equivalence.are_equivalent(space, moved)


# ---------------------------------------------------------------------------
# The q = 2 code table's charpoly ids against the kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, sample", [(3, None), (4, 3000)], ids=["all-3x3", "sample-4x4"])
def test_charpoly_table_ids_equal_kernel_ids(monkeypatch, n, sample):
    # one charpoly id: the q = 2 code table is a precomputed copy of the kernel's
    mats = gf.coefficient_grid(2, n * n).astype(np.uint8).reshape(-1, n, n)
    if sample:
        mats = mats[np.random.default_rng(n).choice(len(mats), sample, replace=False)]
    kernel_ids = codec.encode_rows(gf.charpoly_batch(mats, 2)[:, 1:], 2)
    gf._code_table.cache_clear()
    filled = gf.charpoly_ids(mats, 2)  # fills the table's entries of these codes

    def no_kernel(mats, q):
        raise AssertionError("the q = 2 path ran the kernel")

    monkeypatch.setattr(gf, "charpoly_batch", no_kernel)
    table_ids = gf.charpoly_ids(mats, 2)
    assert filled.tobytes() == table_ids.tobytes() == kernel_ids.tobytes()
    assert len(np.unique(kernel_ids)) == 2**n  # every monic charpoly of degree n occurs


# ---------------------------------------------------------------------------
# Normal forms at the anchor against the conjugacy search
# ---------------------------------------------------------------------------


def pair_set(gA, gB):
    return {a.tobytes() + b.tobytes() for a, b in zip(gA, gB)}


def group_anchor(space):
    """The anchor automorphism_group takes: the first anchor of the space's
    anchor set, as an element index."""
    data = equivalence.space_data(space)
    return data.division_data[1][data.anchored.at[0]][1]


def assert_tables_are_element_images(group):
    """Each element's vector images equal the point tables of its row."""
    pts = algebra.points_for(group.q, group.n)
    per_row = group.order // len(group.tables[0])
    TA, TB = (np.repeat(T, per_row, axis=0) for T in group.tables)
    assert TA.dtype == TB.dtype == np.int16
    assert np.array_equal(TA, pts.vector_images(group.A))
    assert np.array_equal(TB, pts.vector_images(group.B.transpose(0, 2, 1)))


def assert_group_matches_oracle(space, x_idx):
    """automorphism_group equals the oracle anchored at x_idx as a set of
    (A, B) pairs, without repeats, and its tables are the vector images of
    its elements."""
    fast = equivalence.automorphism_group(space)
    A, B = oracle_automorphism_group(space, x_idx)
    assert fast.A.dtype == fast.B.dtype == np.uint8
    assert fast.order == len(A) == len(pair_set(A, B)) == len(pair_set(fast.A, fast.B))
    assert pair_set(fast.A, fast.B) == pair_set(A, B)
    assert_tables_are_element_images(fast)


def no_cyclic_member_at_the_anchor(space):
    """Whether U = S x^-1, x the anchor of automorphism_group, has no
    cyclic member, so that its frames are spin frames of several blocks."""
    q, n = space.q, space.n
    data = equivalence.space_data(space)
    _, x_inv, _, _ = data.normaliser(data.anchored.at[0])
    U = data.elems.reshape(-1, n, n).astype(np.int64) @ x_inv % q
    return gf.min_degrees(U, q).max() < n


def seeded_s2_image():
    space = atlas.atlas_get("S2").space()
    return equivalence.act(random_isotopism(np.random.default_rng(17), 2, 4), space)


ATLAS_CASES = [pytest.param(name, marks=pytest.mark.slow) if name in ("F81", "GTF81") else name
               for name in atlas.atlas_list()]


# no cyclic member at the anchor; the diagonal spaces start spread_sets_by_rank
# at q = 3, n = 4 and q = 2, n = 5, and their frames need the least dim U v
# to stay under the cap
SPUN_CASES = {
    "diag+E12": lambda: diag_plus_rank_one(),
    "diag-3-4": lambda: search._diag_space(3, 4),
    "diag-2-5": lambda: search._diag_space(2, 5),
}


@pytest.mark.parametrize("name", [*SPUN_CASES, "S2-image", *ATLAS_CASES])
def test_automorphism_group_matches_per_candidate_oracle(name):
    if name in SPUN_CASES:
        space = SPUN_CASES[name]()
        assert no_cyclic_member_at_the_anchor(space)
    else:
        space = seeded_s2_image() if name == "S2-image" else atlas.atlas_get(name).space()
    # the oracle at the same anchor, and at the first one
    assert_group_matches_oracle(space, group_anchor(space))
    assert_group_matches_oracle(space, int(equivalence.space_data(space).invertible_projective[0]))


def automorphism_inputs(levels, q, n):
    """The spaces whose automorphism group search_levels took: the diagonal
    space, then the classes of every level but the last that pass the
    level's prune."""
    prune = search.default_prune_schedule(n)
    inputs = [search._diag_space(q, n)]
    for dim, _, classes in levels[:-2]:  # the last level, then the spread sets
        k = prune.get(dim)  # the partial-spread dimension the level's survivors contain
        inputs += [s for s in classes if k is None or search.contains_partial_spread(s, k)]
    return inputs


def test_automorphism_group_matches_oracle_on_every_order8_input(order8_levels):
    inputs = automorphism_inputs(order8_levels, 2, 3)
    assert len(inputs) == 22
    assert [no_cyclic_member_at_the_anchor(s) for s in inputs].count(True) == 1  # the diagonal space
    for space in inputs:
        assert_group_matches_oracle(space, group_anchor(space))


def test_automorphism_group_matches_oracle_on_every_order8_class(order8_levels):
    # the groups from the representatives' classification tables, and those
    # of fresh SpaceData, against the oracle
    reps = [s for _, _, classes in order8_levels for s in classes]
    assert len(reps) == 53
    for space in reps:
        assert_group_matches_oracle(space, group_anchor(space))
        fresh = equivalence.SpaceData(space).anchored
        assert_same_anchored(equivalence.space_data(space).anchored, fresh)


@pytest.mark.slow
def test_automorphism_group_matches_oracle_on_every_order16_input(monkeypatch):
    inputs = []
    group = equivalence.automorphism_group
    monkeypatch.setattr(equivalence, "automorphism_group", lambda s: inputs.append(s) or group(s))
    search.spread_sets_by_rank(2, 4, 8)
    monkeypatch.undo()
    assert len(inputs) == 55
    # the diagonal space and 12 dim-5 classes need frames of several blocks
    spun = [s.dim for s in inputs if no_cyclic_member_at_the_anchor(s)]
    assert spun == [4] + [5] * 12
    for space in inputs:
        assert_group_matches_oracle(space, group_anchor(space))


def isotopic_field_images():
    """Seeded isotopic images of the field spread sets, n in {3, 4}."""
    rng = np.random.default_rng(14)
    for q, n in product((2, 3), (3, 4)):
        space = algebra.field_construct(q, n).space
        yield pytest.param(equivalence.act(random_isotopism(rng, q, n), space), id=f"field-{q}-{n}")


GROUP_SPACES = [
    *(pytest.param(atlas.atlas_get(name).space(), id=name)
      for name in ("F16", "S1", "S2", "F81", "GTF81", "I")),
    *isotopic_field_images(),
    *(pytest.param(algebra.field_construct(q, 1).space, id=f"field-{q}-1") for q in (2, 3)),
    pytest.param(algebra.MatSpace.from_rows(2, 2, np.zeros((0, 4))), id="zero-2-2"),
]


@pytest.mark.parametrize("space", GROUP_SPACES)
def test_automorphism_group_tables_and_elements(space):
    aut = equivalence.automorphism_group(space)
    assert_tables_are_element_images(aut)
    moved = equivalence._act_arrays(aut.A, aut.B, space.basis, space.q)
    assert space.contains_batch(moved.reshape(-1, space.n**2)).all()
    assert len(pair_set(aut.A, aut.B)) == aut.order


def oracle_group_assembly(space):
    """Oracle: the elements and point tables of automorphism_group, one
    element per unit pair, multiplied out at once: for each single form of
    the anchored slot that one of the table's forms equals (the first, by a
    scan), the pair (A_y, B_y), times each conjugation stabilizer pair
    (C, D), A-major, times every (lam, mu), lam outer, as uint8 (A, B)
    stacks, and each point table row repeated (q - 1)^2 times.  A space
    without an invertible element gets the scanned stabilizer."""
    q, n = space.q, space.n
    pts = algebra.points_for(q, n)
    data = equivalence.space_data(space)
    if data.invertible_projective.size == 0:
        A, B = equivalence._isotopisms_between(space, space, "scan")
        return A, B, (pts.vector_images(A), pts.vector_images(B.transpose(0, 2, 1)))
    found = data.anchored
    (K, K_inv, forms), (K_y, K_y_inv, forms_y) = found.table, found.singles
    x, x_inv, _, _ = data.normaliser(found.at[0])
    pairs = []
    for j, form in enumerate(forms_y):
        hits = [i for i, row in enumerate(forms) if row.tobytes() == form.tobytes()]
        if hits:
            y = data.normaliser(found.at[j])[0]
            pairs.append(equivalence._key_isotopism((x, x_inv, K[hits[0]], K_inv[hits[0]]),
                                                    (y, None, K_y[j], K_y_inv[j]), q))
    RA, RB = (np.stack(M) for M in zip(*pairs))
    ties = (forms == forms[0]).all(axis=1)
    C, D = equivalence._key_isotopism((x, x_inv, K[0], K_inv[0]), (x, None, K[ties], K_inv[ties]), q)
    units = np.arange(1, q, dtype=np.int16)[:, None, None]
    A = np.repeat((RA[:, None] @ C % q)[:, :, None] * units % q, q - 1, axis=2)
    B = np.tile((D @ RB[:, None] % q)[:, :, None] * units % q, (1, 1, q - 1, 1, 1))
    tables = tuple(np.repeat(T[:, U], (q - 1) ** 2, axis=1).reshape(-1, U.shape[1]) for T, U in (
        (pts.vector_images(RA), pts.vector_images(C)),
        (pts.vector_images(RB.transpose(0, 2, 1)), pts.vector_images(D.transpose(0, 2, 1)))))
    A, B = (M.reshape(-1, n, n).astype(np.uint8) for M in (A, B))
    return A, B, tables


def seeded_order81_images():
    rng = np.random.default_rng(28)
    for name in ("F81", "GTF81"):
        space = atlas.atlas_get(name).space()
        for k in range(2):
            yield pytest.param(equivalence.act(random_isotopism(rng, 3, 4), space), id=f"{name}-image-{k}")


@pytest.mark.parametrize("space", [*GROUP_SPACES, *seeded_order81_images()])
def test_group_rows_expand_to_the_unit_broadcast_oracle(space):
    aut = equivalence.automorphism_group(space)
    A, B, tables = oracle_group_assembly(space)
    assert_same_array(aut.A, A)
    assert_same_array(aut.B, B)
    assert aut.order == len(A)
    keyed = equivalence.space_data(space).invertible_projective.size > 0
    per_row = (space.q - 1) ** 2 if keyed else 1
    assert len(aut.tables[0]) * per_row == aut.order
    for T, want in zip(aut.tables, tables):
        assert_same_array(np.repeat(T, per_row, axis=0), want)


@pytest.mark.parametrize("space", [*GROUP_SPACES, *seeded_order81_images()])
def test_group_rows_are_multiplied_out_only_when_read(space):
    # the rows of a stabilizer are those of its group at the rows it keeps
    aut = equivalence.automorphism_group(space)
    assert "rows" not in aut.__dict__
    order, rows = aut.order, aut.rows
    assert "rows" in aut.__dict__ and aut.order == order
    pts = algebra.points_for(space.q, space.n)
    keep = np.arange(len(aut.tables[0]))[::3]
    part = replace(aut, select=keep, tables=tuple(T[keep] for T in aut.tables))
    for got, want in zip(part.rows, rows):
        assert_same_array(got, want[keep])
    outside = np.nonzero(~space.contains_batch(pts.flat))[0]
    if not outside.size:  # M_1(F_q)
        return
    child = space.extend(pts.flat[outside[0]].reshape(space.n, space.n))
    sub = aut.stabilizer_of_space(child)
    assert "rows" not in sub.__dict__
    inside = np.nonzero(child.contains_batch(pts.flat))[0]
    fixed = (np.sort(aut.point_images(inside), axis=1) == inside).all(axis=1)
    assert 0 < fixed.sum() == len(sub.tables[0])
    for got, want in zip(sub.rows, rows):
        assert_same_array(got, want[fixed])


def test_automorphism_group_takes_the_charpolys_of_projective_products_only(monkeypatch):
    # F81: 40 projective invertible y, 40 projective elements of S y^-1,
    # where the whole-space products with a second pass in _conjugators
    # made 6,480; one table row per projective pair
    space = equivalence.act(random_isotopism(np.random.default_rng(81), 3, 4), atlas.atlas_get("F81").space())
    sizes = []
    charpoly_ids = gf.charpoly_ids
    monkeypatch.setattr(gf, "charpoly_ids", lambda mats, q: sizes.append(len(mats)) or charpoly_ids(mats, q))
    monkeypatch.setattr(equivalence, "_DATA_CACHE", {})
    aut = equivalence.automorphism_group(space)
    assert sum(sizes) == 1600
    assert aut.order == 25600
    assert len(aut.tables[0]) == len(aut.tables[1]) == 6400


@pytest.mark.parametrize("q, n, sample", [(3, 3, None), (5, 3, 3000), (7, 2, 2000)])
def test_scaled_charpoly_ids_are_the_ids_of_unit_multiples(q, n, sample):
    rng = np.random.default_rng(q * 10 + n)
    if sample is None:  # every 3 x 3 matrix over F_3
        mats = gf.coefficient_grid(q, n * n).astype(np.uint8).reshape(-1, n, n)
    else:
        mats = rng.integers(0, q, (sample, n, n)).astype(np.uint8)
    ids = gf.charpoly_ids(mats, q)
    tables = equivalence._scaled_charpoly_ids(q, n)
    assert tables.shape == (q - 2, q**n)
    for lam, table in zip(range(2, q), tables):
        assert np.array_equal(table[ids], gf._charpoly_id_kernel(mats * lam % q, q))


@pytest.mark.parametrize("q, n, extra", [(3, 4, 3), (3, 3, 1), (5, 3, 2), (7, 2, 1), (2, 4, 3)])
def test_division_ids_equal_the_ids_of_every_product(q, n, extra):
    # the projective products' ids, scaled, against every product's ids;
    # the anchored stage keeps no rows, and unital_ids then takes the rows asked for
    space = random_space_with_identity(np.random.default_rng(q + n + extra), q, n, extra)
    data = equivalence.SpaceData(space)
    _, per_y = data.division_data
    want = oracle_unital_ids(data, np.stack([y_inv for _, _, y_inv in per_y]))
    assert data.division_ids.dtype == np.min_scalar_type(q**n - 1)
    assert np.array_equal(data.division_ids, want)
    keyed = equivalence.SpaceData(space)
    equivalence._block_pass([keyed], "anchored", equivalence._anchored_stage)
    assert "division_data" in keyed.__dict__ and keyed.division_ids is None
    at = np.arange(len(per_y))[::-2]
    assert_same_array(keyed.unital_ids(at), data.division_ids[at])
    assert_same_array(data.unital_ids(at), data.division_ids[at])


@pytest.mark.parametrize("name, order", [("F81", 25600), ("GTF81", 640)])
def test_automorphism_group_and_are_equivalent_run_one_normal_form_pass(monkeypatch, name, order):
    def never(*args, **kwargs):
        raise AssertionError("a nullspace-intersection search ran")

    space = atlas.atlas_get(name).space()
    moved = equivalence.act(random_isotopism(np.random.default_rng(23), 3, 4), space)
    calls = []
    conjugators = equivalence._conjugators
    monkeypatch.setattr(equivalence, "_conjugators", lambda *args: calls.append(args) or conjugators(*args))
    monkeypatch.setattr(gf, "nullspace", never)  # the kernel of the search oracle
    monkeypatch.setattr(equivalence, "_DATA_CACHE", {})  # no group data kept from other tests
    assert equivalence.automorphism_group(space).order == order
    assert len(calls) == 1
    witness = equivalence.are_equivalent(space, moved)
    assert len(calls) == 2
    assert equivalence.act(witness, space) == moved


def test_automorphism_group_refuses_a_corrupted_image_frame(monkeypatch):
    # the frame of the last image is moved by a transvection after its form
    # was taken, so the representative composed from it fixes no space
    space = atlas.atlas_get("S1").space()
    n = space.n
    forms = equivalence._normal_forms
    T = np.eye(n, dtype=np.int64)
    T[0, n - 1] = 1

    def corrupting(K, K_inv, bases, q):
        found = forms(K, K_inv, bases, q)
        K[-1] = K[-1] @ T % q
        return found

    monkeypatch.setattr(equivalence, "_normal_forms", corrupting)
    monkeypatch.setattr(equivalence, "_DATA_CACHE", {})  # no group data kept from other tests
    with pytest.raises(NotContained, match="does not fix the space"):
        equivalence.automorphism_group(space)


@pytest.mark.parametrize("name", ["F16", "S1", "F81", "I"])
def test_division_data_keeps_the_inverse_of_each_element(name):
    data = equivalence.space_data(atlas.atlas_get(name).space())
    n, q = data.n, data.q
    _, per_y = data.division_data
    assert [yi for _, yi, _ in per_y] == data.invertible_projective.tolist()
    for _, yi, y_inv in per_y:
        want = gf.mat_inverse(data.elems[yi].reshape(n, n), q)
        assert y_inv.dtype == want.dtype and y_inv.tobytes() == want.tobytes()


def isotopic_and_inequivalent_pairs():
    """Seeded pairs of n = 4 spaces at q in {2, 3}: spaces holding I and
    atlas entries, each with an isotopic image, then pairs that no isotopism
    joins."""
    rng = np.random.default_rng(11)
    spaces = [random_space_with_identity(rng, q, 4, int(rng.integers(1, 4))) for q in (2, 3) for _ in range(8)]
    spaces += [atlas.atlas_get(name).space() for name in ("F16", "S1", "S2", "F81", "I")]
    isotopic = [(s, equivalence.act(random_isotopism(rng, s.q, 4), s)) for s in spaces]
    named = [("F16", "S1"), ("S1", "S2"), ("F81", "GTF81"), ("I", "II")]
    apart = [tuple(atlas.atlas_get(name).space() for name in pair) for pair in named]
    for q in (2, 3):
        for dim in (2, 3, 4):  # a space holding I against another one of its dimension
            s1, s2 = (random_space_with_identity(rng, q, 4, dim - 1) for _ in range(2))
            apart.append((s1, equivalence.act(random_isotopism(rng, q, 4), s2)))
    return isotopic, apart


def test_are_equivalent_agrees_with_conjugacy_search_oracle():
    # the witness verifies, and is None exactly when the search finds none
    isotopic, apart = isotopic_and_inequivalent_pairs()
    found = []
    for s1, s2 in isotopic + apart:
        assert s1 != s2
        got = equivalence.are_equivalent(s1, s2)
        assert (got is None) == (oracle_are_equivalent(s1, s2) is None)
        if got is not None:
            assert got.A.dtype == got.B.dtype == np.uint8
            assert equivalence.act(got, s1) == s2
        found.append(got is not None)
    assert found == [True] * len(isotopic) + [False] * len(apart)


def assert_witness_matches_oracle(s1, s2):
    """The witness of are_equivalent and the oracle's both map s1 onto s2,
    are uint8 n x n pairs, and send the anchor x of s1 to the same image
    y = A x B of s2: the first one reached in division_data order."""
    got = equivalence.are_equivalent(s1, s2)
    want = oracle_are_equivalent(s1, s2)
    assert equivalence.act(got, s1) == s2 and equivalence.act(want, s1) == s2
    for g, w in ((got.A, want.A), (got.B, want.B)):
        assert g.dtype == w.dtype == np.uint8 and g.shape == w.shape
    q, n = s1.q, s1.n
    _, x_idx = oracle_anchor(equivalence.space_data(s1), equivalence.space_data(s2))
    x = equivalence.space_data(s1).elems[x_idx].reshape(n, n)
    got_y, want_y = (gf.mat_mul(gf.mat_mul(w.A, x, q), w.B, q) for w in (got, want))
    assert got_y.tobytes() == want_y.tobytes()


def test_are_equivalent_witness_matches_per_candidate_oracle():
    # the oracle's search scans candidates one inverse and membership test each
    rng = np.random.default_rng(9)
    for q in (2, 3):
        for _ in range(8):
            space = random_space_with_identity(rng, q, 4, int(rng.integers(1, 4)))
            moved = equivalence.act(random_isotopism(rng, q, 4), space)
            assert space != moved
            assert_witness_matches_oracle(space, moved)


def test_are_equivalent_witness_matches_anchor_loop_oracle():
    isotopic, _ = isotopic_and_inequivalent_pairs()
    for s1, s2 in isotopic:
        assert s1 != s2
        assert_witness_matches_oracle(s1, s2)


def outcome(test, s1, s2):
    """"TooLarge", None, or "witness" for a witness that maps s1 onto s2."""
    try:
        witness = test(s1, s2)
    except TooLarge:
        return "TooLarge"
    if witness is None:
        return None
    assert equivalence.act(witness, s1) == s2
    return "witness"


def jordan(sizes):
    """Unipotent Jordan blocks of the given sizes, eigenvalue 1."""
    J = np.eye(sum(sizes), dtype=np.int64)
    at = np.cumsum(sizes)
    for i in range(sum(sizes) - 1):
        J[i, i + 1] = (i + 1) not in at
    return J


STRUCTURED = {
    "diag-1122": np.diag([1, 1, 2, 2]),
    "diag-1222": np.diag([1, 2, 2, 2]),
    "transvection": jordan([2, 1, 1]),
    "J2+J2": jordan([2, 2]),
    "J4": jordan([4]),
}


def structured_pairs():
    """<I, g> and <I, g, h> at n = 4, q in {2, 3}, for the structured g and
    a seeded h, each with a seeded isotopic image, then <I> and <x> with
    another 1-dimensional <y>."""
    rng = np.random.default_rng(24)
    for q in (2, 3):
        for name, g in STRUCTURED.items():
            h = rng.integers(0, q, (4, 4))
            for rows, label in (([g], "g"), ([g, h], "g-h")):
                space = algebra.MatSpace.from_matrices(q, 4, [np.eye(4, dtype=np.int64)] + [M % q for M in rows])
                moved = equivalence.act(random_isotopism(rng, q, 4), space)
                yield pytest.param(space, moved, id=f"q{q}-I-{label}-{name}")
        y = algebra.MatSpace.from_matrices(q, 4, [random_invertible(rng, q, 4)])
        for x, label in ((np.eye(4, dtype=np.uint8), "I"), (random_invertible(rng, q, 4), "x")):
            yield pytest.param(algebra.MatSpace.from_matrices(q, 4, [x]), y, id=f"q{q}-dim1-{label}")


@pytest.mark.parametrize("s1, s2", structured_pairs())
def test_are_equivalent_matches_search_oracle_on_structured_spaces(s1, s2):
    assert outcome(equivalence.are_equivalent, s1, s2) == outcome(oracle_are_equivalent, s1, s2)


@pytest.mark.parametrize("q", [2, 3])
def test_one_dimensional_spaces_are_isotopic_by_the_right_factor(q):
    rng = np.random.default_rng(25 + q)
    x, y = random_invertible(rng, q, 4), random_invertible(rng, q, 4)
    s1, s2 = (algebra.MatSpace.from_matrices(q, 4, [M]) for M in (x, y))
    witness = equivalence.are_equivalent(s1, s2)
    (_, _, x_inv), = equivalence.space_data(s1).division_data[1]
    y = equivalence.space_data(s2).elems[equivalence.space_data(s2).invertible_projective[0]]
    assert witness.A.tobytes() == np.eye(4, dtype=np.uint8).tobytes()
    assert witness.B.tobytes() == gf.mat_mul(x_inv, y.reshape(4, 4), q).astype(np.uint8).tobytes()
    lower = algebra.MatSpace.from_matrices(q, 4, [np.diag([1, 1, 1, 0])])
    assert equivalence.are_equivalent(s1, lower) is None
    assert equivalence.are_equivalent(lower, s1) is None


def spin_frame_calls(monkeypatch):
    """The (G, spaces, q, lone) arguments of each _spin_frames call, with
    its result."""
    calls, spin = [], equivalence._spin_frames

    def recording(G, spaces, q, lone=None):
        calls.append(((G, spaces, q, lone), spin(G, spaces, q, lone)))
        return calls[-1][1]

    monkeypatch.setattr(equivalence, "_spin_frames", recording)
    return calls, spin


def assert_one_frame_per_image(monkeypatch, spaces):
    # each image-side member gets one frame, the first of its whole
    # enumeration, and the members at the anchor get every frame
    calls, spin = spin_frame_calls(monkeypatch)
    for space in spaces:
        del calls[:]
        monkeypatch.setattr(equivalence, "_DATA_CACHE", {})  # no group data kept from other tests
        equivalence.automorphism_group(space)
        ((G, frame_spaces, q, lone), (K, K_inv, member)), = calls
        all_K, all_K_inv, all_member = spin(G, frame_spaces, q)
        at_x = member < lone
        assert_same_array(K[at_x], all_K[all_member < lone])
        assert_same_array(K_inv[at_x], all_K_inv[all_member < lone])
        assert member[~at_x].tolist() == list(range(lone, len(G)))
        first = np.searchsorted(all_member, np.arange(lone, len(G)))
        assert_same_array(K[~at_x], all_K[first])
        assert_same_array(K_inv[~at_x], all_K_inv[first])


def test_spin_frames_give_each_image_member_its_first_frame(monkeypatch, order8_levels):
    inputs = automorphism_inputs(order8_levels, 2, 3)
    assert len(inputs) == 22
    assert_one_frame_per_image(monkeypatch, inputs)


@pytest.mark.parametrize("name", ATLAS_CASES)
def test_spin_frames_give_each_image_member_its_first_frame_on_atlas(monkeypatch, name):
    assert_one_frame_per_image(monkeypatch, [atlas.atlas_get(name).space()])


# ---------------------------------------------------------------------------
# Properties at n = 2 against the brute-force GL x GL scans
# ---------------------------------------------------------------------------


def gl2(q):
    mats = np.array(list(product(range(q), repeat=4)), dtype=np.uint8).reshape(-1, 2, 2)
    return mats[gf.det_batch(mats, q) != 0]


GL2 = {q: gl2(q) for q in (2, 3)}


def spaces_2x2(q, rows):
    """Spans of `rows` random 2 x 2 matrices over F_q."""
    entries = st.lists(st.integers(0, q - 1), min_size=4 * rows, max_size=4 * rows)
    return entries.map(lambda e: algebra.MatSpace.from_rows(q, 2, np.reshape(e, (rows, 4))))


def isotopisms_2x2(q):
    gl = st.sampled_from(list(GL2[q]))
    return st.tuples(gl, gl).map(lambda AB: equivalence.Isotopism(*AB, q))


fields = st.sampled_from([2, 3])


@given(fields.flatmap(lambda q: st.integers(1, 4).flatmap(lambda k: spaces_2x2(q, k))))
def test_automorphism_group_equals_brute_force_stabilizer(space):
    assume(space.dim >= 1)
    assume(equivalence.space_data(space).invertible_projective.size > 0)
    aut = equivalence.automorphism_group(space)
    brute = equivalence._brute_force_stabilizer(space)
    as_set = lambda g: {a.tobytes() + b.tobytes() for a, b in zip(g.A, g.B)}
    assert aut.order == len(as_set(aut))
    assert as_set(aut) == as_set(brute)


@given(
    fields.flatmap(
        lambda q: st.integers(1, 3).flatmap(
            lambda k: st.tuples(spaces_2x2(q, k), spaces_2x2(q, k))
        )
    )
)
def test_are_equivalent_agrees_with_brute_force_on_random_pairs(pair):
    s1, s2 = pair
    assume(s1.dim > 0 and s2.dim > 0)
    witness = equivalence.are_equivalent(s1, s2)
    assert (witness is None) == (equivalence._brute_force_equivalent(s1, s2) is None)
    if witness is not None:
        assert equivalence.act(witness, s1) == s2


@given(
    fields.flatmap(
        lambda q: st.tuples(
            st.integers(1, 3).flatmap(lambda k: spaces_2x2(q, k)), isotopisms_2x2(q)
        )
    )
)
def test_are_equivalent_agrees_with_brute_force_on_isotopic_pairs(case):
    space, g = case
    assume(space.dim > 0)
    moved = equivalence.act(g, space)
    witness = equivalence.are_equivalent(space, moved)
    assert witness is not None and equivalence.act(witness, space) == moved
    assert equivalence._brute_force_equivalent(space, moved) is not None


def oracle_isotopisms_between(s1, s2):
    """Oracle: the per-pair double loop over GL_n(q)^2, one Isotopism and
    one act per pair, as (A, B) stacks in loop order."""
    q, n = s1.q, s1.n
    mats = gf.coefficient_grid(q, n * n).astype(np.uint8).reshape(-1, n, n)
    gl = mats[gf.det_batch(mats, q) != 0]
    found = [
        (A, B) for A in gl for B in gl
        if equivalence.act(equivalence.Isotopism(A, B, q), s1) == s2
    ]
    A = np.array([a for a, _ in found], dtype=np.uint8).reshape(-1, n, n)
    B = np.array([b for _, b in found], dtype=np.uint8).reshape(-1, n, n)
    return A, B


def random_2x2_space(rng, q, dim):
    while True:
        space = algebra.MatSpace.from_rows(q, 2, rng.integers(0, q, (dim, 4)))
        if space.dim == dim:
            return space


def seeded_2x2_pairs():
    """Seeded pairs of 2 x 2 spaces at q in {2, 3}, dims 0-3: each space
    with itself, with an isotopic image and with a random space whose
    dimension may differ."""
    rng = np.random.default_rng(15)
    for q in (2, 3):
        for dim in range(4):
            space = random_2x2_space(rng, q, dim)
            targets = {
                "self": space,
                "moved": equivalence.act(random_isotopism(rng, q, 2), space),
                "other": random_2x2_space(rng, q, int(rng.integers(0, 4))),
            }
            for name, target in targets.items():
                yield pytest.param(space, target, id=f"q{q}-dim{dim}-{name}-dim{target.dim}")


@pytest.mark.parametrize("s1, s2", seeded_2x2_pairs())
def test_isotopisms_between_matches_pair_loop_oracle(s1, s2):
    A, B = equivalence._isotopisms_between(s1, s2, "unused")
    want_A, want_B = oracle_isotopisms_between(s1, s2)
    for got, want in ((A, want_A), (B, want_B)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    witness = equivalence._brute_force_equivalent(s1, s2)
    if len(want_A):
        assert witness.A.tobytes() == want_A[0].tobytes()
        assert witness.B.tobytes() == want_B[0].tobytes()
    else:
        assert witness is None
    if s1 == s2:
        stab = equivalence._brute_force_stabilizer(s1)
        assert stab.A.tobytes() == want_A.tobytes() and stab.B.tobytes() == want_B.tobytes()


def test_zero_space_is_fixed_by_all_of_gl_squared():
    zero = algebra.MatSpace.from_rows(2, 2, np.zeros((0, 4)))
    assert equivalence.automorphism_group(zero).order == 36


def test_brute_force_scans_refuse_large_ambients():
    zero = algebra.MatSpace.from_rows(3, 3, np.zeros((0, 9), dtype=np.uint8))
    with pytest.raises(TooLarge, match="stabilizer of anchor-free space"):
        equivalence.automorphism_group(zero)
    with pytest.raises(TooLarge, match="no invertible anchor"):
        equivalence._brute_force_equivalent(zero, zero)


# ---------------------------------------------------------------------------
# Canonical isotopism keys against the pairwise classification they replace
# ---------------------------------------------------------------------------


def oracle_equivalence_classes(spaces):
    """Oracle: the pairwise classification loop.  In each fingerprint
    bucket, every space is tested with are_equivalent against the first
    member of each class found so far; representatives are the least
    (dim, RREF bytes) members, sorted by that key."""
    unique = {}
    for s in spaces:
        unique.setdefault(s.key, s)
    items = sorted(unique.values(), key=lambda s: s.key)
    buckets = {}
    for s in items:
        buckets.setdefault(equivalence.space_data(s).fingerprint, []).append(s)
    classes = []
    for fp in sorted(buckets, key=repr):
        reps_here = []
        for s in buckets[fp]:
            for members in reps_here:
                if equivalence.are_equivalent(members[0], s) is not None:
                    members.append(s)
                    break
            else:
                reps_here.append([s])
        classes.extend(reps_here)
    reps = [min(members, key=equivalence._sort_key) for members in classes]
    return sorted(reps, key=equivalence._sort_key), classes


def key_partition(spaces):
    """The keyed classes of the distinct spaces, as a set of key sets."""
    unique = list({s.key: s for s in spaces}.values())
    classes = equivalence.isotopism_classes(unique)
    return {frozenset(unique[i].key for i in members) for members in classes}


def assert_keyed_like_pairwise(spaces):
    want_reps, want_classes = oracle_equivalence_classes(spaces)
    assert key_partition(spaces) == {frozenset(s.key for s in c) for c in want_classes}
    assert [s.key for s in equivalence.equivalence_classes(spaces)] == [s.key for s in want_reps]


def test_keyed_classes_equal_pairwise_classes_at_every_order8_level(order8_levels):
    for _, candidates, _ in order8_levels:
        assert_keyed_like_pairwise(candidates)


def order16_sample(levels):
    """Order-16 dims 5 and 6, and a seeded 300-space sample of dim 7."""
    rng = np.random.default_rng(18)
    dim7 = levels[7]
    return [levels[5], levels[6], [dim7[i] for i in rng.choice(len(dim7), 300, replace=False)]]


@pytest.mark.slow
def test_keyed_classes_equal_pairwise_classes_order16(order16_levels):
    for spaces in order16_sample(order16_levels):
        assert_keyed_like_pairwise(spaces)


@pytest.mark.slow
def test_order16_classification_makes_no_pairwise_tests(monkeypatch):
    from test_acceptance import OUR_ORDER16_LEVELS

    calls = []
    pairwise = equivalence.are_equivalent
    monkeypatch.setattr(equivalence, "are_equivalent", lambda a, b: calls.append((a, b)) or pairwise(a, b))
    report, classes = search.spread_sets_by_rank(2, 4, 8)
    assert classes == [] and calls == []
    for dim, want in OUR_ORDER16_LEVELS.items():
        assert {key: report.level(dim)[key] for key in want} == want


def lu_invertible(q, n):
    """Invertible n x n matrices P L U over F_q: a permutation P, L unit
    lower triangular, U upper triangular with a nonzero diagonal."""
    below = st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n)
    diag = st.lists(st.integers(1, q - 1), min_size=n, max_size=n)

    def build(args):
        perm, lower, upper, d = args
        L = np.tril(np.reshape(lower, (n, n)), -1) + np.eye(n, dtype=np.int64)
        U = np.triu(np.reshape(upper, (n, n)), 1) + np.diag(d)
        return (np.eye(n, dtype=np.int64)[perm] @ L @ U % q).astype(np.uint8)

    return st.tuples(st.permutations(range(n)), below, below, diag).map(build)


@st.composite
def spaces_and_isotopisms(draw):
    """A space holding I, with a random isotopism: I plus random matrices,
    or the diagonal space plus random rank-one matrices, whose symmetry
    gives anchor classes of more than one element."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 4))
    extra = draw(st.integers(1, 3 if q ** n <= 16 else 2))
    entries = st.lists(st.integers(0, q - 1), min_size=extra * n * n, max_size=extra * n * n)
    if draw(st.booleans()):
        rows = np.concatenate([np.eye(n, dtype=np.int64).reshape(1, -1),
                               np.reshape(draw(entries), (extra, n * n))])
    else:
        u, w = np.reshape(draw(entries)[: 2 * extra * n], (2, extra, n))
        rank_one = (u[:, :, None] * w[:, None, :]).reshape(extra, n * n)
        rows = np.concatenate([np.diag(e).reshape(1, -1) for e in np.eye(n, dtype=np.int64)]
                              + [rank_one])
    space = algebra.MatSpace.from_rows(q, n, rows)
    return space, equivalence.Isotopism(draw(lu_invertible(q, n)), draw(lu_invertible(q, n)), q)


@given(spaces_and_isotopisms())
def test_isotopism_key_is_invariant(case):
    # every space holds I, so it has a key unless its frames pass the cap,
    # which an isotopism keeps
    space, g = case
    moved = equivalence.act(g, space)
    try:
        found = isotopism_key(equivalence.space_data(space))
    except TooLarge:
        with pytest.raises(TooLarge):
            isotopism_key(equivalence.space_data(moved))
        return
    moved_found = isotopism_key(equivalence.space_data(moved))
    assert found[0] == moved_found[0]
    A, B = equivalence._key_isotopism(found[1], moved_found[1], space.q)
    witness = equivalence.Isotopism(A, B, space.q)
    assert equivalence.act(witness, space) == moved


def diag_plus_rank_one():
    """diag(4) plus E_12 in M_4(F_2): its invertible elements I and I + E_12
    are unipotent with minimal polynomial (x - 1)^2, and no element of S y^-1
    is cyclic, so its key spins frames of several blocks."""
    rows = [np.diag(e).reshape(-1) for e in np.eye(4, dtype=np.uint8)]
    point = np.zeros((4, 4), dtype=np.uint8)
    point[0, 1] = 1
    return algebra.MatSpace.from_rows(2, 4, np.stack(rows + [point.reshape(-1)]))


def test_space_without_cyclic_member_is_keyed(monkeypatch):
    rng = np.random.default_rng(21)
    space = diag_plus_rank_one()
    moved = equivalence.act(random_isotopism(rng, 2, 4), space)
    key, norm = isotopism_key(equivalence.space_data(space))
    moved_key, moved_norm = isotopism_key(equivalence.space_data(moved))
    assert key == moved_key and key[4][0] > -4  # the frame members are not cyclic
    assert equivalence.space_data(space).anchored.key == (key[3], key[4])
    witness = equivalence.Isotopism(*equivalence._key_isotopism(norm, moved_norm, 2), 2)
    assert equivalence.act(witness, space) == moved
    calls = []
    pairwise = equivalence.are_equivalent
    monkeypatch.setattr(equivalence, "are_equivalent", lambda a, b: calls.append((a, b)) or pairwise(a, b))
    assert equivalence.isotopism_classes([space, moved]) == [[0, 1]]
    reps = equivalence.equivalence_classes([moved, space])
    assert [s.key for s in reps] == [min(space.key, moved.key)]
    assert calls == []


def singular_spaces_2_3():
    """Three 2-dimensional spaces of M_3(F_2) without an invertible
    element: <E_11, E_12>, a seeded isotopic image of it, and <E_11, E_22>,
    which has the same element ranks but is not isotopic to them."""
    E = np.eye(9, dtype=np.uint8)
    space = algebra.MatSpace.from_rows(2, 3, E[[0, 1]])
    moved = equivalence.act(random_isotopism(np.random.default_rng(26), 2, 3), space)
    return space, moved, algebra.MatSpace.from_rows(2, 3, E[[0, 4]])


def test_spaces_without_invertible_element_are_classified_by_brute_force(monkeypatch):
    spaces = singular_spaces_2_3()
    assert all(equivalence.space_data(s).anchored is None for s in spaces)
    # the oracle: the GL x GL scan between each pair
    joined = [[len(equivalence._isotopisms_between(a, b, "")[0]) > 0 for b in spaces] for a in spaces]
    assert joined == [[True, True, False], [True, True, False], [False, False, True]]
    calls = []
    pairwise = equivalence.are_equivalent
    monkeypatch.setattr(equivalence, "are_equivalent", lambda a, b: calls.append((a, b)) or pairwise(a, b))
    assert equivalence.isotopism_classes(list(spaces)) == [[0, 1], [2]]
    assert equivalence.isotopism_classes([spaces[2], spaces[1], spaces[0]]) == [[0], [1, 2]]
    assert calls == []


def mutate_hit_frame(monkeypatch, rep, other, mutate):
    """Set rep's anchored slot by hand to its own, with the table frame
    that the forms of other reach replaced by mutate(K, K^-1)."""
    data = equivalence.space_data(rep)
    record = data.anchored
    single = equivalence._anchored_stage([equivalence.SpaceData(other)], table=False)[0]
    rows = [{f.tobytes(): h for h, f in reversed(list(enumerate(record.table[2])))}.get(f.tobytes())
            for f in single.singles[2]]
    h = next(h for h in rows if h is not None)
    K, K_inv, forms = (M.copy() for M in record.table)
    K[h], K_inv[h] = mutate(K[h], K_inv[h])
    monkeypatch.setattr(data, "anchored", record._replace(table=(K, K_inv, forms)))


def transvected(K, K_inv):
    M = np.eye(4, dtype=np.int16)
    M[0, 3] = 1  # a transvection that moves the normal form
    return K @ M % 2, M @ K_inv % 2


def test_mutated_normaliser_raises_not_contained(monkeypatch):
    # the representative keeps its table, so its corrupted frame is used
    rng = np.random.default_rng(22)
    space = algebra.field_construct(2, 4).space.extend(np.diag([1, 0, 0, 0]))
    moved = equivalence.act(random_isotopism(rng, 2, 4), space)
    rep, other = sorted([space, moved], key=equivalence._sort_key)
    assert equivalence.equivalence_classes([space, moved]) == [rep]
    mutate_hit_frame(monkeypatch, rep, other, transvected)
    with pytest.raises(NotContained):
        equivalence.equivalence_classes([space, moved])


@pytest.mark.parametrize("error", [NotContained, NotInvertible])
def test_key_merge_checks_catch_one_bad_merge_among_classes(error, monkeypatch):
    # two classes of three spaces, their merges checked in one batch
    rng = np.random.default_rng(24)
    field = algebra.field_construct(2, 4).space
    bases = [field.extend(np.diag(d)) for d in ([1, 0, 0, 0], [1, 1, 0, 0])]
    spaces = [equivalence.act(random_isotopism(rng, 2, 4), s) for s in bases for _ in range(3)]
    reps = equivalence.equivalence_classes(spaces)
    assert len(reps) == 2
    rep = next(r for r in reps if equivalence.are_equivalent(r, spaces[-1]))
    other = spaces[-1] if spaces[-1] != rep else spaces[-2]
    mutate = transvected if error is NotContained else lambda K, K_inv: (0 * K, 0 * K_inv)  # singular
    mutate_hit_frame(monkeypatch, rep, other, mutate)
    with pytest.raises(error):
        equivalence.equivalence_classes(spaces)


def test_representative_without_its_own_form_raises(monkeypatch):
    rng = np.random.default_rng(22)
    space = algebra.field_construct(2, 4).space.extend(np.diag([1, 0, 0, 0]))
    moved = equivalence.act(random_isotopism(rng, 2, 4), space)
    rep = min(space, moved, key=equivalence._sort_key)
    equivalence.equivalence_classes([space, moved])
    data = equivalence.space_data(rep)
    K, K_inv, forms = data.anchored.table
    monkeypatch.setattr(data, "anchored", data.anchored._replace(table=(K, K_inv, forms ^ 1)))
    with pytest.raises(NotContained, match="missing from its own table"):
        equivalence.equivalence_classes([space, moved])
    with pytest.raises(NotContained, match="missing from its own table"):
        equivalence.automorphism_group(rep)


def test_order8_classification_spins_few_frames(monkeypatch):
    # every space gets one frame at each anchor, and a class representative
    # every frame at its anchor; the least-form keys spun 12,546
    calls, _ = spin_frame_calls(monkeypatch)
    monkeypatch.setattr(equivalence, "_DATA_CACHE", {})
    report, _ = search.spread_sets_by_rank(2, 3, 8)
    assert [{key: level[key] for key in ("dim", "classes")} for level in report.levels] == [
        {"dim": d, "classes": c} for d, c in ((4, 8), (5, 21), (6, 18), (7, 3), (8, 2))]
    assert sum(len(K) for _, (K, _, _) in calls) <= 2000


def test_diagonal_with_a_large_centraliser_raises_too_large():
    # <I, diag(1, 2, 2, 2)> at q = 3, n = 4: only the representative's table,
    # every frame at its anchor, passes the cap, and the image gets none
    space = algebra.MatSpace.from_matrices(3, 4, [np.eye(4, dtype=np.int64), np.diag([1, 2, 2, 2])])
    moved = equivalence.act(random_isotopism(np.random.default_rng(30), 3, 4), space)
    with pytest.raises(TooLarge, match="spin frames"):
        equivalence.isotopism_classes([space, moved])


def test_each_space_takes_one_division_pass(monkeypatch):
    # division_data read first, then classification, groups and witnesses
    rng = np.random.default_rng(31)
    spaces = [atlas.atlas_get(name).space() for name in ("F16", "S1", "S2")]
    spaces += [equivalence.act(random_isotopism(rng, 2, 4), s) for s in spaces] + [diag_plus_rank_one()]
    monkeypatch.setattr(equivalence, "_DATA_CACHE", {})
    passed = []
    stage = equivalence._division_stage
    monkeypatch.setattr(equivalence, "_division_stage", lambda block: passed.extend(block) or stage(block))
    for s in spaces:
        equivalence.space_data(s).division_data
    assert equivalence.isotopism_classes(spaces) == [[0, 3], [1, 4], [2, 5], [6]]
    for s in spaces:
        equivalence.automorphism_group(s)
    for s, t in zip(spaces[:3], spaces[3:6]):
        assert equivalence.are_equivalent(s, t) is not None
    assert len(passed) == len(spaces)
    assert {id(data) for data in passed} == {id(equivalence.space_data(s)) for s in spaces}


# ---------------------------------------------------------------------------
# The least-form isotopism key: the canonical key of each space, computed by
# blocks as classification did before the representatives' tables
# ---------------------------------------------------------------------------

KEY_CANDIDATES = 256  # normalisations reduced per rref_batch


def key_stage(block):
    """The least-form isotopism key of each space of a block of one (q, n,
    dim), (key, normaliser), or None without an invertible element.

    The anchors y are the cpm class of least (count, cpm key), and
    U = S y^-1 holds I.  The key is (q, n, dim, cpm key, descriptor, least
    RREF bytes of K^-1 U K) over the anchors whose frame members
    (_frame_members) have the least descriptor and every spin frame K of
    those members, the first such (y, K) on ties.  The normaliser
    (y, y^-1, K, K^-1), int64 (n, n) matrices, reaches the key.  A
    1-dimensional <y> has the key (q, n, 1) and the normaliser
    (y, y^-1, I, I).  The division stage runs over the block (filling
    division_data where it is empty); one _spin_frames call covers every
    frame, and the normal forms are reduced KEY_CANDIDATES at a time, each
    folded into a running least form per space.
    """
    q, n, dim, mats = equivalence._block_elements(block)
    divisions = equivalence._division_stage(block)
    for data, (division, _) in zip(block, divisions):
        data.__dict__.setdefault("division_data", division)
    keys = [None] * len(block)
    # per anchor: its space, element, inverse and the id row of S y^-1
    cpms, space, elem, y_inv, rows = {}, [], [], [], []
    for s, ((_, per_y), ids) in enumerate(divisions):
        if not per_y:
            continue
        counts = Counter(cpm for cpm, _, _ in per_y)
        cpms[s] = min(counts, key=lambda c: (counts[c], c))
        mine = [i for i, (c, _, _) in enumerate(per_y) if c == cpms[s]]
        space += [s] * len(mine)
        elem += [per_y[i][1] for i in mine]
        y_inv += [per_y[i][2] for i in mine]
        rows.append(ids[mine])
    if not space:
        return keys
    space, y_inv = np.array(space), np.stack(y_inv).astype(np.int16)
    y = mats[space, elem].astype(np.int64)
    if dim == 1:  # U = <I>, every frame of which ties
        for s, y_s, inv in zip(space.tolist(), y, y_inv.astype(np.int64)):
            keys[s] = (q, n, 1), (y_s, inv, np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64))
        return keys
    U = mats[space].astype(np.int16) @ y_inv[:, None] % q
    degrees = gf.min_degrees(U.reshape(-1, n, n), q).reshape(len(space), -1)
    descriptors, masks = equivalence._frame_members(np.concatenate(rows), degrees)
    least = dict(sorted(zip(space.tolist(), descriptors), reverse=True))  # each space's least last
    kept = [descriptor == least[s] for s, descriptor in zip(space.tolist(), descriptors)]
    anchor, member = np.nonzero(masks & np.array(kept)[:, None])
    bases = np.stack([data.space.basis for data in block]).reshape(len(block), -1, n, n).astype(np.int16)
    K, K_inv, at = equivalence._spin_frames(U[anchor, member], bases[space[anchor]] @ y_inv[anchor, None] % q, q)
    anchor = anchor[at]  # space-major, as the anchors are
    for s, form, i in zip(*least_forms(bases, space[anchor], anchor, y_inv, K, K_inv, q)):
        a = anchor[i]
        norm = (y[a], y_inv[a].astype(np.int64), K[i].astype(np.int64), K_inv[i].astype(np.int64))
        keys[s] = (q, n, dim, cpms[s], least[s], form.tobytes()), norm
    return keys


def least_forms(bases, space, anchor, y_inv, K, K_inv, q):
    """(spaces, least RREF rows, first candidate reaching each) of the
    normal forms K^-1 (S y^-1) K of the candidates, which are space-major
    and in each space's candidate order, S from its bases: one rref_batch per
    KEY_CANDIDATES forms, each chunk folded into the running least rows
    by one lexsort with the space as its primary key (stable, so the
    earlier candidate wins a tie)."""
    n = K.shape[-1]
    best_space = best_at = np.zeros(0, dtype=np.int64)
    best = np.zeros((0, bases.shape[1] * n * n), dtype=np.uint8)
    for lo in range(0, len(K), KEY_CANDIDATES):
        part = slice(lo, lo + KEY_CANDIDATES)
        U = bases[space[part]] @ y_inv[anchor[part], None] % q
        rows = np.concatenate([best, equivalence._normal_forms(K[part], K_inv[part], U, q)])
        spaces = np.concatenate([best_space, space[part]])
        at = np.concatenate([best_at, np.arange(lo, lo + len(U))])
        order = np.lexsort((*rows.T[::-1], spaces))
        first = order[np.append(True, spaces[order][1:] != spaces[order][:-1])]
        best, best_space, best_at = rows[first], spaces[first], at[first]
    return best_space, best, best_at


def isotopism_key(data):
    """The least-form key of one space, from a block of one, kept in its
    SpaceData as isotopism_key."""
    equivalence._block_pass([data], "isotopism_key", key_stage)
    return data.isotopism_key


def key_classes(spaces):
    """The classes of the distinct spaces by least-form keys in each
    fingerprint bucket, as a set of key sets, and the least-key member of
    each class, sorted by that key."""
    unique = sorted({s.key: s for s in spaces}.values(), key=lambda s: s.key)
    datas = [equivalence.SpaceData(s) for s in unique]
    block_pass(datas)
    classes = {}
    for s, data in zip(unique, datas):
        classes.setdefault((data.fingerprint, data.isotopism_key[0]), []).append(s)
    reps = sorted((min(c, key=equivalence._sort_key) for c in classes.values()), key=equivalence._sort_key)
    return {frozenset(s.key for s in c) for c in classes.values()}, reps


def test_classes_equal_least_key_classes_at_every_order8_level(order8_levels):
    for _, candidates, _ in order8_levels:
        want_classes, want_reps = key_classes(candidates)
        assert key_partition(candidates) == want_classes
        assert [s.key for s in equivalence.equivalence_classes(candidates)] == [s.key for s in want_reps]


def test_classes_equal_least_key_classes_on_order81_images():
    # the twelve order-81 atlas entries, two seeded images of each
    rng = np.random.default_rng(29)
    spaces = [s for name in atlas.ORDER81_NAMES for s in [atlas.atlas_get(name).space()] * 2]
    spaces = [equivalence.act(random_isotopism(rng, 3, 4), s) for s in spaces]
    want_classes, want_reps = key_classes(spaces)
    assert len(want_classes) == 12
    assert key_partition(spaces) == want_classes
    assert [s.key for s in equivalence.equivalence_classes(spaces)] == [s.key for s in want_reps]


# ---------------------------------------------------------------------------
# Block invariants against the per-space computation they replace
# ---------------------------------------------------------------------------


def oracle_fingerprint(data):
    """Oracle: the per-space fingerprint, one rank_batch over the space's
    elements and one gf.rank of its rank-one elements."""
    n, q = data.n, data.q
    ranks = gf.rank_batch(data.elems.reshape(-1, n, n), q)
    multiset = tuple(sorted(zip(*np.unique(ranks, return_counts=True))))
    r1 = np.nonzero(ranks == 1)[0]
    span_dim = gf.rank(data.elems[r1], q) if r1.size else 0
    return (data.space.dim, multiset, int(span_dim))


def oracle_unital_ids(data, inverses):
    """Oracle: charpoly ids of S Y^-1 for one space's (m, n, n) inverses,
    _DIVISION_BLOCK products at a time."""
    n, q = data.n, data.q
    mats = data.elems.reshape(-1, n, n).astype(np.int16)
    step = max(1, equivalence._DIVISION_BLOCK // len(mats))
    return np.concatenate([
        gf.charpoly_ids(
            (mats[None] @ block[:, None].astype(np.int16) % q).reshape(-1, n, n), q)
        for block in np.split(inverses, range(step, len(inverses), step))
    ]).reshape(len(inverses), len(mats))


def oracle_division_data(data):
    """Oracle: the per-space division data, from its own ranks, one
    inverse_batch and one np.unique per Y."""
    n, q = data.n, data.q
    idx = np.nonzero(gf.rank_batch(data.elems.reshape(-1, n, n), q) == n)[0]
    if q > 2:
        idx = idx[gf.leading_coeff(data.elems[idx], q) == 1]
    if not idx.size:
        return (), []
    inverses = gf.inverse_batch(data.elems[idx].reshape(-1, n, n), q)[0]
    ids = oracle_unital_ids(data, inverses)
    per_y = []
    for row, yi, y_inv in zip(ids, idx.tolist(), inverses):
        vals, counts = np.unique(row, return_counts=True)
        per_y.append((tuple(zip(vals.tolist(), counts.tolist())), yi, y_inv))
    return tuple(sorted(k for k, _, _ in per_y)), per_y


def oracle_krylov_bases(G, q):
    """Oracle: the int64 Krylov bases of a (k, n, n) stack, g-major."""
    k, n = G.shape[0], G.shape[-1]
    vecs = algebra.points_for(q, n).vectors
    cols = [np.broadcast_to(vecs, (k,) + vecs.shape)]
    for _ in range(n - 1):
        cols.append(cols[-1] @ G.transpose(0, 2, 1) % q)
    K = np.stack(cols, axis=-1).reshape(-1, n, n)
    K_inv, invertible = gf.inverse_batch(K, q)
    member = np.repeat(np.arange(k), len(vecs))[invertible]
    return K[invertible], K_inv[invertible].astype(np.int64), member


def oracle_isotopism_key(data):
    """Oracle: the per-space isotopism key.  Each anchor y of the anchor
    class gets its own ids of U = S y^-1 (oracle_unital_ids), its own
    min_degrees, its own frame group by the rule written out here, and its
    own _spin_frames call; one running least (descriptor, form) over the
    anchors in division order keeps the first frame that reaches it."""
    q, n, dim = data.q, data.n, data.space.dim
    _, per_y = oracle_division_data(data)
    if not per_y:
        return None
    counts = Counter(cpm for cpm, _, _ in per_y)
    cpm = min(counts, key=lambda c: (counts[c], c))
    mats = data.elems.reshape(-1, n, n).astype(np.int64)
    basis = data.space.basis.reshape(-1, n, n).astype(np.int64)
    best = None
    for c, yi, y_inv in per_y:
        if c != cpm:
            continue
        y_inv = y_inv.astype(np.int64)
        if dim == 1:
            ident = np.eye(n, dtype=np.int64)
            return (q, n, 1), (mats[yi], y_inv, ident, ident)
        U = mats @ y_inv % q
        ids, degrees = oracle_unital_ids(data, y_inv[None])[0], gf.min_degrees(U, q)
        groups = {}
        for cid, deg in zip(ids.tolist(), degrees.tolist()):
            groups[cid, deg] = groups.get((cid, deg), 0) + 1
        descriptor = min((-deg, size, cid) for (cid, deg), size in groups.items())
        G = U[(ids == descriptor[2]) & (degrees == -descriptor[0])]
        U_basis = basis @ y_inv % q
        K, K_inv, _ = equivalence._spin_frames(G, np.broadcast_to(U_basis, (len(G), *U_basis.shape)), q)
        K, K_inv = K.astype(np.int64), K_inv.astype(np.int64)
        forms = (K_inv[:, None] @ U_basis[None] % q @ K[:, None]) % q
        reduced = gf.rref_batch(forms.reshape(len(K), -1, n * n), q)[0].reshape(len(K), -1)
        for j, form in enumerate(reduced):
            if best is None or (descriptor, form.tobytes()) < best[0]:
                best = (descriptor, form.tobytes()), (mats[yi], y_inv, K[j], K_inv[j])
    (descriptor, form), norm = best
    return (q, n, dim, cpm, descriptor, form), norm


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def block_pass(datas):
    """Fill the fingerprint and least-form key slots of every space by
    blocks."""
    equivalence._block_pass(datas, "fingerprint", equivalence._fingerprint_stage)
    equivalence._block_pass(datas, "isotopism_key", key_stage)


def assert_block_invariants_match_oracles(spaces):
    """Block fingerprints, division data and keys of fresh SpaceData
    objects equal the per-space oracles."""
    datas = [equivalence.SpaceData(s) for s in spaces]
    block_pass(datas)
    assert_slots_match_oracles(datas)


def assert_slots_match_oracles(datas):
    for data in datas:
        assert data.fingerprint == oracle_fingerprint(data)
        signature, per_y = data.division_data
        want_signature, want_per_y = oracle_division_data(data)
        assert signature == want_signature
        assert [(c, yi) for c, yi, _ in per_y] == [(c, yi) for c, yi, _ in want_per_y]
        for (_, _, got), (_, _, want) in zip(per_y, want_per_y):
            assert_same_array(got, want)
        found, want = isotopism_key(data), oracle_isotopism_key(data)
        assert (found is None) == (want is None)
        if want is not None:
            assert found[0] == want[0]
            for got_m, want_m in zip(found[1], want[1]):
                assert_same_array(got_m, want_m)


def test_block_invariants_match_oracles_at_every_order8_level(order8_levels):
    for _, candidates, _ in order8_levels:
        assert_block_invariants_match_oracles(candidates)


@pytest.mark.slow
def test_block_invariants_match_oracles_order16(order16_levels):
    for spaces in order16_sample(order16_levels):
        assert_block_invariants_match_oracles(spaces)


@given(st.lists(spaces_and_isotopisms(), min_size=1, max_size=3), st.integers(0, 6))
def test_block_pass_over_mixed_spaces_keeps_a_preset_key(cases, preset):
    # spaces of several (q, n, dim), their isotopic images, and two spaces
    # without an invertible element, so without anchored forms; one slot is
    # set by hand first and must survive the pass, and every other slot
    # equals that of a block of one
    spaces = [s for space, g in cases for s in (space, equivalence.act(g, space))]
    singular = algebra.MatSpace.from_rows(2, 4, np.eye(16, dtype=np.uint8)[[0, 1, 5]])
    moved = equivalence.act(random_isotopism(np.random.default_rng(preset), 2, 4), singular)
    spaces += [singular, moved]
    datas = [equivalence.SpaceData(s) for s in spaces]
    held = datas[preset % len(datas)]
    sentinel = ("set by hand", None)
    held.anchored = sentinel
    equivalence._block_pass(datas, "anchored", equivalence._anchored_stage)
    assert held.anchored is sentinel
    assert all(data.anchored is None for data in datas[-2:] if data is not held)
    for data in datas:
        if data is not held and data.anchored is not None:
            assert_same_anchored(data.anchored, equivalence.SpaceData(data.space).anchored)
    block_pass(datas)
    assert_slots_match_oracles([data for data in datas if data is not held])
    assert held.fingerprint == oracle_fingerprint(held)


def assert_same_anchored(got, want):
    assert got.key == want.key
    for g, w in [(got.at, want.at), (got.members, want.members), *zip(got.singles, want.singles),
                 *zip(got.table, want.table)]:
        assert_same_array(g, w)


def test_order81_atlas_entries_get_twelve_distinct_block_keys():
    datas = [equivalence.SpaceData(atlas.atlas_get(name).space()) for name in atlas.ORDER81_NAMES]
    block_pass(datas)
    keys = [isotopism_key(data)[0] for data in datas]
    assert len(keys) == len(set(keys)) == 12
    assert_slots_match_oracles(datas)


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_spin_frames_of_cyclic_members_are_their_krylov_bases(q, n):
    G = np.random.default_rng(10 * q + n).integers(0, q, (48, n, n)).astype(np.uint8)
    G[::12] = np.eye(n, dtype=np.uint8)
    cyclic = np.nonzero(gf.min_degrees(G, q) == n)[0]
    want_K, want_K_inv, want_member = oracle_krylov_bases(G.astype(np.int64), q)
    # a member has a Krylov basis iff it is cyclic, and both kinds occur
    assert set(want_member.tolist()) == set(cyclic.tolist())
    assert 0 < len(cyclic) < len(G)
    K, K_inv, member = equivalence._spin_frames(G[cyclic], G[cyclic, None], q)
    assert_same_array(K, want_K.astype(np.uint8))
    assert_same_array(K_inv, want_K_inv.astype(np.uint8))
    assert_same_array(cyclic[member], want_member)


@st.composite
def members_and_conjugators(draw):
    """A scalar, diagonal, unipotent or random n x n matrix g over F_q, a
    diagonal or random h, and an invertible A."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 4))
    entries = st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n)
    g, h = (np.reshape(draw(entries), (n, n)) for _ in range(2))
    g = {
        "scalar": g[0, 0] * np.eye(n, dtype=np.int64),
        "diagonal": np.diag(np.diag(g)),
        "unipotent": np.eye(n, dtype=np.int64) + np.triu(g, 1),
        "random": g,
    }[draw(st.sampled_from(["scalar", "diagonal", "unipotent", "random"]))]
    h = np.diag(np.diag(h)) if draw(st.booleans()) else h
    return q, (g % q).astype(np.uint8), h.astype(np.uint8), draw(lu_invertible(q, n))


def projective_frames(K, q):
    """The frames of a stack, each scaled so that its first column is
    projective, as a set of bytes."""
    lead = gf.leading_coeff(K[:, :, 0].astype(np.int64), q)
    return {k.tobytes() for k in gf.as_residues(K * gf.inv_table(q)[lead][:, None, None], q)}


@given(members_and_conjugators())
def test_spin_frames_are_equivariant(case):
    # frames(A g A^-1) in A U A^-1 = A frames(g) in U, U the span of g and
    # h, up to the scalar that makes v1 projective
    q, g, h, A = case
    n = g.shape[0]
    A_inv = gf.mat_inverse(A, q)
    U = np.stack([g, h])[None]
    moved = np.stack([gf.mat_mul(gf.mat_mul(A, M, q), A_inv, q) for M in (g, h)])[None]
    try:
        K, K_inv, member = equivalence._spin_frames(U[:, 0], U, q)
    except TooLarge:
        with pytest.raises(TooLarge):
            equivalence._spin_frames(moved[:, 0], moved, q)
        assert n == 4  # at n <= 3 even a scalar has at most 5,616 frames
        return
    got = equivalence._spin_frames(moved[:, 0], moved, q)[0]
    assert (member == 0).all()
    assert (K_inv.astype(np.int64) @ K % q == np.eye(n, dtype=np.int64)).all()
    assert len(K) == len(got) == len(projective_frames(K, q))
    assert projective_frames(A.astype(np.int64) @ K % q, q) == projective_frames(got, q)


def test_automorphism_group_of_the_scalars():
    # every frame of I ties, so the group is all (A, c A^-1); at n = 4 the
    # 20,160 frames of I are past the cap
    scalars = algebra.MatSpace.from_rows(2, 3, np.eye(3, dtype=np.uint8).reshape(1, -1))
    aut = equivalence.automorphism_group(scalars)
    assert aut.order == 168
    assert pair_set(aut.A, aut.B) == pair_set(*equivalence._isotopisms_between(scalars, scalars, ""))
    with pytest.raises(TooLarge, match="spin frames"):
        equivalence.automorphism_group(algebra.MatSpace.from_rows(2, 4, np.eye(4).reshape(1, -1)))
