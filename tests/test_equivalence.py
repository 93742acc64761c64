from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spreadrank import algebra, atlas, equivalence, gf, search
from spreadrank.errors import BadParameters, NotContained, NotInvertible, TooLarge


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
    for p, child_no in zip(ext.out_idx, ext.child):
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
            fresh = equivalence.StabilizerGroup.of_elements(stab.q, stab.n, stab.A, stab.B)
            for sliced, built in zip(stab.tables, fresh.tables):
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


# ---------------------------------------------------------------------------
# Batched conjugacy kernel against the per-candidate loops it replaces
# ---------------------------------------------------------------------------


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
        fast = equivalence._constraint_matrix(g, W, q, n)
        slow = kron_constraint_matrix(g, W, q, n)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("n, sample", [(3, None), (4, 3000)], ids=["all-3x3", "sample-4x4"])
def test_charpoly_table_ids_equal_kernel_ids(monkeypatch, n, sample):
    # one charpoly id: the q = 2 table is a precomputed copy of the kernel's
    mats = gf.coefficient_grid(2, n * n).astype(np.uint8).reshape(-1, n, n)
    if sample:
        mats = mats[np.random.default_rng(n).choice(len(mats), sample, replace=False)]
    kernel_ids = equivalence._charpoly_ids(mats, 2)
    data = equivalence.SpaceData(algebra.MatSpace.from_matrices(2, n, [np.eye(n, dtype=np.uint8)]))
    equivalence._charpoly_code_table(2, n)

    def no_kernel(mats, q):
        raise AssertionError("the q = 2 path ran the kernel")

    monkeypatch.setattr(gf, "charpoly_batch", no_kernel)
    table_ids = data._cp_of_mats(mats)
    assert table_ids.tobytes() == kernel_ids.tobytes()
    assert len(np.unique(kernel_ids)) == 2**n  # every monic charpoly of degree n occurs


def oracle_conjugating(cands, u_mats, V_space, q):
    """Oracle: one rank batch, then one inverse and one membership test per
    candidate; the passing candidates as a (k, n, n) uint8 stack."""
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


def oracle_automorphism_group(space, x_idx):
    """Oracle: automorphism_group anchored on element x_idx, with every
    conjugator found by its own search per y, one mat_inverse per anchor, y
    and conjugator and one B per (conjugator, unit).  Returns one (A, B)
    block per y that has a conjugator, in division_data order."""
    q, n = space.q, space.n
    data = equivalence.space_data(space)
    mats = data.elems.reshape(-1, n, n)
    _, per_y = data.division_data
    cpm_x = {yi: k for k, yi, _ in per_y}[x_idx]
    x1 = mats[x_idx].astype(np.int64)
    U = equivalence._right_translate(space, gf.mat_inverse(x1, q).astype(np.int64))
    dataU = equivalence.space_data(U)
    blocks = []
    for cpm2, y_idx, _ in per_y:
        if cpm2 != cpm_x:
            continue
        y = mats[y_idx].astype(np.int64)
        V = equivalence._right_translate(space, gf.mat_inverse(y, q).astype(np.int64))
        dataV = equivalence.space_data(V)
        pairs_A, pairs_B = [], []
        for A in equivalence._conjugators(dataU, dataV, find_all=True):
            base = gf.mat_inverse((A.astype(np.int64) @ x1) % q, q).astype(np.int64)
            for lam in range(1, q):
                pairs_A.append(A)
                pairs_B.append(((base * lam % q) @ y % q).astype(np.uint8))
        if pairs_A:
            blocks.append((np.stack(pairs_A), np.stack(pairs_B)))
    return blocks


def pair_set(gA, gB):
    return {a.tobytes() + b.tobytes() for a, b in zip(gA, gB)}


@pytest.mark.parametrize(
    "name", ["F16", "S1", "S2", pytest.param("F81", marks=pytest.mark.slow)]
)
def test_automorphism_group_matches_per_candidate_oracle(name, monkeypatch):
    space = atlas.atlas_get(name).space()
    fast = equivalence.automorphism_group(space)
    monkeypatch.setattr(equivalence, "_conjugating", oracle_conjugating)
    data = equivalence.space_data(space)
    _, per_y = data.division_data
    count = Counter(k for k, _, _ in per_y)
    rarest = min(per_y, key=lambda item: (count[item[0]], item[1]))[1]
    # block by block: the same y order and sizes, and the same pairs in
    # each block (inside a block the order is that of the stabilizer of U)
    start = 0
    for A, B in oracle_automorphism_group(space, rarest):
        stop = start + len(A)
        assert fast.A.dtype == A.dtype and fast.B.dtype == B.dtype
        assert pair_set(fast.A[start:stop], fast.B[start:stop]) == pair_set(A, B)
        start = stop
    assert start == fast.order
    # the group the first anchor gives, in another order
    blocks = oracle_automorphism_group(space, int(data.invertible_projective[0]))
    A, B = (np.concatenate(parts) for parts in zip(*blocks))
    assert len(A) == fast.order
    assert pair_set(A, B) == pair_set(fast.A, fast.B)


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
    pts = algebra.points_for(space.q, space.n)
    TA, TB = aut.tables
    assert np.array_equal(TA, pts.vector_images(aut.A))
    assert np.array_equal(TB, pts.vector_images(aut.B.transpose(0, 2, 1)))
    assert TA.dtype == TB.dtype == np.int16
    moved = equivalence._act_arrays(aut.A, aut.B, space.basis, space.q)
    assert space.contains_batch(moved.reshape(-1, space.n**2)).all()
    assert len(pair_set(aut.A, aut.B)) == aut.order


def test_automorphism_group_f81_runs_one_find_all_search(monkeypatch):
    space = atlas.atlas_get("F81").space()
    data = equivalence.space_data(space)
    cpm_x = equivalence._anchor(data, data)[0]
    images = sum(k == cpm_x for k, _, _ in data.division_data[1])
    calls = []
    conjugators = equivalence._conjugators

    def counted(dataU, dataV, find_all):
        calls.append(find_all)
        return conjugators(dataU, dataV, find_all)

    monkeypatch.setattr(equivalence, "_conjugators", counted)
    aut = equivalence.automorphism_group(space)
    assert aut.order == 25600
    assert calls.count(True) == 1 and calls[0] is True
    assert calls.count(False) == images == 40


@pytest.mark.parametrize("name", ["F16", "S1", "F81", "I"])
def test_division_data_keeps_the_inverse_of_each_element(name):
    data = equivalence.space_data(atlas.atlas_get(name).space())
    n, q = data.n, data.q
    _, per_y = data.division_data
    assert [yi for _, yi, _ in per_y] == data.invertible_projective.tolist()
    for _, yi, y_inv in per_y:
        want = gf.mat_inverse(data.elems[yi].reshape(n, n), q)
        assert y_inv.dtype == want.dtype and y_inv.tobytes() == want.tobytes()


def test_are_equivalent_witness_matches_per_candidate_oracle(monkeypatch):
    rng = np.random.default_rng(9)
    pairs = []
    for q in (2, 3):
        for _ in range(8):
            space = random_space_with_identity(rng, q, 4, int(rng.integers(1, 4)))
            pairs.append((space, equivalence.act(random_isotopism(rng, q, 4), space)))
    fast = [equivalence.are_equivalent(s1, s2) for s1, s2 in pairs]
    monkeypatch.setattr(equivalence, "_conjugating", oracle_conjugating)
    slow = [equivalence.are_equivalent(s1, s2) for s1, s2 in pairs]
    for got, want in zip(fast, slow):
        assert got.A.tobytes() == want.A.tobytes()
        assert got.B.tobytes() == want.B.tobytes()


def oracle_are_equivalent(s1, s2):
    """Oracle: the anchor loop of are_equivalent before it was shared with
    automorphism_group, with one mat_inverse per y and one mat_mul per
    witness.  The pre-filters are assumed passed."""
    q, n = s1.q, s1.n
    d1, d2 = equivalence.space_data(s1), equivalence.space_data(s2)
    _, per_y1 = d1.division_data
    _, per_y2 = d2.division_data
    count2 = Counter(k for k, _, _ in per_y2)
    cpm1, x_idx, _ = min(per_y1, key=lambda item: (count2[item[0]], item[1]))
    mats1 = d1.elems.reshape(-1, n, n)
    mats2 = d2.elems.reshape(-1, n, n)
    x1 = mats1[x_idx].astype(np.int64)
    U = equivalence._right_translate(s1, gf.mat_inverse(x1, q).astype(np.int64))
    dataU = equivalence.space_data(U)
    for cpm2, y_idx, _ in per_y2:
        if cpm2 != cpm1:
            continue
        y = mats2[y_idx].astype(np.int64)
        V = equivalence._right_translate(s2, gf.mat_inverse(y, q).astype(np.int64))
        for A in equivalence._conjugators(dataU, equivalence.space_data(V), find_all=False):
            B = gf.mat_mul(gf.mat_inverse((A.astype(np.int64) @ x1) % q, q), y, q)
            return equivalence.Isotopism(A, B, q)
    return None


def test_are_equivalent_witness_matches_anchor_loop_oracle():
    rng = np.random.default_rng(11)
    pairs = []
    for q in (2, 3):
        for _ in range(8):
            space = random_space_with_identity(rng, q, 4, int(rng.integers(1, 4)))
            pairs.append((space, equivalence.act(random_isotopism(rng, q, 4), space)))
    for name in ("F16", "S1", "S2", "F81", "I"):
        space = atlas.atlas_get(name).space()
        pairs.append((space, equivalence.act(random_isotopism(rng, space.q, 4), space)))
    for s1, s2 in pairs:
        assert s1 != s2
        got = equivalence.are_equivalent(s1, s2)
        want = oracle_are_equivalent(s1, s2)
        assert equivalence.act(got, s1) == s2
        for g, w in ((got.A, want.A), (got.B, want.B)):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


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
