"""Equivalence of matrix spaces under (A, B) . X = A X B with A, B invertible.

Testing is anchored: fix an invertible X1 in S1; for each invertible Y in S2
the unknown B equals (A X1)^-1 Y, which reduces A S1 B = S2 to the conjugacy
problem A (S1 X1^-1) A^-1 = S2 Y^-1 between spaces containing the identity.
Conjugacy is solved by guessing images of a few generators among elements of
the target with matching characteristic polynomial; each guess is a linear
constraint on A, so the search intersects nullspaces and enumerates the last
small solution space.  The candidates of that space are validated as a batch:
one batched inverse, one product for the images of the basis of U under
every candidate, and one membership test in V.

Anchor candidates are pre-filtered by division signatures: the multiset, over
invertible Y, of characteristic-polynomial multisets of S Y^-1 is a full
G-invariant of S and is compared before any backtracking.

automorphism_group runs the same anchored search with S1 = S2, taking the
first conjugator for each Y, and one more search that keeps every
conjugator of U = S X1^-1 onto itself.  The automorphisms sending X1 to Y
are the first hit for Y times that conjugation stabilizer of U, so the
group's elements, and its point tables, are composed from the two factors.
Both anchor on the element of S1 whose cpm class (charpoly multiset of
S1 X1^-1) is rarest in S2, least index first, which leaves the fewest Y to
try.

Stabilizer groups act on the projective rank-one points by permutations:
(A, B) sends u w^T to (A u)(B^T w)^T, so two int16 tables over the
projective vectors of F_q^n give every element's action by index gathers.
Every group is built with its tables: automorphism_group composes them,
stabilizer_of_space slices its group's, and StabilizerGroup.of_elements
maps a given element stack (scanned stabilizers, the trivial group).
Orbit keys, stabilizers of spaces and orbits of points all use those
tables; a space counts through its rank-one points, which determine it when
it is the group's space plus their span.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gf
from .algebra import MatSpace, SpreadSet, points_for, rank_one_elements
from .codec import encode_rows
from .errors import BadParameters, NotContained, NotInvertible, TooLarge

_ENUMERATE_CAP = 1 << 13  # max q^dim scanned when a solution space is left


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Isotopism:
    """A pair of invertible matrices acting on spaces by X -> A X B."""

    A: np.ndarray
    B: np.ndarray
    q: int

    def __post_init__(self):
        for M in (self.A, self.B):
            if gf.mat_det(M, self.q) == 0:
                raise NotInvertible("isotopism components must be invertible")

    def inverse(self):
        return Isotopism(
            gf.mat_inverse(self.A, self.q), gf.mat_inverse(self.B, self.q), self.q
        )


def act(g, space):
    """Canonical space {A X B : X in space}."""
    moved = _act_arrays(g.A[None], g.B[None], space.basis, space.q)[0]
    return MatSpace.from_rows(space.q, space.n, moved)


def _act_arrays(gA, gB, basis, q):
    """Apply a stack of pairs to one basis: (G,n,n),(k,nn) -> (G,k,nn)."""
    n = gA.shape[-1]
    mats = basis.reshape(-1, n, n).astype(np.int64)
    out = (gA[:, None].astype(np.int64) @ mats[None] @ gB[:, None].astype(np.int64)) % q
    return out.reshape(gA.shape[0], -1, n * n)


# ---------------------------------------------------------------------------
# Per-space cached data: elements, ranks, charpolys, signatures
# ---------------------------------------------------------------------------


def _charpoly_ids(mats, q):
    """Charpoly id of each matrix of a (B, n, n) stack: the base-q code of
    its non-leading charpoly coefficients."""
    return encode_rows(gf.charpoly_batch(mats, q)[:, 1:], q)


@lru_cache(maxsize=4)
def _charpoly_code_table(q, n):
    """_charpoly_ids of every n x n matrix, indexed by its encoding; only
    built for q = 2, one block per last matrix row to bound the temporaries."""
    # row c of the reversed grid holds the base-q digits of c, least first
    digits = gf.coefficient_grid(q, n * n)[:, ::-1]
    return np.concatenate([_charpoly_ids(b, q) for b in digits.reshape(q**n, -1, n, n)])


class SpaceData:
    """Element-level invariants of one MatSpace, each computed on first use."""

    def __init__(self, space):
        self.space = space
        self.q = space.q
        self.n = space.n

    @cached_property
    def elems(self):
        return self.space.nonzero_elements()

    @cached_property
    def ranks(self):
        return gf.rank_batch(self.elems.reshape(-1, self.n, self.n), self.q)

    def _cp_of_mats(self, mats):
        if self.q == 2 and self.n <= 4:
            table = _charpoly_code_table(self.q, self.n)
            return table[encode_rows(mats.reshape(mats.shape[0], -1) % self.q, self.q)]
        return _charpoly_ids(mats, self.q)

    @cached_property
    def cp_ids(self):
        """Stable per-element characteristic polynomial ids."""
        return self._cp_of_mats(self.elems.reshape(-1, self.n, self.n))

    @cached_property
    def fingerprint(self):
        ranks = self.ranks
        multiset = tuple(sorted(zip(*np.unique(ranks, return_counts=True))))
        r1 = np.nonzero(ranks == 1)[0]
        span_dim = gf.rank(self.elems[r1], self.q) if r1.size else 0
        return (self.space.dim, multiset, int(span_dim))

    @cached_property
    def invertible_projective(self):
        """Indices of invertible elements normalised projectively."""
        idx = np.nonzero(self.ranks == self.n)[0]
        if self.q == 2:
            return idx
        lead = gf.leading_coeff(self.elems[idx], self.q)
        return idx[lead == 1]

    @cached_property
    def division_data(self):
        """(signature, list of (cpm_key, element, Y^-1)) over projective
        invertible Y, with Y^-1 an (n, n) uint8 matrix.

        cpm_key is the sorted charpoly multiset of S Y^-1; the signature is
        the sorted multiset of cpm_keys, a full equivalence invariant.  One
        batched inverse covers every Y.
        """
        mats = self.elems.reshape(-1, self.n, self.n).astype(np.int64)
        idx = self.invertible_projective
        inverses = gf.inverse_batch(mats[idx], self.q)[0].astype(np.uint8)
        per_y = []
        for yi, y_inv in zip(idx.tolist(), inverses):
            prods = (mats @ y_inv.astype(np.int64)) % self.q
            ids = self._cp_of_mats(prods)
            vals, counts = np.unique(ids, return_counts=True)
            key = tuple(zip(vals.tolist(), counts.tolist()))
            per_y.append((key, yi, y_inv))
        return tuple(sorted(k for k, _, _ in per_y)), per_y


_DATA_CACHE = {}


def space_data(space):
    data = _DATA_CACHE.get(space.key)
    if data is None:
        data = SpaceData(space)
        _DATA_CACHE[space.key] = data
        if len(_DATA_CACHE) > 4000:
            _DATA_CACHE.clear()
    return data


# ---------------------------------------------------------------------------
# Conjugacy search: all invertible A with A U A^-1 = V, U and V unital
# ---------------------------------------------------------------------------


def _unital_generators(space):
    """Basis of the space of the form [I, g2, .., gk]."""
    n = space.n
    ident = np.eye(n, dtype=np.int64).reshape(-1)
    coeffs = gf.solve(space.basis.T, ident, space.q)
    if coeffs is None:
        raise NotContained("space does not contain the identity")
    pivot = int(np.nonzero(coeffs)[0][0])
    gens = [space.basis[i] for i in range(space.dim) if i != pivot]
    return [g.reshape(n, n).astype(np.int64) for g in gens]


def _constraint_matrix(g, W, q, n):
    """Matrix of A -> A g - W A acting on row-major flattened A.

    Entry [(i, j), (k, l)] is [i = k] g[l, j] - W[i, k] [j = l].
    """
    eye = np.eye(n, dtype=np.int64)
    C = (
        eye[:, None, :, None] * g.T[None, :, None, :]
        - W[:, None, :, None] * eye[None, :, None, :]
    )
    return C.reshape(n * n, n * n) % q


def _intersect(basis, C, q):
    """Intersect span(basis rows) with the nullspace of C (acting on columns)."""
    if basis.shape[0] == 0:
        return basis
    proj = (C @ basis.T.astype(np.int64)) % q
    null = gf.nullspace(proj, q)
    if null.shape[0] == 0:
        return basis[:0]
    return (null.astype(np.int64) @ basis.astype(np.int64)) % q


def _conjugating(cands, u_mats, V_space, q):
    """The candidates A of a (B, n, n) stack with A U A^-1 in V_space for
    every U in u_mats, in input order.

    One batched inverse, one product and one membership test cover the
    whole stack.
    """
    inverses, invertible = gf.inverse_batch(cands, q)
    A = cands[invertible].astype(np.int64)
    A_inv = inverses[invertible].astype(np.int64)
    images = (A[:, None] @ u_mats[None] @ A_inv[:, None]) % q
    inside = V_space.contains_batch(images.reshape(-1, images.shape[-1] ** 2))
    return A[inside.reshape(A.shape[0], u_mats.shape[0]).all(axis=1)].astype(np.uint8)


def _conjugators(dataU, dataV, find_all):
    """Invertible A with A U A^-1 = V, as a (k, n, n) uint8 stack: all of
    them with find_all, else at most the first.

    dataU/dataV wrap unital spaces of equal dimension whose charpoly
    multisets already match.
    """
    q, n = dataU.q, dataU.n
    U_space, V_space = dataU.space, dataV.space
    gens = _unital_generators(U_space)
    if not gens and not find_all:
        return np.eye(n, dtype=np.uint8)[None]

    v_mats = dataV.elems.reshape(-1, n, n).astype(np.int64)
    v_ids = dataV.cp_ids
    if gens:
        gen_ids = dataU._cp_of_mats(np.stack(gens))
        by_count = sorted(
            range(len(gens)), key=lambda i: int((v_ids == gen_ids[i]).sum())
        )
        gens = [gens[i] for i in by_count]
        gen_ids = gen_ids[by_count]
    u_mats = U_space.basis.reshape(-1, n, n).astype(np.int64)
    empty = np.zeros((0, n, n), dtype=np.uint8)

    def search(idx, basis):
        """Conjugators in span(basis), guessing images of gens[idx:] in V."""
        d = basis.shape[0]
        if d == 0:
            return empty
        if idx == len(gens) or q**d <= 256:
            if q**d > _ENUMERATE_CAP:
                raise TooLarge(f"conjugacy solution space q^{d} too large to scan")
            cands = (gf.coefficient_grid(q, d)[1:] @ basis.astype(np.int64)) % q
            found = _conjugating(cands.reshape(-1, n, n), u_mats, V_space, q)
            return found if find_all else found[:1]
        found = []
        for wi in np.nonzero(v_ids == gen_ids[idx])[0]:
            C = _constraint_matrix(gens[idx], v_mats[wi], q, n)
            sub = search(idx + 1, _intersect(basis, C, q))
            if len(sub) and not find_all:
                return sub
            found.append(sub)
        return np.concatenate(found) if found else empty

    return search(0, np.eye(n * n, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Equivalence testing
# ---------------------------------------------------------------------------


def _right_translate(space, m_inv):
    n = space.n
    mats = space.basis.reshape(-1, n, n).astype(np.int64)
    rows = (mats @ m_inv) % space.q
    return MatSpace.from_rows(space.q, n, rows.reshape(-1, n * n))


def _anchor(d1, d2):
    """(cpm key, matrix, data of S1 x^-1) of the anchor x of S1 against S2.

    The anchor is the projective invertible element of S1 whose cpm key is
    rarest among those of S2, the least index on ties.
    """
    _, per_y1 = d1.division_data
    count2 = Counter(k for k, _, _ in d2.division_data[1])
    cpm_x, x_idx, x_inv = min(per_y1, key=lambda item: (count2[item[0]], item[1]))
    x = d1.elems[x_idx].reshape(d1.n, d1.n).astype(np.int64)
    return cpm_x, x, space_data(_right_translate(d1.space, x_inv.astype(np.int64)))


def _anchored_isotopisms(d1, d2):
    """Isotopisms from S1 to S2 that send the anchor x of S1 into S2, one
    (A, B) pair of (n, n) uint8 matrices per image y that has one.

    The images y are the projective invertible elements of S2 with x's cpm
    key, in division_data order.  A is the first conjugator of S1 x^-1 onto
    S2 y^-1 that the search finds and B = (A x)^-1 y.
    """
    q = d1.q
    cpm_x, x, dataU = _anchor(d1, d2)
    _, per_y2 = d2.division_data
    mats2 = d2.elems.reshape(-1, d2.n, d2.n)
    for cpm, y_idx, y_inv in per_y2:
        if cpm != cpm_x:
            continue
        V = _right_translate(d2.space, y_inv.astype(np.int64))
        As = _conjugators(dataU, space_data(V), find_all=False)
        if not len(As):
            continue
        inverse, invertible = gf.inverse_batch((As.astype(np.int64) @ x) % q, q)
        if not invertible.all():
            raise NotInvertible("a conjugator times the anchor is singular")
        B = (inverse[0].astype(np.int64) @ mats2[y_idx].astype(np.int64)) % q
        yield As[0], B.astype(np.uint8)


def are_equivalent(s1, s2):
    """A witness Isotopism g with act(g, s1) = s2, or None.

    Exhaustive given the anchoring argument: any witness must map the chosen
    invertible anchor of s1 to some invertible element of s2.
    """
    if isinstance(s1, SpreadSet):
        s1 = s1.space
    if isinstance(s2, SpreadSet):
        s2 = s2.space
    if (s1.q, s1.n) != (s2.q, s2.n):
        return None
    q, n = s1.q, s1.n
    if s1.key == s2.key:
        ident = np.eye(n, dtype=np.uint8)
        return Isotopism(ident, ident, q)
    d1, d2 = space_data(s1), space_data(s2)
    if d1.fingerprint != d2.fingerprint:
        return None

    inv1 = d1.invertible_projective
    inv2 = d2.invertible_projective
    if inv1.size == 0 or inv2.size == 0:
        if inv1.size != inv2.size:
            return None
        return _brute_force_equivalent(s1, s2)

    if d1.division_data[0] != d2.division_data[0]:
        return None

    for A, B in _anchored_isotopisms(d1, d2):
        witness = Isotopism(A, B, q)
        if act(witness, s1) != s2:
            raise NotContained("equivalence witness does not map s1 onto s2")
        return witness
    return None


def _brute_force_equivalent(s1, s2):
    """Last resort for spaces with no invertible element: scan GL x GL."""
    A, B = _isotopisms_between(s1, s2, "no invertible anchor and ambient too large to scan")
    return Isotopism(A[0], B[0], s1.q) if len(A) else None


def _isotopisms_between(s1, s2, why):
    """(A, B) stacks of every pair in GL_n(q)^2 with A s1 B = s2, A-major,
    each factor in lexicographic order of its entries.  Raises TooLarge(why)
    when M_n(q) has more than 4096 elements.  One batched action per A
    covers every B."""
    q, n = s1.q, s1.n
    if q ** (n * n) > 4096:
        raise TooLarge(why)
    mats = gf.coefficient_grid(q, n * n).astype(np.uint8).reshape(-1, n, n)
    gl = mats[gf.det_batch(mats, q) != 0]
    if s1.dim != s2.dim:
        return gl[:0], gl[:0]
    hits = [s2.contains_batch(_act_arrays(A[None], gl, s1.basis, q)[0]) for A in gl]
    a, b = np.nonzero(np.reshape(hits, (len(gl), len(gl), s1.dim)).all(axis=2))
    return gl[a], gl[b]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _sort_key(space):
    """Deterministic total order on spaces via the canonical RREF basis."""
    return (space.dim, space.key)


def _rank_one_points_inside(space, group):
    """Sorted indices (into points_for) of the rank-one points in the space.

    They determine the space only when it is group.space plus their span,
    so that is checked: for such spaces, g maps V onto V' iff it maps the
    points of V onto those of V', since g fixes group.space.
    """
    pts = points_for(space.q, space.n)
    inside = np.nonzero(space.contains_batch(pts.flat))[0]
    rows = pts.flat[inside]
    if group.space is not None:
        if not space.contains_space(group.space):
            raise BadParameters("space does not contain the group's space")
        rows = np.concatenate([group.space.basis, rows])
    if gf.rank(rows, space.q) != space.dim:
        raise BadParameters("space is not the group's space plus its rank-one points")
    return inside


def _orbit_canonical_key(space, group):
    """Least sorted image, over the group, of the space's rank-one points."""
    images = np.sort(group.point_images(_rank_one_points_inside(space, group)), axis=1)
    for col in range(images.shape[1]):
        images = images[images[:, col] == images[:, col].min()]
    return images[0].tobytes()


def equivalence_classes(spaces, group=None):
    """Representatives of the distinct equivalence classes of the input.

    Under the full group the test is are_equivalent; when an explicit
    subgroup is supplied, classes are orbits under exactly that subgroup.
    Each space must then contain group.space and equal group.space plus the
    span of its rank-one points (BadParameters otherwise), so that the
    orbit of its rank-one point set is a complete key.
    The output is a deterministic function of the input set: each
    representative is the member of its class with the least (dim, RREF
    basis bytes), and the output is sorted by that key.
    """
    spaces = list(spaces)
    if not spaces:
        return []
    unique = {}
    for s in spaces:
        unique.setdefault(s.key, s)
    items = sorted(unique.values(), key=lambda s: s.key)

    if group is not None:
        classes = {}
        for s in items:
            classes.setdefault(_orbit_canonical_key(s, group), []).append(s)
        reps = [min(members, key=_sort_key) for members in classes.values()]
        return sorted(reps, key=_sort_key)

    buckets = {}
    for s in items:
        buckets.setdefault(space_data(s).fingerprint, []).append(s)
    classes = []  # list of member lists
    for fp in sorted(buckets, key=repr):
        reps_here = []
        for s in buckets[fp]:
            for members in reps_here:
                if are_equivalent(members[0], s) is not None:
                    members.append(s)
                    break
            else:
                reps_here.append([s])
        classes.extend(reps_here)
    reps = [min(members, key=_sort_key) for members in classes]
    return sorted(reps, key=_sort_key)


# ---------------------------------------------------------------------------
# Stabilizer groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StabilizerGroup:
    """Setwise stabilizer {(A, B) : A S B = S}, fully enumerated.

    Carries the complete element arrays (order is the pair count).  Each
    element also permutes the projective rank-one points, u w^T ->
    (A u)(B^T w)^T; tables, built with the group, holds that action as two
    int16 (order, m) tables: the projective index of A v and of B^T v for
    every projective vector v.
    """

    q: int
    n: int
    A: np.ndarray
    B: np.ndarray
    tables: tuple
    space: MatSpace = None

    @classmethod
    def of_elements(cls, q, n, A, B, space=None):
        """The group of the given element stacks, with their point tables."""
        pts = points_for(q, n)
        tables = (pts.vector_images(A), pts.vector_images(B.transpose(0, 2, 1)))
        return cls(q, n, A, B, tables, space)

    @classmethod
    def trivial(cls, q, n):
        ident = np.eye(n, dtype=np.uint8)[None]
        return cls.of_elements(q, n, ident, ident.copy())

    @property
    def order(self):
        return self.A.shape[0]

    def isotopisms(self):
        return [Isotopism(a, b, self.q) for a, b in zip(self.A, self.B)]

    def point_images(self, idx):
        """(order, len(idx)) indices of the images of the given points."""
        pts = points_for(self.q, self.n)
        TA, TB = self.tables
        return pts.of_uw[TA[:, pts.u[idx]], TB[:, pts.w[idx]]]

    def stabilizer_of_space(self, space):
        """Subgroup of elements that also fix the given space setwise.

        The space must be self.space plus the span of its rank-one points
        (BadParameters otherwise); an element then fixes it iff it fixes
        that point set.
        """
        inside = _rank_one_points_inside(space, self)
        ok = (np.sort(self.point_images(inside), axis=1) == inside).all(axis=1)
        tables = tuple(T[ok] for T in self.tables)
        return StabilizerGroup(self.q, self.n, self.A[ok], self.B[ok], tables, space)


def automorphism_group(space):
    """Exact setwise stabilizer of a space containing an invertible element,
    with its point tables.

    An automorphism sends the anchor x to some y with x's cpm key, and those
    sending x to y are (A0 C, (A0 C x)^-1 y) = (A0 C, D B0): (A0, B0) is the
    first hit of the anchored search for y, C runs over the conjugation
    stabilizer of U = S x^-1 and D = x^-1 C^-1 x.  So one search for C and
    one first hit per y give the group, a block per y in division_data
    order, each B times every unit, A-major; the point tables of a block are
    those of C and D^T composed with those of A0 and B0^T.
    """
    if isinstance(space, SpreadSet):
        space = space.space
    q, n = space.q, space.n
    data = space_data(space)
    if data.invertible_projective.size == 0:
        return _brute_force_stabilizer(space)
    _, x, dataU = _anchor(data, data)
    pts = points_for(q, n)
    C = _conjugators(dataU, dataU, find_all=True).astype(np.int64)
    inverses, _ = gf.inverse_batch((C @ x) % q, q)
    D = (inverses.astype(np.int64) @ x) % q
    TC = np.repeat(pts.vector_images(C), q - 1, axis=0)
    TD = np.repeat(pts.vector_images(D.transpose(0, 2, 1)), q - 1, axis=0)
    units = np.arange(1, q, dtype=np.int64)[None, :, None, None]
    As, Bs, TAs, TBs = [], [], [], []
    for A0, B0 in _anchored_isotopisms(data, data):
        As.append(np.repeat((A0.astype(np.int64) @ C % q).astype(np.uint8), q - 1, axis=0))
        B = (D @ B0.astype(np.int64)) % q
        Bs.append((B[:, None] * units % q).reshape(-1, n, n).astype(np.uint8))
        TAs.append(pts.vector_images(A0[None])[0][TC])
        TBs.append(pts.vector_images(B0.T[None])[0][TD])
    tables = (np.concatenate(TAs), np.concatenate(TBs))
    return StabilizerGroup(q, n, np.concatenate(As), np.concatenate(Bs), tables, space)


def _brute_force_stabilizer(space):
    A, B = _isotopisms_between(space, space, "stabilizer of anchor-free space too large to scan")
    return StabilizerGroup.of_elements(space.q, space.n, A, B, space)


# ---------------------------------------------------------------------------
# Orbits of rank-one matrices
# ---------------------------------------------------------------------------


def rank_one_orbits(group):
    """Partition of all rank-one matrices into orbits of the group.

    Sweeps the matrices in encoding order: the least unlabelled one
    represents its orbit, the set of its images A X B over the group.
    Returns a list of (representative matrix, orbit size), sorted by the
    representative's encoding.
    """
    q, n = group.q, group.n
    mats = rank_one_elements(q, n)
    flat = np.stack(mats).reshape(len(mats), n * n)
    codes = encode_rows(flat, q)  # ascending: mats are sorted by encoding
    labelled = np.zeros(len(mats), dtype=bool)
    out = []
    for i, M in enumerate(mats):
        if labelled[i]:
            continue
        images = _act_arrays(group.A, group.B, flat[i], q)[:, 0]
        hit = np.unique(np.searchsorted(codes, encode_rows(images, q)))
        labelled[hit] = True
        out.append((M, hit.size))
    return out
