"""Equivalence of matrix spaces under (A, B) . X = A X B with A, B invertible.

Testing is anchored: fix an invertible X1 in S1; for each invertible Y in S2
the unknown B equals (A X1)^-1 Y, which reduces A S1 B = S2 to the conjugacy
problem A (S1 X1^-1) A^-1 = S2 Y^-1 between spaces containing the identity.
Conjugacy is solved by guessing images of a few generators among elements of
the target with matching characteristic polynomial; each guess is a linear
constraint on A, so the search intersects nullspaces and enumerates the last
small solution space.

Anchor candidates are pre-filtered by division signatures: the multiset, over
invertible Y, of characteristic-polynomial multisets of S Y^-1 is a full
G-invariant of S and is compared before any backtracking.

Stabilizer groups act on the projective rank-one points by permutations:
(A, B) sends u w^T to (A u)(B^T w)^T, so two int16 tables over the
projective vectors of F_q^n give every element's action by index gathers.
Orbit keys, stabilizers of spaces and orbits of points all use those
tables; a space counts through its rank-one points, which determine it when
it is the group's space plus their span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf
from .algebra import MatSpace, SpreadSet, points_for, rank_one_elements
from .errors import BadParameters, NotContained, NotInvertible, TooLarge

_ENUMERATE_CAP = 1 << 13  # max q^dim scanned when a solution space is left
_TABLE_CHUNK = 4096  # group elements per pass when building point tables


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

    def apply_mat(self, M):
        return gf.mat_mul(gf.mat_mul(self.A, M, self.q), self.B, self.q)


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


@lru_cache(maxsize=4)
def _charpoly_code_table(q, n):
    """charpoly lookup keyed by integer encoding; only built for q = 2."""
    size = q ** (n * n)
    codes = np.arange(size, dtype=np.int64)
    digits = np.zeros((size, n * n), dtype=np.int64)
    tmp = codes.copy()
    for pos in range(n * n):
        digits[:, pos] = tmp % q
        tmp //= q
    cps = gf.charpoly_batch(digits.reshape(size, n, n), q)
    # map distinct rows to small ids
    _, ids = np.unique(cps, axis=0, return_inverse=True)
    return ids.astype(np.int16)


def _encode_rows_int(rows, q):
    w = q ** np.arange(rows.shape[1], dtype=np.int64)
    return rows.astype(np.int64) @ w


class SpaceData:
    """Lazy caches of element-level invariants for one MatSpace."""

    def __init__(self, space):
        self.space = space
        self.q = space.q
        self.n = space.n
        self._elems = None
        self._ranks = None
        self._cp_ids = None
        self._div_sig = None
        self._fingerprint = None

    @property
    def elems(self):
        if self._elems is None:
            self._elems = self.space.nonzero_elements()
        return self._elems

    @property
    def ranks(self):
        if self._ranks is None:
            mats = self.elems.reshape(-1, self.n, self.n)
            self._ranks = gf.rank_batch(mats, self.q)
        return self._ranks

    def _cp_of_mats(self, mats):
        if self.q == 2 and self.n <= 4:
            table = _charpoly_code_table(self.q, self.n)
            codes = _encode_rows_int(mats.reshape(mats.shape[0], -1) % self.q, self.q)
            return table[codes]
        # stable id: evaluate the coefficient tuple as a base-(q+1) integer
        cps = gf.charpoly_batch(mats, self.q)
        w = np.array([(self.q + 1) ** k for k in range(cps.shape[1])], dtype=np.int64)
        return (cps.astype(np.int64) % self.q) @ w

    @property
    def cp_ids(self):
        """Stable per-element characteristic polynomial ids."""
        if self._cp_ids is None:
            self._cp_ids = self._cp_of_mats(self.elems.reshape(-1, self.n, self.n))
        return self._cp_ids

    @property
    def fingerprint(self):
        if self._fingerprint is None:
            ranks = self.ranks
            multiset = tuple(sorted(zip(*np.unique(ranks, return_counts=True))))
            r1 = np.nonzero(ranks == 1)[0]
            span_dim = 0
            if r1.size:
                span_dim = gf.rank(self.elems[r1], self.q)
            self._fingerprint = (
                self.space.dim,
                multiset,
                int(r1.size) // (self.q - 1),
                int(span_dim),
            )
        return self._fingerprint

    def invertible_projective(self):
        """Indices of invertible elements normalised projectively."""
        mask = self.ranks == self.n
        idx = np.nonzero(mask)[0]
        if self.q == 2:
            return idx
        lead = _leading_coeff(self.elems[idx], self.q)
        return idx[lead == 1]

    def division_data(self):
        """(signature, list of (cpm_key, element)) over projective invertible Y.

        cpm_key is the sorted charpoly multiset of S Y^-1; the signature is
        the sorted multiset of cpm_keys, a full equivalence invariant.
        """
        if self._div_sig is None:
            mats = self.elems.reshape(-1, self.n, self.n)
            per_y = []
            for yi in self.invertible_projective():
                y_inv = gf.mat_inverse(mats[yi], self.q).astype(np.int64)
                prods = (mats.astype(np.int64) @ y_inv) % self.q
                ids = self._cp_of_mats(prods)
                vals, counts = np.unique(ids, return_counts=True)
                key = tuple(zip(vals.tolist(), counts.tolist()))
                per_y.append((key, int(yi)))
            sig = tuple(sorted(k for k, _ in per_y))
            self._div_sig = (sig, per_y)
        return self._div_sig


def _leading_coeff(rows, q):
    padded = np.concatenate([rows % q, np.ones((rows.shape[0], 1), dtype=rows.dtype)], axis=1)
    first = np.argmax(padded != 0, axis=1)
    return padded[np.arange(rows.shape[0]), first]


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
    """Matrix of A -> A g - W A acting on row-major flattened A."""
    eye = np.eye(n, dtype=np.int64)
    return (np.kron(eye, g.T) - np.kron(W, eye)) % q


def _intersect(basis, C, q):
    """Intersect span(basis rows) with the nullspace of C (acting on columns)."""
    if basis.shape[0] == 0:
        return basis
    proj = (C @ basis.T.astype(np.int64)) % q
    null = gf.nullspace(proj, q)
    if null.shape[0] == 0:
        return basis[:0]
    return (null.astype(np.int64) @ basis.astype(np.int64)) % q


def _conjugators(dataU, dataV, find_all, limit=None):
    """Invertible A with A U A^-1 = V.  Yields uint8 matrices.

    dataU/dataV wrap unital spaces of equal dimension whose charpoly
    multisets already match.
    """
    q, n = dataU.q, dataU.n
    U_space, V_space = dataU.space, dataV.space
    gens = _unital_generators(U_space)
    if not gens:
        if find_all:
            raise TooLarge("stabilizer of a 1-dimensional unital space")
        yield np.eye(n, dtype=np.uint8)
        return

    v_mats = dataV.elems.reshape(-1, n, n).astype(np.int64)
    v_ids = dataV.cp_ids
    gen_ids = dataU._cp_of_mats(np.stack(gens))
    by_count = sorted(
        range(len(gens)), key=lambda i: int((v_ids == gen_ids[i]).sum())
    )
    gens = [gens[i] for i in by_count]
    gen_ids = gen_ids[by_count]

    u_basis_mats = [b.reshape(n, n).astype(np.int64) for b in U_space.basis]
    full = np.eye(n * n, dtype=np.uint8)

    found = []

    def validate(cands):
        """Filter a (B, n, n) stack down to genuine conjugators."""
        good = []
        invertible = gf.rank_batch(cands, q) == n
        for A, ok in zip(cands, invertible):
            if not ok:
                continue
            A = A.astype(np.int64)
            A_inv = gf.mat_inverse(A, q).astype(np.int64)
            images = np.stack([(A @ bm @ A_inv) % q for bm in u_basis_mats])
            if V_space.contains_batch(images.reshape(len(u_basis_mats), -1)).all():
                good.append(A.astype(np.uint8))
        return good

    def enumerate_basis(basis):
        d = basis.shape[0]
        if d == 0:
            return []
        if q**d > _ENUMERATE_CAP:
            raise TooLarge(f"conjugacy solution space q^{d} too large to scan")
        from itertools import product as iproduct

        grid = np.array(list(iproduct(range(q), repeat=d)), dtype=np.int64)[1:]
        cands = (grid @ basis.astype(np.int64)) % q
        return validate(cands.reshape(-1, n, n))

    def recurse(idx, basis):
        if basis.shape[0] == 0:
            return False
        if idx == len(gens) or q ** basis.shape[0] <= 256:
            for A in enumerate_basis(basis):
                found.append(A)
                if not find_all:
                    return True
                if limit is not None and len(found) >= limit:
                    return True
            return not find_all and bool(found)
        g = gens[idx]
        cand_idx = np.nonzero(v_ids == gen_ids[idx])[0]
        for wi in cand_idx:
            C = _constraint_matrix(g, v_mats[wi], q, n)
            nb = _intersect(basis, C, q)
            if recurse(idx + 1, nb):
                return True
        return False

    recurse(0, full)
    yield from found


# ---------------------------------------------------------------------------
# Equivalence testing
# ---------------------------------------------------------------------------


def _right_translate(space, m_inv):
    n = space.n
    mats = space.basis.reshape(-1, n, n).astype(np.int64)
    rows = (mats @ m_inv) % space.q
    return MatSpace.from_rows(space.q, n, rows.reshape(-1, n * n))


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

    inv1 = d1.invertible_projective()
    inv2 = d2.invertible_projective()
    if inv1.size == 0 or inv2.size == 0:
        if inv1.size != inv2.size:
            return None
        return _brute_force_equivalent(s1, s2)

    sig1, per_y1 = d1.division_data()
    sig2, per_y2 = d2.division_data()
    if sig1 != sig2:
        return None

    # anchor on the S1 side whose cpm is rarest on the S2 side
    from collections import Counter

    count2 = Counter(k for k, _ in per_y2)
    cpm1, x_idx = min(per_y1, key=lambda item: (count2[item[0]], item[1]))
    mats1 = d1.elems.reshape(-1, n, n)
    mats2 = d2.elems.reshape(-1, n, n)
    x1 = mats1[x_idx].astype(np.int64)
    x1_inv = gf.mat_inverse(x1, q).astype(np.int64)
    U = _right_translate(s1, x1_inv)
    dataU = space_data(U)

    for cpm2, y_idx in per_y2:
        if cpm2 != cpm1:
            continue
        y = mats2[y_idx].astype(np.int64)
        y_inv = gf.mat_inverse(y, q).astype(np.int64)
        V = _right_translate(s2, y_inv)
        dataV = space_data(V)
        for A in _conjugators(dataU, dataV, find_all=False):
            B = gf.mat_mul(
                gf.mat_inverse((A.astype(np.int64) @ x1) % q, q), y, q
            )
            witness = Isotopism(A, B, q)
            if act(witness, s1) != s2:
                raise NotContained("equivalence witness does not map s1 onto s2")
            return witness
    return None


def _brute_force_equivalent(s1, s2):
    """Last resort for spaces with no invertible element: scan GL x GL."""
    q, n = s1.q, s1.n
    if q**(n * n) > 4096:
        raise TooLarge("no invertible anchor and ambient too large to scan")
    from itertools import product as iproduct

    ident = np.eye(n, dtype=np.uint8)
    gl = []
    for entries in iproduct(range(q), repeat=n * n):
        M = np.array(entries, dtype=np.int64).reshape(n, n)
        if gf.mat_det(M, q) != 0:
            gl.append(M)
    for A in gl:
        for B in gl:
            g = Isotopism(A.astype(np.uint8), B.astype(np.uint8), q)
            if act(g, s1) == s2:
                return g
    return None


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


def equivalence_classes(spaces, group=None, workers=1):
    """Representatives of the distinct equivalence classes of the input.

    Under the full group the test is are_equivalent; when an explicit
    subgroup is supplied, classes are orbits under exactly that subgroup.
    Each space must then contain group.space and equal group.space plus the
    span of its rank-one points (BadParameters otherwise), so that the
    orbit of its rank-one point set is a complete key.
    The output is a deterministic function of the input set: representatives
    are the members with least sorted-encoding multiset, sorted.
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

    def classify(chunk):
        buckets = {}
        for s in chunk:
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
        return classes

    if workers <= 1 or len(items) < 4:
        classes = classify(items)
    else:
        from concurrent.futures import ThreadPoolExecutor

        chunks = [items[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(classify, chunks))
        classes = partials[0]
        for extra in partials[1:]:
            for members in extra:
                for existing in classes:
                    if are_equivalent(existing[0], members[0]) is not None:
                        existing.extend(members)
                        break
                else:
                    classes.append(members)
    reps = [min(members, key=_sort_key) for members in classes]
    return sorted(reps, key=_sort_key)


# ---------------------------------------------------------------------------
# Stabilizer groups
# ---------------------------------------------------------------------------


class StabilizerGroup:
    """Setwise stabilizer {(A, B) : A S B = S}, fully enumerated.

    Carries the complete element arrays (order is the pair count).  Each
    element also permutes the projective rank-one points, u w^T ->
    (A u)(B^T w)^T; point_tables holds that action as two index tables.
    """

    def __init__(self, q, n, A, B, space=None):
        self.q = q
        self.n = n
        self.A = A
        self.B = B
        self.space = space
        self._tables = None

    @classmethod
    def trivial(cls, q, n):
        ident = np.eye(n, dtype=np.uint8)[None]
        return cls(q, n, ident.copy(), ident.copy())

    @property
    def order(self):
        return self.A.shape[0]

    def isotopisms(self):
        return [Isotopism(a, b, self.q) for a, b in zip(self.A, self.B)]

    def point_tables(self):
        """int16 (order, m) tables: the projective index of A v and of B^T v
        for every projective vector v, built in chunks of elements."""
        if self._tables is None:
            pts = points_for(self.q, self.n)
            self._tables = tuple(
                np.concatenate([
                    pts.vector_images(M[i : i + _TABLE_CHUNK])
                    for i in range(0, self.order, _TABLE_CHUNK)
                ])
                for M in (self.A, self.B.transpose(0, 2, 1))
            )
        return self._tables

    def point_images(self, idx):
        """(order, len(idx)) indices of the images of the given points."""
        pts = points_for(self.q, self.n)
        TA, TB = self.point_tables()
        return pts.of_uw[TA[:, pts.u[idx]], TB[:, pts.w[idx]]]

    def stabilizer_of_space(self, space):
        """Subgroup of elements that also fix the given space setwise.

        The space must be self.space plus the span of its rank-one points
        (BadParameters otherwise); an element then fixes it iff it fixes
        that point set.
        """
        inside = _rank_one_points_inside(space, self)
        ok = (np.sort(self.point_images(inside), axis=1) == inside).all(axis=1)
        sub = StabilizerGroup(self.q, self.n, self.A[ok], self.B[ok], space)
        sub._tables = tuple(T[ok] for T in self.point_tables())
        return sub


def automorphism_group(space):
    """Exact setwise stabilizer of a space containing an invertible element."""
    if isinstance(space, SpreadSet):
        space = space.space
    q, n = space.q, space.n
    data = space_data(space)
    inv_idx = data.invertible_projective()
    if inv_idx.size == 0:
        return _brute_force_stabilizer(space)
    mats = data.elems.reshape(-1, n, n)
    _, per_y = data.division_data()
    x_idx = int(inv_idx[0])
    cpm_by_idx = {yi: k for k, yi in per_y}
    cpm_x = cpm_by_idx[x_idx]
    x1 = mats[x_idx].astype(np.int64)
    x1_inv = gf.mat_inverse(x1, q).astype(np.int64)
    U = _right_translate(space, x1_inv)
    dataU = space_data(U)

    pairs_A, pairs_B = [], []
    units = list(range(1, q))
    for cpm2, y_idx in per_y:
        if cpm2 != cpm_x:
            continue
        y = mats[y_idx].astype(np.int64)
        y_inv = gf.mat_inverse(y, q).astype(np.int64)
        V = _right_translate(space, y_inv)
        dataV = space_data(V)
        for A in _conjugators(dataU, dataV, find_all=True):
            base = gf.mat_inverse((A.astype(np.int64) @ x1) % q, q).astype(np.int64)
            for lam in units:
                B = (base * lam % q) @ y % q
                pairs_A.append(A)
                pairs_B.append(B.astype(np.uint8))
    A_arr = np.stack(pairs_A)
    B_arr = np.stack(pairs_B)
    return StabilizerGroup(q, n, A_arr, B_arr, space)


def _brute_force_stabilizer(space):
    q, n = space.q, space.n
    if q ** (n * n) > 4096:
        raise TooLarge("stabilizer of anchor-free space too large to scan")
    from itertools import product as iproduct

    gl = []
    for entries in iproduct(range(q), repeat=n * n):
        M = np.array(entries, dtype=np.uint8).reshape(n, n)
        if gf.mat_det(M, q) != 0:
            gl.append(M)
    pairs_A, pairs_B = [], []
    for A in gl:
        for B in gl:
            g = Isotopism(A, B, q)
            if act(g, space) == space:
                pairs_A.append(A)
                pairs_B.append(B)
    return StabilizerGroup(q, n, np.stack(pairs_A), np.stack(pairs_B), space)


# ---------------------------------------------------------------------------
# Orbits of rank-one matrices
# ---------------------------------------------------------------------------


def rank_one_orbits(group, q, n):
    """Partition of all rank-one matrices into orbits of the group.

    Sweeps the matrices in encoding order: the least unlabelled one
    represents its orbit, the set of its images A X B over the group.
    Returns a list of (representative matrix, orbit size), sorted by the
    representative's encoding.
    """
    mats = rank_one_elements(q, n)
    flat = np.stack(mats).reshape(len(mats), n * n)
    codes = _encode_rows_int(flat, q)  # ascending: mats are sorted by encoding
    labelled = np.zeros(len(mats), dtype=bool)
    out = []
    for i, M in enumerate(mats):
        if labelled[i]:
            continue
        images = _act_arrays(group.A, group.B, flat[i], q)[:, 0]
        hit = np.unique(np.searchsorted(codes, _encode_rows_int(images, q)))
        labelled[hit] = True
        out.append((M, hit.size))
    return out
