"""Rank-one extension searches over M_n(F_q).

Three entry points:

  * find_spread_sets / contains_partial_spread: nonsingular subspaces of a
    given space, built by first-row normalisation;
  * spread_sets_by_rank: classify semifields of tensor rank <= R by growing
    rank-one spanned spaces from the diagonal space, with partial-spread
    pruning;
  * tensor_rank / disprove_rank: certify the rank of one spread set by
    extending it with rank-one matrices under its automorphism group,
    discarding (2n-1)-dimensional spaces with too few independent rank ones
    when the matching code-nonexistence fact licenses it.

Orbit reduction uses the stabilizer groups' permutation tables of the
projective rank-one points (see spreadrank.equivalence): a child is a parent
plus one point, so the point's images name the children in its orbit.  The
block kernel knows each child's rank-one points, its parent's inside points
and its residue class (_members).  Keyed by the least images of those point
sets, a classified level of disprove_rank takes one space per orbit, and its
final level evaluates one parent per orbit and charges the others its counts.

Children are grouped and scored by one block kernel, _process_parents, over
up to _BLOCK parents of one dimension at a time: one product gives every
point's residue modulo every parent, and one its code; the least code of a
residue's multiples is its child's signature, two stable sorts number the
children, and the rank-one profile takes one padded base RREF and one
rank_batch per block.  Raw levels, orbit levels and the probe all use it.

Counting conventions (they pin the published intermediate numbers): children
of one parent are deduplicated as spans; once equivalence reduction stops,
levels count distinct children summed over parents, without cross-parent
merging.  Classified levels count equivalence classes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import gf
from .algebra import (
    MatSpace,
    SpreadSet,
    hypercube_from_spreadset,
    points_for,
    rank_one_elements,  # noqa: F401  (re-exported: part of the search surface)
)
from .codec import encode_rows
from .codes import code_exists, genbound
from .equivalence import automorphism_group, automorphism_groups, equivalence_classes, orbit_keys
from .errors import BadParameters, EncodingOverflow, RankExceedsCap


_CHUNK = 4  # parents per raw-level step: the unit of log records and progress
_BLOCK = 16 * _CHUNK  # parents per call of the block kernel, a whole number of steps


@dataclass
class _Extension:
    """Children of a block of parents under rank-one point extension.

    Children are numbered parent by parent, and within one parent in the
    order of their normalised residues: parent p has the children first[p]
    up to first[p + 1] - 1.  Point j lies inside parent p when child[p, j]
    is -1; otherwise it lies in child child[p, j], and its residue modulo
    parent p is lead[p, j] times the normalised residue of that child.
    """

    child: np.ndarray       # (parents, points) child number of each point
    lead: np.ndarray        # (parents, points) leading residue entry
    first: np.ndarray       # (parents + 1,) first child number of each parent
    group_reps: np.ndarray  # least point index of each child
    sizes: np.ndarray       # member count of each child
    points: np.ndarray      # the outside points, child by child, each child's increasing

    @property
    def parent(self):
        """The parent of each child."""
        return np.repeat(np.arange(self.first.size - 1), np.diff(self.first))


def extension_groups(parents, pts):
    """Group the points outside each parent by the child space they generate.

    The parents are a block of spaces of one dimension d.  A residue
    x - x[piv]·B is zero on the parent's pivot columns, so it is taken on the
    other width - d columns only, by one float32 product of the points with a
    (width, width - d) map per parent; an entry sums at most d + 1 terms of at
    most (q - 1)^2, at most 576 for the sizes the codec accepts, so it is
    exact.  Reduced mod q, each residue r is one code, its first column most
    significant, by one float64 product, exact while q^(width - d) <= 2^53
    (at every dimension n or more that the codec accepts; EncodingOverflow
    past it).  Two points span the same child iff their residues are
    proportional, so the signature is the least code of λ·r, λ = 1 .. q - 1:
    the leading digit outweighs the others, so it is the code of the
    normalised residue, and r's lead is the inverse of its λ.  Stable sorts
    by signature, then by parent, number the children parent by parent in
    signature order, each child's least point first.
    """
    q, dim = parents[0].q, parents[0].dim
    npar, (npts, width) = len(parents), pts.flat.shape
    piv = np.array([parent.pivots for parent in parents], dtype=np.int64).reshape(npar, dim)
    basis = np.stack([parent.basis for parent in parents]).astype(np.int64)
    nfree = width - dim
    on_free = np.ones((npar, width), dtype=bool)
    on_free[np.arange(npar)[:, None], piv] = False
    free = np.nonzero(on_free)[1].reshape(npar, nfree)
    # column k of parent p's map sends x to x[free_k] - x[piv] · B[:, free_k]
    block, cols = np.arange(npar)[:, None], np.arange(nfree)
    resmap = np.zeros((npar, width, nfree), dtype=np.float32)
    resmap[block, free, cols] = 1
    resmap[block[:, :, None], piv[:, :, None], cols] = -np.take_along_axis(basis, free[:, None], 2) % q
    if q**nfree > 2**53:
        raise EncodingOverflow(f"q^{nfree} residue codes exceed the exact float64 range for q={q}")
    res = gf.mod(np.matmul(pts.flat.astype(np.float32), resmap).astype(np.uint16), q)
    weights = float(q) ** np.arange(nfree - 1, -1, -1)
    sig = res @ weights
    outside = sig > 0
    lead = outside.astype(np.uint8)
    for scale in range(2, q):
        code = gf.mod(res * scale, q) @ weights
        lead[code < sig] = gf.inv_table(q)[scale]
        np.minimum(sig, code, out=sig)
    par, point = np.nonzero(outside)  # by parent, then by point
    sig = sig[outside]
    # stable sorts by signature, then by parent, each in its narrowest type
    # (a radix sort up to 16 bits), keep each child's points in order
    by_sig = np.argsort(sig.astype(np.min_scalar_type(q**nfree - 1)), kind="stable")
    order = by_sig[np.argsort(par[by_sig].astype(np.min_scalar_type(npar - 1)), kind="stable")]
    par, sig, point = par[order], sig[order], point[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (par[1:] != par[:-1]) | (sig[1:] != sig[:-1])
    starts = np.nonzero(new)[0]
    child = np.full((npar, npts), -1, dtype=np.int64)
    child[par, point] = np.cumsum(new) - 1
    first = np.searchsorted(par[starts], np.arange(npar + 1))
    sizes = np.diff(np.append(starts, order.size))
    return _Extension(child, lead, first, point[starts], sizes, point)


def _rank_one_profile(parents, ext, pts, least=0):
    """Rank-one span data per child: child i of parent p spans
    base_rank[p] + extras[i] dimensions with its rank-one points.

    The work is done in quotient coordinates.  With the parent's RREF basis
    B and pivot columns piv, a point x outside the parent is x[piv]·B + λ·r,
    where r is the normalised residue of its child and λ its lead, so inside
    the child it has coordinates (x[piv], λ); inside points have (x[piv], 0).
    The inside points span the base; each outside point is reduced modulo the
    base, which zeroes the base's pivot coordinates, and extras[i] is the
    rank of those rows, with λ appended, over the members of child i.

    A rank is at most the number of rows, so extras[i] is at most child i's
    member count, and base_rank at most min(#inside points, dim).  Only the
    children with at least least - base_rank members are ranked; the others
    get their member count, which keeps their score below least.  When even
    min(#inside points, dim) plus the largest child is below least, the base
    is not reduced either, and that bound stands for base_rank.  So a score
    is exact wherever it reaches least, and with least = 0 every one is.

    The block shares one padded base RREF over the parents that can reach
    least, and the children that are ranked share one rank_batch per
    member-count class (2^(c-1), 2^c], each zero-padded to its largest
    child, so a large child never pads the small ones.
    """
    q, dim = parents[0].q, parents[0].dim
    parent = ext.parent
    inside = ext.child < 0
    base_rank = np.minimum(inside.sum(axis=1), dim)
    largest = np.zeros(len(parents), dtype=np.int64)
    np.maximum.at(largest, parent, ext.sizes)
    extras = ext.sizes.copy()
    reach = np.nonzero(base_rank + largest >= least)[0]
    if not reach.size:
        return base_rank, extras
    piv = np.array([parents[p].pivots for p in reach], dtype=np.int64).reshape(reach.size, dim)
    coords = pts.flat[:, piv].transpose(1, 0, 2)  # (reach, points, dim): x[piv]
    # one padded RREF of the inside points of every parent that can reach least
    at, point = np.nonzero(inside[reach])
    count = np.bincount(at, minlength=reach.size)
    stack = np.zeros((reach.size, max(count.max(), 1), dim), dtype=np.int16)
    stack[at, np.arange(at.size) - (np.cumsum(count) - count)[at]] = coords[at, point]
    base, base_rank[reach] = gf.rref_batch(stack, q)
    # x -> x - x[base piv]·base, as one (dim, dim) map per parent
    basemap = np.broadcast_to(np.eye(dim, dtype=np.int16), (reach.size, dim, dim)).copy()
    at, row = np.nonzero(base.any(axis=2))
    basemap[at, np.argmax(base[at, row] != 0, axis=1)] -= base[at, row]
    slot = np.full(len(parents), -1, dtype=np.int64)
    slot[reach] = np.arange(reach.size)
    ranked = (slot[parent] >= 0) & (ext.sizes >= least - base_rank[parent])
    if not ranked.any():
        return base_rank, extras
    # the members of the ranked children, child by child, from ext.points
    sizes = ext.sizes[ranked]
    child = np.repeat(np.arange(sizes.size), sizes)  # position among the ranked
    point = ext.points[np.repeat(ranked, ext.sizes)]
    par = ext.parent[ranked][child]
    at = slot[par]
    # x[piv]·basemap, one coordinate at a time: no (rows, dim, dim) gather;
    # a sum is at most dim·(q - 1)^2, so int16 holds it
    x = coords[at, point].astype(np.int16)
    reduced = np.zeros((par.size, dim), dtype=np.int16)
    for d in range(dim):
        reduced += x[:, d, None] * basemap[at, d]
    rows = np.empty((par.size, dim + 1), dtype=np.int16)
    rows[:, :dim] = gf.mod(reduced, q)
    rows[:, dim] = ext.lead[par, point]
    place = np.arange(child.size) - (np.cumsum(sizes) - sizes)[child]  # row within its child
    # member-count classes (2^(c-1), 2^c], each one zero-padded batch, so
    # the padding stays within twice the real rows
    cls = np.frexp(sizes - 1)[1]
    ranks = np.zeros(sizes.size, dtype=np.int64)
    for c in np.nonzero(np.bincount(cls))[0]:
        members = np.nonzero(cls == c)[0]
        pos = np.zeros(sizes.size, dtype=np.int64)
        pos[members] = np.arange(members.size)
        pick = cls[child] == c
        batch = np.zeros((members.size, sizes[members].max(), dim + 1), dtype=np.int16)
        batch[pos[child[pick]], place[pick]] = rows[pick]
        ranks[members] = gf.rank_batch(batch, q)
    extras[ranked] = ranks
    return base_rank, extras


def _members(ext, children):
    """The rank-one points of each given child, one row each padded as in
    orbit_keys: its parent's inside points, then its residue class."""
    pad, inside = ext.child.shape[1], ext.child < 0
    k, count = np.arange(ext.sizes[children].max(initial=0)), inside.sum(axis=1)
    at = np.minimum((np.cumsum(ext.sizes) - ext.sizes)[children, None] + k, ext.points.size - 1)
    own = np.where(k < ext.sizes[children, None], ext.points[at], pad)
    first = np.argsort(~inside, axis=1, kind="stable")[:, :count.max(initial=0)]  # inside first
    first = np.where(np.arange(first.shape[1]) < count[:, None], first, pad)
    return np.concatenate([first[ext.parent[children]], own], axis=1).astype(np.min_scalar_type(pad))


def _stacked(parts, pad):
    """The rows of a list of padded arrays as one array, padded with pad."""
    out = np.full((sum(map(len, parts)), max([0, *(part.shape[1] for part in parts)])), pad,
                  dtype=np.min_scalar_type(pad))
    for part, end in zip(parts, np.cumsum([len(part) for part in parts])):
        out[end - len(part):end, :part.shape[1]] = part
    return out


def _process_parents(parents, pts, least, members=False, times=None):
    """Each parent's children at a raw level whose rank-one score reaches least.

    The parents are a block of spaces of one dimension.  A child's score is
    the dimension of the span of its rank-one points, at most the child's
    dimension, so least = dim keeps the children spanned by rank ones and
    least = 0 keeps every child.  A score is also at most the parent's base
    rank plus the child's member count, so only the children with enough
    members are ranked (see _rank_one_profile).  Returns, per parent,
    (child spans, the point indices that define the kept children, in child
    order, and their scores), with members the kept children's rows of
    _members as a fourth item; nothing is built.  With times, a dict, the
    seconds of the grouping and of the rank-one profile are added to its
    group_s and profile_s.
    """
    started = time.perf_counter()
    ext = extension_groups(parents, pts)
    grouped = time.perf_counter()
    base_rank, extras = _rank_one_profile(parents, ext, pts, least)
    if times is not None:
        times["group_s"] += grouped - started
        times["profile_s"] += time.perf_counter() - grouped
    scores = base_rank[ext.parent] + extras
    keep = np.nonzero(scores >= least)[0]
    cuts = np.searchsorted(keep, ext.first[1:-1])
    out = [
        (int(spans), points.tolist(), kept.tolist())
        for spans, points, kept in zip(
            np.diff(ext.first), np.split(ext.group_reps[keep], cuts), np.split(scores[keep], cuts)
        )
    ]
    if members:
        out = [(*row, found) for row, found in zip(out, np.split(_members(ext, keep), cuts))]
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class SearchReport:
    """Per-level counts plus the outcome of one search run.

    timings runs parallel to levels: one {dim, wall_s} per level, the wall
    seconds from the level's start to its entry, plus the seconds of each
    phase where the search times them (the classified levels: children_s,
    classify_s, and filter_s in spread_sets_by_rank; the raw levels of
    disprove_rank: group_s and profile_s, the grouping and rank-one profile
    seconds summed over the block kernel's calls, and at the final level
    also key_s and the number of parents evaluated).  The times stay out of
    levels, which runs of one search reproduce exactly.
    """

    algorithm: str
    q: int
    n: int
    levels: list = field(default_factory=list)
    timings: list = field(default_factory=list)
    outcome: str = ""
    witness: list = None
    flags: list = field(default_factory=list)
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_json(self):
        payload = {
            "algorithm": self.algorithm,
            "q": self.q,
            "n": self.n,
            "levels": self.levels,
            "timings": [
                {k: round(v, 3) if k.endswith("_s") else v for k, v in t.items()}
                for t in self.timings
            ],
            "outcome": self.outcome,
            "witness": self.witness,
            "flags": self.flags,
            "wall_time": round(self.wall_time, 3),
        }
        payload.update(self.extra)
        return json.dumps(payload, indent=2, sort_keys=True)

    def add_level(self, entry, started, **phases):
        """Append a level entry, and its wall seconds since started
        (a time.perf_counter reading) and the given phase seconds to
        timings."""
        self.levels.append(entry)
        wall = time.perf_counter() - started
        self.timings.append({"dim": entry["dim"], "wall_s": wall, **phases})

    def level(self, dim):
        for entry in self.levels:
            if entry.get("dim") == dim:
                return entry
        return None


# ---------------------------------------------------------------------------
# Spread sets inside a fixed space
# ---------------------------------------------------------------------------


def iter_spread_sets(space, k):
    """Yield each k-dimensional nonsingular subspace of the space exactly once.

    The first-row map is injective on a nonsingular subspace, so fixing the
    RREF basis of the first-row subspace fixes one basis per subspace: the
    search runs over the first-row subspaces whose RREF rows are all first
    rows of invertible elements, in gf.rref_subspaces order, and over the
    matching invertible elements, pruning whenever a singular combination
    appears.  k must be at least 1 (BadParameters otherwise).
    """
    if k < 1:
        raise BadParameters(f"partial-spread dimension must be at least 1, got {k}")
    q, n = space.q, space.n
    elems = space.nonzero_elements()
    mats = elems.reshape(-1, n, n)
    ranks = gf.rank_batch(mats, q)
    inv_rows = elems[ranks == n]
    by_first = {}
    for row in inv_rows:
        by_first.setdefault(row[:n].tobytes(), []).append(row)
    by_first = {w: np.stack(rows) for w, rows in by_first.items()}

    def candidates(chosen, w):
        """The invertible elements with first row w whose sums with every
        combination of the chosen ones are invertible, in element order:
        one rank_batch over the (candidates x q^len(chosen)) stack."""
        cands = by_first[w.tobytes()]
        if not chosen:
            return cands
        combos = gf.coefficient_grid(q, len(chosen)) @ np.stack(chosen)
        # unit multiples of a candidate are covered by scaling whole combos
        stack = (combos[None] + cands[:, None]) % q
        ranks = gf.rank_batch(stack.reshape(-1, n, n), q).reshape(len(cands), -1)
        return cands[(ranks == n).all(axis=1)]

    def dfs(chosen, w_rows):
        if len(chosen) == len(w_rows):
            yield MatSpace.from_rows(q, n, np.stack(chosen))
            return
        for cand in candidates(chosen, w_rows[len(chosen)]):
            chosen.append(cand)
            yield from dfs(chosen, w_rows)
            chosen.pop()

    for G in gf.rref_subspaces(n, k, q):
        if all(w.tobytes() in by_first for w in G):
            yield from dfs([], G)


def find_spread_sets(space, k):
    """k-dimensional nonsingular subspaces, up to equivalence."""
    return equivalence_classes(iter_spread_sets(space, k))


def contains_partial_spread(space, k):
    """True iff some k-dimensional nonsingular subspace exists (early exit)."""
    for _ in iter_spread_sets(space, k):
        return True
    return False


# ---------------------------------------------------------------------------
# Decomposition verification
# ---------------------------------------------------------------------------


def verify_decomposition(spread, mats):
    """(ok, reason): every matrix has rank one and the span contains the set."""
    space = spread.space if isinstance(spread, SpreadSet) else spread
    q, n = space.q, space.n
    mats = [gf.as_residues(m, q) for m in mats]
    for i, M in enumerate(mats):
        r = gf.mat_rank(M, q)
        if r != 1:
            return False, f"matrix {i} has rank {r}"
    span = MatSpace.from_matrices(q, n, mats)
    if not span.contains_space(space):
        return False, "span does not contain the spread set"
    return True, "ok"


# ---------------------------------------------------------------------------
# Orbit reduction helpers
# ---------------------------------------------------------------------------


def _point_orbit_reps(group, ext, p):
    """One child-defining point per orbit of the group on the children of
    parent p of the block.

    The group must stabilise the parent, so it permutes the children: the
    orbit of a child is the set of children holding the images of its
    point.  Sweeping in child order, the least unlabelled child is the least
    member of its orbit and represents it.
    """
    lo, hi = ext.first[p], ext.first[p + 1]
    child_of_point = ext.child[p] - lo  # negative inside the parent
    labelled = np.zeros(hi - lo, dtype=bool)
    reps = []
    for child_no, point in enumerate(ext.group_reps[lo:hi]):
        if labelled[child_no]:
            continue
        hit = child_of_point[group.point_images([point])[:, 0]]
        if (hit < 0).any():
            raise BadParameters("the group does not stabilise the parent")
        labelled[hit] = True
        reps.append(int(point))
    return sorted(reps)


def _orbit_children(parents, pts, stabilizers):
    """Children of the parents, one per orbit of each parent's stabilizer on
    its children, with the number of child spans before the orbit reduction
    and the children's rows of _members.  The children are grouped and
    built _BLOCK parents at a time, stabilizers(block) giving the groups.
    Equal spans from two parents are left to equivalence_classes."""
    children, spans, members = [], 0, []
    for start in range(0, len(parents), _BLOCK):
        block = parents[start:start + _BLOCK]
        ext = extension_groups(block, pts)
        spans += len(ext.group_reps)
        named = [
            (p, point)
            for p, group in enumerate(stabilizers(block))
            for point in _point_orbit_reps(group, ext, p)
        ]
        at, points = (np.array([row[i] for row in named], dtype=np.int64) for i in (0, 1))
        children += MatSpace.extend_batch([block[p] for p in at], pts.flat[points])
        members.append(_members(ext, ext.child[at, points]))
    return children, spans, _stacked(members, len(pts))


# ---------------------------------------------------------------------------
# Classification by tensor rank (diagonal-seeded search)
# ---------------------------------------------------------------------------


def _diag_space(q, n):
    rows = [np.diag(e).reshape(-1) for e in np.eye(n, dtype=np.uint8)]
    return MatSpace.from_rows(q, n, np.stack(rows))


def default_prune_schedule(n):
    """Partial-spread dimension demanded per level in the published runs.

    A level-d space inside a rank-one spanned R-space meets the spread set
    in dimension d + n - R or more, so this schedule is licensed for R <= 2n.
    """
    return {n + 2: 2, n + 3: 3}


def _check_target(n, R):
    if not n <= R <= n * n:  # every spread set has tensor rank n..n^2
        raise BadParameters(f"target dimension R = {R} must lie between n = {n} and n^2 = {n * n}")


def spread_sets_by_rank(q, n, R, prune=None, progress=None):
    """Representatives of all semifield spread sets of tensor rank <= R.

    Grows rank-one spanned spaces from the diagonal space one projective
    rank-one point at a time; each level is classified up to equivalence and
    filtered by the prune schedule, and spread sets are extracted at
    dimension R.  n must be at least 1 and n <= R <= n^2 (BadParameters
    otherwise): every spread set has rank at least n.

    prune maps a level d to the partial-spread dimension k its survivors must
    contain; a complete run needs k <= d + n - R, which the default meets
    only for R <= 2n (the report flags "prune-unlicensed" otherwise).
    """
    t0 = time.perf_counter()
    if n < 1:
        raise BadParameters(f"spread-set dimension must be at least 1, got {n}")
    _check_target(n, R)
    report = SearchReport("spread-sets-by-rank", q, n)
    report.extra["R"] = R
    if prune is None:
        prune = default_prune_schedule(n)
        if R > 2 * n:
            report.flags.append(f"prune-unlicensed: default schedule {prune} at R = {R} > 2n")
    prune = {d: k for d, k in prune.items() if d <= R}
    pts = points_for(q, n)

    current = [_diag_space(q, n)]
    dim = n
    while dim < R:
        dim += 1
        started = time.perf_counter()
        candidates, raw_count, _ = _orbit_children(current, pts, automorphism_groups)
        grown = time.perf_counter()
        classes = equivalence_classes(candidates)
        classified = time.perf_counter()
        entry = {"dim": dim, "spaces": raw_count, "classes": len(classes)}
        if dim in prune:
            kneed = prune[dim]
            survivors = [s for s in classes if contains_partial_spread(s, kneed)]
            entry["survivors"] = len(survivors)
            entry["partial_spread_dim"] = kneed
            current = survivors
        else:
            current = classes
        report.add_level(entry, started, children_s=grown - started,
                         classify_s=classified - grown, filter_s=time.perf_counter() - classified)
        if progress:
            progress(entry)

    spread_sets = []
    for space in current:
        spread_sets.extend(iter_spread_sets(space, n))
    final = equivalence_classes(spread_sets)
    report.extra["spread_set_classes"] = len(final)
    report.outcome = "classified"
    report.wall_time = time.perf_counter() - t0
    return report, final


# ---------------------------------------------------------------------------
# Lower-bound exhaustion / rank certification for one spread set
# ---------------------------------------------------------------------------


def _rank_one_basis(space, pts):
    """The space's rank-one points that are independent of the points before
    them: the pivot columns of the RREF of the inside points' transpose."""
    inside = pts.flat[space.contains_batch(pts.flat)]
    _, piv = gf.rref(inside.T, space.q)
    return inside[list(piv)]


def _rank_one_spanned(space, pts):
    return len(_rank_one_basis(space, pts)) == space.dim


def _diag_probe(space, R, pts):
    """Cheap witness probe: grow <diag, C> by rank-one points up to dimension R.

    The published rank-8 decompositions all contain the diagonal matrices, so
    for those inputs the probe succeeds instantly.  Returns a witness space
    or None; a miss says nothing (the full search still runs).
    """
    n = space.n
    probe = space
    for e in np.eye(n, dtype=np.uint8):
        probe = probe.extend(np.diag(e))
    if probe.dim > R or probe.dim < R - 2:
        return None

    if probe.dim == R:
        return probe if _rank_one_spanned(probe, pts) else None
    candidates = [probe]
    if probe.dim == R - 2:
        # the most rank-one-rich children first (a stable sort), capped
        [(_, points, scores)] = _process_parents([probe], pts, 0)
        richest = sorted(zip(scores, points), key=lambda sp: -sp[0])[:64]
        candidates = (probe.extend(pts.flat[point]) for _, point in richest)
    for cand in candidates:  # one a call: the probe stops at its first hit
        [(_, points, _)] = _process_parents([cand], pts, R)
        if points:
            return cand.extend(pts.flat[points[0]])
    return None


CHECKPOINT_VERSION = 4  # log layout; files of any other version are refused


class _Checkpoint:
    """An append-only JSON-lines log of the raw levels, resumable mid-level.

    Line 1 is the header {version, params}.  Every later line is one
    raw-level step: its progress event plus the rows of the children it
    kept, so a step costs O(step).  The classified levels are not logged: a
    resumed run recomputes them.  A torn last line is dropped when the log
    is read and cut off before the next append.  Without a path nothing is
    written.
    """

    def __init__(self, path, params):
        self.path = path
        self.header = {"version": CHECKPOINT_VERSION, "params": params}
        self.end = None  # bytes of the whole lines that load read

    def load(self):
        """The step records when the log resumes a run with these params,
        None without a file.  Any other file raises BadParameters and is
        left as it is."""
        if self.path is None or not os.path.exists(self.path):
            return None
        try:
            with open(self.path, "rb") as fh:
                lines = fh.read().split(b"\n")
            header = json.loads(lines[0])
            # the last piece is empty, or a record torn by an interruption
            records = [json.loads(line) for line in lines[1:-1]]
        except (OSError, ValueError) as exc:
            why = f"unreadable ({type(exc).__name__})"
        else:
            version = header.get("version") if isinstance(header, dict) else None
            if version != CHECKPOINT_VERSION:
                why = f"version {version!r}, expected {CHECKPOINT_VERSION}"
            elif header.get("params") != self.header["params"]:
                why = "parameters differ"
            else:
                self.end = sum(len(line) + 1 for line in lines[:-1])
                return records
        raise self.refusal(why)

    def refusal(self, why):
        return BadParameters(f"checkpoint {self.path} is not a snapshot of this run: {why}")

    def start(self):
        """Write the header of a new log, or cut a torn last line off a
        loaded one (a header without its newline is written again)."""
        if self.end:
            os.truncate(self.path, self.end)
        else:
            self.append(self.header, "w")

    def append(self, record, mode="a"):
        if self.path is not None:
            with open(self.path, mode) as fh:
                fh.write(json.dumps(record) + "\n")

    def clear(self):
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass


def _parents(spaces, rows, block, pts):
    """The parents at the positions of a block of a raw level: spaces[j], or
    the children that rows[j] names, built in one batch."""
    if rows is None:
        return [spaces[j] for j in block]
    named = [rows[j] for j in block]
    return MatSpace.extend_batch([spaces[row[0]] for row in named], pts.flat[[row[1] for row in named]])


def _input_space(spread):
    """The space of a spread set or MatSpace input, which must have dimension
    n: the rank searches start their levels and bounds at n."""
    space = spread.space if isinstance(spread, SpreadSet) else spread
    if space.dim != space.n:
        raise BadParameters(f"input has dimension {space.dim}, expected n = {space.n}")
    return space


def disprove_rank(spread, R, aut=None, checkpoint=None, progress=None):
    """Exhaustive search for an R-dimensional rank-one spanned space containing
    the spread set.

    Levels up to dimension 2n-2 are reduced to equivalence classes under the
    automorphism group (orbit representatives of the added point, then orbit
    deduplication of the spans, keyed by the rank-one points that the block
    kernel knows).  When no [R, n, n+1]_q code exists, the (2n-1)-dimensional
    level keeps only spaces containing n linearly independent rank ones.  The
    final level scans R-dimensional children up to the first one spanned by
    rank ones, the witness; "exhausted" (no witness) proves tensor rank > R.
    A fresh run first tries _diag_probe.

    The other levels are scanned raw, and their children are rows [parent
    position, point index, score].  The scan evaluates _BLOCK parents at a
    time in one call of the block kernel and accounts for them in steps of
    _CHUNK parents: one log record and one progress event per step, and the
    final level stops after the first step with a witness, so levels,
    witnesses and logs do not depend on _BLOCK; the level's timings entry
    sums the kernel's grouping and profile seconds as group_s and
    profile_s.  At R = 2n the final level's parents are the filter level's
    rows, whose rank-one points that level keeps in memory; the final level
    keys them in one orbit_keys pass, evaluates only the first parent of
    each orbit under the automorphism group, charges each later one the
    first's spans and witness count (orbit invariants, so a later one never
    holds the first witness), and records key_s and the parents evaluated
    in its timings entry.  With a checkpoint
    path, the log's header is written before the first level (an unwritable
    path raises OSError at once), and each step appends one record (see
    _Checkpoint).  A run started again with the same spread set, R and
    filter setting recomputes the classified levels, replays the logged
    steps (their rows carry no rank-one points, so those parents are
    evaluated) and reproduces the levels, outcome, witness and log of an
    uninterrupted run; any other file at that path, or a logged step whose
    level has another number of parents, raises BadParameters and is left as
    it is.  The file is removed when the run finishes.  When R = n no level
    runs, and the outcome says whether the input is spanned by rank ones.
    An input whose dimension is not n, or R outside n..n^2, raises
    BadParameters.
    """
    t0 = time.perf_counter()
    space = _input_space(spread)
    q, n = space.q, space.n
    _check_target(n, R)
    pts = points_for(q, n)
    report = SearchReport("disprove-rank", q, n)
    report.extra["R"] = R

    prune_ok = code_exists(q, R, n, n + 1) is False
    if not prune_ok:
        report.flags.append(
            f"filter-disabled: [{R},{n},{n + 1}]_{q} code not excluded"
        )

    if aut is None:
        aut = automorphism_group(space)
    report.extra["aut_order"] = aut.order

    if space.dim == R:
        # no level runs: the input is the only R-dimensional candidate
        if _rank_one_spanned(space, pts):
            report.witness = _witness_rank_ones(space, pts)
        report.outcome = "witness" if report.witness else "exhausted"
        report.wall_time = time.perf_counter() - t0
        return report

    params = {
        "algorithm": "disprove-rank",
        "q": q,
        "n": n,
        "R": R,
        "spread": space.encodings(),
        "filter": prune_ok,
    }
    log = _Checkpoint(checkpoint, params)
    records = log.load()

    # any log, even a header alone, was written after the probe missed
    if records is None:
        hit = _diag_probe(space, R, pts)
        if hit is not None:
            report.outcome = "witness"
            report.witness = _witness_rank_ones(hit, pts)
            report.flags.append("diagonal-probe")
            report.wall_time = time.perf_counter() - t0
            return report
    log.start()
    if records:
        report.flags.append("resumed-from-checkpoint")

    known = {}  # the rank-one points of the classified levels' spaces, by key

    def stabilizers(block):
        return [aut if parent is space else aut.stabilizer_of_space(parent, known[parent.key]) for parent in block]

    current, kept, members = [space], None, None  # a level's parents: current, or kept rows over it
    dim = n
    while dim < R:
        dim += 1
        started = time.perf_counter()
        final = dim == R
        if dim <= 2 * n - 2 and not final:
            # per-parent stabilizer orbits pre-reduce the children, then
            # one global reduction under the full automorphism group
            children, _, found = _orbit_children(current, pts, stabilizers)
            grown = time.perf_counter()
            current = equivalence_classes(children, group=aut, members=found)
            known = dict(zip((child.key for child in children), found))
            report.add_level({"dim": dim, "classes": len(current)}, started,
                             children_s=grown - started, classify_s=time.perf_counter() - grown)
            if progress:
                progress(report.levels[-1])
            continue

        # raw level: keep the children whose rank-one score reaches least
        # (n at the filter level, R at the final one, which stops at its
        # first witness).  The level before the final one is ordered
        # richest first, so spanned spaces come early; at R = 2n that level
        # is the filter level, which keeps scan order and, in memory only,
        # the rank-one points of its kept children.
        # A non-final level scans all its parents, so it builds them first;
        # the final level builds each parent when its scan reaches it.
        filtering = prune_ok and dim == 2 * n - 1 and not final
        least = R if final else n if filtering else 0
        ordered = dim == R - 1 and not filtering
        carry = filtering and dim == R - 1
        if kept is not None and not final:
            current, kept = _parents(current, kept, range(len(kept)), pts), None
        (rows, kept), (held, members) = (kept, []), (members, [])
        total = len(current if rows is None else rows)
        counts, pos = {"spaces": 0, "good": 0}, 0
        for step in (r for r in records or () if r["dim"] == dim):  # replay the log
            if step["parents_total"] != total:
                raise log.refusal(f"level {dim} has {total} parents, not {step['parents_total']}")
            kept.extend(step["kept"])
            members.append(np.zeros((len(step["kept"]), 0), dtype=np.uint8))  # not carried
            counts, pos = {"spaces": step["spaces"], "good": step["good"]}, step["parents_done"]
        # after the filter level, the final level evaluates the first parent
        # from pos on of each orbit and charges the later ones its counts
        keying, keyed = time.perf_counter(), final and held is not None
        first, scan = range(total), range(pos, total)
        if keyed:
            first, seen = list(first), {}
            todo = np.arange(pos, total)[(held[pos:] < len(pts)).any(axis=1)]  # not replayed
            for j, key in zip(todo.tolist(), orbit_keys(held[todo], aut, np.full(todo.size, dim - 1))):
                first[j] = seen.setdefault(key, j)
            scan = [j for j in scan if first[j] == j]
        phase, results = {"key_s": time.perf_counter() - keying, "evaluated": 0,
                          "group_s": 0.0, "profile_s": 0.0}, {}
        for at in range(0, len(scan), _BLOCK):
            if final and kept:  # the first witness, found or replayed
                break
            block = scan[at:at + _BLOCK]
            phase["evaluated"] += len(block)
            parents = _parents(current, rows, block, pts)
            results.update(zip(block, _process_parents(parents, pts, least, members=carry, times=phase)))
            ready = scan[at + _BLOCK] if at + _BLOCK < len(scan) else total  # the parents before are settled
            while min(pos + _CHUNK, total) <= ready and pos < total and not (final and kept):
                chunk, kept_before = range(pos, min(pos + _CHUNK, total)), len(kept)
                pos = chunk.stop
                for j in chunk:
                    spans, points, scores, *found = results[first[j]] if keyed else results.pop(j)
                    counts["spaces"] += spans
                    counts["good"] += len(points)
                    if first[j] == j:
                        kept.extend([j, point, score] for point, score in zip(points, scores))
                        members += found
                if final:
                    del kept[1:]
                event = {"dim": dim, "parents_done": pos, "parents_total": total, **counts}
                log.append({**event, "kept": kept[kept_before:]})
                if progress:
                    progress(event)

        entry = {"dim": dim, "spaces": counts["spaces"]}
        if final:
            report.add_level(entry, started, **phase)
            entry["witnesses"] = counts["good"]
            if kept:
                j, point, _ = kept[0]
                hit = _parents(current, rows, [j], pts)[0].extend(pts.flat[point])
                report.witness = _witness_rank_ones(hit, pts)
            break
        report.add_level(entry, started, group_s=phase["group_s"], profile_s=phase["profile_s"])
        if filtering:
            entry["survivors"] = counts["good"]
        members = _stacked(members, len(pts)) if carry else None
        if ordered:
            kept.sort(key=lambda row: -row[2])  # stable: equal scores keep scan order
        if progress:
            progress(entry)

    report.outcome = "witness" if report.witness else "exhausted"
    report.wall_time = time.perf_counter() - t0
    log.clear()
    return report


def _witness_rank_ones(space, pts):
    """An independent rank-one spanning list for a rank-one spanned space."""
    rows = _rank_one_basis(space, pts)
    return encode_rows(rows, space.q).tolist()


def tensor_rank(spread, max_R=None, progress=None):
    """Exact tensor rank of a spread set, with a rank-one witness list.

    Runs the exhaustion search at increasing target dimensions starting from
    the code-theoretic lower bound; the first target admitting a rank-one
    spanned superspace is the rank.  Progress events gain their target "R".
    """
    space = _input_space(spread)
    q, n = space.q, space.n
    aut = automorphism_group(space)
    lower = max(genbound(hypercube_from_spreadset(spread), q), n)
    cap = max_R if max_R is not None else 4 * n
    reports = []
    for target in range(lower, cap + 1):
        forward = progress and (lambda event, R=target: progress({"R": R, **event}))
        rep = disprove_rank(spread, target, aut=aut, progress=forward)
        reports.append(rep)
        if rep.outcome == "witness":
            return target, rep.witness, reports
    raise RankExceedsCap(f"tensor rank exceeds the cap {cap}")
