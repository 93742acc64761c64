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
plus one point, so the point's images name the children in its orbit, and
a classified level's spaces are keyed by the least image of their point
sets.

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
from .equivalence import automorphism_group, equivalence_classes
from .errors import BadParameters, RankExceedsCap


@dataclass
class _Extension:
    """Children of one parent space under rank-one point extension.

    Children are numbered in the order of their normalised residues; the
    point out_idx[i] lies in child[i], and its residue is lead[i] times the
    normalised residue of that child.
    """

    inside_idx: np.ndarray  # point indices lying inside the parent
    out_idx: np.ndarray     # point indices outside the parent, increasing
    child: np.ndarray       # child number of each outside point
    group_reps: np.ndarray  # least point index of each child
    lead: np.ndarray        # leading residue entry of each outside point


def extension_groups(parent, pts):
    """Group the points outside the parent by the child space they generate.

    Two points span the same child iff their residues modulo the parent are
    proportional, so the normalised residue is a complete child signature.
    Each signature is packed into one int64 with the first column most
    significant, so sorting the packed values orders the children by their
    normalised residue rows; np.unique then numbers the children in that
    order and finds each child's least point index in one pass.
    """
    q = parent.q
    red = parent.reduce(pts.flat)
    nz = red.any(axis=1)
    inside_idx = np.nonzero(~nz)[0]
    out_idx = np.nonzero(nz)[0]
    rows = red[out_idx]
    lead = gf.leading_coeff(rows, q)
    normed = (rows * gf.inv_table(q)[lead][:, None]) % q
    sig = encode_rows(normed[:, ::-1], q)
    _, first, child = np.unique(sig, return_index=True, return_inverse=True)
    return _Extension(inside_idx, out_idx, child, out_idx[first], lead)


def _rank_one_profile(parent, ext, pts, least=0):
    """Rank-one span data per child: child span dim = base_rank + extras[i].

    The work is done in quotient coordinates.  With the parent's RREF basis
    B and pivot columns piv, a point x outside the parent is x[piv]·B + λ·r,
    where r is the normalised residue of its child and λ its lead, so inside
    the child it has coordinates (x[piv], λ); inside points have (x[piv], 0).
    The inside points span the base; each outside point is reduced modulo the
    base, which leaves its dim - base_rank free coordinates and λ, and
    extras[i] is the rank of those short rows over the members of child i.

    A rank is at most the number of rows, so extras[i] is at most child i's
    member count, and base_rank at most min(#inside points, dim).  Only the
    children with at least least - base_rank members are ranked; the others
    get their member count, which keeps their score below least.  When even
    min(#inside points, dim) plus the largest child is below least, the base
    is not reduced either, and that bound stands for base_rank.  So a score
    is exact wherever it reaches least, and with least = 0 every one is.
    """
    q = parent.q
    nchild = len(ext.group_reps)
    sizes = np.bincount(ext.child, minlength=nchild)
    bound = min(ext.inside_idx.size, parent.dim)
    if bound + sizes.max(initial=0) < least:
        return bound, sizes
    coords = pts.flat[:, list(parent.pivots)]
    if ext.inside_idx.size:
        base_rows, base_piv = gf.rref(coords[ext.inside_idx], q)
    else:
        base_rows, base_piv = np.zeros((0, parent.dim), dtype=np.uint8), ()
    base_rank = base_rows.shape[0]
    ranked = sizes >= least - base_rank
    extras = sizes.copy()
    if not ranked.any():
        return base_rank, extras
    members = ranked[ext.child]
    rows = coords[ext.out_idx[members]]
    if base_rank:
        rows = (rows - rows[:, list(base_piv)] @ base_rows.astype(np.int64)) % q
    free = np.ones(parent.dim, dtype=bool)
    free[list(base_piv)] = False
    rows = np.concatenate([rows[:, free], ext.lead[members, None]], axis=1)
    # one gather into a zero-padded (ranked children, largest, width) batch
    child = (np.cumsum(ranked) - 1)[ext.child[members]]  # position in the batch
    sizes = sizes[ranked]
    order = np.argsort(child, kind="stable")
    starts = np.cumsum(sizes) - sizes
    by_child = child[order]
    batch = np.zeros((sizes.size, sizes.max(), rows.shape[1]), dtype=np.int64)
    batch[by_child, np.arange(order.size) - starts[by_child]] = rows[order]
    extras[ranked] = gf.rank_batch(batch, q)
    return base_rank, extras


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class SearchReport:
    """Per-level counts plus the outcome of one search run."""

    algorithm: str
    q: int
    n: int
    levels: list = field(default_factory=list)
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
            "outcome": self.outcome,
            "witness": self.witness,
            "flags": self.flags,
            "wall_time": round(self.wall_time, 3),
        }
        payload.update(self.extra)
        return json.dumps(payload, indent=2, sort_keys=True)

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

    def candidates(chosen, w):
        for cand in by_first[w.tobytes()]:
            if chosen:
                grid = gf.coefficient_grid(q, len(chosen))
                combos = (grid @ np.stack(chosen) + cand) % q
                # unit multiples of cand are covered by scaling whole combos
                if not bool((gf.rank_batch(combos.reshape(-1, n, n), q) == n).all()):
                    continue
            yield cand

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


def _point_orbit_reps(group, ext, pts):
    """One child-defining point per orbit of the group on the children.

    The group must stabilise the parent, so it permutes the children: the
    orbit of a child is the set of children holding the images of its
    point.  Sweeping in child order, the least unlabelled child is the least
    member of its orbit and represents it.
    """
    child_of_point = np.full(len(pts), -1, dtype=np.int64)
    child_of_point[ext.out_idx] = ext.child
    labelled = np.zeros(len(ext.group_reps), dtype=bool)
    reps = []
    for child_no, point in enumerate(ext.group_reps):
        if labelled[child_no]:
            continue
        hit = child_of_point[group.point_images([point])[:, 0]]
        if (hit < 0).any():
            raise BadParameters("the group does not stabilise the parent")
        labelled[hit] = True
        reps.append(int(point))
    return sorted(reps)


def _orbit_children(parents, pts, stabilizer):
    """Children of the parents, one per orbit of stabilizer(parent) on each
    parent's children, with the number of child spans before the orbit
    reduction.  Equal spans from two parents are left to the callers'
    equivalence_classes."""
    children, spans = [], 0
    for parent in parents:
        ext = extension_groups(parent, pts)
        spans += len(ext.group_reps)
        reps = _point_orbit_reps(stabilizer(parent), ext, pts)
        children.extend(parent.extend(pts.flat[idx]) for idx in reps)
    return children, spans


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
        candidates, raw_count = _orbit_children(current, pts, automorphism_group)
        classes = equivalence_classes(candidates)
        entry = {"dim": dim, "spaces": raw_count, "classes": len(classes)}
        if dim in prune:
            kneed = prune[dim]
            survivors = [s for s in classes if contains_partial_spread(s, kneed)]
            entry["survivors"] = len(survivors)
            entry["partial_spread_dim"] = kneed
            current = survivors
        else:
            current = classes
        report.levels.append(entry)
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


def _process_parent(parent, pts, least):
    """One parent's children at a raw level whose rank-one score reaches least.

    A child's score is the dimension of the span of its rank-one points, at
    most the child's dimension, so least = dim keeps the children spanned by
    rank ones and least = 0 keeps every child.  A score is also at most the
    parent's base rank plus the child's member count, so only the children
    with enough members are ranked (see _rank_one_profile).  Returns (child
    spans, the point indices that define the kept children, in child order,
    and their scores); nothing is built.
    """
    ext = extension_groups(parent, pts)
    base_rank, extras = _rank_one_profile(parent, ext, pts, least)
    scores = base_rank + extras
    keep = np.nonzero(scores >= least)[0]
    return len(ext.group_reps), ext.group_reps[keep].tolist(), scores[keep].tolist()


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
        _, points, scores = _process_parent(probe, pts, 0)
        richest = sorted(zip(scores, points), key=lambda sp: -sp[0])[:64]
        candidates = (probe.extend(pts.flat[point]) for _, point in richest)
    for cand in candidates:
        _, points, _ = _process_parent(cand, pts, R)
        if points:
            return cand.extend(pts.flat[points[0]])
    return None


CHECKPOINT_VERSION = 4  # log layout; files of any other version are refused
_CHUNK = 4  # parents per raw-level step: the unit of log records and progress


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


def _parent(spaces, rows, j, pts):
    """Parent j of a raw level: spaces[j], or the child that rows[j] names."""
    return spaces[j] if rows is None else spaces[rows[j][0]].extend(pts.flat[rows[j][1]])


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
    deduplication of the spans).  When no [R, n, n+1]_q code exists, the
    (2n-1)-dimensional level keeps only spaces containing n linearly
    independent rank ones.  The final level scans R-dimensional children up
    to the first one spanned by rank ones, the witness; "exhausted" (no
    witness) proves tensor rank > R.  A fresh run first tries _diag_probe.

    The other levels are scanned raw, _CHUNK parents at a time, and their
    children are rows [parent position, point index, score].  With a
    checkpoint path, the log's header is written before the first level (an
    unwritable path raises OSError at once), and each step appends one record
    (see _Checkpoint).  A run started again with the same spread set, R and
    filter setting recomputes the classified levels, replays the logged
    steps and reproduces the levels, outcome and witness of an
    uninterrupted run; any other file at that path, or a logged step
    whose level has another number of parents, raises BadParameters and is
    left as it is.  The file is removed when the run finishes.  When R = n
    no level runs, and the outcome says whether the input is spanned by rank
    ones.  An input whose dimension is not n, or R outside n..n^2, raises
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

    def stabilizer(parent):
        return aut if parent is space else aut.stabilizer_of_space(parent)

    current, kept = [space], None  # a level's parents: current, or kept rows over it
    dim = n
    while dim < R:
        dim += 1
        final = dim == R
        if dim <= 2 * n - 2 and not final:
            # per-parent stabilizer orbits pre-reduce the children, then
            # one global reduction under the full automorphism group
            children, _ = _orbit_children(current, pts, stabilizer)
            current = equivalence_classes(children, group=aut)
            report.levels.append({"dim": dim, "classes": len(current)})
            if progress:
                progress(report.levels[-1])
            continue

        # raw level: keep the children whose rank-one score reaches least
        # (n at the filter level, R at the final one, which stops at its
        # first witness).  The level before the final one is ordered
        # richest first, so spanned spaces come early; at R = 2n that level
        # is the filter level, which keeps scan order.
        # A non-final level scans all its parents, so it builds them first;
        # the final level builds each parent when its scan reaches it.
        filtering = prune_ok and dim == 2 * n - 1 and not final
        least = R if final else n if filtering else 0
        ordered = dim == R - 1 and not filtering
        if kept is not None and not final:
            current = [_parent(current, kept, j, pts) for j in range(len(kept))]
            kept = None
        rows, kept = kept, []
        total = len(current if rows is None else rows)
        counts, pos = {"spaces": 0, "good": 0}, 0
        for step in (r for r in records or () if r["dim"] == dim):  # replay the log
            if step["parents_total"] != total:
                raise log.refusal(f"level {dim} has {total} parents, not {step['parents_total']}")
            kept.extend(step["kept"])
            counts, pos = {"spaces": step["spaces"], "good": step["good"]}, step["parents_done"]
        while pos < total and not (final and kept):
            chunk, kept_before = range(pos, min(pos + _CHUNK, total)), len(kept)
            pos = chunk.stop
            for j in chunk:
                spans, points, scores = _process_parent(_parent(current, rows, j, pts), pts, least)
                counts["spaces"] += spans
                counts["good"] += len(points)
                kept.extend([j, point, score] for point, score in zip(points, scores))
            if final:
                del kept[1:]
            event = {"dim": dim, "parents_done": pos, "parents_total": total, **counts}
            log.append({**event, "kept": kept[kept_before:]})
            if progress:
                progress(event)

        entry = {"dim": dim, "spaces": counts["spaces"]}
        report.levels.append(entry)
        if final:
            entry["witnesses"] = counts["good"]
            if kept:
                j, point, _ = kept[0]
                hit = _parent(current, rows, j, pts).extend(pts.flat[point])
                report.witness = _witness_rank_ones(hit, pts)
            break
        if filtering:
            entry["survivors"] = counts["good"]
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
