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

import gc
import json
import os
import time
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import gf
from .algebra import (
    MatSpace,
    SpreadSet,
    points_for,
    rank_one_elements,  # noqa: F401  (re-exported: part of the search surface)
)
from .codec import encode
from .codes import code_exists
from .equivalence import automorphism_group, equivalence_classes
from .errors import BadParameters, RankExceedsCap


def _normalize_rows(rows, q):
    """Scale each nonzero row so its leading entry is 1."""
    rows = rows % q
    lead_pos = np.argmax(rows != 0, axis=1)
    lead_val = rows[np.arange(rows.shape[0]), lead_pos]
    inv = gf.inv_table(q)
    return (rows * inv[lead_val][:, None]) % q


@dataclass
class _Extension:
    """Children of one parent space under rank-one point extension."""

    inside_idx: np.ndarray  # point indices lying inside the parent
    group_reps: list        # one representative point index per child span
    group_members: list     # arrays of point indices per child span
    norm_rows: np.ndarray   # normalised reduced row defining each child


def extension_groups(parent, pts):
    """Group the points outside the parent by the child space they generate.

    Two points span the same child iff their residues modulo the parent are
    proportional, so the normalised residue is a complete child signature.
    """
    red = parent.reduce(pts.flat)
    nz = red.any(axis=1)
    inside_idx = np.nonzero(~nz)[0]
    out_idx = np.nonzero(nz)[0]
    if out_idx.size == 0:
        empty = np.zeros((0, red.shape[1]), dtype=np.int64)
        return _Extension(inside_idx, [], [], empty)
    rows_n = _normalize_rows(red[out_idx], parent.q).astype(np.uint8)
    width = rows_n.shape[1]
    blob = rows_n.tobytes()
    seen = {}
    for pos in range(out_idx.size):
        sig = blob[pos * width : (pos + 1) * width]
        seen.setdefault(sig, []).append(pos)
    reps, members, rows = [], [], []
    for sig in sorted(seen):
        poss = seen[sig]
        reps.append(int(out_idx[poss[0]]))
        members.append(out_idx[np.array(poss)])
        rows.append(rows_n[poss[0]])
    return _Extension(inside_idx, reps, members, np.stack(rows).astype(np.int64))


def child_keys(parent, norm_rows):
    """Canonical RREF keys of the children spanned by the parent plus one row."""
    q = parent.q
    B = parent.basis.astype(np.int64)
    piv = np.array(parent.pivots, dtype=np.int64)
    out = []
    for row in norm_rows:
        lead = int(np.argmax(row != 0))
        newB = (B - np.outer(B[:, lead], row)) % q
        pos = int(np.searchsorted(piv, lead))
        stacked = np.insert(newB, pos, row, axis=0).astype(np.uint8)
        out.append(stacked.tobytes())
    return out


def _rank_one_profile(parent, ext, pts):
    """Rank-one span data per child: child span dim = base_rank + extras[i]."""
    q = parent.q
    if ext.inside_idx.size:
        base_rows, base_piv = gf.rref(pts.flat[ext.inside_idx], q)
    else:
        base_rows = np.zeros((0, pts.flat.shape[1]), dtype=np.uint8)
        base_piv = ()
    base_rank = base_rows.shape[0]
    if not ext.group_reps:
        return base_rank, np.zeros(0, dtype=np.int64)
    maxlen = max(len(m) for m in ext.group_members)
    batch = np.zeros(
        (len(ext.group_members), maxlen, pts.flat.shape[1]), dtype=np.int64
    )
    for i, memb in enumerate(ext.group_members):
        rows = pts.flat[memb]
        if base_rank:
            rows = (rows - rows[:, list(base_piv)] @ base_rows.astype(np.int64)) % q
        batch[i, : len(memb)] = rows
    extras = gf.rank_batch(batch, q)
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


def _iter_first_row_bases(n, k, q, allowed):
    """RREF bases (w_1..w_k) of k-dim subspaces of F_q^n with rows in allowed."""
    cols = list(range(n))
    for pivots in combinations(cols, k):
        nonpiv = [c for c in cols if c not in pivots]
        free_slots = [[c for c in nonpiv if c > pivots[r]] for r in range(k)]

        def build(r, rows):
            if r == k:
                yield list(rows)
                return
            base = np.zeros(n, dtype=np.uint8)
            base[pivots[r]] = 1
            for fill in product(range(q), repeat=len(free_slots[r])):
                w = base.copy()
                for c, v in zip(free_slots[r], fill):
                    w[c] = v
                if w.tobytes() in allowed:
                    rows.append(w)
                    yield from build(r + 1, rows)
                    rows.pop()

        yield from build(0, [])


def iter_spread_sets(space, k):
    """Yield each k-dimensional nonsingular subspace of the space exactly once.

    The first-row map is injective on a nonsingular subspace, so fixing the
    RREF basis of the first-row subspace fixes one basis per subspace: the
    search runs over first-row subspaces and the matching invertible
    elements, pruning whenever a singular combination appears.
    """
    q, n = space.q, space.n
    elems = space.nonzero_elements()
    mats = elems.reshape(-1, n, n)
    ranks = gf.rank_batch(mats, q)
    inv_rows = elems[ranks == n]
    by_first = {}
    for row in inv_rows:
        by_first.setdefault(row[:n].astype(np.uint8).tobytes(), []).append(row)
    allowed = set(by_first)

    def candidates(chosen, w):
        for cand in by_first[w.tobytes()]:
            if chosen:
                grid = np.array(
                    list(product(range(q), repeat=len(chosen))), dtype=np.int64
                )
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

    for w_rows in _iter_first_row_bases(n, k, q, allowed):
        yield from dfs([], w_rows)


def find_spread_sets(space, k, classes=True):
    """k-dimensional nonsingular subspaces, up to equivalence by default."""
    found = list(iter_spread_sets(space, k))
    if not classes:
        return found
    return equivalence_classes(found)


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
    for child_no, members in enumerate(ext.group_members):
        child_of_point[members] = child_no
    labelled = np.zeros(len(ext.group_reps), dtype=bool)
    reps = []
    for child_no, point in enumerate(ext.group_reps):
        if labelled[child_no]:
            continue
        hit = child_of_point[group.point_images([point])[:, 0]]
        if (hit < 0).any():
            raise BadParameters("the group does not stabilise the parent")
        labelled[hit] = True
        reps.append(point)
    return sorted(reps)


# ---------------------------------------------------------------------------
# Classification by tensor rank (diagonal-seeded search)
# ---------------------------------------------------------------------------


def _diag_space(q, n):
    rows = [np.diag(e).reshape(-1) for e in np.eye(n, dtype=np.uint8)]
    return MatSpace.from_rows(q, n, np.stack(rows))


def default_prune_schedule(n):
    """Partial-spread dimension demanded per level in the published runs."""
    return {n + 2: 2, n + 3: 3}


def spread_sets_by_rank(q, n, R, prune=None, workers=1, progress=None):
    """Representatives of all semifield spread sets of tensor rank <= R.

    Grows rank-one spanned spaces from the diagonal space one projective
    rank-one point at a time; each level is classified up to equivalence and
    filtered by the prune schedule, and spread sets are extracted at
    dimension R.
    """
    t0 = time.time()
    if prune is None:
        prune = default_prune_schedule(n)
    prune = {d: k for d, k in prune.items() if d <= R}
    pts = points_for(q, n)
    report = SearchReport("spread-sets-by-rank", q, n)
    report.extra["R"] = R

    current = [_diag_space(q, n)]
    dim = n
    while dim < R:
        dim += 1
        candidates = []
        cand_keys = set()
        raw_count = 0
        for parent in current:
            ext = extension_groups(parent, pts)
            raw_count += len(ext.group_reps)
            aut = automorphism_group(parent)
            for idx in _point_orbit_reps(aut, ext, pts):
                child = parent.extend(pts.flat[idx])
                if child.key not in cand_keys:
                    cand_keys.add(child.key)
                    candidates.append(child)
        classes = equivalence_classes(candidates, workers=workers)
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
        spread_sets.extend(find_spread_sets(space, n, classes=False))
    final = equivalence_classes(spread_sets, workers=workers)
    report.extra["spread_set_classes"] = len(final)
    report.outcome = "classified"
    report.wall_time = time.time() - t0
    return report, final


# ---------------------------------------------------------------------------
# Lower-bound exhaustion / rank certification for one spread set
# ---------------------------------------------------------------------------


def _process_parent(parent, pts, mode, n, R):
    """One parent's children at a raw level; mode selects the filter."""
    ext = extension_groups(parent, pts)
    spans = len(ext.group_reps)
    if mode == "plain":
        children = [parent.extend(pts.flat[i]) for i in ext.group_reps]
        return spans, spans, children
    base_rank, extras = _rank_one_profile(parent, ext, pts)
    if mode == "plain-ordered":
        # keep everything, but richest rank-one content first so that a
        # following witness level hits spanned spaces early
        order = np.argsort(-extras, kind="stable")
        children = [
            (int(base_rank + extras[i]), parent.extend(pts.flat[ext.group_reps[i]]))
            for i in order
        ]
        return spans, spans, children
    if mode == "filter":
        good = np.nonzero(base_rank + extras >= n)[0]
    else:  # "final": spanned by rank ones
        good = np.nonzero(base_rank + extras == R)[0]
    children = [parent.extend(pts.flat[ext.group_reps[i]]) for i in good]
    return spans, len(good), children


def _rank_one_spanned(space, pts):
    inside = pts.flat[space.contains_batch(pts.flat)]
    return inside.shape[0] > 0 and gf.rank(inside, space.q) == space.dim


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

    def scan_last(cand):
        """cand has dimension R-1; return a spanned extension if one exists."""
        ext = extension_groups(cand, pts)
        base_rank, extras = _rank_one_profile(cand, ext, pts)
        hits = np.nonzero(base_rank + extras == R)[0]
        if hits.size:
            return cand.extend(pts.flat[ext.group_reps[int(hits[0])]])
        return None

    if probe.dim == R:
        return probe if _rank_one_spanned(probe, pts) else None
    if probe.dim == R - 1:
        return scan_last(probe)
    # dimension R-2: try the most rank-one-rich children first, capped
    ext = extension_groups(probe, pts)
    base_rank, extras = _rank_one_profile(probe, ext, pts)
    order = np.argsort(-extras, kind="stable")[:64]
    for i in order:
        witness = scan_last(probe.extend(pts.flat[ext.group_reps[int(i)]]))
        if witness is not None:
            return witness
    return None


class _Checkpoint:
    """Atomic JSON snapshots of a raw-level scan, resumable mid-level."""

    def __init__(self, path, interval):
        self.path = path
        self.interval = interval
        self._last = time.time()

    def load(self, params):
        """(snapshot, None) when the file resumes a run with these params;
        (None, why it is ignored) for any other file; (None, None) without one."""
        if self.path is None or not os.path.exists(self.path):
            return None, None
        try:
            with open(self.path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            return None, f"unreadable ({type(exc).__name__})"
        if not isinstance(data, dict) or data.get("version") != 1:
            version = data.get("version") if isinstance(data, dict) else None
            return None, f"version {version!r}, expected 1"
        if data.get("params") != params:
            return None, "parameters differ"
        return data, None

    def save(self, builder, force=False):
        """Write a snapshot; builder is only invoked when a write happens."""
        if self.path is None:
            return
        now = time.time()
        if not force and now - self._last < self.interval:
            return
        payload = builder()
        payload["version"] = 1
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, self.path)
        self._last = now

    def clear(self):
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass


def disprove_rank(
    spread,
    R,
    aut=None,
    workers=1,
    stop_at_witness=True,
    checkpoint=None,
    checkpoint_interval=300.0,
    progress=None,
):
    """Exhaustive search for an R-dimensional rank-one spanned space containing
    the spread set.

    Levels up to dimension 2n-2 are reduced to equivalence classes under the
    automorphism group (orbit representatives of the added point, then orbit
    deduplication of the spans).  When no [R, n, n+1]_q code exists, the
    (2n-1)-dimensional level keeps only spaces containing n linearly
    independent rank ones.  The final level counts R-dimensional children and
    how many are spanned by rank ones; "exhausted" with zero witnesses proves
    tensor rank > R.
    """
    t0 = time.time()
    space = spread.space if isinstance(spread, SpreadSet) else spread
    q, n = space.q, space.n
    if R < n:
        raise RankExceedsCap("target dimension below the spread-set dimension")
    pts = points_for(q, n)
    report = SearchReport("disprove-rank", q, n)
    report.extra["R"] = R

    filter_dim = 2 * n - 1
    prune_ok = code_exists(q, R, n, n + 1) is False
    if not prune_ok:
        report.flags.append(
            f"filter-disabled: [{R},{n},{n + 1}]_{q} code not excluded"
        )

    if aut is None:
        aut = automorphism_group(space)
    report.extra["aut_order"] = aut.order

    params = {
        "algorithm": "disprove-rank",
        "q": q,
        "n": n,
        "R": R,
        "spread": space.encodings(),
        "stop_at_witness": stop_at_witness,
    }
    ckpt = _Checkpoint(checkpoint, checkpoint_interval)
    resume, ignored = ckpt.load(params)
    if ignored:
        report.flags.append(f"checkpoint-ignored: {ignored}")

    if stop_at_witness and resume is None:
        hit = _diag_probe(space, R, pts)
        if hit is not None:
            report.outcome = "witness"
            report.witness = _witness_rank_ones(hit, pts)
            report.flags.append("diagonal-probe")
            report.wall_time = time.time() - t0
            return report

    current = [space]
    dim = n
    witnesses_found = []

    if resume is not None:
        dim = resume["dim"] - 1  # the loop will re-enter the level below
        report.levels = [e for e in resume["levels"] if e.get("dim", 0) < resume["dim"]]
        report.flags.append("resumed-from-checkpoint")

    # the scans keep hundreds of thousands of small immutable objects alive;
    # generational GC sweeps dominate unless collection is deferred to level
    # boundaries (the space graph is cycle-free)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _disprove_levels(
            space, R, aut, pts, report, params, ckpt, resume, current, dim,
            witnesses_found, prune_ok, filter_dim, workers, stop_at_witness,
            progress, t0,
        )
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()


def _disprove_levels(space, R, aut, pts, report, params, ckpt, resume, current,
                     dim, witnesses_found, prune_ok, filter_dim, workers,
                     stop_at_witness, progress, t0):
    q, n = space.q, space.n
    while dim < R:
        dim += 1
        reduce_level = dim <= 2 * n - 2 and dim < R
        is_filter = prune_ok and dim == filter_dim and dim < R
        is_final = dim == R
        if is_final:
            mode = "final"
        elif is_filter:
            mode = "filter"
        elif stop_at_witness and dim == R - 1:
            mode = "plain-ordered"
        else:
            mode = "plain"

        if reduce_level:
            # per-parent stabilizer orbits pre-reduce the children, then one
            # global reduction under the full automorphism group
            children = []
            seen = set()
            for parent in current:
                ext = extension_groups(parent, pts)
                stab = aut if parent is space else aut.stabilizer_of_space(parent)
                for idx in _point_orbit_reps(stab, ext, pts):
                    child = parent.extend(pts.flat[idx])
                    if child.key not in seen:
                        seen.add(child.key)
                        children.append(child)
            classes = equivalence_classes(children, group=aut)
            current = classes
            report.levels.append({"dim": dim, "classes": len(classes)})
            if progress:
                progress(report.levels[-1])
            continue

        # raw level, possibly resumable mid-scan
        counts = {"spaces": 0, "good": 0}
        kept = []
        start = 0
        if resume is not None and resume["dim"] == dim:
            counts = resume["counts"]
            start = resume["parents_done"]
            kept = [MatSpace.from_encodings(q, n, e) for e in resume["kept"]]
            current = [MatSpace.from_encodings(q, n, e) for e in resume["parents"]]
        resume = None

        pool = None
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=workers)
        try:
            batch = 4 * max(1, workers)
            pos = start
            while pos < len(current):
                chunk = current[pos : pos + batch]
                if pool is not None:
                    outs = list(
                        pool.map(lambda p: _process_parent(p, pts, mode, n, R), chunk)
                    )
                else:
                    outs = [_process_parent(p, pts, mode, n, R) for p in chunk]
                for spans, good, children in outs:
                    counts["spaces"] += spans
                    counts["good"] += good
                    kept.extend(children)
                pos += len(chunk)

                def snapshot(pos=pos, counts=dict(counts)):
                    return {
                        "params": params,
                        "levels": report.levels
                        + [{"dim": dim, "partial": True, **counts}],
                        "dim": dim,
                        "parents_done": pos,
                        "counts": counts,
                        "kept": [] if mode == "final" else [
                            (s[1] if isinstance(s, tuple) else s).encodings()
                            for s in kept
                        ],
                        "parents": [s.encodings() for s in current],
                    }

                ckpt.save(snapshot)
                if progress:
                    progress(
                        {
                            "dim": dim,
                            "parents_done": pos,
                            "parents_total": len(current),
                            **counts,
                        }
                    )
                if is_final and stop_at_witness and counts["good"] > 0:
                    break
        finally:
            if pool is not None:
                pool.shutdown()

        if is_final:
            report.levels.append(
                {"dim": dim, "spaces": counts["spaces"], "witnesses": counts["good"]}
            )
            witnesses_found = kept
            break
        if is_filter:
            report.levels.append(
                {"dim": dim, "spaces": counts["spaces"], "survivors": counts["good"]}
            )
        else:
            report.levels.append({"dim": dim, "spaces": counts["spaces"]})
        if mode == "plain-ordered" and kept and isinstance(kept[0], tuple):
            kept.sort(key=lambda item: -item[0])
            kept = [child for _, child in kept]
        current = kept
        gc.collect()
        if progress:
            progress(report.levels[-1])

    if witnesses_found:
        report.outcome = "witness"
        report.witness = _witness_rank_ones(witnesses_found[0], pts)
    else:
        report.outcome = "exhausted"
    report.wall_time = time.time() - t0
    ckpt.clear()
    return report


def _witness_rank_ones(space, pts):
    """An independent rank-one spanning list for a rank-one spanned space."""
    inside = pts.flat[space.contains_batch(pts.flat)]
    chosen = []
    span = np.zeros((0, inside.shape[1]), dtype=np.int64)
    for row in inside:
        cand = np.concatenate([span, row[None]], axis=0)
        if gf.rank(cand, space.q) > span.shape[0]:
            chosen.append(row)
            span = cand
        if len(chosen) == space.dim:
            break
    return [encode(r.reshape(space.n, space.n), space.q) for r in chosen]


def tensor_rank(spread, aut=None, max_R=None, workers=1, progress=None):
    """Exact tensor rank of a spread set, with a rank-one witness list.

    Runs the exhaustion search at increasing target dimensions starting from
    the code-theoretic lower bound; the first target admitting a rank-one
    spanned superspace is the rank.
    """
    from .codes import genbound

    space = spread.space if isinstance(spread, SpreadSet) else spread
    q, n = space.q, space.n
    if aut is None:
        aut = automorphism_group(space)
    if isinstance(spread, SpreadSet):
        hyper = spread.hypercube()
    else:
        hyper = np.stack(space.matrices())
    lower = max(genbound(hyper, q), n)
    cap = max_R if max_R is not None else 4 * n
    reports = []
    for target in range(lower, cap + 1):
        rep = disprove_rank(spread, target, aut=aut, workers=workers, progress=progress)
        reports.append(rep)
        if rep.outcome == "witness":
            return target, rep.witness, reports
    raise RankExceedsCap(f"tensor rank exceeds the cap {cap}")
