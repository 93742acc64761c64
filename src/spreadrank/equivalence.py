"""Equivalence of matrix spaces under (A, B) . X = A X B with A, B invertible.

Testing is anchored: an isotopism sends an invertible x of S1 to a unit
multiple of some invertible y of S2, and then B = (A x)^-1 y, which reduces
A S1 B = S2 to the conjugacy problem A (S1 x^-1) A^-1 = S2 y^-1 between
spaces containing the identity.  Division signatures, the multisets of the
cpm classes (charpoly multisets of S y^-1), are full invariants and are
compared first.  Conjugacy is decided by normal forms, not by a search
(_conjugators): the members g of U = S1 x^-1 of one conjugation-invariant
kind have spin frames K = [v1, g v1, .., v2, g v2, ..], which a conjugator
maps onto the frames of the same kind in the target, so y is reached iff
one frame of one member of S2 y^-1 has the normal form (K^-1 g K, RREF of
K^-1 U K) of a frame at x.  are_equivalent returns the first reached pair,
and automorphism_group (S1 = S2) every reached pair times the conjugation
stabilizer of U, which the frames at x that tie with the first give.

Classification (equivalence_classes without a group) tests each space
against the class representatives found so far: a space gets one normal
form at each anchor of its invariant anchor set (_Anchored), and is
isotopic to a representative iff the table of every frame at the
representative's anchor holds one of them; every merge is checked.  The
same forms give the representative's automorphism group.  The invariants
are computed for blocks of spaces of one (q, n, dim), at most
_DIVISION_BLOCK elements a block, a SpaceData property being the same stage
run on a block of one.  Only spaces without an invertible element are
compared pairwise, by the GL x GL scan.

Stabilizer groups act on the projective rank-one points by permutations:
(A, B) sends u w^T to (A u)(B^T w)^T, so two int16 tables over the
projective vectors of F_q^n give every element's action by index gathers.
automorphism_group keeps one row per pair modulo the scalar pairs
(lam I, mu I), which fix every space and point.  Orbit keys, stabilizers of
spaces and orbits of points all use the tables; a space counts through its
rank-one points, which determine it when it is the group's space plus
their span.  orbit_keys keys a batch of spaces from those points.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import gf
from .algebra import MatSpace, SpreadSet, points_for, rank_one_elements
from .codec import encode_rows
from .errors import BadParameters, NotContained, NotInvertible, TooLarge

_ENUMERATE_CAP = 1 << 13  # max spin frames


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
    """Apply a stack of pairs to one basis, (G,n,n),(k,nn) -> (G,k,nn), or
    pair i to basis i, (G,n,n),(G,k,nn) -> (G,k,nn)."""
    n = gA.shape[-1]
    mats = basis.reshape(*basis.shape[:-1], n, n).astype(np.int64)
    out = gf.mod(gA[:, None].astype(np.int64) @ mats @ gB[:, None].astype(np.int64), q)
    return out.reshape(gA.shape[0], -1, n * n)


# ---------------------------------------------------------------------------
# Per-space cached data: elements, ranks, charpolys, signatures
# ---------------------------------------------------------------------------


class SpaceData:
    """Element-level invariants of one MatSpace, each computed on first use;
    fingerprint, division_data and anchored by block stages (_block_pass),
    a property running a block of one."""

    def __init__(self, space):
        self.space = space
        self.q = space.q
        self.n = space.n
        self.division_ids = None  # the id rows of S Y^-1 that the division_data property keeps

    @cached_property
    def elems(self):
        return self.space.nonzero_elements()

    @cached_property
    def ranks(self):
        return gf.rank_batch(self.elems.reshape(-1, self.n, self.n), self.q)

    @cached_property
    def fingerprint(self):
        """(dim, multiset of element ranks, dimension of the span of the
        rank-one elements)."""
        return _fingerprint_stage([self])[0]

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
        the sorted multiset of cpm_keys, a full equivalence invariant.
        """
        division, self.division_ids = _division_stage([self])[0]
        return division

    def unital_ids(self, at):
        """The charpoly ids of S Y^-1 for the Y at the given positions of
        division_data, one row each: from division_ids, or one _unital_ids call."""
        _, per_y = self.division_data
        if self.division_ids is not None:
            return self.division_ids[at]
        inverses = np.stack([per_y[j][2] for j in at])
        elems = self.elems.reshape(1, -1, self.n, self.n)
        return _unital_ids(elems, np.zeros(len(inverses), dtype=np.intp), inverses, self.q, self.space.dim)

    @cached_property
    def anchored(self):
        """_Anchored with its table (automorphism_group's data), or None
        without an invertible element."""
        return _anchored_stage([self])[0]

    def normaliser(self, at, K=None, K_inv=None):
        """(y, y^-1, K, K^-1), int16, for the y at a position of division_data; K = I by default."""
        _, y, y_inv = self.division_data[1][at]
        ident = np.eye(self.n, dtype=np.int16)
        return (self.elems[y].reshape(self.n, self.n).astype(np.int16), y_inv.astype(np.int16),
                ident if K is None else K, ident if K_inv is None else K_inv)


class _Anchored(NamedTuple):
    """Normal forms of a space at its anchor set (_anchored_stage): key is its
    (cpm key, descriptor), at its positions in division_data, x = at[0], and
    members the frame members of S x^-1; singles holds (K, K^-1, forms) over
    one frame at each anchor, table over every frame at x (None until built)."""

    key: tuple
    at: np.ndarray
    members: np.ndarray
    singles: tuple
    table: tuple = None


def _form_index(forms, own=None):
    """The rows of a form stack by their bytes, the first on ties; raises
    NotContained unless it holds the form own, when given."""
    index = dict(zip(map(bytes, forms[::-1]), range(len(forms) - 1, -1, -1)))
    if own is not None and bytes(own) not in index:
        raise NotContained("the form at the anchor is missing from its own table")
    return index


_DIVISION_BLOCK = 1024  # elements per space block, products S Y^-1 per charpoly pass, frames per pass


def _blocks(datas):
    """SpaceData in blocks of one (q, n, dim), of at most _DIVISION_BLOCK elements (or one space)."""
    groups = {}
    for data in datas:
        groups.setdefault((data.q, data.n, data.space.dim), []).append(data)
    for (q, _, dim), group in groups.items():
        step = max(1, _DIVISION_BLOCK // max(1, q**dim - 1))
        for lo in range(0, len(group), step):
            yield group[lo:lo + step]


def _block_pass(datas, slot, stage):
    """Fill the cached slot of each SpaceData that lacks it, with one stage
    call per block (_blocks); a value already in a slot is kept."""
    for block in _blocks([data for data in datas if slot not in data.__dict__]):
        for data, value in zip(block, stage(block)):
            data.__dict__.setdefault(slot, value)


def _block_elements(block):
    """(q, n, dim, the (spaces, elements, n, n) element stack) of a block."""
    q, n, dim = block[0].q, block[0].n, block[0].space.dim
    mats = np.stack([data.elems for data in block]).reshape(len(block), -1, n, n)
    return q, n, dim, mats


def _fingerprint_stage(block):
    """Fingerprints of a block of spaces of one (q, n, dim): one rank_batch
    over every element of the block, which also fills each ranks slot, and
    one rank_batch over the rank-one elements of each space, zero-padded to
    the block's largest count, for the span dimensions."""
    q, n, dim, mats = _block_elements(block)
    nb, m = mats.shape[:2]
    ranks = gf.rank_batch(mats.reshape(-1, n, n), q).reshape(nb, m)
    multisets = np.bincount((ranks + (n + 1) * np.arange(nb)[:, None]).reshape(-1),
                            minlength=nb * (n + 1)).reshape(nb, n + 1)
    at, elem = np.nonzero(ranks == 1)
    count = np.bincount(at, minlength=nb)
    ones = np.zeros((nb, max(count.max(), 1), n * n), dtype=np.int16)
    place = np.arange(at.size) - (np.cumsum(count) - count)[at]
    ones[at, place] = mats[at, elem].reshape(-1, n * n)
    spans = gf.rank_batch(ones, q).tolist()
    for data, row in zip(block, ranks):
        data.__dict__.setdefault("ranks", row.copy())
    return [
        (dim, tuple((r, c) for r, c in enumerate(counts) if c), span)
        for counts, span in zip(multisets.tolist(), spans)
    ]


def _division_stage(block):
    """(division_data, the unsorted charpoly id rows of S Y^-1, one per
    projective invertible Y in division_data order) of each space of a
    block of one (q, n, dim).  One batched inverse covers every Y of the
    block, and the charpoly ids of S Y^-1 come from _unital_ids; each space
    gets its own copy of its inverses."""
    q, n, dim, mats = _block_elements(block)
    idx = [data.invertible_projective for data in block]
    owner = np.repeat(np.arange(len(block)), [len(i) for i in idx])
    if not owner.size:
        return [(((), []), None) for _ in block]
    inverses = gf.inverse_batch(mats[owner, np.concatenate(idx)], q)[0]
    ids = _unital_ids(mats, owner, inverses, q, dim)
    ordered = np.sort(ids, axis=1)
    # runs of equal ids in each sorted row: their values and lengths
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    row, col = np.nonzero(starts)
    ends = np.append(col[1:], 0)
    ends[np.append(row[1:] != row[:-1], True)] = ordered.shape[1]
    vals, counts = ordered[row, col].tolist(), (ends - col).tolist()
    bounds = np.searchsorted(row, np.arange(len(owner) + 1)).tolist()
    cpms = [tuple(zip(vals[a:b], counts[a:b])) for a, b in zip(bounds, bounds[1:])]
    out, lo = [], 0
    for y_idx in idx:
        hi = lo + len(y_idx)
        per_y = list(zip(cpms[lo:hi], y_idx.tolist(), inverses[lo:hi].copy()))
        out.append(((tuple(sorted(cpms[lo:hi])), per_y), ids[lo:hi]))
        lo = hi
    return out


def _unital_ids(mats, owner, inverses, q, dim):
    """Charpoly ids of the elements of S Y^-1 for each Y^-1 of a (k, n, n)
    stack, S the space owner[i] of a (spaces, elements, n, n) element
    stack of dim-dimensional spaces, as a (k, elements) array of the
    narrowest type that holds an id.  Only the projective elements are
    multiplied, _DIVISION_BLOCK products a charpoly pass; the ids of their
    unit multiples are scaled from theirs (_scaled_charpoly_ids)."""
    n = mats.shape[-1]
    proj, multiples = _projective_multiples(q, dim)
    mats = mats[:, proj].astype(np.int16)
    ids = np.empty((len(inverses), q**dim - 1), dtype=np.min_scalar_type(q**n - 1))
    step = max(1, _DIVISION_BLOCK // len(proj))
    for lo in range(0, len(inverses), step):
        prods = gf.mod(mats[owner[lo:lo + step]] @ inverses[lo:lo + step, None].astype(np.int16), q)
        ids[lo:lo + step, proj] = gf.charpoly_ids(prods.reshape(-1, n, n), q).reshape(-1, len(proj))
    base = ids[:, proj]
    for at, table in zip(multiples, _scaled_charpoly_ids(q, n)):
        ids[:, at] = table[base]
    return ids


@lru_cache(maxsize=None)
def _projective_multiples(q, dim):
    """(projective, multiples) of the nonzero elements of a dim-dimensional
    space, in nonzero_elements order: the indices of those with leading
    coefficient 1, and a (q - 2, len(projective)) array whose row lam - 2
    holds the index of lam times each of them."""
    grid = gf.coefficient_grid(q, dim)[1:]
    proj = np.nonzero(gf.leading_coeff(grid, q) == 1)[0]
    weights = q ** np.arange(dim - 1, -1, -1)  # the grid's first entry is most significant
    return proj, np.arange(2, q)[:, None, None] * grid[proj] % q @ weights - 1


@lru_cache(maxsize=None)
def _scaled_charpoly_ids(q, n):
    """(q - 2, q^n) tables: row lam - 2 maps the charpoly id of an n x n
    matrix M to the id of lam M.  det(xI - lam M) has lam^i c_i where
    det(xI - M) has c_i at x^(n-i), and c_i is digit i - 1 of the id."""
    digits = gf.coefficient_grid(q, n)[:, ::-1]  # row j: the digits of j, least first
    powers = np.arange(2, q)[:, None] ** np.arange(1, n + 1) % q
    scaled = digits * powers[:, None] % q @ q ** np.arange(n)
    return scaled.astype(np.min_scalar_type(q**n - 1))


def _unital(datas, at, ids=None):
    """(U, bases) of U = S y^-1 as int16 (anchors, ., n, n) stacks, for
    each space datas[i] of one (q, n, dim) and the y at the positions at[i]
    of its division_data; with the id rows of those U, also the
    (descriptors, masks) of their frame members (_frame_members)."""
    q, n = datas[0].q, datas[0].n
    owner = np.repeat(np.arange(len(datas)), [len(a) for a in at])
    y_inv = np.stack([data.division_data[1][j][2] for data, a in zip(datas, at) for j in a]).astype(np.int16)
    elems, bases = (np.stack(part).reshape(len(datas), -1, n, n).astype(np.int16)[owner] @ y_inv[:, None]
                    for part in zip(*((data.elems, data.space.basis) for data in datas)))
    U, bases = gf.mod(elems, q), gf.mod(bases, q)
    if ids is None:
        return U, bases
    return U, bases, *_frame_members(ids, gf.min_degrees(U.reshape(-1, n, n), q).reshape(len(U), -1))


def _anchored_stage(block, table=True):
    """_Anchored of each space of a block of one (q, n, dim), with its table
    if table, None without an invertible element.  The anchor set, the y of
    the cpm class of least (count, cpm key) whose U = S y^-1 has frame
    members of least descriptor, is invariant.  One division stage over the
    spaces without division_data and one _conjugators call."""
    missing = [data for data in block if "division_data" not in data.__dict__]
    fresh = dict(zip(missing, _division_stage(missing) if missing else []))
    for data, (division, _) in fresh.items():
        data.__dict__.setdefault("division_data", division)
    out, spaces, at, cpms, ids = [None] * len(block), [], [], [], []
    for s, data in enumerate(block):
        per_y = data.division_data[1]
        if per_y:
            counts = Counter(cpm for cpm, _, _ in per_y)
            cpms.append(min(counts, key=lambda c: (counts[c], c)))
            at.append(np.array([j for j, (c, _, _) in enumerate(per_y) if c == cpms[-1]]))
            ids.append(fresh[data][1][at[-1]] if data in fresh else data.unital_ids(at[-1]))
            spaces.append(s)
    if not spaces:
        return out
    U, bases, descriptors, masks = _unital([block[s] for s in spaces], at, np.concatenate(ids))
    bounds = np.cumsum([0] + [len(a) for a in at]).tolist()
    least = [min(descriptors[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    rows = [[r for r in range(lo, hi) if descriptors[r] == d] for lo, hi, d in zip(bounds, bounds[1:], least)]
    members = [np.nonzero(masks[r[0]])[0] for r in rows]
    lone = np.concatenate(rows)
    tables, singles = _conjugators([(U[r[0], m], bases[r[0]]) for r, m in zip(rows, members)] if table else [],
                                   (U[lone, masks[lone].argmax(axis=1)], bases[lone]), block[0].q)
    ends = np.cumsum([0] + [len(r) for r in rows])
    for k, s in enumerate(spaces):
        out[s] = _Anchored((cpms[k], least[k]), at[k][np.array(rows[k]) - bounds[k]], members[k],
                           tuple(M[ends[k]:ends[k + 1]] for M in singles), tables[k] if table else None)
    return out


def _frame_members(ids, degrees):
    """(descriptors, masks) of the frame members of unital spaces U, from
    the (spaces, elements) charpoly ids and minimal-polynomial degrees of
    their elements.  Row i's mask holds the (id, degree) group of U_i of
    most degree, then fewest members, then least id; descriptors[i] is that
    group's (-degree, count, id), which conjugation keeps."""
    rows, m = ids.shape
    width, top = int(ids.max()) + 1, int(degrees.max()) + 1
    group = (np.arange(rows)[:, None] * top + degrees) * width + ids
    _, at, counts = np.unique(group, return_inverse=True, return_counts=True)
    size = counts[at].reshape(rows, m)
    rank = ((top - degrees) * (m + 1) + size) * width + ids  # (-degree, count, id) order
    first = np.arange(rows), rank.argmin(axis=1)
    descriptors = zip((-degrees[first]).tolist(), size[first].tolist(), ids[first].tolist())
    return list(descriptors), rank == rank[first][:, None]


def _spin_frames(G, spaces, q, lone=None):
    """(K, K^-1, member) over the spin frames of a (k, n, n) stack, g-major,
    as uint8 stacks: member[i] is the index of K[i]'s g, a member of the
    space U with basis matrices spaces[i].  The members from index lone on
    get one frame each, the one that takes the first best v of each pass.

    A spin frame is [v1, g v1, .., v2, g v2, ..], in (v1, v2, ..) order: v1
    is projective, and each vj has the longest spin under g modulo the
    earlier blocks, then (past a Krylov basis) the least dim U vj.  So a
    conjugator A of U onto V maps the frames of g onto those of A g A^-1,
    scaled to a projective v1.  A pass extends each partial frame P by every
    candidate v, _DIVISION_BLOCK // (candidates) frames at a time: an
    invertible [P | v, g v, ..] (one inverse_batch) is complete, as is each
    Krylov basis of a cyclic g in the first pass; a P with none keeps the v
    of highest rank (one rank_batch), as P spans a g-invariant space.  Past
    the first pass, more than _ENUMERATE_CAP frames of one space U (a run
    of members with equal spaces[i], partial frames included) raise
    TooLarge, so the outcome for a space does not depend on the other
    spaces of the call."""
    n = G.shape[-1]
    flat = spaces.reshape(len(spaces), -1)
    owner = np.cumsum(np.append(0, (flat[1:] != flat[:-1]).any(axis=1)))
    P, filled, member = np.zeros((len(G), n, n), np.uint8), np.zeros(len(G), int), np.arange(len(G))
    done, cands = [(P[:0], P[:0], member[:0])], points_for(q, n).vectors
    while len(member):
        m, parts, step = len(cands), [], max(1, _DIVISION_BLOCK // len(cands))
        for lo in range(0, len(member), step):
            c, g = filled[lo:lo + step], member[lo:lo + step]
            cols = [np.broadcast_to(cands.astype(np.int16), (len(g), m, n))]
            for _ in range(n - 1):
                cols.append(gf.mod(cols[-1] @ G[g].transpose(0, 2, 1).astype(np.int16), q))  # v -> (g v)^T
            src = np.arange(n) - np.repeat(c, m)[:, None, None]  # column j is spin column j - c
            spins = np.stack(cols, axis=-1).reshape(-1, n, n)
            M = np.where(src >= 0, np.take_along_axis(spins, src.clip(0).repeat(n, axis=1), axis=2),
                         np.repeat(P[lo:lo + step], m, axis=0)).astype(np.uint8)
            M_inv, invertible = gf.inverse_batch(M, q)
            rank = np.where(invertible, n, 0).reshape(-1, m)
            shut = ~rank.any(axis=1)
            rank[shut] = gf.rank_batch(M.reshape(-1, m, n, n)[shut].reshape(-1, n, n), q).reshape(-1, m)
            # past the Krylov bases of the first pass, least dim U v among the longest spins
            refine, span = shut | (c > 0), np.zeros_like(rank)
            Uv = gf.mod(spaces[g[refine], None].astype(np.int16) @ cands[:, None, :, None].astype(np.int16), q)
            span[refine] = gf.rank_batch(Uv.reshape(-1, Uv.shape[2], n), q).reshape(-1, m)
            score = rank * (n + 1) - span
            parent, v = np.nonzero(score == score.max(axis=1, keepdims=True))
            if lone is not None:  # a member from lone on keeps its first best v
                keep = (g[parent] < lone) | np.append(True, parent[1:] != parent[:-1])
                parent, v = parent[keep], v[keep]
            at, c, g = parent * m + v, rank[parent, v], g[parent]
            K, full = np.where(np.arange(n) < c[:, None, None], M[at], 0).astype(np.uint8), c == n
            parts.append((K[full], M_inv[at[full]], g[full], K[~full], c[~full], g[~full]))
        *found, P, filled, member = (np.concatenate(part) for part in zip(*parts))
        done.append(found)
        frames = np.bincount(owner[np.concatenate([g for _, _, g in done] + [member])])
        if len(done) > 2 and frames.max(initial=0) > _ENUMERATE_CAP:
            raise TooLarge(f"more than {_ENUMERATE_CAP} spin frames of one space")
        cands = gf.coefficient_grid(q, n)[1:]
    K, K_inv, member = (np.concatenate(part) for part in zip(*done))
    order = np.argsort(member, kind="stable")
    return K[order], K_inv[order], member[order]


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
# Equivalence testing
# ---------------------------------------------------------------------------


def _conjugators(every, lone, q):
    """Normal forms at anchors of spaces of one (q, n, dim), in one
    _spin_frames call and one RREF pass: (K, K^-1, forms) for each (G,
    basis) of every, the int16 frame members of U = S x^-1 and U's basis,
    over every frame of each member, then over the stacks (G, bases) of
    lone, one member a row, one frame each.  A form is K^-1 g K, then the
    RREF of K^-1 U K, uint8 (bits at q = 2); a conjugator of U onto V maps
    g's frames onto those of A g A^-1, so U and V share a form iff conjugate."""
    G = np.concatenate([g for g, _ in every] + [lone[0]])
    spaces = np.concatenate([np.broadcast_to(B, (len(g), *B.shape)) for g, B in every] + [lone[1]])
    sizes = np.cumsum([0] + [len(g) for g, _ in every])
    K, K_inv, member = (M.astype(np.int16) for M in _spin_frames(G, spaces, q, lone=sizes[-1]))
    forms = np.concatenate([gf.mod(gf.mod(K_inv @ G[member], q) @ K, q).reshape(len(K), -1),
                            _normal_forms(K, K_inv, spaces[member], q)], axis=1).astype(np.uint8)
    forms = np.packbits(forms, axis=1) if q == 2 else forms  # eight entries a byte
    ends = np.searchsorted(member, sizes).tolist()
    tables = [(K[lo:hi], K_inv[lo:hi], forms[lo:hi]) for lo, hi in zip(ends, ends[1:])]
    return tables, (K[ends[-1]:], K_inv[ends[-1]:], forms[ends[-1]:])


def _witness(d1, d2):
    """(A, B) of the first image y of the anchor x of S1 that the normal
    forms reach, in division_data order, or None: x is the element of S1
    whose cpm class is rarest in S2, least index on ties, and its images
    are those of that class whose members have x's descriptor."""
    per_x, per_y = d1.division_data[1], d2.division_data[1]
    count = Counter(cpm for cpm, _, _ in per_y)
    i = min(range(len(per_x)), key=lambda i: (count[per_x[i][0]], per_x[i][1]))
    images = np.array([j for j, (cpm, _, _) in enumerate(per_y) if cpm == per_x[i][0]])
    ids = np.concatenate([d1.unital_ids([i]), d2.unital_ids(images)])
    U, bases, descriptors, masks = _unital([d1, d2], [[i], images], ids)
    same = np.array([k for k in range(1, len(U)) if descriptors[k] == descriptors[0]], dtype=np.intp)
    [(K, K_inv, forms)], (K_y, K_y_inv, forms_y) = _conjugators(
        [(U[0, masks[0]], bases[0])], (U[same, masks[same].argmax(axis=1)], bases[same]), d1.q)
    index = _form_index(forms)
    for k, form in enumerate(forms_y):
        hit = index.get(bytes(form))
        if hit is not None:
            return _key_isotopism(d1.normaliser(i, K[hit], K_inv[hit]),
                                  d2.normaliser(images[same[k] - 1], K_y[k], K_y_inv[k]), d1.q)
    return None


def are_equivalent(s1, s2):
    """A witness Isotopism g with act(g, s1) = s2, or None.

    Exhaustive given the anchoring argument of _witness: any witness maps
    the anchor of s1 to a unit multiple of one of its images in s2.  The
    witness is the pair of the first image reached, checked with act
    (NotContained otherwise).  Two 1-dimensional spaces <x> and <y> are
    isotopic by (I, x^-1 y).
    """
    s1, s2 = (s.space if isinstance(s, SpreadSet) else s for s in (s1, s2))
    if (s1.q, s1.n) != (s2.q, s2.n):
        return None
    q, n = s1.q, s1.n
    if s1.key == s2.key:
        ident = np.eye(n, dtype=np.uint8)
        return Isotopism(ident, ident, q)
    d1, d2 = space_data(s1), space_data(s2)
    if d1.fingerprint != d2.fingerprint:
        return None

    if d1.invertible_projective.size == 0:  # nor has s2, by its fingerprint
        return _brute_force_equivalent(s1, s2)

    if d1.division_data[0] != d2.division_data[0]:
        return None
    found = _key_isotopism(d1.normaliser(0), d2.normaliser(0), q) if s1.dim == 1 else _witness(d1, d2)
    if found is None:
        return None
    witness = Isotopism(*(M.astype(np.uint8) for M in found), q)
    if act(witness, s1) != s2:
        raise NotContained("equivalence witness does not map s1 onto s2")
    return witness


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


_ORBIT_KEY_ROWS = 1 << 16  # bounds the candidate images of one orbit_keys pass


def _points_inside(spaces, group):
    """The rank-one points of each space, by containment, as rows of
    orbit_keys; each space must contain group.space (BadParameters
    otherwise)."""
    flat = points_for(group.q, group.n).flat
    if group.space is not None and not all(s.contains_space(group.space) for s in spaces):
        raise BadParameters("space does not contain the group's space")
    inside = np.array([s.contains_batch(flat) for s in spaces]).reshape(len(spaces), -1)
    return np.sort(np.where(inside, np.arange(len(flat)), len(flat)), axis=1)


def _check_span(members, group, dims):
    """BadParameters unless each space, of dimension dims[i] and holding
    group.space and the points of row i of members, is group.space plus
    their span: one rank_batch over the points modulo group.space."""
    flat, S = points_for(group.q, group.n).flat, group.space
    rows = np.append(flat, flat[:1] * 0, axis=0)[members.reshape(-1)]  # the padding is 0
    if S is not None:
        rows = np.delete(S.reduce(rows), S.pivots, axis=1)
    ranks = gf.rank_batch(rows.reshape(*members.shape, rows.shape[1]), group.q)
    if (ranks + (0 if S is None else S.dim) != np.asarray(dims)).any():
        raise BadParameters("space is not the group's space plus its rank-one points")


def orbit_keys(members, group, dims):
    """Least sorted image over the group of each space's rank-one points,
    as bytes: equal keys iff the spaces lie in one orbit, for spaces that
    are group.space plus the span of their rank-one points (checked, see
    _check_span).  Row i of members holds every rank-one point of space i,
    in any order, padded with len(points); space i contains group.space
    and has dimension dims[i].

    The least image starts at L, the least point whose orbit holds a
    member, so only the rows that send a member of L's orbit onto L are
    scanned: with one point_images column per orbit, grouped by image, the
    rows g with g(L) = x, whose inverses send x to L.  Their inverse point
    actions invert only their rows of group.tables.
    """
    pts = points_for(group.q, group.n)
    npts = len(pts)
    M = np.sort(np.asarray(members), axis=1)  # the padding last
    M = M[:, :np.count_nonzero(M < npts, axis=1).max(initial=0)]
    keys = [b""] * len(M)
    # the least point of each member's orbit, and where the elements that
    # send that point onto the member start among the columns' elements
    least, (start, size), columns = np.full(npts + 1, npts), np.zeros((2, npts + 1), np.int64), []
    need = np.zeros(npts + 1, dtype=bool)
    need[M] = True
    while (need[:npts] & (least[:npts] == npts)).any():
        low = int(np.argmax(least == npts))  # the least unlabelled point is the least of its orbit
        col = group.point_images([low])[:, 0]
        count = np.bincount(col, minlength=npts + 1)
        orbit = np.nonzero(count)[0]
        least[orbit], size[orbit] = low, count[orbit]
        start[orbit] = col.size * len(columns) + (np.cumsum(count) - count)[orbit]
        columns.append(np.argsort(col.astype(np.min_scalar_type(npts)), kind="stable"))  # radix
    step = max(1, _ORBIT_KEY_ROWS // max(1, M.shape[1] * size.max()))  # spaces a pass
    for lo in range(0, len(M), step):
        part = M[lo:lo + step]
        _check_span(part, group, np.asarray(dims)[lo:lo + step])
        if not part.size:
            continue
        lows = least[part]
        space, x = np.nonzero((lows == lows.min(axis=1, keepdims=True)) & (part < npts))
        x = part[space, x]
        space, reps = np.repeat(space, size[x]), size[x]
        within = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        uniq, at = np.unique(np.concatenate(columns)[np.repeat(start[x], reps) + within], return_inverse=True)
        TA, TB = (np.empty((uniq.size, T.shape[1]), dtype=T.dtype) for T in group.tables)
        for inverse, T in zip((TA, TB), group.tables):  # the inverses of their permutation rows
            inverse[np.arange(uniq.size)[:, None], T[uniq]] = np.arange(T.shape[1], dtype=T.dtype)
        moved = part[space] % npts
        img = pts.of_uw[TA[at[:, None], pts.u[moved]], TB[at[:, None], pts.w[moved]]]
        img[part[space] == npts] = npts
        img.sort(axis=1)
        order = np.lexsort((*img.T[::-1], space))
        first = order[np.diff(space[order], prepend=-1) != 0]  # each space's least row
        for s, row in zip((space[first] + lo).tolist(), img[first]):
            keys[s] = row[:np.count_nonzero(row < npts)].tobytes()
    return keys


def _orbit_canonical_key(space, group):
    """orbit_keys of one space, its rank-one points found by containment
    (perfbench's tracer counts the calls of this name)."""
    return orbit_keys(_points_inside([space], group), group, [space.dim])[0]


def equivalence_classes(spaces, group=None, members=None):
    """Representatives of the distinct equivalence classes of the input.

    Under the full group the classes are those of isotopism_classes.
    Under an explicit subgroup, classes are orbits under exactly that
    subgroup, keyed in one orbit_keys pass: each space must contain
    group.space and equal group.space plus the span of its rank-one points
    (BadParameters otherwise), and members, when given, holds those points
    as rows (as search's block kernel knows them); otherwise they are found
    by containment.  The output is a deterministic function of the input
    set: each representative is the member of its class with the least
    (dim, RREF basis bytes), and the output is sorted by that key.
    """
    spaces = list(spaces)
    if not spaces:
        return []
    unique = {}
    for i, s in enumerate(spaces):
        unique.setdefault(s.key, i)
    at = sorted(unique.values(), key=lambda i: spaces[i].key)
    items = [spaces[i] for i in at]

    if group is not None:
        inside = _points_inside(items, group) if members is None else members[at]
        classes = {}
        for s, key in zip(items, orbit_keys(inside, group, [s.dim for s in items])):
            classes.setdefault(key, []).append(s)
        reps = [min(found, key=_sort_key) for found in classes.values()]
        return sorted(reps, key=_sort_key)

    reps = [min((items[i] for i in members), key=_sort_key) for members in isotopism_classes(items)]
    return sorted(reps, key=_sort_key)


def isotopism_classes(spaces):
    """The isotopism classes of a list of spaces, as lists of positions,
    each increasing, in order of their first position.

    Spaces are bucketed by fingerprint, and by _Anchored key if they have an
    invertible element and dimension 2 or more; each in turn joins the first
    class of its bucket whose representative's table holds one of its
    forms, or represents a new class.  Tables are built in rounds of one new
    class per bucket and kept in anchored slots (a filled slot is kept), and
    every merge is checked by _check_key_merges.  Other spaces are tested
    against each class's first member, 1-dimensional ones by are_equivalent
    and those without an invertible element by _brute_force_equivalent."""
    # held here: space_data clears its cache past 4,000 entries
    datas = [space_data(s) for s in spaces]
    _block_pass(datas, "fingerprint", _fingerprint_stage)
    shared = Counter(data.fingerprint for data in datas)
    framed = [data for data in datas if shared[data.fingerprint] > 1
              and data.space.dim > 1 and data.invertible_projective.size]
    found = {data: data.__dict__.get("anchored") for data in framed}
    for block in _blocks([data for data in framed if found[data] is None]):
        found.update(zip(block, _anchored_stage(block, table=False)))
    buckets = {}
    for i, data in enumerate(datas):
        buckets.setdefault((data.fingerprint, getattr(found.get(data), "key", None)), []).append(i)
    classes, merges, pending = [], [], []
    for bucket in buckets.values():
        head = datas[bucket[0]]
        if head in found and len(bucket) > 1:
            pending.append((deque(bucket), []))
            continue
        # a bucket of one, of 1-dimensional spaces, or of spaces without an invertible element
        pairwise = are_equivalent if head.invertible_projective.size else _brute_force_equivalent
        scanned = {}
        for i in bucket:
            scanned.setdefault(next((j for j in scanned if pairwise(spaces[j], spaces[i])), i), []).append(i)
        classes.extend(scanned.values())
    while pending:  # a round: each bucket's first space left represents a new class
        for block in _blocks([datas[left[0]] for left, _ in pending if found[datas[left[0]]].table is None]):
            U, bases = _unital(block, [found[data].at[:1] for data in block])  # every frame at each x
            every = [(U_x[found[data].members], B) for data, U_x, B in zip(block, U, bases)]
            tables, _ = _conjugators(every, (U[:0, 0], bases[:0]), block[0].q)
            found.update((data, found[data]._replace(singles=tuple(M.copy() for M in found[data].singles), table=table))
                         for data, table in zip(block, tables))  # the copies let the block's other forms go
        for left, reps in pending:
            i = left.popleft()
            record = found[datas[i]] = datas[i].__dict__.setdefault("anchored", found[datas[i]])
            reps.append((i, _form_index(record.table[2], record.singles[2][0]), [i]))
            while left and (hit := _table_hit(found[datas[left[0]]], reps)):
                (first, _, members), j, h = hit
                i = left.popleft()
                record, first_record = found[datas[i]], found[datas[first]]
                merges.append((i, first, datas[i].normaliser(record.at[j], *(M[j] for M in record.singles[:2])),
                               datas[first].normaliser(first_record.at[0], *(M[h] for M in first_record.table[:2]))))
                members.append(i)
            if not left:  # the bucket is done: drop the forms of its other members
                classes.extend(members for _, _, members in reps)
                found.update((datas[i], None) for _, _, members in reps for i in members[1:])
        pending = [(left, reps) for left, reps in pending if left]
    _check_key_merges(spaces, merges)
    return sorted(classes)


def _table_hit(record, reps):
    """(representative, j, h) of the first of reps whose table holds the j-th form of the record, as row h."""
    return next(((rep, j, h) for rep in reps for j, form in enumerate(record.singles[2])
                 if (h := rep[1].get(bytes(form))) is not None), None)


def _check_key_merges(spaces, merges):
    """Check the (i, first, norm, first_norm) merges of isotopism_classes in
    one batch per (q, n, dim): each composed isotopism must be invertible
    (NotInvertible) and map space i into, so onto, space first (NotContained)."""
    groups = {}
    for merge in merges:
        s = spaces[merge[0]]
        groups.setdefault((s.q, s.n, s.dim), []).append(merge)
    for (q, n, _), group in groups.items():
        at, firsts, norms, first_norms = zip(*group)
        A, B = _key_isotopism(*(tuple(map(np.stack, zip(*ns))) for ns in (norms, first_norms)), q)
        if not (gf.det_batch(A, q).all() and gf.det_batch(B, q).all()):
            raise NotInvertible("isotopism components must be invertible")
        moved = _act_arrays(A, B, np.stack([spaces[i].basis for i in at]), q)
        for first in sorted(set(firsts)):
            if not spaces[first].contains_batch(moved[np.equal(firsts, first)].reshape(-1, n * n)).all():
                raise NotContained("equal normal forms, but the composed isotopism fails")


def _key_isotopism(norm_v, norm_w, q):
    """The isotopism (K_W K_V^-1, y_V^-1 K_V K_W^-1 y_W) from V to W, as an
    (A, B) pair of arrays, for normalisers (y, y^-1, K, K^-1) of V and W, or
    stacks of them, that reach equal normal forms:
    K_V^-1 V y_V^-1 K_V = K_W^-1 W y_W^-1 K_W."""
    _, y_v_inv, K_v, K_v_inv = norm_v
    y_w, _, K_w, K_w_inv = norm_w
    return K_w @ K_v_inv % q, y_v_inv @ K_v % q @ K_w_inv % q @ y_w % q


# ---------------------------------------------------------------------------
# Stabilizer groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StabilizerGroup:
    """Setwise stabilizer {(A, B) : A S B = S}, fully enumerated by rows.

    rows, two uint8 stacks of pairs (A_i, B_i), is multiplied out from the
    factors (RA, C, D, RB) when read: the rows (RA_y C_c, D_c RB_y),
    y-major, or those at the indices select.  With scalars, a row stands
    for its (q - 1)^2 unit multiples (lam A_i, mu B_i); otherwise it is one
    element.  order counts the elements, and A and B expand the rows:
    row-major, then lam, then mu.  tables holds each row's action
    u w^T -> (A u)(B^T w)^T on the projective rank-one points as two int16
    (rows, m) tables: the projective index of A_i v and of B_i^T v.
    """

    q: int
    n: int
    factors: tuple
    tables: tuple
    space: MatSpace = None
    scalars: bool = False
    select: np.ndarray = None

    @classmethod
    def of_elements(cls, q, n, A, B, space=None):
        """The group of the given element stacks, with their point tables."""
        pts = points_for(q, n)
        tables = (pts.vector_images(A), pts.vector_images(B.transpose(0, 2, 1)))
        ident = np.eye(n, dtype=np.uint8)[None]
        return cls(q, n, (A, ident, ident, B), tables, space)

    @classmethod
    def trivial(cls, q, n):
        ident = np.eye(n, dtype=np.uint8)[None]
        return cls.of_elements(q, n, ident, ident.copy())

    @property
    def order(self):
        return len(self.tables[0]) * ((self.q - 1) ** 2 if self.scalars else 1)

    @cached_property
    def rows(self):
        RA, C, D, RB = self.factors
        y, c = np.divmod(np.arange(len(RA) * len(C)) if self.select is None else self.select, len(C))
        return tuple(gf.mod(L @ R, self.q).astype(np.uint8) for L, R in ((RA[y], C[c]), (D[c], RB[y])))

    @cached_property
    def A(self):
        return self._expand(self.rows[0], lam=True)

    @cached_property
    def B(self):
        return self._expand(self.rows[1], lam=False)

    def _expand(self, M, lam):
        """The element stack of one side: each row times lam, or times mu."""
        if not self.scalars:
            return M
        q = self.q
        scaled = (M[:, None].astype(np.int16) * np.arange(1, q, dtype=np.int16)[:, None, None] % q).astype(np.uint8)
        units = np.repeat(scaled, q - 1, axis=1) if lam else np.tile(scaled, (1, q - 1, 1, 1))
        return units.reshape(-1, self.n, self.n)

    def isotopisms(self):
        return [Isotopism(a, b, self.q) for a, b in zip(self.A, self.B)]

    def point_images(self, idx):
        """(rows, len(idx)) indices of the images of the given points."""
        pts = points_for(self.q, self.n)
        TA, TB = self.tables
        return pts.of_uw[TA[:, pts.u[idx]], TB[:, pts.w[idx]]]

    def stabilizer_of_space(self, space, members=None):
        """Subgroup of elements that also fix the given space setwise.

        The space must be self.space plus the span of its rank-one points
        (BadParameters otherwise); an element then fixes it iff it fixes
        that point set, and a row's unit multiples fix it with the row.
        members, when given, holds those points as one row of orbit_keys;
        otherwise they are found by containment.
        """
        inside = np.sort(_points_inside([space], self)[0] if members is None else members)
        inside = inside[inside < len(points_for(self.q, self.n))]
        _check_span(inside[None], self, [space.dim])
        ok = (np.sort(self.point_images(inside), axis=1) == inside).all(axis=1)
        select = np.nonzero(ok)[0] if self.select is None else self.select[ok]
        return replace(self, select=select, tables=tuple(T[ok] for T in self.tables), space=space)


def _normal_forms(K, K_inv, bases, q):
    """RREF rows of K^-1 V K for (f, n, n) frames, their inverses and bases of V, one rref_batch."""
    V = gf.mod(gf.mod(K_inv[:, None].astype(np.int16) @ bases.astype(np.int16), q) @ K[:, None].astype(np.int16), q)
    return gf.rref_batch(V.reshape(len(K), -1, K.shape[-1] ** 2), q)[0].reshape(len(K), -1)


def automorphism_group(space):
    """Exact setwise stabilizer of a space containing an invertible element,
    with its point tables, from its anchored slot.

    An automorphism sends the anchor x to a unit multiple of an anchor y,
    and those sending x to y are (A_y C, D B_y) times units: y is reached
    iff its form is in the table at x, (A_y, B_y) composed from the first
    such frame, and the frames at x that tie with the first give the
    conjugation stabilizer C of S x^-1 and D = x^-1 C^-1 x.  One batch
    checks every pair (NotContained otherwise).  A row stands for its
    (q - 1)^2 unit multiples, a block per reached y in division_data order.
    """
    space = space.space if isinstance(space, SpreadSet) else space
    q, n = space.q, space.n
    data = space_data(space)
    if data.invertible_projective.size == 0:
        return _brute_force_stabilizer(space)
    found = data.anchored
    (K, K_inv, forms), (K_y, K_y_inv, forms_y) = found.table, found.singles
    index = _form_index(forms, forms_y[0])
    hit = np.array([index.get(bytes(form), -1) for form in forms_y])
    reached, (x, x_inv, _, _) = np.nonzero(hit >= 0)[0], data.normaliser(found.at[0])
    Y = np.stack([data.normaliser(found.at[j])[0] for j in reached])
    RA, RB = _key_isotopism((x, x_inv, K[hit[reached]], K_inv[hit[reached]]),
                            (Y, None, K_y[reached], K_y_inv[reached]), q)
    ties = (forms == forms[0]).all(axis=1)  # C is the stabilizer up to units
    C, D = _key_isotopism((x, x_inv, K[0], K_inv[0]), (x, None, K[ties], K_inv[ties]), q)
    moved = _act_arrays(np.concatenate([RA, C]), np.concatenate([RB, D]), space.basis, q)
    if not space.contains_batch(moved.reshape(-1, n * n)).all():
        raise NotContained("a normal-form automorphism does not fix the space")
    pts = points_for(q, n)
    tables = tuple(T[:, U].reshape(-1, U.shape[1]) for T, U in (
        (pts.vector_images(RA), pts.vector_images(C)),
        (pts.vector_images(RB.transpose(0, 2, 1)), pts.vector_images(D.transpose(0, 2, 1)))))
    return StabilizerGroup(q, n, (RA, C, D, RB), tables, space, scalars=True)


def automorphism_groups(spaces):
    """automorphism_group of each space, their anchored slots filled by blocks."""
    _block_pass([space_data(s) for s in spaces], "anchored", _anchored_stage)
    return [automorphism_group(s) for s in spaces]


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
        hit = np.searchsorted(codes, encode_rows(images, q))
        labelled[hit] = True
        out.append((M, int(np.count_nonzero(np.bincount(hit)))))
    return out
