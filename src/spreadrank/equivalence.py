"""Equivalence of matrix spaces under (A, B) . X = A X B with A, B invertible.

Testing is anchored: an isotopism sends the anchor x of S1 to a unit
multiple of some invertible y of S2, and then B = (A x)^-1 y, which reduces
A S1 B = S2 to the conjugacy problem A (S1 x^-1) A^-1 = S2 y^-1 between
spaces containing the identity.  The anchor is the element of S1 whose cpm
class (charpoly multiset of S1 x^-1) is rarest in S2, least index first,
which leaves the fewest images y.  Division signatures, the multisets of
those classes, are full invariants and are compared first.

Conjugacy is decided by normal forms, not by a search (_conjugators): the
members g of U = S1 x^-1 of one conjugation-invariant kind have spin frames
K = [v1, g v1, .., v2, g v2, ..], which a conjugator maps onto the frames
of the same kind in the target, so y is reached iff one frame of one member
of S2 y^-1 has the normal form (K^-1 g K, RREF of K^-1 U K) of a frame at x.
are_equivalent returns the first reached pair, and automorphism_group
(S1 = S2) every reached pair times the conjugation stabilizer of U, which
the frames at x that tie with the first give.  Two 1-dimensional spaces
with an invertible element are isotopic outright.

Classification (equivalence_classes without a group) keys each space once
instead of testing pairs.  The canonical isotopism key normalises twice:
an anchor y from the rarest cpm class makes U = S y^-1 unital, and a cyclic
member g of U with a Krylov basis K = [v, g v, ..] conjugates U to
K^-1 U K, whose least RREF over every such (y, g, v) is the key.  Equal keys
give an isotopism composed from the two normalisers, whose determinants and
image are checked for all merges of one (q, n, dim) at once.  The spaces
without a key (no invertible element, or no cyclic member in the anchor
class) are compared pairwise with are_equivalent, as are all spaces by
callers that test one pair.

The invariants of a classification are computed for blocks of spaces of one
(q, n, dim), at most _DIVISION_BLOCK elements a block: one rank pass for the
fingerprints, one inverse pass and a charpoly pass per _DIVISION_BLOCK
products for the division data, one Krylov frame pass per charpoly-id rank
and one RREF pass per _KEY_CANDIDATES normal forms for the keys.  A
SpaceData property is the same stage run on a block of one.

Stabilizer groups act on the projective rank-one points by permutations:
(A, B) sends u w^T to (A u)(B^T w)^T, so two int16 tables over the
projective vectors of F_q^n give every element's action by index gathers.
Every group is built with its tables: automorphism_group composes them,
stabilizer_of_space slices its group's, and StabilizerGroup.of_elements
maps a given element stack (scanned stabilizers, the trivial group).
Orbit keys, stabilizers of spaces and orbits of points all use those
tables; a space counts through its rank-one points, which determine it when
it is the group's space plus their span.  orbit_keys keys a batch of spaces
from those points, as search's block kernel knows them, scanning for each
only the elements that send one of them to the least point of their orbits.
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
    out = (gA[:, None].astype(np.int64) @ mats @ gB[:, None].astype(np.int64)) % q
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
    """_charpoly_ids of the n x n matrices, indexed by their encoding
    (entry j of a flattened matrix is digit j, least first), -1 where not
    yet computed: a process-wide cache that _cp_of_mats fills as batches
    ask, so it never runs the kernel on more than the full table."""
    return np.full(q ** (n * n), -1, dtype=np.int64)


def _cp_of_mats(mats, q):
    """Charpoly ids of a (B, n, n) stack: for q = 2, n <= 4 a table
    lookup, whose missing entries are computed for the distinct codes of
    the batch in one kernel call, and all at once when half the table is
    filled (a classification asks for nearly all of it, in thousands of
    small calls); else the kernel."""
    n = mats.shape[-1]
    if q == 2 and n <= 4:
        table = _charpoly_code_table(q, n)
        codes = encode_rows(mats.reshape(mats.shape[0], -1) % q, q)
        missing = table[codes] < 0
        if missing.any():
            new, at = np.unique(codes[missing], return_index=True)
            table[new] = _charpoly_ids(mats[missing][at], q)
            rest = np.nonzero(table < 0)[0]
            if 0 < 2 * rest.size <= table.size:  # half filled: the rest now, 4,096 a call
                for part in (rest[lo:lo + 4096] for lo in range(0, rest.size, 4096)):
                    table[part] = _charpoly_ids((part[:, None] // q ** np.arange(n * n) % q).reshape(-1, n, n), q)
        return table[codes]
    return _charpoly_ids(mats, q)


class SpaceData:
    """Element-level invariants of one MatSpace, each computed on first use.

    fingerprint, division_data and isotopism_key are computed by block
    stages over a list of spaces of one (q, n, dim) (_fingerprint_stage,
    _division_stage, _key_stage); the properties run a block of one, and
    isotopism_classes fills the slots of a whole list with _block_pass.
    """

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

    @cached_property
    def cp_ids(self):
        """Stable per-element characteristic polynomial ids."""
        return _cp_of_mats(self.elems.reshape(-1, self.n, self.n), self.q)

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
        return _division_stage([self])[0][0]

    @cached_property
    def isotopism_key(self):
        """(key, normaliser) of a canonical isotopism key, or None when
        the space has no invertible element or its anchor class no cyclic
        member.

        The anchor class is the cpm class of least (count, cpm key), and
        its charpoly ids are ranked in (count, id) order.  For each anchor
        y, U = S y^-1 holds I; the first rank with a cyclic member g in
        some U (K = [v, g v, .., g^(n-1) v] invertible for a projective v)
        fixes the id, and the key is (q, n, dim, cpm key, id, least RREF
        bytes of K^-1 U K) over the anchors, members and v of that rank,
        the first such (y, g, v) on ties.  An isotopism maps anchors to
        anchors (y -> A y B), U onto A U A^-1 and K onto A K, so equal keys
        mean isotopic spaces.  The normaliser (y, y^-1, K, K^-1), int64
        (n, n) matrices, is one that reaches the key.
        """
        return _key_stage([self])[0]


_DIVISION_BLOCK = 1024  # elements per space block, products S Y^-1 per charpoly pass, frames per pass
_KEY_CANDIDATES = 256  # normalisations reduced per rref_batch


def _block_pass(datas, slot, stage):
    """Fill the cached slot of every SpaceData of the list that lacks it,
    with one stage call per block: spaces of one (q, n, dim) with at most
    _DIVISION_BLOCK elements in all (at least one space).  A value already
    in a slot is kept."""
    groups = {}
    for data in datas:
        if slot not in data.__dict__:
            groups.setdefault((data.q, data.n, data.space.dim), []).append(data)
    for (q, _, dim), group in groups.items():
        step = max(1, _DIVISION_BLOCK // max(1, q**dim - 1))
        for lo in range(0, len(group), step):
            block = group[lo:lo + step]
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
    block, and the charpoly ids of S Y^-1 are taken for _DIVISION_BLOCK
    products at a time; each space gets its own copy of its inverses."""
    q, n, _, mats = _block_elements(block)
    idx = [data.invertible_projective for data in block]
    owner = np.repeat(np.arange(len(block)), [len(i) for i in idx])
    if not owner.size:
        return [(((), []), None) for _ in block]
    inverses = gf.inverse_batch(mats[owner, np.concatenate(idx)], q)[0]
    ids = _unital_ids(mats, owner, inverses, q)
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


def _unital_ids(mats, owner, inverses, q):
    """Charpoly ids of the elements of S Y^-1 for each Y^-1 of a (k, n, n)
    stack, S the space owner[i] of a (spaces, elements, n, n) element
    stack, as a (k, elements) array of the narrowest type that holds an
    id, _DIVISION_BLOCK products at a time."""
    m, n = mats.shape[1], mats.shape[-1]
    mats = mats.astype(np.int16)
    ids = np.empty((len(inverses), m), dtype=np.min_scalar_type(q**n - 1))
    step = max(1, _DIVISION_BLOCK // max(1, m))
    for lo in range(0, len(inverses), step):
        prods = mats[owner[lo:lo + step]] @ inverses[lo:lo + step, None].astype(np.int16) % q
        ids[lo:lo + step] = _cp_of_mats(prods.reshape(-1, n, n), q).reshape(-1, m)
    return ids


def _key_stage(block):
    """isotopism_key of each space of a block of one (q, n, dim).

    The division stage runs over the block (filling division_data where it
    is empty) and its unsorted id rows give the anchors' members.  Each
    charpoly-id rank round takes one _spin_frames call over the cyclic
    members (Krylov bases) of every space still unresolved, and the normal
    forms of the resolved spaces are reduced _KEY_CANDIDATES at a time,
    each folded into a running least form per space.
    """
    q, n, dim, mats = _block_elements(block)
    divisions = _division_stage(block)
    for data, (division, _) in zip(block, divisions):
        data.__dict__.setdefault("division_data", division)
    # per space: the anchor class, its ranked ids, and its anchors' rows
    anchors, y_inv, elem, ranked, rows = [], [], [], [], []
    for s, ((_, per_y), ids) in enumerate(divisions):
        if not per_y:
            ranked.append([])
            continue
        counts = Counter(cpm for cpm, _, _ in per_y)
        cpm = min(counts, key=lambda c: (counts[c], c))
        ranked.append([(cpm, cid) for cid, _ in sorted(cpm, key=lambda item: (item[1], item[0]))])
        mine = [i for i, (c, _, _) in enumerate(per_y) if c == cpm]
        rows.append(ids[mine])
        anchors.append(np.full(len(mine), s))
        y_inv += [per_y[i][2] for i in mine]
        elem += [per_y[i][1] for i in mine]
    if not rows:
        return [None] * len(block)
    rows, anchors = np.concatenate(rows), np.concatenate(anchors)
    y_inv = np.stack(y_inv).astype(np.int16)
    bases = np.stack([data.space.basis for data in block]).reshape(len(block), -1, n, n).astype(np.int16)
    # Krylov rounds: space s takes rank r of its ids until one has a cyclic member
    found = [None] * len(block)
    cands = []  # per round: (space, anchor row, K, K^-1) of each candidate
    for r in range(max(map(len, ranked))):
        live = [s for s, ids in enumerate(ranked) if found[s] is None and r < len(ids)]
        if not live:
            break
        target = np.full(len(block), -1, dtype=np.int64)
        target[live] = [ranked[s][r][1] for s in live]
        anchor, member = np.nonzero(rows == target[anchors, None])
        G = mats[anchors[anchor], member].astype(np.int16) @ y_inv[anchor] % q
        cyclic = _min_degrees(G, q) == n
        anchor, G = anchor[cyclic], G[cyclic]
        K, K_inv, member = _spin_frames(G, bases[anchors[anchor]] @ y_inv[anchor, None] % q, q)
        space = anchors[anchor[member]]
        for s in set(space.tolist()):
            found[s] = ranked[s][r]
        cands.append((space, anchor[member], K, K_inv))
    space, anchor, K, K_inv = (np.concatenate(part) for part in zip(*cands))
    order = np.argsort(space, kind="stable")  # space-major; each space's candidates in order
    space, anchor, K, K_inv = space[order], anchor[order], K[order], K_inv[order]
    keys = [None] * len(block)
    for s, form, at in zip(*_least_forms(bases, space, anchor, y_inv, K, K_inv, q)):
        a = anchor[at]
        norm = (mats[s, elem[a]].astype(np.int64), y_inv[a].astype(np.int64),
                K[at].astype(np.int64), K_inv[at].astype(np.int64))
        keys[s] = (q, n, dim, *found[s], form.tobytes()), norm
    return keys


def _least_forms(bases, space, anchor, y_inv, K, K_inv, q):
    """(spaces, least RREF rows, first candidate reaching each) of the
    normal forms K^-1 (S y^-1) K of the candidates, which are space-major
    and in each space's candidate order, S from its bases: one rref_batch per
    _KEY_CANDIDATES forms, each chunk folded into the running least rows
    by one lexsort with the space as its primary key (stable, so the
    earlier candidate wins a tie)."""
    n = K.shape[-1]
    best_space = best_at = np.zeros(0, dtype=np.int64)
    best = np.zeros((0, bases.shape[1] * n * n), dtype=np.uint8)
    for lo in range(0, len(K), _KEY_CANDIDATES):
        part = slice(lo, lo + _KEY_CANDIDATES)
        U = bases[space[part]] @ y_inv[anchor[part], None] % q
        rows = np.concatenate([best, _normal_forms(K[part], K_inv[part], U, q)])
        spaces = np.concatenate([best_space, space[part]])
        at = np.concatenate([best_at, np.arange(lo, lo + len(U))])
        order = np.lexsort((*rows.T[::-1], spaces))
        first = order[np.append(True, spaces[order][1:] != spaces[order][:-1])]
        best, best_space, best_at = rows[first], spaces[first], at[first]
    return best_space, best, best_at


def _min_degrees(G, q):
    """Degree of the minimal polynomial of each matrix of a (k, n, n) stack:
    the rank of its powers I, g, .., g^(n-1), one rank_batch."""
    powers = [np.broadcast_to(np.eye(G.shape[-1], dtype=np.int16), G.shape)]
    for _ in range(G.shape[-1] - 1):
        powers.append(powers[-1] @ G.astype(np.int16) % q)
    return gf.rank_batch(np.stack(powers, axis=-1).reshape(len(G), -1, G.shape[-1]), q)


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
    the first pass, more than _ENUMERATE_CAP frames raise TooLarge."""
    n = G.shape[-1]
    P, filled, member = np.zeros((len(G), n, n), np.uint8), np.zeros(len(G), int), np.arange(len(G))
    done, cands = [(P[:0], P[:0], member[:0])], points_for(q, n).vectors
    while len(member):
        m, parts, step = len(cands), [], max(1, _DIVISION_BLOCK // len(cands))
        for lo in range(0, len(member), step):
            c, g = filled[lo:lo + step], member[lo:lo + step]
            cols = [np.broadcast_to(cands.astype(np.int16), (len(g), m, n))]
            for _ in range(n - 1):
                cols.append(cols[-1] @ G[g].transpose(0, 2, 1).astype(np.int16) % q)  # v -> (g v)^T
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
            Uv = spaces[g[refine], None].astype(np.int16) @ cands[:, None, :, None].astype(np.int16) % q
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
        if len(done) > 2 and sum(len(g) for _, _, g in done) + len(member) > _ENUMERATE_CAP:
            raise TooLarge(f"more than {_ENUMERATE_CAP} spin frames")
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


def _conjugators(d1, d2):
    """Normal forms at the anchor x of S1 against S2: ((x, x^-1, K, K^-1)
    over the frames K at x, their forms, and the (A_y, B_y) stacks of the
    reached images y in division_data order).

    x is the projective invertible element of S1 whose cpm class is rarest
    in S2 (which must hold it), least index on ties; an isotopism sends x
    to a unit multiple of an image y of S2 in that class.  The members g
    of U = S1 x^-1 of the (charpoly id, minimal-polynomial degree) of most
    degree, then fewest members, then least id have the normal forms
    (K^-1 g K, RREF of K^-1 U K) over their spin frames K.  A conjugator
    of U onto S2 y^-1 maps those frames onto the frames of the members of
    S2 y^-1 in that group, so y is reached iff any one frame K_y of its
    first such member has the form of a frame K_i at x, and then
    (A_y, B_y) = (K_y K_i^-1, x^-1 K_i K_y^-1 y) by _key_isotopism.  One
    _spin_frames call and one RREF pass cover every frame.
    """
    q, n = d1.q, d1.n
    count = Counter(cpm for cpm, _, _ in d2.division_data[1])
    cpm_x, x_idx, x_inv = min(d1.division_data[1], key=lambda item: (count[item[0]], item[1]))
    y_idx, Y_inv = (np.array(part) for part in zip(*(
        (y, y_inv) for cpm, y, y_inv in d2.division_data[1] if cpm == cpm_x)))
    x = d1.elems[x_idx].reshape(n, n).astype(np.int16)
    # U element by element and S2 y^-1 of each image y, their bases and ids
    U = d1.elems.reshape(-1, n, n).astype(np.int16) @ x_inv % q
    V = d2.elems.reshape(-1, n, n).astype(np.int16)[None] @ Y_inv[:, None] % q
    U_basis = d1.space.basis.reshape(-1, n, n).astype(np.int16) @ x_inv % q
    bases = d2.space.basis.reshape(-1, n, n).astype(np.int16) @ Y_inv[:, None] % q
    ids, degrees = _cp_of_mats(U, q), _min_degrees(U, q)
    sizes = Counter(zip(ids.tolist(), degrees.tolist()))
    cid, deg = min(sizes, key=lambda key: (-key[1], sizes[key], key[0]))
    g = np.nonzero((ids == cid) & (degrees == deg))[0]
    at, elem = np.nonzero(_cp_of_mats(V.reshape(-1, n, n), q).reshape(len(V), -1) == cid)
    at, elem = np.stack([at, elem])[:, _min_degrees(V[at, elem], q) == deg]
    first = np.unique(at, return_index=True)[1]
    at, elem = at[first], elem[first]
    # every frame of every member at x, then one frame at each image
    G = np.concatenate([U[g], V[at, elem]])
    spaces = np.concatenate([np.broadcast_to(U_basis, (len(g), *U_basis.shape)), bases[at]])
    K, K_inv, member = _spin_frames(G, spaces, q, lone=len(g))
    K, K_inv = K.astype(np.int16), K_inv.astype(np.int16)
    forms = np.concatenate([(K_inv @ G[member] % q @ K % q).reshape(len(K), -1),
                            _normal_forms(K, K_inv, spaces[member], q)], axis=1)
    f = int((member < len(g)).sum())  # x's frames lead
    index = dict(zip(map(bytes, forms[f - 1::-1]), range(f - 1, -1, -1)))
    hit = np.array([index.get(bytes(row), -1) for row in forms[f:]], dtype=np.int64)
    reached = hit >= 0
    Y = d2.elems[y_idx[at[member[f:][reached] - len(g)]]].reshape(-1, n, n).astype(np.int16)
    RA, RB = _key_isotopism((x, x_inv, K[hit[reached]], K_inv[hit[reached]]),
                            (Y, None, K[f:][reached], K_inv[f:][reached]), q)
    return (x, x_inv, K[:f], K_inv[:f]), forms[:f], RA, RB


def are_equivalent(s1, s2):
    """A witness Isotopism g with act(g, s1) = s2, or None.

    Exhaustive given the anchoring argument of _conjugators: any witness
    maps the anchor of s1 to a unit multiple of one of its images in s2.
    The witness is the pair of the first image reached, checked with act
    (NotContained otherwise).  Two 1-dimensional spaces <x> and <y> are
    isotopic by (I, x^-1 y).
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
    if s1.dim == 1:
        (_, _, x_inv), = d1.division_data[1]
        y = d2.elems[inv2[0]].reshape(n, n)
        A, B = np.eye(n, dtype=np.int16), x_inv.astype(np.int16) @ y % q
    else:
        _, _, RA, RB = _conjugators(d1, d2)
        if not len(RA):
            return None
        A, B = RA[0], RB[0]
    witness = Isotopism(A.astype(np.uint8), B.astype(np.uint8), q)
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
    member, so only the elements that send a member of L's orbit onto L
    are scanned: with one point_images column per orbit, grouped by image,
    the elements g with g(L) = x, whose inverses send x to L.  Their
    inverse point actions invert only their rows of group.tables.
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
        start[orbit] = group.order * len(columns) + (np.cumsum(count) - count)[orbit]
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

    Under the full group the classes are those of isotopism_classes:
    spaces are looked up by their canonical isotopism key, and only the
    spaces without a key are tested pairwise with are_equivalent.  When an
    explicit subgroup is supplied, classes are orbits under exactly that
    subgroup, keyed in one orbit_keys pass.  Each space must then contain
    group.space and equal group.space plus the span of its rank-one points
    (BadParameters otherwise), so that the orbit of its rank-one point set
    is a complete key.  members, when given, holds those points as rows
    (as search's block kernel knows them, see orbit_keys); otherwise they
    are found by containment.
    The output is a deterministic function of the input set: each
    representative is the member of its class with the least (dim, RREF
    basis bytes), and the output is sorted by that key.
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

    Spaces are bucketed by fingerprint; in a bucket of two or more, each
    space with an isotopism key joins the class of its key, and the spaces
    without one are tested pairwise with are_equivalent against the first
    member of each class found so far.  Every key merge is checked, in one
    batch per (q, n, dim) by _check_key_merges.

    The invariants are computed in blocks (_block_pass): the fingerprints
    of every space, then the keys of the spaces in buckets of two or more,
    each stage one pass per block of spaces of one (q, n, dim).  A slot
    already filled, such as a key set by hand, is kept.
    """
    # held here: space_data clears its cache past 4,000 entries
    datas = [space_data(s) for s in spaces]
    _block_pass(datas, "fingerprint", _fingerprint_stage)
    buckets = {}
    for i, data in enumerate(datas):
        buckets.setdefault(data.fingerprint, []).append(i)
    shared = [datas[i] for bucket in buckets.values() if len(bucket) > 1 for i in bucket]
    _block_pass(shared, "isotopism_key", _key_stage)
    classes, merges = [], []
    for bucket in buckets.values():
        if len(bucket) == 1:
            classes.append(bucket)
            continue
        keyed, unkeyed = {}, []
        for i in bucket:
            found = datas[i].isotopism_key
            if found is None:
                unkeyed.append(i)
                continue
            key, norm = found
            first, first_norm, members = keyed.setdefault(key, (i, norm, []))
            if members:
                merges.append((i, first, norm, first_norm))
            members.append(i)
        classes.extend(members for _, _, members in keyed.values())
        pairwise = []
        for i in unkeyed:
            for members in pairwise:
                if are_equivalent(spaces[members[0]], spaces[i]) is not None:
                    members.append(i)
                    break
            else:
                pairwise.append([i])
        classes.extend(pairwise)
    _check_key_merges(spaces, merges)
    return sorted(classes)


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
                raise NotContained("equal isotopism keys, but the composed isotopism fails")


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

    def stabilizer_of_space(self, space, members=None):
        """Subgroup of elements that also fix the given space setwise.

        The space must be self.space plus the span of its rank-one points
        (BadParameters otherwise); an element then fixes it iff it fixes
        that point set.  members, when given, holds those points as one
        row of orbit_keys; otherwise they are found by containment.
        """
        inside = np.sort(_points_inside([space], self)[0] if members is None else members)
        inside = inside[inside < len(points_for(self.q, self.n))]
        _check_span(inside[None], self, [space.dim])
        ok = (np.sort(self.point_images(inside), axis=1) == inside).all(axis=1)
        tables = tuple(T[ok] for T in self.tables)
        return StabilizerGroup(self.q, self.n, self.A[ok], self.B[ok], tables, space)


def _normal_forms(K, K_inv, bases, q):
    """RREF rows of K^-1 V K for (f, n, n) frames, their inverses and bases of V, one rref_batch."""
    V = K_inv[:, None].astype(np.int16) @ bases.astype(np.int16) % q @ K[:, None].astype(np.int16) % q
    return gf.rref_batch(V.reshape(len(K), -1, K.shape[-1] ** 2), q)[0].reshape(len(K), -1)


def automorphism_group(space):
    """Exact setwise stabilizer of a space containing an invertible element,
    with its point tables.

    An automorphism sends the anchor x to a unit multiple of an image y, and
    those sending x to y are (A_y C, D B_y) times units: (A_y, B_y) is y's
    pair from _conjugators(S, S), C runs over the conjugation stabilizer of
    U = S x^-1 and D = x^-1 C^-1 x.  The frames K_i at x whose form ties
    with the first, K_0, give C = K_i K_0^-1, by _key_isotopism.  One batch
    checks every pair (NotContained otherwise).  The group is a block per
    reached y in division_data order, A-major, times every pair of units,
    with point tables composed from those of the factors.
    """
    if isinstance(space, SpreadSet):
        space = space.space
    q, n = space.q, space.n
    data = space_data(space)
    if data.invertible_projective.size == 0:
        return _brute_force_stabilizer(space)
    (x, x_inv, K, K_inv), forms, RA, RB = _conjugators(data, data)
    ties = (forms == forms[0]).all(axis=1)  # C is the stabilizer up to units
    C, D = _key_isotopism((x, x_inv, K[0], K_inv[0]), (x, None, K[ties], K_inv[ties]), q)
    moved = _act_arrays(np.concatenate([RA, C]), np.concatenate([RB, D]), space.basis, q)
    if not space.contains_batch(moved.reshape(-1, n * n)).all():
        raise NotContained("a normal-form automorphism does not fix the space")
    units = np.arange(1, q, dtype=np.int16)[:, None, None]
    A = np.repeat((RA[:, None] @ C % q)[:, :, None] * units % q, q - 1, axis=2)
    B = np.tile((D @ RB[:, None] % q)[:, :, None] * units % q, (1, 1, q - 1, 1, 1))
    pts = points_for(q, n)
    tables = tuple(np.repeat(T[:, U], (q - 1) ** 2, axis=1).reshape(-1, U.shape[1]) for T, U in (
        (pts.vector_images(RA), pts.vector_images(C)),
        (pts.vector_images(RB.transpose(0, 2, 1)), pts.vector_images(D.transpose(0, 2, 1)))))
    A, B = (M.reshape(-1, n, n).astype(np.uint8) for M in (A, B))
    return StabilizerGroup(q, n, A, B, tables, space)


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
