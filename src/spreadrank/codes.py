"""Linear codes attached to pure-tensor decompositions, distance bounds, and
a brute-force tensor-rank oracle for tiny tensors.

A decomposition T = sum_j f_j (x) u_j (x) w_j yields one generator matrix per
slot whose columns are the slot factors; minimum distances of those codes
bound the tensor rank from below through the shortest-code table N_q(k, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import gf
from .algebra import MatSpace, SpreadSet, contraction_space, rank_one_rows
from .errors import (
    DependentGenerators,
    NotContained,
    TooLarge,
    UnknownBound,
)

# ---------------------------------------------------------------------------
# Pure decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureDecomposition:
    """Ordered sum of R pure tensors; summand j holds the factor vectors."""

    q: int
    dims: tuple
    summands: tuple  # tuple of tuples of factor vectors, one per slot

    @property
    def R(self):
        return len(self.summands)

    def tensor(self):
        T = np.zeros(self.dims, dtype=np.int64)
        for factors in self.summands:
            term = np.asarray(factors[0], dtype=np.int64)
            for v in factors[1:]:
                term = np.multiply.outer(term, np.asarray(v, dtype=np.int64))
            T = (T + term) % self.q
        return T.astype(np.uint8)


def decomposition_from_rank_ones(spread, rank_ones):
    """Decomposition of a spread-set tensor over a given rank-one spanning list.

    Summand j is (f_j, u_j, w_j): the j-th matrix factors as u_j w_j^T and
    f_j collects the j-th coordinate of each ordered basis matrix in the
    rank-one basis.  Raises DependentGenerators or NotContained when the
    preconditions fail.
    """
    if not isinstance(spread, SpreadSet):
        raise TypeError("need a SpreadSet with an ordered basis")
    q, n = spread.q, spread.n
    mats = [gf.as_residues(m, q) for m in rank_ones]
    span = MatSpace.from_matrices(q, n, mats)
    if span.dim != len(mats):
        raise DependentGenerators("rank-one matrices are linearly dependent")
    if not span.contains_space(spread.space):
        raise NotContained("spread set is not contained in the span")
    # (n, R): basis matrix i = sum_t coeff[i,t] A_t
    coeff = np.stack([gf.solve_membership(mats, M, q) for M in spread.matrices])
    factors = [gf.rank_one_factor(M, q) for M in mats]
    summands = tuple(
        (coeff[:, t].astype(np.uint8), factors[t][0], factors[t][1])
        for t in range(len(mats))
    )
    D = PureDecomposition(q, (n, n, n), summands)
    if not np.array_equal(D.tensor(), spread.hypercube()):
        raise NotContained("decomposition does not reconstruct the spread-set tensor")
    return D


def codes_from_decomposition(D):
    """Generator matrices G_1..G_t; column j of G_i is the slot-i factor of
    summand j."""
    t = len(D.dims)
    out = []
    for i in range(t):
        cols = [np.asarray(s[i], dtype=np.uint8) for s in D.summands]
        out.append(np.stack(cols, axis=1))
    return out


# ---------------------------------------------------------------------------
# Weight enumeration
# ---------------------------------------------------------------------------

_ENUM_LIMITS = {2: 20, 3: 12, 5: 8, 7: 7}


def _codewords(G, q):
    """All distinct codewords of the row space of G."""
    basis, _ = gf.rref(np.asarray(G, dtype=np.int64) % q, q)
    k = basis.shape[0]
    if k > _ENUM_LIMITS.get(q, 8):
        raise TooLarge(f"cannot enumerate q^{k} codewords at q={q}")
    return (gf.coefficient_grid(q, k) @ basis.astype(np.int64)) % q


def weight_distribution(G, q):
    """Counts of codewords of each Hamming weight 0..R (sums to q^dim)."""
    words = _codewords(G, q)
    weights = np.count_nonzero(words, axis=1)
    return np.bincount(weights, minlength=np.asarray(G).shape[1] + 1).tolist()


def min_distance(G, q):
    """Exact minimum distance by exhaustive codeword enumeration."""
    words = _codewords(G, q)
    weights = np.count_nonzero(words, axis=1)
    nonzero = weights[weights > 0]
    if nonzero.size == 0:
        return 0
    return int(nonzero.min())


# ---------------------------------------------------------------------------
# Monomial code equivalence
# ---------------------------------------------------------------------------


def _projective_column_key(col, q):
    col = col.astype(np.int64)[None] % q
    if not col.any():
        return b"0"
    return (col * gf.inv_table(q)[gf.leading_coeff(col, q)] % q).astype(np.uint8).tobytes()


def code_equivalent(G1, G2, q):
    """True iff a column permutation plus nonzero column scalings maps the
    row space of G1 onto that of G2."""
    A = np.asarray(G1, dtype=np.int64) % q
    B = np.asarray(G2, dtype=np.int64) % q
    if A.shape[1] != B.shape[1]:
        return False
    basisA, _ = gf.rref(A, q)
    basisB, _ = gf.rref(B, q)
    k = basisA.shape[0]
    if basisB.shape[0] != k:
        return False
    if k == 0:
        return True
    if weight_distribution(basisA, q) != weight_distribution(basisB, q):
        return False

    from collections import Counter

    colsA = basisA.T.astype(np.int64)
    colsB = basisB.T.astype(np.int64)
    keysA = Counter(_projective_column_key(c, q) for c in colsA)
    keysB = Counter(_projective_column_key(c, q) for c in colsB)
    if Counter(keysA.values()) != Counter(keysB.values()):
        return False
    zerosA = keysA.get(b"0", 0)
    if zerosA != keysB.get(b"0", 0):
        return False

    nonzero_B = [j for j in range(colsB.shape[0]) if colsB[j].any()]

    units = list(range(1, q))
    from itertools import permutations as ipermutations

    # the pivot columns of basisA are an information set on which basisA is
    # the identity, so the row map sending them to the picked columns of
    # basisB, scaled, is those scaled columns themselves
    for picks in ipermutations(nonzero_B, k):
        sub = colsB[list(picks)].T.astype(np.int64)
        if gf.mat_rank(sub, q) != k:
            continue
        # scalar on the first matched column is absorbed into the row map
        for scalars in product(units, repeat=k - 1):
            lam = np.array((1,) + scalars, dtype=np.int64)
            S = (sub * lam[None, :]) % q
            mappedA = (S @ basisA.astype(np.int64)) % q
            if Counter(_projective_column_key(c, q) for c in mappedA.T) == keysB:
                return True
    return False


# ---------------------------------------------------------------------------
# Shortest-code table N_q(k, d)
# ---------------------------------------------------------------------------

# Published values relied on by the reproduction runs.
_NQ_TABLE = {
    (2, 4, 4): 8,
    (3, 4, 4): 8,
}

# Published nonexistence facts: (q, length, k, d) -> False
_EXISTS_TABLE = {
    (3, 8, 4, 5): False,
}

_SUBSPACE_ENUM_CAP = 1 << 17


def _gaussian_binomial(n, k, q):
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def griesmer_bound(q, k, d):
    """Minimal length permitted by the Griesmer bound."""
    total = 0
    for i in range(k):
        total += -(-d // q**i)  # ceil division
    return total


@lru_cache(maxsize=None)
def code_exists(q, length, k, d):
    """True / False / None (unknown) for the existence of an [length, k, d]_q
    linear code.

    Nonexistence comes from the Singleton and Griesmer bounds or the embedded
    table; existence from the table or exhaustive subspace search when small.
    """
    key = (q, length, k, d)
    if key in _EXISTS_TABLE:
        return _EXISTS_TABLE[key]
    if k < 0 or d < 1 or length < k:
        return False
    if k == 0:
        return False
    if d > length - k + 1:
        return False  # Singleton
    if length < griesmer_bound(q, k, d):
        return False
    if _gaussian_binomial(length, k, q) <= _SUBSPACE_ENUM_CAP and q**k <= 4096:
        for G in gf.rref_subspaces(length, k, q):
            if min_distance(G, q) >= d:
                return True
        return False
    return None


def nq_lookup(q, k, d):
    """Shortest length of a q-ary linear code of dimension k and distance d.

    Exact: embedded published entries, else exhaustive search upward from the
    Griesmer bound.  Raises UnknownBound rather than guessing.
    """
    if (q, k, d) in _NQ_TABLE:
        return _NQ_TABLE[(q, k, d)]
    length = max(k, griesmer_bound(q, k, d))
    for _ in range(64):
        res = code_exists(q, length, k, d)
        if res is True:
            return length
        if res is None:
            raise UnknownBound(f"N_{q}({k},{d}) not in table and search infeasible")
        length += 1
    raise UnknownBound(f"N_{q}({k},{d}) search exceeded the length cap")


# ---------------------------------------------------------------------------
# Lower bounds on tensor rank
# ---------------------------------------------------------------------------


def min_rank_in_space(space):
    """Minimum matrix rank over the nonzero elements of the space."""
    if space.dim == 0:
        return 0
    elems = space.nonzero_elements().reshape(-1, space.n, space.n)
    return int(gf.rank_batch(elems, space.q).min())


def genbound(T, q):
    """Code-theoretic lower bound on tensor rank: the best N_q(dim, d_i) over
    the three slots, where d_i is the least rank of a nonzero contraction.

    A slot whose N_q(dim, d_i) is unknown counts with the Griesmer length
    griesmer_bound(q, dim, d_i), which is at most N_q(dim, d_i).
    """
    T = np.asarray(T)
    if T.ndim != 3:
        raise TooLarge("genbound supports order-3 tensors")
    best = 0
    for slot in (1, 2, 3):
        basis = contraction_space(T, slot, q)
        if not basis:
            continue
        n_rows, n_cols = basis[0].shape
        rows = np.stack([b.reshape(-1) for b in basis])
        dim = len(basis)
        grid = gf.coefficient_grid(q, dim)[1:]
        elems = (grid @ rows.astype(np.int64)) % q
        d_i = int(gf.rank_batch(elems.reshape(-1, n_rows, n_cols), q).min())
        try:
            best = max(best, nq_lookup(q, dim, d_i))
        except UnknownBound:
            best = max(best, griesmer_bound(q, dim, d_i))
    return best


# ---------------------------------------------------------------------------
# Brute-force tensor rank oracle
# ---------------------------------------------------------------------------

_ORACLE_POINT_CAP = 4096


def brute_force_tensor_rank(T, q, cap):
    """Exact tensor rank by exhaustive search, provided it is at most cap.

    Order-2 tensors reduce to matrix rank.  Order-3 search looks for the
    fewest rank-one matrices whose span contains the first contraction
    space, with span-based pruning.  Returns None when the rank exceeds cap.
    """
    T = np.asarray(T, dtype=np.int64) % q
    if not T.any():
        return 0
    if T.ndim == 1:
        return 1
    if T.ndim == 2:
        return gf.mat_rank(T, q)
    if T.ndim != 3:
        raise TooLarge("oracle supports tensors of order <= 3")
    d1, d2, d3 = T.shape
    points = rank_one_rows(q, d2, d3)
    if len(points) > _ORACLE_POINT_CAP:
        raise TooLarge(f"{len(points)} pure tensors exceed the oracle cap")
    target = contraction_space(T, 1, q)
    target_rows = np.stack([b.reshape(-1) for b in target])
    t_dim = target_rows.shape[0]

    def deficiency(rows):
        """Dimension of target not yet inside the span of rows."""
        if rows.shape[0] == 0:
            return t_dim
        r_span = gf.rank(rows, q)
        r_join = gf.rank(np.concatenate([rows, target_rows]), q)
        return r_join - r_span

    if deficiency(points):
        return None  # even all rank ones do not span the target

    def dfs(start, chosen, budget):
        rows = points[chosen]
        lack = deficiency(rows)
        if lack == 0:
            return True
        if budget == 0 or lack > budget:
            return False
        for i in range(start, len(points)):
            if len(points) - i < lack:
                break
            chosen.append(i)
            if dfs(i + 1, chosen, budget - 1):
                return True
            chosen.pop()
        return False

    for R in range(1, cap + 1):
        if dfs(0, [], R):
            return R
    return None


# ---------------------------------------------------------------------------
# Codeword support check
# ---------------------------------------------------------------------------


def codeword_support_check(D, f, slot):
    """Codeword of C_slot for the covector f, the matching contraction, and
    the rank bound (contraction rank, codeword weight, verified flag)."""
    f = np.asarray(f, dtype=np.int64) % D.q
    t = len(D.dims)
    if not 1 <= slot <= t:
        raise TooLarge(f"slot {slot} out of range")
    codeword = np.array(
        [int(f @ np.asarray(s[slot - 1], dtype=np.int64)) % D.q for s in D.summands],
        dtype=np.uint8,
    )
    rest_slots = [i for i in range(t) if i != slot - 1]
    shape = tuple(D.dims[i] for i in rest_slots)
    contraction = np.zeros(shape, dtype=np.int64)
    for c_j, s in zip(codeword, D.summands):
        if c_j == 0:
            continue
        term = np.asarray(s[rest_slots[0]], dtype=np.int64)
        for i in rest_slots[1:]:
            term = np.multiply.outer(term, np.asarray(s[i], dtype=np.int64))
        contraction = (contraction + int(c_j) * term) % D.q
    contraction = contraction.astype(np.uint8)
    weight = int(np.count_nonzero(codeword))
    try:
        cr = brute_force_tensor_rank(contraction, D.q, weight)
        verified = cr is not None and cr <= weight
        rank_val = cr
    except TooLarge:
        verified = False
        rank_val = None
    return codeword, contraction, (rank_val, weight, verified)
