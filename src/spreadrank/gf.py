"""Exact arithmetic and linear algebra over prime fields F_q, q in {2, 3, 5, 7}.

Matrices and vectors are numpy uint8 arrays of residues.  Every operation is
pure; hot paths have batched variants that vectorise over a leading axis.
Row reduction has two kernels: rref for one matrix, and _eliminate for
stacks, which masks a uint8 copy of the whole stack (XOR at q = 2) per column.

Determinants and characteristic polynomials have one kernel, charpoly_batch:
the division-free Samuelson-Berkowitz recurrence, batched over the stack.
det_batch reads the determinant off its constant coefficient.

In front of both kernels sits one code table per (q, n) with q^(n^2) <= 2^16
(q = 2 up to n = 4, q = 3 up to n = 3, q = 5 and 7 up to n = 2): rank, inverse,
minimal-polynomial degree and charpoly id of every n x n matrix, indexed by
its base-q code and filled lazily by the kernels.  rank_batch, inverse_batch,
charpoly_ids and min_degrees read it on square stacks within that bound; the
other stacks go to the kernels, which stay the oracles of the table.

The enumerators of vectors (coefficient_grid), of projective normal forms
(leading_coeff) and of subspaces in RREF (rref_subspaces) live here, so
every module that walks F_q^k or its subspaces walks it in the same order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .errors import BadParameters, NotIrreducible, NotRankOne, SingularMatrix

SUPPORTED_Q = (2, 3, 5, 7)

# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def inv_table(q):
    """Multiplicative inverses mod q as a length-q array (entry 0 unused)."""
    if q not in SUPPORTED_Q:
        raise BadParameters(f"unsupported field size q={q}")
    table = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        table[a] = pow(a, q - 2, q)
    return table


def as_residues(a, q):
    """Coerce to a uint8 array of residues mod q."""
    return (np.asarray(a, dtype=np.int64) % q).astype(np.uint8)


def mod(a, q):
    """An integer array mod q, of its type: & 1 at q = 2, 1 % the cost of % 2."""
    return a & 1 if q == 2 else a % q


# ---------------------------------------------------------------------------
# Enumerators
# ---------------------------------------------------------------------------


def coefficient_grid(q, k):
    """Every vector of F_q^k as an int64 (q^k, k) array in lexicographic
    order, the order of itertools.product: the first entry is the most
    significant, so row 0 is the zero vector, and k = 0 gives one empty row."""
    return np.indices((q,) * k, dtype=np.int64).reshape(k, q**k).T


def leading_coeff(rows, q):
    """First nonzero entry of each row of a 2-D residue array (1 for a zero
    row); dividing a row by it gives the row's projective normal form."""
    rows = rows % q
    if not rows.shape[1]:
        return np.ones(rows.shape[0], dtype=rows.dtype)
    lead = rows[np.arange(rows.shape[0]), np.argmax(rows != 0, axis=1)]
    return np.where(lead == 0, 1, lead).astype(rows.dtype)


def rref_subspaces(length, k, q):
    """Yield every k-dimensional subspace of F_q^length once, as its int64
    (k, length) RREF generator matrix.

    Pivot sets come in itertools.combinations order; within one, the free
    entries (right of each row's pivot, outside the pivot columns) are
    filled row-major in coefficient_grid order.
    """
    for pivots in combinations(range(length), k):
        pivots = list(pivots)
        free = np.arange(length) > np.array(pivots, dtype=np.int64)[:, None]
        free[:, pivots] = False
        grid = coefficient_grid(q, int(free.sum()))
        block = np.zeros((grid.shape[0], k, length), dtype=np.int64)
        block[:, np.arange(k), pivots] = 1
        block[:, free] = grid
        yield from block


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------


def rref(rows, q):
    """Reduced row echelon form over F_q.

    Returns (R, pivots) where R has no zero rows and pivots is the tuple of
    pivot column indices, strictly increasing.
    """
    A = np.atleast_2d(np.asarray(rows, dtype=np.int64) % q)
    nrows, ncols = A.shape
    inv = inv_table(q)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(A[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        A[r] = (A[r] * inv[A[r, c]]) % q
        others = np.nonzero(A[:, c])[0]
        others = others[others != r]
        if others.size:
            A[others] = (A[others] - np.outer(A[others, c], A[r])) % q
        pivots.append(c)
        r += 1
    return A[:r].astype(np.uint8), tuple(pivots)


def rank(rows, q):
    """Rank of a 2-D residue array over F_q."""
    return rref(rows, q)[0].shape[0]


mat_rank = rank


def rank_batch(mats, q):
    """int64 ranks of a (B, r, c) stack over F_q: a code-table lookup for a
    square stack within the tables' bound, else for r = 1 whether the row
    is nonzero mod q, else one elimination."""
    hit = _table_lookup(mats, q)
    if hit is None and np.ndim(mats) == 3 and np.shape(mats)[1] == 1:
        rows = np.asarray(mats)[:, 0]
        if rows.size and (rows.min() < 0 or rows.max() >= q):  # an integer mod costs more than the check
            rows = rows % q
        return rows.any(axis=1).astype(np.int64)
    if hit is None:
        return rref_batch(mats, q)[1]
    table, codes = hit
    return table["rank"][codes].astype(np.int64)


def rref_batch(mats, q):
    """Batched RREF.  Returns (R, ranks): R is the reduced uint8 stack, rows
    beyond the rank are zero.  All items share the input row count."""
    A = np.asarray(mats) % q
    return _eliminate(A[None] if A.ndim == 2 else A, q, A.shape[-1])


def _eliminate(A, q, ncols):
    """Gauss-Jordan elimination of a (B, r, c) residue stack, A untouched,
    with pivots (first nonzero at or below the current row) from the first
    ncols columns only.  Each column step updates a uint8 copy of the whole
    stack, items last; an item without a pivot gets scale 1, zero factors.
    Returns (the reduced uint8 stack, each item's pivot count)."""
    nb, nr, _ = A.shape
    row = np.zeros(nb, dtype=np.int64)
    if not nb or not nr:
        return A.astype(np.uint8), row
    T = A.transpose(1, 2, 0).astype(np.uint8, order="C")  # items last
    inv = inv_table(q).astype(np.uint8)
    rowidx, items = np.arange(nr)[:, None], np.arange(nb)
    for c in range(ncols):
        cand = (T[:, c] != 0) & (rowidx >= row)
        piv = cand.argmax(axis=0)
        has = cand[piv, items]
        if not has.any():
            continue
        cur = np.minimum(row, nr - 1)
        piv = np.where(has, piv, cur)  # no pivot: scale 1, zero factors
        prow = np.ascontiguousarray(T[piv, :, items].T)
        if q > 2:
            prow = prow * np.where(has, inv[prow[c]], 1) % q
        f = T[:, c] * has
        if q == 2:
            T ^= f[:, None] & prow
        else:  # at most 6 + 7 * 6 = 48 < 256 before the mod
            np.remainder(T + (q - f)[:, None] * prow, q, out=T)
        T[piv, :, items] = T[cur, :, items]  # row piv is now zero
        T[cur, :, items] = prow.T
        row += has
    return np.ascontiguousarray(T.transpose(2, 0, 1)), row


# ---------------------------------------------------------------------------
# Determinants, inverses, characteristic polynomials
# ---------------------------------------------------------------------------


def mat_det(M, q):
    """Determinant over F_q."""
    return int(det_batch(np.asarray(M)[None], q)[0])


def det_batch(mats, q):
    """Determinants of a (B, k, k) stack: (-1)^k times the constant
    coefficient of charpoly_batch, the one determinant kernel."""
    k = np.shape(mats)[-1]
    return (charpoly_batch(mats, q)[:, k].astype(np.int64) * (-1) ** k) % q


def mat_inverse(M, q):
    """Exact inverse over F_q.  Raises SingularMatrix when det = 0."""
    A = np.asarray(M, dtype=np.int64) % q
    n = A.shape[0]
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, piv = rref(aug, q)
    if R.shape[0] < n or tuple(piv[:n]) != tuple(range(n)):
        raise SingularMatrix("matrix has no inverse over F_%d" % q)
    return R[:n, n:].astype(np.uint8)


def inverse_batch(mats, q):
    """Inverses of a (B, n, n) stack over F_q.

    Returns (inverses, invertible): the uint8 inverses, zero for the
    singular items, and the bool invertible flags, from the code table
    within its bound, else from _inverse_kernel.
    """
    n = np.shape(mats)[-1]
    hit = _table_lookup(mats, q)
    if hit is None:
        inverses, ranks = _inverse_kernel(np.asarray(mats) % q, q)
        return inverses, ranks == n
    table, codes = hit
    return _decode(table["inverse"][codes], q, n), table["rank"][codes] == n


def _inverse_kernel(A, q):
    """(inverses, ranks) of a (B, n, n) residue stack: one elimination of
    [A | I] with pivots in the left block only, whose pivot count is the
    rank, and whose uint8 right block is the inverse of a full-rank item;
    the inverses of the other items are zero."""
    n = A.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=A.dtype), A.shape)
    R, ranks = _eliminate(np.concatenate([A, eye], axis=2), q, n)
    inverses = R[:, :, n:]
    inverses[ranks != n] = 0
    return inverses, ranks


def mat_mul(A, B, q):
    return (np.asarray(A, dtype=np.int64) @ np.asarray(B, dtype=np.int64) % q).astype(np.uint8)


def charpoly_batch(mats, q):
    """Characteristic polynomials det(xI - M) for a (B, n, n) stack.

    Returns a (B, n + 1) int8 array of coefficients, highest degree first
    (leading coefficient 1).  This is the one determinant and charpoly
    kernel: the Samuelson-Berkowitz recurrence, which has no divisions and
    so stays exact in characteristic 2 and 3.  Step k borders the leading
    k x k block P with column c, row r and corner a; the charpoly of the
    bordered block is the Toeplitz convolution of (1, -a, -r c, -r P c,
    ..., -r P^(k-1) c) with the charpoly of P.
    """
    A = np.asarray(mats, dtype=np.int64) % q
    if A.ndim == 2:
        A = A[None]
    nb, n, _ = A.shape
    poly = np.ones((nb, 1), dtype=np.int64)
    for k in range(n):
        P, row = A[:, :k, :k], A[:, k, :k]
        col = A[:, :k, k]
        toeplitz = np.empty((nb, k + 2), dtype=np.int64)
        toeplitz[:, 0] = 1
        toeplitz[:, 1] = -A[:, k, k]
        for j in range(k):
            if j:
                col = (P @ col[:, :, None])[:, :, 0] % q
            toeplitz[:, j + 2] = -(row * col).sum(axis=1)
        toeplitz %= q
        nxt = np.zeros((nb, k + 2), dtype=np.int64)
        for j in range(k + 1):
            nxt[:, j:] += toeplitz[:, : k + 2 - j] * poly[:, j, None]
        poly = nxt % q
    return poly.astype(np.int8)


def charpoly(M, q):
    """Characteristic polynomial of one matrix, coefficients highest first."""
    return tuple(int(c) for c in charpoly_batch(np.asarray(M)[None], q)[0])


def charpoly_ids(mats, q):
    """Charpoly id of each matrix of a (B, n, n) stack, as int64: the base-q
    code of its non-leading charpoly coefficients, the x^(n-1) coefficient
    least significant.  From the code table within its bound, else from
    charpoly_batch."""
    hit = _table_lookup(mats, q)
    if hit is None:
        return _charpoly_id_kernel(np.asarray(mats), q)
    table, codes = hit
    return table["charpoly"][codes].astype(np.int64)


def _charpoly_id_kernel(mats, q):
    """charpoly_ids by one charpoly_batch."""
    n = mats.shape[-1]
    return charpoly_batch(mats, q)[:, 1:].astype(np.int64) @ q ** np.arange(n, dtype=np.int64)


def min_degrees(mats, q):
    """Degree of the minimal polynomial of each matrix of a (B, n, n) stack,
    as int64: from the code table within its bound, else the rank of the
    powers I, g, .., g^(n-1) of each distinct matrix by one elimination."""
    hit = _table_lookup(mats, q)
    if hit is None:
        mats = np.ascontiguousarray(np.asarray(mats) % q, dtype=np.uint8)
        rows = mats.reshape(len(mats), mats.shape[-1] ** 2).view(f"V{mats.shape[-1] ** 2}")[:, 0]
        _, first, back = np.unique(rows, return_index=True, return_inverse=True)  # a plain np.unique imports numpy.ma
        return _min_degree_kernel(mats[first], q)[back]
    table, codes = hit
    return table["min_degree"][codes].astype(np.int64)


def _min_degree_kernel(G, q):
    """min_degrees by one elimination of the (B, n^2, n) stacks whose
    columns are I, g, .., g^(n-1)."""
    n = G.shape[-1]
    powers = [np.broadcast_to(np.eye(n, dtype=np.int16), G.shape)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ (G % q).astype(np.int16) % q)
    return _eliminate(np.stack(powers, axis=-1).reshape(len(G), -1, n), q, n)[1]


# ---------------------------------------------------------------------------
# Per-matrix code tables
# ---------------------------------------------------------------------------

# rank_batch, inverse_batch, charpoly_ids and min_degrees of a square stack
# read one table per (q, n) with q^(n^2) <= _TABLE_CODES, indexed by the
# matrix's code: entry j of the flattened matrix is digit j, least first.
_TABLE_CODES = 1 << 16
_FILL_STEP = 4096  # codes per kernel call once a table is half filled
_TABLE_FIELDS = np.dtype([("rank", np.int8), ("inverse", np.uint16),
                          ("min_degree", np.int8), ("charpoly", np.int8)])


@lru_cache(maxsize=None)
def _code_table(q, n):
    """The process-wide table of the n x n matrices over F_q, rank -1 where
    not yet filled; the inverse's code is 0 for a singular matrix."""
    table = np.zeros(q ** (n * n), dtype=_TABLE_FIELDS)
    table["rank"] = -1
    return table


def _decode(codes, q, n):
    """The uint8 (B, n, n) matrices of the given codes.  A code is below
    2^16, so float64 floor division is exact, and faster than int64's."""
    whole = np.floor(np.asarray(codes, dtype=np.float64)[:, None] / q ** np.arange(n * n + 1, dtype=np.float64))
    return (whole[:, :-1] - q * whole[:, 1:]).astype(np.uint8).reshape(-1, n, n)


def _fill(table, codes, q, n):
    """Fill the entries of distinct codes by the kernels: one [M | I]
    elimination, one elimination of the powers, one charpoly_batch."""
    mats = _decode(codes, q, n)
    inverses, ranks = _inverse_kernel(mats, q)
    table["inverse"][codes] = inverses.reshape(-1, n * n) @ q ** np.arange(n * n, dtype=np.int64)
    table["min_degree"][codes] = _min_degree_kernel(mats, q)
    table["charpoly"][codes] = _charpoly_id_kernel(mats, q)
    table["rank"][codes] = ranks  # last: it marks the entries filled


def _table_lookup(mats, q):
    """(the code table of a square (B, n, n) stack's (q, n), its items'
    codes), every entry of those codes filled; None for other stacks and
    for q^(n^2) > _TABLE_CODES.

    The missing distinct codes of a call are filled in one kernel pass;
    once half the table is filled, the rest is, _FILL_STEP codes a pass (a
    classification asks for nearly all of it, in thousands of small calls).
    """
    shape = np.shape(mats)
    if len(shape) != 3 or shape[1] != shape[2] or not shape[1] or q ** (shape[1] ** 2) > _TABLE_CODES:
        return None
    n = shape[1]
    table = _code_table(q, n)
    flat = np.asarray(mats).reshape(shape[0], n * n)
    if flat.size and (flat.min() < 0 or flat.max() >= q):  # an integer mod costs more than the check
        flat = flat % q
    # a code is below 2^16, so float32 sums are exact
    codes = (flat @ q ** np.arange(n * n, dtype=np.float32)).astype(np.intp)
    missing = table["rank"][codes] < 0
    if missing.any():
        # return_index: a plain np.unique imports numpy.ma
        _fill(table, np.unique(codes[missing], return_index=True)[0], q, n)
        rest = np.nonzero(table["rank"] < 0)[0]
        if 0 < 2 * rest.size <= table.size:
            for lo in range(0, rest.size, _FILL_STEP):
                _fill(table, rest[lo:lo + _FILL_STEP], q, n)
    return table, codes


# ---------------------------------------------------------------------------
# Linear solving
# ---------------------------------------------------------------------------


def solve(A, b, q):
    """One solution x of A x = b over F_q, or None when inconsistent.

    Free variables are set to zero, so the answer is unique iff A has full
    column rank.
    """
    A = np.asarray(A, dtype=np.int64) % q
    b = np.asarray(b, dtype=np.int64) % q
    if A.ndim == 1:
        A = A[:, None]
    aug = np.concatenate([A, b[:, None]], axis=1)
    R, piv = rref(aug, q)
    ncols = A.shape[1]
    if ncols in piv:
        return None
    x = np.zeros(ncols, dtype=np.uint8)
    for r, c in enumerate(piv):
        x[c] = R[r, -1]
    return x


def nullspace(A, q):
    """Basis of the right null space of A over F_q, one row per basis vector."""
    A = np.asarray(A, dtype=np.int64) % q
    R, piv = rref(A, q)
    ncols = A.shape[1]
    free = [c for c in range(ncols) if c not in piv]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(piv):
            basis[i, pc] = (-int(R[r, fc])) % q
    return basis.astype(np.uint8)


def solve_membership(basis, target, q):
    """Coefficients expressing target in the span of basis, or None.

    basis is a sequence of matrices (or vectors); entries are flattened.  The
    coefficient vector is unique when the basis is linearly independent.
    """
    rows = np.stack([np.asarray(m).reshape(-1) for m in basis])
    t = np.asarray(target).reshape(-1)
    return solve(rows.T, t, q)


# ---------------------------------------------------------------------------
# Rank-one factorisation
# ---------------------------------------------------------------------------


def rank_one_factor(M, q):
    """Vectors (u, w) with M = u w^T and the first nonzero entry of w equal 1.

    Raises NotRankOne unless rank(M) = 1.
    """
    A = as_residues(M, q)
    nz_rows = np.nonzero(A.any(axis=1))[0]
    if nz_rows.size == 0:
        raise NotRankOne("zero matrix")
    r0 = A[nz_rows[0]].astype(np.int64)
    lead = int(np.nonzero(r0)[0][0])
    w = (r0 * int(inv_table(q)[r0[lead]])) % q
    u = A[:, lead].astype(np.int64) % q
    if not np.array_equal(np.outer(u, w) % q, A.astype(np.int64)):
        raise NotRankOne("matrix rank exceeds one")
    return u.astype(np.uint8), w.astype(np.uint8)


# ---------------------------------------------------------------------------
# Polynomials over F_q (coefficient tuples, ascending degree)
# ---------------------------------------------------------------------------


def poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_divmod(a, b, q):
    a = list(a)
    b = poly_trim(b)
    inv = int(inv_table(q)[b[-1]])
    db = len(b) - 1
    quo = [0] * max(1, len(a) - db)
    while len(poly_trim(a)) - 1 >= db and any(a):
        da = len(poly_trim(a)) - 1
        coef = (a[da] * inv) % q
        quo[da - db] = coef
        for i, bi in enumerate(b):
            a[da - db + i] = (a[da - db + i] - coef * bi) % q
    return poly_trim(quo), poly_trim(a)


def poly_is_irreducible(p, q):
    """Trial division by every monic polynomial of degree <= deg(p)/2."""
    p = poly_trim(p)
    deg = len(p) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in product(range(q), repeat=d):
            cand = tuple(tail) + (1,)
            _, rem = poly_divmod(p, cand, q)
            if rem == (0,):
                return False
    return True


# Pinned moduli: x^4+x+1 matches the published F_16 spread-set encodings, and
# x^4+2x^3+2 reproduces the published F_81 basis entry-exact.
_DEFAULT_MODULI = {
    (2, 4): (1, 1, 0, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
}


def default_modulus(q, n):
    """A monic irreducible of degree n over F_q (pinned for the atlas fields)."""
    if (q, n) in _DEFAULT_MODULI:
        return _DEFAULT_MODULI[(q, n)]
    for tail in product(range(q), repeat=n):
        cand = tuple(tail) + (1,)
        if poly_is_irreducible(cand, q):
            return cand
    raise NotIrreducible(f"no irreducible of degree {n} over F_{q}")


# ---------------------------------------------------------------------------
# Extension fields F_{q^n}
# ---------------------------------------------------------------------------


class ExtField:
    """F_{q^n} in the power basis of a root of a monic irreducible modulus.

    Elements are length-n uint8 coordinate vectors.  Multiplication matrices
    follow the row convention used throughout the package: row i of
    mul_matrix(a) holds the coordinates of a * x^i, so vectors act as rows and
    the matrix of the identity element is the identity matrix.
    """

    def __init__(self, q, n, modulus=None):
        if q not in SUPPORTED_Q:
            raise BadParameters(f"unsupported field size q={q}")
        if n < 1:
            raise BadParameters("extension degree must be positive")
        self.q = q
        self.n = n
        mod = poly_trim(modulus) if modulus is not None else default_modulus(q, n)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise BadParameters("modulus must be monic of degree n")
        if not poly_is_irreducible(mod, q):
            raise NotIrreducible(f"{mod} is reducible over F_{q}")
        self.modulus = mod
        # reduction table: row k = coordinates of x^k, k = 0 .. 2n-2
        red = np.zeros((2 * n - 1, n), dtype=np.int64)
        for k in range(n):
            red[k, k] = 1
        for k in range(n, 2 * n - 1):
            prev = np.roll(red[k - 1], 1)
            carry = red[k - 1, n - 1]
            prev[0] = 0
            if carry:
                prev = (prev - carry * np.array(mod[:n], dtype=np.int64)) % q
            red[k] = prev % q
        self._red = red

    # -- element arithmetic ------------------------------------------------

    def element(self, coords):
        v = as_residues(coords, self.q)
        if v.shape != (self.n,):
            raise BadParameters("element coordinates must have length n")
        return v

    @property
    def zero(self):
        return np.zeros(self.n, dtype=np.uint8)

    @property
    def one(self):
        e = np.zeros(self.n, dtype=np.uint8)
        e[0] = 1
        return e

    @property
    def gen(self):
        """The power-basis generator x (for n = 1, the scalar 1)."""
        e = np.zeros(self.n, dtype=np.uint8)
        e[min(1, self.n - 1)] = 1
        return e

    def mul(self, a, b):
        conv = np.convolve(a.astype(np.int64), b.astype(np.int64))
        out = (conv[:, None] * self._red[: conv.size]).sum(axis=0) % self.q
        return out.astype(np.uint8)

    def pow(self, a, e):
        result = self.one
        base = a
        e = int(e)
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inverse(self, a):
        if not a.any():
            raise SingularMatrix("zero has no inverse")
        return self.pow(a, self.q**self.n - 2)

    def frobenius(self, a, i=1):
        return self.pow(a, self.q**i)

    def norm_over_prime(self, a):
        """a^((q^n - 1) / (q - 1)), the relative norm down to F_q."""
        return self.pow(a, (self.q**self.n - 1) // (self.q - 1))

    # -- matrices ------------------------------------------------------------

    def mul_matrix(self, a):
        """Matrix of left multiplication by a, acting on row vectors."""
        a = self.element(a)
        rows = np.zeros((self.n, self.n), dtype=np.uint8)
        basis = np.eye(self.n, dtype=np.uint8)
        for i in range(self.n):
            rows[i] = self.mul(a, basis[i])
        return rows
