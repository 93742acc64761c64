"""Exact arithmetic and linear algebra over prime fields F_q, q in {2, 3, 5, 7}.

Matrices and vectors are numpy uint8 arrays of residues.  Every operation is
pure; hot paths have batched variants that vectorise over a leading axis.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

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


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------


def rref(rows, q):
    """Reduced row echelon form over F_q.

    Returns (R, pivots) where R has no zero rows and pivots is the tuple of
    pivot column indices, strictly increasing.
    """
    A = np.asarray(rows, dtype=np.int64) % q
    if A.ndim == 1:
        A = A[None, :]
    A = A.copy()
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


def rank_batch(mats, q):
    """Ranks of a (B, r, c) stack over F_q, vectorised across the batch."""
    return rref_batch(mats, q)[1]


def rref_batch(mats, q):
    """Batched RREF.  Returns (R, ranks): R is the reduced stack, rows beyond
    the rank are zero.  All items share the input row count."""
    A = np.asarray(mats, dtype=np.int16) % q
    if A.ndim == 2:
        A = A[None]
    A = A.copy()
    nb, nr, nc = A.shape
    inv = inv_table(q).astype(np.int16)
    row = np.zeros(nb, dtype=np.int64)
    rowidx = np.arange(nr)
    for c in range(nc):
        colvals = A[:, :, c]
        cand = (colvals != 0) & (rowidx[None, :] >= row[:, None])
        has = cand.any(axis=1)
        b = np.nonzero(has)[0]
        if b.size == 0:
            continue
        piv = np.argmax(cand[b], axis=1)
        cur = row[b]
        tmp = A[b, piv, :].copy()
        A[b, piv, :] = A[b, cur, :]
        A[b, cur, :] = tmp
        pivrow = (A[b, cur, :] * inv[A[b, cur, c]][:, None]) % q
        A[b, cur, :] = pivrow
        factors = A[b, :, c].copy()
        factors[np.arange(b.size), cur] = 0
        A[b] = (A[b] - factors[:, :, None] * pivrow[:, None, :]) % q
        row[b] += 1
    return A.astype(np.uint8), row


# ---------------------------------------------------------------------------
# Determinants, inverses, characteristic polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _perm_data(k):
    perms = list(permutations(range(k)))
    signs = []
    for p in perms:
        s = 1
        for i in range(k):
            for j in range(i + 1, k):
                if p[i] > p[j]:
                    s = -s
        signs.append(s)
    return perms, signs


def mat_det(M, q):
    """Determinant over F_q."""
    return int(det_batch(np.asarray(M)[None], q)[0])


def det_batch(mats, q):
    """Determinants of a (B, k, k) stack via Leibniz expansion (k <= 4)."""
    A = np.asarray(mats, dtype=np.int64) % q
    k = A.shape[-1]
    if k == 0:
        return np.ones(A.shape[0], dtype=np.int64)
    if k > 4:
        # elimination fallback, one item at a time
        return np.array([_det_eliminate(m, q) for m in A], dtype=np.int64)
    perms, signs = _perm_data(k)
    total = np.zeros(A.shape[0], dtype=np.int64)
    for p, s in zip(perms, signs):
        term = A[:, 0, p[0]].copy()
        for i in range(1, k):
            term = (term * A[:, i, p[i]]) % q
        total = (total + s * term) % q
    return total % q


def _det_eliminate(M, q):
    A = np.asarray(M, dtype=np.int64) % q
    A = A.copy()
    n = A.shape[0]
    inv = inv_table(q)
    det = 1
    for c in range(n):
        hits = np.nonzero(A[c:, c])[0]
        if hits.size == 0:
            return 0
        p = c + int(hits[0])
        if p != c:
            A[[c, p]] = A[[p, c]]
            det = -det
        det = (det * A[c, c]) % q
        A[c] = (A[c] * inv[A[c, c]]) % q
        below = np.nonzero(A[c + 1:, c])[0] + c + 1
        if below.size:
            A[below] = (A[below] - np.outer(A[below, c], A[c])) % q
    return det % q


def mat_inverse(M, q):
    """Exact inverse over F_q.  Raises SingularMatrix when det = 0."""
    A = np.asarray(M, dtype=np.int64) % q
    n = A.shape[0]
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, piv = rref(aug, q)
    if R.shape[0] < n or tuple(piv[:n]) != tuple(range(n)):
        raise SingularMatrix("matrix has no inverse over F_%d" % q)
    return R[:n, n:].astype(np.uint8)


def mat_mul(A, B, q):
    return (np.asarray(A, dtype=np.int64) @ np.asarray(B, dtype=np.int64) % q).astype(np.uint8)


def mat_rank(M, q):
    """Rank of a single matrix over F_q."""
    return int(rank(np.asarray(M), q))


@lru_cache(maxsize=None)
def _principal_subsets(n):
    from itertools import combinations

    return {k: list(combinations(range(n), k)) for k in range(1, n + 1)}


def charpoly_batch(mats, q):
    """Characteristic polynomials det(xI - M) for a (B, n, n) stack.

    Returns a (B, n + 1) int8 array of coefficients, highest degree first
    (leading coefficient 1).  Uses sums of principal minors, which stays exact
    in characteristic 2 and 3 where Leverrier-style division fails.
    """
    A = np.asarray(mats, dtype=np.int64) % q
    if A.ndim == 2:
        A = A[None]
    nb, n, _ = A.shape
    out = np.zeros((nb, n + 1), dtype=np.int64)
    out[:, 0] = 1
    subsets = _principal_subsets(n)
    for k in range(1, n + 1):
        acc = np.zeros(nb, dtype=np.int64)
        for S in subsets[k]:
            idx = np.array(S)
            sub = A[:, idx[:, None], idx[None, :]]
            acc = (acc + det_batch(sub, q)) % q
        # coefficient of x^(n-k) is (-1)^k * e_k(principal minors)
        out[:, k] = (acc * (-1) ** k) % q
    return out.astype(np.int8)


def charpoly(M, q):
    """Characteristic polynomial of one matrix, coefficients highest first."""
    return tuple(int(c) for c in charpoly_batch(np.asarray(M)[None], q)[0])


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


def poly_mul(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return poly_trim(out)


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

    def add(self, a, b):
        return ((a.astype(np.int64) + b) % self.q).astype(np.uint8)

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

    def elements(self):
        for coords in product(range(self.q), repeat=self.n):
            yield np.array(coords[::-1], dtype=np.uint8)

    # -- matrices ------------------------------------------------------------

    def mul_matrix(self, a):
        """Matrix of left multiplication by a, acting on row vectors."""
        a = self.element(a)
        rows = np.zeros((self.n, self.n), dtype=np.uint8)
        basis = np.eye(self.n, dtype=np.uint8)
        for i in range(self.n):
            rows[i] = self.mul(a, basis[i])
        return rows
