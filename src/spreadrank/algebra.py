"""Multiplication tensors, matrix spaces, spread sets, and constructions.

Conventions, fixed once here and relied on everywhere:

  * vectors are rows; the matrix M_x of left multiplication by x satisfies
    x o y = y . M_x, so row i of M_x holds the coordinates of x o e_i;
  * a hypercube H stores H[i, j, k] = coefficient of e_k in e_i o e_j, hence
    the slot-1 contraction of H by the i-th standard covector is the i-th
    ordered basis matrix of the spread set.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import gf
from .codec import encode_rows
from .errors import (
    BadParameters,
    BadSlot,
    DimensionMismatch,
    NotNonsingular,
    TooLarge,
)

_ENUM_CAP = 1 << 21  # largest q^dim we will enumerate element-wise


# ---------------------------------------------------------------------------
# MatSpace: canonical subspaces of M_n(F_q)
# ---------------------------------------------------------------------------


class MatSpace:
    """Subspace of M_n(F_q), stored as the RREF basis of flattened matrices.

    Equality and hashing go through the canonical basis, so two spaces are
    equal iff they contain the same matrices.
    """

    __slots__ = ("q", "n", "basis", "pivots", "_key")

    def __init__(self, q, n, basis, pivots):
        self.q = q
        self.n = n
        self.basis = basis  # (dim, n*n) uint8, RREF, read-only
        self.pivots = pivots
        self._key = None

    @classmethod
    def from_rows(cls, q, n, rows):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, n * n)
        basis, pivots = gf.rref(rows, q)
        basis.flags.writeable = False
        return cls(q, n, basis, pivots)

    @classmethod
    def from_matrices(cls, q, n, mats):
        """Span of n x n matrices; no matrices give the zero space."""
        if any(np.shape(m) != (n, n) for m in mats):
            raise DimensionMismatch(f"need {n} x {n} matrices")
        return cls.from_rows(q, n, np.reshape(mats, (len(mats), n * n)))

    @classmethod
    def from_encodings(cls, q, n, encodings):
        from .codec import decode

        return cls.from_matrices(q, n, [decode(v, q, n) for v in encodings])

    # -- identity ------------------------------------------------------------

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def key(self):
        if self._key is None:
            self._key = (self.q, self.n, self.basis.tobytes())
        return self._key

    def __eq__(self, other):
        return isinstance(other, MatSpace) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"MatSpace(q={self.q}, n={self.n}, dim={self.dim})"

    # -- content -------------------------------------------------------------

    def matrices(self):
        return [row.reshape(self.n, self.n) for row in self.basis]

    def encodings(self):
        return encode_rows(self.basis, self.q).tolist()

    def reduce(self, vectors):
        """Residues of flattened matrices modulo this space, batched."""
        V = np.asarray(vectors, dtype=np.int64) % self.q
        single = V.ndim == 1
        if single:
            V = V[None]
        if self.dim:
            red = (V - V[:, self.pivots] @ self.basis.astype(np.int64)) % self.q
        else:
            red = V
        return red[0] if single else red

    def contains(self, mat):
        v = np.asarray(mat).reshape(-1)
        return not self.reduce(v).any()

    def contains_batch(self, vectors):
        return ~self.reduce(vectors).any(axis=1)

    def contains_space(self, other):
        return bool(self.contains_batch(other.basis).all())

    def extend(self, mat):
        """Space spanned by this space and one further matrix: this space
        itself when it contains the matrix, else extend_batch of one."""
        if self.contains(mat):
            return self
        return MatSpace.extend_batch([self], [mat])[0]

    @staticmethod
    def extend_batch(spaces, mats):
        """The spaces spanned by spaces[i] and mats[i], for spaces of one q,
        n and dimension, none of which contains its matrix (BadParameters
        otherwise).

        Incremental: a stored basis is already reduced, so one residue, one
        column elimination and a sorted insert reproduce the RREF.
        """
        if not len(spaces):
            return []
        first = spaces[0]
        q, count, dim = first.q, len(spaces), first.dim
        basis = np.stack([space.basis for space in spaces]).astype(np.int64)
        piv = np.array([space.pivots for space in spaces], dtype=np.int64).reshape(count, dim)
        V = np.asarray(mats, dtype=np.int64).reshape(count, -1) % q
        red = (V - np.einsum("pd,pdw->pw", np.take_along_axis(V, piv, 1), basis)) % q
        if not red.any(axis=1).all():
            raise BadParameters("a matrix lies in the space it should extend")
        at = np.arange(count)
        lead = np.argmax(red != 0, axis=1)
        row = red * gf.inv_table(q)[red[at, lead]][:, None] % q
        basis = (basis - basis[at, :, lead][:, :, None] * row[:, None, :]) % q
        # row k of an extended basis: old row k before the new pivot, the
        # new row at it, old row k - 1 after it
        k = np.arange(dim + 1)
        pos = (piv < lead[:, None]).sum(axis=1)[:, None]
        order = np.where(k < pos, k, np.where(k == pos, dim, k - 1))
        stacked = np.take_along_axis(np.concatenate([basis, row[:, None]], 1), order[:, :, None], 1)
        stacked = stacked.astype(np.uint8)
        stacked.flags.writeable = False
        pivots = np.take_along_axis(np.concatenate([piv, lead[:, None]], 1), order, 1).tolist()
        return [MatSpace(q, first.n, stacked[i], tuple(pivots[i])) for i in range(count)]

    def nonzero_elements(self):
        """All q^dim - 1 nonzero elements, flattened, in coefficient order."""
        if self.q**self.dim > _ENUM_CAP:
            raise TooLarge(f"q^dim = {self.q}^{self.dim} too large to enumerate")
        grid = gf.coefficient_grid(self.q, self.dim)[1:]
        return (grid @ self.basis.astype(np.int64)) % self.q


# ---------------------------------------------------------------------------
# SpreadSet: ordered presentation of an n-dimensional nonsingular space
# ---------------------------------------------------------------------------


class SpreadSet:
    """An n-dimensional nonsingular matrix space with an ordered basis.

    The ordered basis fixes the algebra presentation (hypercube slices);
    the underlying canonical MatSpace handles identity and membership.
    """

    __slots__ = ("q", "n", "matrices", "space")

    def __init__(self, q, matrices, check=True):
        mats = [gf.as_residues(m, q) for m in matrices]
        n = mats[0].shape[0]
        self.q = q
        self.n = n
        self.matrices = tuple(m.copy() for m in mats)
        for m in self.matrices:
            m.flags.writeable = False
        self.space = MatSpace.from_matrices(q, n, mats)
        if check:
            if self.space.dim != n:
                raise DimensionMismatch(
                    f"basis spans dimension {self.space.dim}, expected {n}"
                )
            if not is_nonsingular(self.space):
                raise NotNonsingular("space contains a singular nonzero matrix")

    @classmethod
    def from_encodings(cls, q, encodings, n=None, check=True):
        from .codec import decode

        if n is None:
            n = _infer_n(q, encodings)
        return cls(q, [decode(v, q, n) for v in encodings], check=check)

    def encodings(self):
        return encode_rows(np.reshape(self.matrices, (self.n, -1)), self.q).tolist()

    def hypercube(self):
        return hypercube_from_spreadset(self)

    def __repr__(self):
        return f"SpreadSet(q={self.q}, n={self.n})"


def _infer_n(q, encodings):
    biggest = max(int(v) for v in encodings)
    n = 1
    while q ** (n * n) <= biggest:
        n += 1
    return n


def is_nonsingular(space):
    """True iff every nonzero element of the space is invertible."""
    sp = space.space if isinstance(space, SpreadSet) else space
    if sp.dim == 0:
        return True
    elems = sp.nonzero_elements().reshape(-1, sp.n, sp.n)
    return bool((gf.rank_batch(elems, sp.q) == sp.n).all())


# ---------------------------------------------------------------------------
# Hypercubes (order-3 multiplication tensors)
# ---------------------------------------------------------------------------


def hypercube_from_spreadset(basis):
    """Stack an ordered basis into the (n, n, n) coefficient array."""
    if isinstance(basis, SpreadSet):
        mats = basis.matrices
    elif isinstance(basis, MatSpace):
        mats = basis.matrices()
    else:
        mats = [np.asarray(m) for m in basis]
    n = mats[0].shape[0]
    if len(mats) != n:
        raise DimensionMismatch(f"need {n} basis matrices, got {len(mats)}")
    return np.stack(mats).astype(np.uint8)


def spreadset_from_hypercube(H, q, check=True):
    """Ordered slot-1 contraction matrices of H, as a SpreadSet."""
    H = np.asarray(H)
    return SpreadSet(q, [H[i] for i in range(H.shape[0])], check=check)


def multiply(H, x, y, q):
    """x o y for the algebra with hypercube H; bilinear in x and y."""
    out = np.einsum(
        "ijk,i,j->k", H.astype(np.int64), np.asarray(x, dtype=np.int64),
        np.asarray(y, dtype=np.int64),
    )
    return (out % q).astype(np.uint8)


# ---------------------------------------------------------------------------
# Contractions of general tensors
# ---------------------------------------------------------------------------


def contract(T, slot, f, q):
    """Contraction of T by the covector f in the given 1-based slot."""
    T = np.asarray(T, dtype=np.int64)
    if not 1 <= slot <= T.ndim:
        raise BadSlot(f"slot {slot} out of range for order-{T.ndim} tensor")
    f = np.asarray(f, dtype=np.int64)
    if f.shape[0] != T.shape[slot - 1]:
        raise DimensionMismatch("covector length does not match slot dimension")
    out = np.tensordot(f, T, axes=([0], [slot - 1])) % q
    return out.astype(np.uint8)


def contraction_space(T, slot, q):
    """Basis (list of order-(t-1) tensors) of the slot-i contraction space."""
    T = np.asarray(T)
    if not 1 <= slot <= T.ndim:
        raise BadSlot(f"slot {slot} out of range for order-{T.ndim} tensor")
    moved = np.moveaxis(T, slot - 1, 0)
    rest_shape = moved.shape[1:]
    rows = moved.reshape(moved.shape[0], -1)
    basis, _ = gf.rref(rows, q)
    return [row.reshape(rest_shape).astype(np.uint8) for row in basis]


def is_concise(T, q):
    """True iff every contraction space has the full slot dimension."""
    T = np.asarray(T)
    return all(
        len(contraction_space(T, i + 1, q)) == T.shape[i] for i in range(T.ndim)
    )


# ---------------------------------------------------------------------------
# Rank-one matrices
# ---------------------------------------------------------------------------


def projective_vectors(q, n):
    """The (q^n - 1)/(q - 1) nonzero vectors of F_q^n with leading
    coefficient 1, as the rows of one uint8 array in coefficient_grid order."""
    grid = gf.coefficient_grid(q, n)[1:]
    return grid[gf.leading_coeff(grid, q) == 1].astype(np.uint8)


def rank_one_rows(q, d2, d3):
    """Flattened u w^T for projective u in F_q^d2 and w in F_q^d3, u-major:
    one row per projective rank-one point of the d2 x d3 matrices."""
    us = projective_vectors(q, d2).astype(np.int64)
    ws = projective_vectors(q, d3).astype(np.int64)
    flat = us[:, None, :, None] * ws[None, :, None, :]
    return flat.reshape(us.shape[0] * ws.shape[0], d2 * d3) % q


class _Points:
    """Projective rank-one points u w^T of M_n(F_q), u and w normalised.

    Points are sorted by their flattened entries.  Point i is the outer
    product of projective vectors u[i] and w[i] (indices into
    projective_vectors), and of_uw inverts that map.  vector_images maps
    matrices to permutations of the projective vectors, so a pair (A, B)
    sends point i to of_uw[image of u[i] under A, image of w[i] under B^T].
    """

    def __init__(self, q, n):
        self.q = q
        self.n = n
        self.vectors = projective_vectors(q, n).astype(np.int64)
        m = self.vectors.shape[0]
        flat = rank_one_rows(q, n, n)
        order = np.lexsort(flat.T[::-1])
        self.flat = flat[order]
        self.u, self.w = np.divmod(order, m)
        self.of_uw = np.argsort(order).astype(np.int32).reshape(m, m)
        # projective index of every nonzero vector, by base-q encoding
        self._vector_index = np.full(q**n, -1, dtype=np.int16)
        for unit in range(1, q):
            self._vector_index[encode_rows(unit * self.vectors % q, q)] = np.arange(m)

    def __len__(self):
        return self.flat.shape[0]

    def vector_images(self, mats):
        """(c, n, n) matrices -> (c, m) indices of the projective vectors
        proportional to M v, one column per projective vector v."""
        # row j of vectors @ M^T is (M v_j)^T
        moved = (self.vectors @ np.swapaxes(np.asarray(mats, dtype=np.int64), 1, 2)) % self.q
        return self._vector_index[encode_rows(moved, self.q)]


@lru_cache(maxsize=8)
def points_for(q, n):
    return _Points(q, n)


def rank_one_elements(q, n):
    """All (q^n - 1)^2 / (q - 1) rank-one matrices, ordered by encoding.

    The unit multiples of the projective rank-one points hit every rank-one
    matrix exactly once.
    """
    flat = np.arange(1, q)[:, None, None] * points_for(q, n).flat % q
    flat = flat.reshape(-1, n * n)
    order = np.argsort(encode_rows(flat, q))
    return list(flat[order].astype(np.uint8).reshape(-1, n, n))


# ---------------------------------------------------------------------------
# Field and twisted-field constructions
# ---------------------------------------------------------------------------


def field_construct(q, n, modulus=None):
    """Spread set of F_{q^n} in the power basis of the modulus root.

    With the pinned moduli this reproduces the published encodings for
    q^n = 16 and 81 entry-exact.
    """
    F = gf.ExtField(q, n, modulus)
    basis = np.eye(n, dtype=np.uint8)
    mats = [F.mul_matrix(basis[i]) for i in range(n)]
    return SpreadSet(q, mats, check=False)


def gtf_construct(q, n, i, j, c, modulus=None):
    """Albert twisted-field spread set for x o y = xy - c x^(q^i) y^(q^j).

    Requires i != j in {1, .., n-1} and the norm condition on c; the result
    is checked nonsingular exhaustively.
    """
    if i == j or not (1 <= i <= n - 1) or not (1 <= j <= n - 1):
        raise BadParameters(f"need distinct i, j in 1..{n - 1}, got ({i}, {j})")
    F = gf.ExtField(q, n, modulus)
    c = F.element(c)
    if c.any() and np.array_equal(F.norm_over_prime(c), F.one):
        raise NotNonsingular("norm condition violated: c^((q^n-1)/(q-1)) = 1")
    basis = np.eye(n, dtype=np.uint8)
    mats = []
    for a in range(n):
        x = basis[a]
        xi = F.frobenius(x, i)
        rows = np.zeros((n, n), dtype=np.uint8)
        for r in range(n):
            y = basis[r]
            yj = F.frobenius(y, j)
            rows[r] = (F.mul(x, y).astype(np.int64)
                       - F.mul(c, F.mul(xi, yj))) % q
        mats.append(rows)
    out = SpreadSet(q, mats, check=False)
    if not is_nonsingular(out):
        raise NotNonsingular("twisted-field construction is singular")
    return out


def kaplansky_normalize(space):
    """Equivalent spread set containing the identity, with first rows e_1..e_n.

    Right-multiplying by the inverse of any member puts the identity in the
    space; reordering the basis so row one of the i-th matrix is e_i makes
    e_1 a two-sided identity of the resulting algebra.
    """
    sp = space.space if isinstance(space, SpreadSet) else space
    q, n = sp.q, sp.n
    if sp.dim != n or not is_nonsingular(sp):
        raise NotNonsingular("input must be an n-dimensional nonsingular space")
    m0 = sp.basis[0].reshape(n, n)
    m0_inv = gf.mat_inverse(m0, q).astype(np.int64)
    shifted = [(b.reshape(n, n).astype(np.int64) @ m0_inv) % q for b in sp.basis]
    first_rows = np.stack([m[0] for m in shifted])
    change = gf.mat_inverse(first_rows, q).astype(np.int64)
    stacked = np.stack(shifted)
    ordered = np.einsum("ik,kab->iab", change, stacked) % q
    return SpreadSet(q, list(ordered.astype(np.uint8)), check=False)


# ---------------------------------------------------------------------------
# Knuth S3 action
# ---------------------------------------------------------------------------

S3 = (
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
)


def knuth_act(H, sigma):
    """Index permutation (sigma.H)[j1,j2,j3] = H[j_sigma(1), j_sigma(2), j_sigma(3)].

    Composition satisfies knuth_act(knuth_act(H, s), t) = knuth_act(H, t o s)
    with (t o s)(x) = t(s(x)).
    """
    sigma0 = tuple(s - 1 for s in sigma)
    axes = tuple(int(a) for a in np.argsort(sigma0))
    return np.ascontiguousarray(np.transpose(np.asarray(H), axes))


def knuth_orbit(spread):
    """Distinct isotopism classes among the six slot permutations of a spread set.

    Each image is Kaplansky-normalised; the images are classified by
    equivalence.isotopism_classes (each image, as it holds I, tested against
    the normal forms of the classes found before it), and the first image
    of each class in S3 order represents it, so the result length is the
    number of isotopism classes in the Knuth orbit.
    """
    from .equivalence import isotopism_classes

    H = hypercube_from_spreadset(spread)
    q = spread.q
    images = [
        kaplansky_normalize(spreadset_from_hypercube(knuth_act(H, sigma), q, check=False))
        for sigma in S3
    ]
    return [images[members[0]] for members in isotopism_classes([im.space for im in images])]
