"""Exact linear algebra over the prime field F_p, and the flat layout of
direct sums.

Matrices are numpy int64 arrays with entries reduced to 0..p-1.  Every
question is one deterministic Gaussian elimination (`rref_transform`, which
keeps no transform matrix), so solve / kernel / image / quotient answers are
reproducible bit-for-bit.  The elimination is row-sparse: it works on the
nonzero entries of each row, held as a {column: value} dict, and returns
the unique reduced row echelon form as a dense array.  An unsolvable system
comes back with a cokernel functional: the first row y of
`kernel_basis(A.T)` with y @ b != 0, checked to satisfy y @ A == 0.

`BlockSpace` is the one home of the flat layout: every direct sum of copies
of a leaf coordinate space (cone windows, Hom values, sequence windows,
graded skew truncations, tuples) is a `BlockSpace`, `flatten` turns a list of
its elements into the matrix of their coordinate columns (writing each part
at its key's offset into a zero matrix), and `complex_dims` reads cohomology
dimensions off a list of such matrices.
"""

from __future__ import annotations

import numpy as np


def _inv_mod(c, p):
    return pow(int(c), p - 2, p)


def rref_transform(A, p):
    """Reduced row echelon form, by row-sparse elimination.

    Returns (R, pivots) where R is the reduced row echelon form of A (mod p),
    of A's shape, and pivots is the increasing list of pivot columns.  The
    rows are {column: value} dicts read off the nonzero entries of A.  Each
    row in turn is reduced against the pivot rows found so far, smallest
    column first, until its leading column has no pivot yet; scaled to a
    leading 1 it becomes that column's pivot row.  Back-substitution in
    decreasing pivot order then clears every other pivot column from each
    pivot row.  The reduced row echelon form of a matrix is unique, so R is
    the one any Gauss-Jordan pivot order gives.
    """
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    at_row, at_col = np.nonzero(A)
    rows = [{} for _ in range(m)]
    for i, j, v in zip(at_row.tolist(), at_col.tolist(), (A[at_row, at_col] % p).tolist()):
        if v:
            rows[i][j] = v
    piv = {}
    for row in rows:
        while row:
            c = min(row)
            prow = piv.get(c)
            if prow is None:
                inv = _inv_mod(row[c], p)
                piv[c] = row if inv == 1 else {j: v * inv % p for j, v in row.items()}
                break
            _sub_multiple(row, row[c], prow, p)
    pivots = sorted(piv)
    for c in reversed(pivots):
        row = piv[c]
        for j in [j for j in row if j != c and j in piv]:
            _sub_multiple(row, row[j], piv[j], p)
    R = np.zeros((m, n), dtype=np.int64)
    for i, c in enumerate(pivots):
        row = piv[c]
        R[i, list(row)] = list(row.values())
    return R, pivots


def _sub_multiple(row, f, prow, p):
    """row -= f * prow (mod p), in place, dropping the entries that vanish."""
    for j, v in prow.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            del row[j]


def rank(A, p):
    if A.size == 0:
        return 0
    return len(rref_transform(A, p)[1])


def kernel_basis(A, p):
    """Rows of the result form a basis of {x : A x = 0 (mod p)}."""
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    R, pivots = rref_transform(A, p)
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[: len(pivots)][:, free]).T % p
    return basis


def solve(A, b, p):
    """One solution x of A x = b (mod p), or None.  b may be a vector or a
    matrix of stacked column targets (then a solution matrix is returned,
    and None means some column has no solution)."""
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    B = b[:, None] if b.ndim == 1 else b
    n = A.shape[1]
    R, pivots = rref_transform(np.concatenate([A, B], axis=1), p)
    if pivots and pivots[-1] >= n:
        return None
    x = np.zeros((n, B.shape[1]), dtype=np.int64)
    x[pivots] = R[: len(pivots), n:]
    return x[:, 0] if b.ndim == 1 else x


def solve_with_certificate(A, b, p):
    """Solve A x = b (mod p).

    Returns (x, None) on success.  On failure returns (None, y) where y is a
    cokernel functional: y @ A == 0 and y @ b != 0, an exact witness that no
    solution exists.  y is the first row of kernel_basis(A.T) with y @ b != 0,
    and y @ A == 0 is checked by a matrix product before y is returned.
    """
    x = solve(A, b, p)
    if x is not None:
        return x, None
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    y = next((y for y in kernel_basis(A.T, p) if ((y @ b) % p).any()), None)
    if y is None:
        raise RuntimeError("certificate check failed: no y with y @ A == 0 has y @ b != 0")
    if ((y @ A) % p).any():
        raise RuntimeError("certificate check failed: y @ A != 0")
    return None, y


def row_space_contains(rows, v, p):
    if rows.size == 0:
        return not np.any(np.asarray(v) % p)
    stacked = np.vstack([rows, np.asarray(v, dtype=np.int64) % p])
    return rank(stacked, p) == rank(rows, p)


def complex_dims(mats, p):
    """Cohomology dimensions of the cochain complex whose j-th differential
    has the matrix mats[j]: dim ker mats[0], then dim(ker mats[j] / im
    mats[j-1]) for each later j.  Raises ValueError when some mats[j] @
    mats[j-1] is not zero, i.e. the maps do not form a complex."""
    dims = []
    prev_rank = 0
    for j, A in enumerate(mats):
        if j and ((A @ mats[j - 1]) % p).any():
            raise ValueError("image of map %d is not contained in the kernel of map %d" % (j - 1, j))
        r = rank(A, p)
        dims.append(int(A.shape[1]) - r - prev_rank)
        prev_rank = r
    return dims


def intersection_dim(U, V, p):
    """dim(span U intersect span V)."""
    du, dv = rank(U, p), rank(V, p)
    if du == 0 or dv == 0:
        return 0
    dsum = rank(np.vstack([U, V]), p)
    return du + dv - dsum


class FpLinearMap:
    """A concrete F_p-linear map, stored as (codomain_dim x domain_dim)."""

    def __init__(self, mat, p):
        self.mat = np.asarray(mat, dtype=np.int64) % p
        self.p = p

    @property
    def domain_dim(self):
        return self.mat.shape[1]

    @property
    def codomain_dim(self):
        return self.mat.shape[0]

    def apply(self, vec):
        v = np.asarray(vec, dtype=np.int64) % self.p
        if self.mat.size == 0:
            return np.zeros(self.codomain_dim, dtype=np.int64)
        return (self.mat @ v) % self.p

    def compose(self, other):
        """self after other."""
        if self.p != other.p:
            raise ValueError("cannot compose maps over F_%d and F_%d" % (self.p, other.p))
        return FpLinearMap((self.mat @ other.mat) % self.p, self.p)

    def image_rows(self):
        """Row-span generating set for the image (columns transposed)."""
        return self.mat.T % self.p

    def rank(self):
        return rank(self.mat, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, FpLinearMap)
            and self.p == other.p
            and self.mat.shape == other.mat.shape
            and bool(np.all(self.mat == other.mat))
        )


def flatten(images, cod, p):
    """The (cod.dim(), len(images)) matrix whose k-th column is the
    coordinate vector of images[k] in the flat space `cod`.  `images` may be
    any iterable.  A zero matrix is filled part by part: a `BlockSpace` part
    goes to its key's offset, so only the parts an image has are written."""
    images = list(images)
    out = np.zeros((len(images), cod.dim()), dtype=np.int64)
    for row, z in zip(out, images):
        _fill(row, cod, z, p)
    return out.T


def _fill(vec, space, elem, p):
    """Write the coordinates of elem in `space` into the zero vector vec."""
    if isinstance(space, BlockSpace):
        n = space.inner.dim()
        for key, part in space.split(elem):
            at = space.at(key)
            _fill(vec[at : at + n], space.inner, part, p)
        return
    c = space.coords(elem)
    if len(c) != len(vec):
        raise ValueError("%d coordinates for a space of dimension %d" % (len(c), len(vec)))
    vec[:] = c
    vec %= p


def matrix_of_map(domain_basis, apply_fn, cod, p):
    """Flatten an additive map to an FpLinearMap.

    domain_basis: F_p-basis elements of the domain.
    apply_fn: the map, applied to one basis element.
    cod: the flat codomain space (exposes coords and dim).
    """
    return FpLinearMap(flatten((apply_fn(b) for b in domain_basis), cod, p), p)


class BlockSpace:
    """Flat F_p coordinates for a direct sum of copies of one flat space.

    `keys` index the copies and `inner` is the space of each copy; an
    element's coordinates are the inner coordinates of its parts laid out
    key-major, key k at offset (position of k) * inner.dim().  `split(elem)`
    yields the element's (key, inner element) parts and `join(parts)` builds
    an element from a dict key -> inner element (missing keys are zero).
    """

    def __init__(self, keys, inner, split, join):
        self.keys = list(keys)
        self.inner = inner
        self.split = split
        self.join = join
        self.p = inner.p
        n = inner.dim()
        self.offset = {k: i * n for i, k in enumerate(self.keys)}

    def dim(self):
        return len(self.keys) * self.inner.dim()

    def basis_elems(self):
        for k in self.keys:
            for b in self.inner.basis_elems():
                yield self.join({k: b})

    def at(self, key):
        """The offset of key's copy; a ValueError names a key outside."""
        at = self.offset.get(key)
        if at is None:
            span = "%r .. %r" % (self.keys[0], self.keys[-1]) if self.keys else "none"
            raise ValueError("part %r lies outside this space (keys %s)" % (key, span))
        return at

    def coords(self, elem):
        vec = np.zeros(self.dim(), dtype=np.int64)
        _fill(vec, self, elem, self.p)
        return vec.tolist()

    def from_coords(self, vec):
        n = self.inner.dim()
        return self.join(
            {k: self.inner.from_coords(vec[at : at + n]) for k, at in self.offset.items()}
        )


def tuple_space(inner, n, zero):
    """inner^n as a BlockSpace on n-tuples; `zero` fills the absent parts."""
    return BlockSpace(
        range(n), inner, enumerate, lambda parts: tuple(parts.get(k, zero) for k in range(n))
    )


class StructureError(ValueError):
    """Raised when a map handed in as additive/semilinear fails the check."""


def artin_schreier_map(domain, codomain, pth_power):
    """Flatten x -> x^p - x to an FpLinearMap between two flat spaces.

    `domain` and `codomain` expose basis_elems() / coords() / dim() / p, and
    their elements support +, unary -, and integer scalar multiplication.
    pth_power is the p-power map of the ambient structure; additivity and
    F_p-homogeneity are spot-checked on basis pairs before trusting it.
    """
    p = domain.p
    basis = list(domain.basis_elems())
    if len(basis) >= 2:
        a, b = basis[0], basis[1]
        if codomain.coords(pth_power(a + b)) != codomain.coords(pth_power(a) + pth_power(b)):
            raise StructureError("p-power map is not additive on basis pair")
        for c in range(2, p):
            if codomain.coords(pth_power(c * a)) != codomain.coords(c * pth_power(a)):
                raise StructureError("p-power map does not fix F_p-scalars")

    def ap(x):
        return pth_power(x) + (-x)

    return matrix_of_map(basis, ap, codomain, p)
