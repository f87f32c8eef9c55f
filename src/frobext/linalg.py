"""Exact linear algebra over the prime field F_p, and the flat layout of
direct sums.

Matrices are `SparseMatrix`es: one {column: value} dict per row holding the
nonzero entries, reduced to 1..p-1, plus the shape.  Every question is one
deterministic Gaussian elimination (`rref_transform`, which keeps no
transform matrix), so solve / kernel / image / quotient answers are
reproducible bit-for-bit.  The elimination works on those row dicts and
returns the pivot rows of the unique reduced row echelon form.  Solutions
and certificates are int lists.  An unsolvable system comes back with a
cokernel functional: the first row y of `kernel_basis(A.T)` with y @ b != 0,
checked to satisfy y @ A == 0.

Nothing here needs numpy, and every function takes and returns
`SparseMatrix`es only; vectors (right-hand sides, solutions, certificates,
flat coordinates) are int lists.  `SparseMatrix.__array__`, which imports
numpy when it is called, is kept for readers outside the runtime path: the
benchmark's tracer and the tests' dense oracles.

`BlockSpace` is the one home of the flat layout: every direct sum of copies
of a leaf coordinate space (cone windows, Hom values, sequence windows,
graded skew truncations, tuples) is a `BlockSpace`, `flatten` turns a list of
its elements into the matrix of their coordinate columns (writing each part
at its key's offset), and `complex_dims` reads cohomology dimensions off a
list of such matrices.
"""

from __future__ import annotations

from itertools import compress


class SparseMatrix:
    """An m x n matrix over F_p: rows[i] is a {column: value} dict of row i's
    nonzero entries, each in 1..p-1."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols):
        self.rows = rows
        self.ncols = ncols

    @property
    def shape(self):
        return (len(self.rows), self.ncols)

    @property
    def T(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return SparseMatrix(cols, len(self.rows))

    def first_columns(self, k):
        """The m x k matrix of the first k columns."""
        return SparseMatrix([{j: v for j, v in row.items() if j < k} for row in self.rows], k)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return "SparseMatrix(%d x %d, %d nonzero)" % (
            len(self.rows), self.ncols, sum(map(len, self.rows)))

    def __array__(self, dtype=None, copy=None):
        import numpy as np

        out = np.zeros(self.shape, dtype=np.int64 if dtype is None else dtype)
        for i, row in enumerate(self.rows):
            if row:
                out[i, list(row)] = list(row.values())
        return out


def _sparse_row(vec, p):
    return {j: x for j, v in enumerate(vec) if (x := int(v) % p)}


def _dense(row, n):
    vec = [0] * n
    for j, v in row.items():
        vec[j] = v
    return vec


def _inv_mod(c, p):
    return pow(int(c), p - 2, p)


def rref_transform(A, p):
    """Reduced row echelon form, by row-sparse elimination.

    Returns (R, pivots): pivots is the increasing list of pivot columns and R
    the SparseMatrix of the nonzero rows of A's reduced row echelon form (mod
    p), R.rows[i] holding the leading 1 at pivots[i].  Each row of A in turn
    is reduced against the pivot rows found so far (`_echelon`); back-
    substitution in decreasing pivot order then clears every other pivot
    column from each pivot row.  The reduced row echelon form of a matrix is
    unique, so R is the one any Gauss-Jordan pivot order gives, whatever
    order A's rows are taken in.
    """
    piv = _echelon(A.rows, p, {})
    pivots = sorted(piv)
    for c in reversed(pivots):
        row = piv[c]
        for j in [j for j in row if j != c and j in piv]:
            _sub_multiple(row, row[j], piv[j], p)
    return SparseMatrix([piv[c] for c in pivots], A.ncols), pivots


def _echelon(rows, p, piv):
    """Reduce a copy of each of `rows` against the pivot rows `piv` (pivot
    column -> row whose smallest column is that one, with a 1 there),
    smallest column first, until its leading column has no pivot row; scaled
    to a leading 1 it becomes that column's pivot row.  Rows that reduce to
    zero are dropped.  Returns piv, grown in place; its rows are not
    changed."""
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            prow = piv.get(c)
            if prow is None:
                inv = _inv_mod(row[c], p)
                piv[c] = row if inv == 1 else {j: v * inv % p for j, v in row.items()}
                break
            _sub_multiple(row, row[c], prow, p)
    return piv


def _sub_multiple(row, f, prow, p):
    """row -= f * prow (mod p), in place, dropping the entries that vanish."""
    for j, v in prow.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            del row[j]


def _combine(y, rows, p):
    """sum_i y[i] * rows[i] (mod p) for a {row index: coefficient} dict y, as
    a {column: value} dict of the nonzero entries."""
    out = {}
    for i, c in y.items():
        for j, v in rows[i].items():
            out[j] = out.get(j, 0) + c * v
    return {j: x for j, v in out.items() if (x := v % p)}


def product(A, B, p):
    """A @ B (mod p)."""
    if A.ncols != len(B.rows):
        raise ValueError("cannot multiply %d x %d by %d x %d" % (A.shape + B.shape))
    return SparseMatrix([_combine(row, B.rows, p) for row in A.rows], B.ncols)


def rank(A, p):
    return len(rref_transform(A, p)[1])


def kernel_basis(A, p):
    """Rows of the result form a basis of {x : A x = 0 (mod p)}: one row per
    non-pivot column f, in increasing f, with a 1 at f and minus column f of
    the pivot rows at the pivot columns."""
    n = A.ncols
    R, pivots = rref_transform(A, p)
    pivset = set(pivots)
    free = [f for f in range(n) if f not in pivset]
    basis = {f: {f: 1} for f in free}
    for c, row in zip(pivots, R.rows):
        for j, v in row.items():
            if j != c:
                basis[j][c] = p - v
    return SparseMatrix([basis[f] for f in free], n)


def _targets(A, b, p):
    """The right-hand side b of A x = b as an m x k SparseMatrix, and whether
    b stacks k column targets (a SparseMatrix) rather than being one vector
    (a sequence of ints)."""
    stacked = isinstance(b, SparseMatrix)
    B = b if stacked else SparseMatrix([_sparse_row([v], p) for v in b], 1)
    if len(B.rows) != len(A.rows):
        raise ValueError("%d right-hand side rows for %d equations" % (len(B.rows), len(A.rows)))
    return B, stacked


def solve(A, b, p):
    """One solution x of A x = b (mod p), or None.  For a vector b, x is an
    int list.  For stacked column targets b, x is the SparseMatrix of the
    solutions' columns, and None means some column has no solution."""
    B, stacked = _targets(A, b, p)
    n = A.ncols
    aug = [dict(row) for row in A.rows]
    for row, brow in zip(aug, B.rows):
        for k, v in brow.items():
            row[n + k] = v
    R, pivots = rref_transform(SparseMatrix(aug, n + B.ncols), p)
    if pivots and pivots[-1] >= n:
        return None
    X = [{} for _ in range(n)]
    for c, row in zip(pivots, R.rows):
        X[c] = {j - n: v for j, v in row.items() if j >= n}
    if stacked:
        return SparseMatrix(X, B.ncols)
    return [x.get(0, 0) for x in X]


def solve_with_certificate(A, b, p):
    """Solve A x = b (mod p).

    Returns (x, None) on success, x as `solve` gives it.  On failure returns
    (None, y) where y is a cokernel functional, an int list: y @ A == 0 and
    y @ b != 0, an exact witness that no solution exists.  y is the first
    row of kernel_basis(A.T) with y @ b != 0, and y @ A == 0 is checked by
    combining A's rows before y is returned.
    """
    x = solve(A, b, p)
    if x is not None:
        return x, None
    B, _ = _targets(A, b, p)
    y = next((y for y in kernel_basis(A.T, p).rows if _combine(y, B.rows, p)), None)
    if y is None:
        raise RuntimeError("certificate check failed: no y with y @ A == 0 has y @ b != 0")
    if _combine(y, A.rows, p):
        raise RuntimeError("certificate check failed: y @ A != 0")
    return None, _dense(y, len(A.rows))


def row_space_contains(rows, v, p):
    R, pivots = rref_transform(rows, p)
    return len(_echelon([_sparse_row(v, p)], p, dict(zip(pivots, R.rows)))) == len(pivots)


def complex_dims(mats, p):
    """Cohomology dimensions of the cochain complex whose j-th differential
    has the matrix mats[j]: dim ker mats[0], then dim(ker mats[j] / im
    mats[j-1]) for each later j.  Raises ValueError when some mats[j] @
    mats[j-1] is not zero, i.e. the maps do not form a complex."""
    dims = []
    prev_rank = 0
    for j, A in enumerate(mats):
        if j and any(product(A, mats[j - 1], p).rows):
            raise ValueError("image of map %d is not contained in the kernel of map %d" % (j - 1, j))
        r = rank(A, p)
        dims.append(A.ncols - r - prev_rank)
        prev_rank = r
    return dims


def intersection_dim(U, V, p):
    """dim(span U intersect span V), for the row spans.  V is eliminated
    once and U's rows are then reduced against V's pivot rows: each that
    does not vanish adds one to dim(span U + span V)."""
    du = rank(U, p)
    R, pivots = rref_transform(V, p)
    if du == 0 or not pivots:
        return 0
    dsum = len(_echelon(U.rows, p, dict(zip(pivots, R.rows))))
    return du + len(pivots) - dsum


class FpLinearMap:
    """A flattened map: `mat` is its (codomain_dim x domain_dim) SparseMatrix.
    `matrix_of_map` returns this holder rather than the bare matrix only
    because the benchmark's tracer reads `.mat` off its result."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        self.mat = mat


def flatten(images, cod, p):
    """The (cod.dim(), len(images)) matrix whose k-th column is the
    coordinate vector of images[k] in the flat space `cod`.  `images` may be
    any iterable.  Each column is filled part by part: a `BlockSpace` part
    goes to its key's offset, so only the parts an image has are written."""
    n = cod.dim()
    cols = []
    for z in images:
        col = {}
        _fill(col, 0, n, cod, z, p)
        cols.append(col)
    return SparseMatrix(cols, n).T


def reembed(rows, dom, amb):
    """The rows (coordinates in the BlockSpace `dom`) re-expressed in `amb`,
    a BlockSpace with each of dom's keys whose PolySpace copies hold each of
    dom's monomials: coordinate (key, monomial, F_q digit) of dom moves to
    the same (key, monomial, digit) of amb.  This is flatten(dom.from_coords
    of each row) into amb, as an index map."""
    inner, wide = dom.inner, amb.inner
    e = inner.e
    moved = [wide.index[m] * e + k for m in inner.mons for k in range(e)]
    to = [amb.at(key) + i for key in dom.keys for i in moved]
    return SparseMatrix([{to[j]: v for j, v in row.items()} for row in rows.rows], amb.dim())


def _fill(out, at, n, space, elem, p):
    """Write the nonzero coordinates of elem in `space`, of dimension n, into
    the dict `out`, shifted by `at`.  A leaf space that has `coord_items`
    gives its nonzero coordinates directly; the dense `coords` of any other
    is scanned for them."""
    if isinstance(space, BlockSpace):
        inner = space.inner.dim()
        for key, part in space.split(elem):
            _fill(out, at + space.at(key), inner, space.inner, part, p)
        return
    if hasattr(space, "coord_items"):
        pairs = space.coord_items(elem)
    else:
        c = space.coords(elem)
        if len(c) != n:
            raise ValueError("%d coordinates for a space of dimension %d" % (len(c), n))
        pairs = zip(compress(range(n), c), compress(c, c))
    for i, v in pairs:
        x = v % p
        if x:
            out[at + i] = x


def matrix_of_map(domain_basis, apply_fn, cod, p):
    """Flatten an additive map to an FpLinearMap.

    domain_basis: F_p-basis elements of the domain.
    apply_fn: the map, applied to one basis element.
    cod: the flat codomain space (exposes coords and dim).
    """
    return FpLinearMap(flatten((apply_fn(b) for b in domain_basis), cod, p))


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
        inner = list(self.inner.basis_elems())
        for k in self.keys:
            for b in inner:
                yield self.join({k: b})

    def at(self, key):
        """The offset of key's copy; a ValueError names a key outside."""
        at = self.offset.get(key)
        if at is None:
            span = "%r .. %r" % (self.keys[0], self.keys[-1]) if self.keys else "none"
            raise ValueError("part %r lies outside this space (keys %s)" % (key, span))
        return at

    def coords(self, elem):
        n = self.dim()
        out = {}
        _fill(out, 0, n, self, elem, self.p)
        return _dense(out, n)

    def from_coords(self, vec):
        """The element with coordinates vec."""
        return self.from_row(dict(zip(compress(range(len(vec)), vec), compress(vec, vec))))

    def from_row(self, row):
        """The element whose nonzero coordinates are the {index: value} dict
        `row` (a row of a SparseMatrix); a part with no entry in row is left
        out, and `join` reads it as zero."""
        n = self.inner.dim()
        cuts = {}
        for i, v in row.items():
            cuts.setdefault(i // n, {})[i % n] = v
        return self.join(
            {self.keys[b]: self.inner.from_coords(_dense(part, n)) for b, part in sorted(cuts.items())}
        )


def keyed(keys, inner):
    """Flat coordinates for key -> inner element dicts (absent keys are zero)."""
    return BlockSpace(keys, inner, dict.items, dict)


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
