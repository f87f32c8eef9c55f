"""Exact linear algebra over the prime field F_p, and the flat layout of
direct sums.

Matrices are `SparseMatrix`es: one {column: value} dict per row holding the
nonzero entries, reduced to 1..p-1, plus the shape.  Every question is one
deterministic Gaussian elimination (`rref_transform`, which keeps no
transform matrix), so solve / kernel / image / quotient answers are
reproducible bit-for-bit.  The elimination works on those row dicts and
returns the pivot rows of the unique reduced row echelon form.  An
unsolvable system comes back with a cokernel functional y, checked: y @ A ==
0 and y @ b != 0: the first row of `kernel_basis(A.T)` with y @ b != 0,
written alone (`_cokernel_row`).

Nothing here needs numpy.  Every vector (right-hand sides, solutions,
certificates, flat coordinates) is a row: a {index: value} dict of its
nonzeros, and several vectors are the rows of a `SparseMatrix`.
`SparseMatrix.__array__`, which imports numpy when it is called, serves the
benchmark's tracer and the tests' dense oracles.

`BlockSpace` is the one home of the flat layout: every direct sum of copies
of a leaf coordinate space (cone windows, Hom values, sequence windows,
graded skew truncations, tuples) is a `BlockSpace`, and every leaf space
gives an element's nonzero coordinates as `coord_items`.  `coordinate_rows`
writes elements as rows (writing each part at its key's offset), `flatten`
is its transpose, `from_row` reads a row back, and `complex_dims` reads
cohomology dimensions off a list of matrices.
"""

from __future__ import annotations


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


def _inv_mod(c, p):
    return pow(int(c), p - 2, p)


def rref_transform(A, p):
    """Reduced row echelon form, by row-sparse elimination.

    Returns (R, pivots): pivots is the increasing list of pivot columns and R
    the SparseMatrix of the nonzero rows of A's reduced row echelon form (mod
    p), R.rows[i] holding the leading 1 at pivots[i].  Each row of A in turn
    is reduced against the pivot rows found so far (`echelon`, which stops
    at full column rank), and `_back_substitute` then clears every other
    pivot column from each pivot row.  The reduced row echelon form of a
    matrix is unique, so R is the one any Gauss-Jordan pivot order gives,
    whatever order A's rows are taken in.
    """
    return _back_substitute(echelon(A.rows, p, {}, A.ncols), A.ncols, p)


def _back_substitute(piv, ncols, p):
    """`rref_transform`'s (R, pivots) from `echelon`'s pivot rows, in
    decreasing pivot order; the rows of piv are reduced in place."""
    pivots = sorted(piv)
    for c in reversed(pivots):
        row = piv[c]
        for j in [j for j in row if j != c and j in piv]:
            _sub_multiple(row, row[j], piv[j], p)
    return SparseMatrix([piv[c] for c in pivots], ncols), pivots


def echelon(rows, p, piv, width=None):
    """Reduce a copy of each of `rows` against the pivot rows `piv` (pivot
    column -> row whose smallest column is that one, with a 1 there),
    smallest column first, until its leading column has no pivot row; scaled
    to a leading 1 it becomes that column's pivot row.  Rows that reduce to
    zero are dropped, and once all `width` columns have pivot rows every
    later row would, so none is taken.  Returns piv, grown in place; its
    rows are not changed."""
    for row in rows:
        if len(piv) == width:
            break
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
    """The number of pivots that `echelon` finds; no back-substitution."""
    return len(echelon(A.rows, p, {}, A.ncols))


def kernel_basis(A, p):
    """Rows of the result form a basis of {x : A x = 0 (mod p)}: one row per
    non-pivot column f, in increasing f, with a 1 at f and minus column f of
    the pivot rows at the pivot columns.  With a pivot in every column the
    basis is empty, and no back-substitution is done."""
    n = A.ncols
    piv = echelon(A.rows, p, {}, n)
    if len(piv) == n:
        return SparseMatrix([], n)
    R, pivots = _back_substitute(piv, n, p)
    free = [f for f in range(n) if f not in piv]
    basis = {f: {f: 1} for f in free}
    for c, row in zip(pivots, R.rows):
        for j, v in row.items():
            if j != c:
                basis[j][c] = p - v
    return SparseMatrix([basis[f] for f in free], n)


def solve(A, B, p):
    """One solution of A x = b (mod p) for each target b, or None when some
    target has none.  The targets are the rows of the SparseMatrix B, one
    column per equation; the solutions are the rows of the SparseMatrix
    returned."""
    n, cols = A.ncols, B.rows
    if B.ncols != len(A.rows):
        raise ValueError("%d right-hand side rows for %d equations" % (B.ncols, len(A.rows)))
    # rref_transform copies the rows it reduces, so a row that no target hits is shared
    aug = list(A.rows)
    for k, col in enumerate(cols):
        for r, v in col.items():
            if aug[r] is A.rows[r]:
                aug[r] = dict(aug[r])
            aug[r][n + k] = v
    R, pivots = rref_transform(SparseMatrix(aug, n + len(cols)), p)
    if pivots and pivots[-1] >= n:
        return None
    X = [{} for _ in cols]
    for c, row in zip(pivots, R.rows):
        for j, v in row.items():
            if j >= n:
                X[j - n][c] = v
    return SparseMatrix(X, n)


def solve_with_certificate(A, B, p):
    """Solve A x = b (mod p) for the targets b, the rows of B.

    Returns (X, None) on success, X as `solve` gives it.  On failure returns
    (None, y) where y is a cokernel functional, a {row: value} dict of its
    nonzeros: y @ A == 0 and y @ b != 0 for some target b, an exact witness
    that no solution exists.  y is the first row of kernel_basis(A.T) with y
    @ b != 0 (`_cokernel_row`), and both properties are checked by combining
    rows before y is returned.
    """
    X = solve(A, B, p)
    if X is not None:
        return X, None
    y = _cokernel_row(A, B.rows, p)
    if y is None:
        raise RuntimeError("certificate check failed: no y with y @ A == 0 has y @ b != 0")
    if not any(sum(c * col.get(r, 0) for r, c in y.items()) % p for col in B.rows):
        raise RuntimeError("certificate check failed: y @ b == 0")
    if _combine(y, A.rows, p):
        raise RuntimeError("certificate check failed: y @ A != 0")
    return None, y


def _cokernel_row(A, cols, p):
    """The first row y of kernel_basis(A.T) with y @ b != 0, or None, for
    b's targets `cols`, b_0 .. b_(k-1).  Row f is 1 at f and p - R_i[f] at
    each pivot c_i of A.T's reduced form R, so y @ b_k = b_k[f] - w_k[f] for
    w_k = sum_i b_k[c_i] * R_i (zero at the pivots): f is the least index
    where some w_k and b_k differ."""
    R, pivots = rref_transform(A.T, p)
    at = {c: i for i, c in enumerate(pivots)}
    differ = []
    for col in cols:
        w = _combine({at[r]: v for r, v in col.items() if r in at}, R.rows, p)
        differ.extend(r for r in w.keys() | col.keys() if (w.get(r, 0) - col.get(r, 0)) % p)
    f = min(differ, default=None)
    if f is None:
        return None
    return {f: 1, **{c: p - v for c, row in zip(pivots, R.rows) if (v := row.get(f))}}


def support(row):
    """A {index: value} row as [index, value] pairs, by index: the form in
    which reports write certificates."""
    return [[i, row[i]] for i in sorted(row)]


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


class FpLinearMap:
    """A flattened map: `mat` is its (codomain_dim x domain_dim) SparseMatrix.
    `matrix_of_map` returns this holder rather than the bare matrix only
    because the benchmark's tracer reads `.mat` off its result."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        self.mat = mat


def coordinate_rows(elems, space, p):
    """The matrix whose k-th row holds the nonzero coordinates of the k-th of
    `elems` (any iterable) in the flat space `space`: the targets of `solve`.
    A `BlockSpace` part goes to its key's offset, so only the parts an
    element has are written."""
    return SparseMatrix([_fill({}, 0, space, z, p) for z in elems], space.dim())


def flatten(images, cod, p):
    """The (cod.dim(), len(images)) matrix whose k-th column is the
    coordinate vector of images[k] in the flat space `cod`: the transpose
    of `coordinate_rows`."""
    return coordinate_rows(images, cod, p).T


def _fill(out, at, space, elem, p):
    """Write the nonzero coordinates of elem in `space` into the dict `out`,
    shifted by `at`, and return `out`.  A `BlockSpace` writes each part at
    its key's offset; every leaf space gives its nonzero coordinates as
    `coord_items`."""
    if isinstance(space, BlockSpace):
        for key, part in space.split(elem):
            _fill(out, at + space.at(key), space.inner, part, p)
        return out
    for i, v in space.coord_items(elem):
        x = v % p
        if x:
            out[at + i] = x
    return out


def matrix_of_map(domain_basis, apply_fn, cod, p):
    """Flatten an additive map to an FpLinearMap.

    domain_basis: F_p-basis elements of the domain.
    apply_fn: the map, applied to one basis element.
    cod: the flat codomain space (exposes dim, and coord_items or is a BlockSpace).
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

    def from_row(self, row):
        """The element whose nonzero coordinates are the {index: value} dict
        `row` (a row of a SparseMatrix); a part with no entry in row is left
        out, and `join` reads it as zero."""
        n = self.inner.dim()
        cuts = {}
        for i, v in row.items():
            cuts.setdefault(i // n, {})[i % n] = v
        return self.join(
            {self.keys[b]: self.inner.from_row(part) for b, part in sorted(cuts.items())}
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
