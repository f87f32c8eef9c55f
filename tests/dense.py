"""Dense matrices into the one matrix type of `frobext.linalg`, and the
dense elimination oracles.

The tests build their oracles and small examples as numpy arrays or lists of
rows; `linalg` takes only `SparseMatrix`es, so each goes through `sparse`.
`dense_rref` and `dense_kernel_rows` are Gauss-Jordan and the kernel basis on
numpy arrays, written apart from `linalg`'s row-sparse eliminator.
`coords` and `from_coords` write an element of a flat space as a dense
coordinate list and read one back, for spaces whose library form is rows.
`reembed` moves rows into a wider `BlockSpace` layout, for the whole-matrix
references."""

import numpy as np

from frobext.linalg import SparseMatrix, coordinate_rows


def sparse(A, p):
    """A dense matrix (a numpy array or a list of rows) as a SparseMatrix over
    F_p, each entry reduced mod p."""
    rows = A.tolist() if hasattr(A, "tolist") else A
    ncols = A.shape[1] if hasattr(A, "shape") else len(rows[0]) if rows else 0
    return SparseMatrix([{j: x for j, v in enumerate(r) if (x := int(v) % p)} for r in rows], ncols)


def dense_rref(A, p):
    """Dense Gauss-Jordan over F_p (oracle): columns in order, the first
    nonzero entry going down is the pivot, and each pivot column is cleared
    in every other row at once."""
    R = np.array(A, dtype=np.int64) % p
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        pivot = row + int(nz[0])
        if pivot != row:
            R[[row, pivot]] = R[[pivot, row]]
        inv = pow(int(R[row, col]), p - 2, p)
        if inv != 1:
            R[row] = (R[row] * inv) % p
        mask = np.nonzero(R[:, col])[0]
        mask = mask[mask != row]
        if mask.size:
            R[mask] = (R[mask] - R[mask, col][:, None] * R[row]) % p
        pivots.append(col)
        row += 1
    return R, pivots


def dense_kernel_rows(R, pivots, p):
    """One kernel row per free column f, in increasing f: 1 at f, minus the
    pivot rows' entries of column f at the pivot columns, 0 elsewhere."""
    n = R.shape[1]
    rows = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = int(-R[i, f]) % p
        rows.append(v)
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def coords(space, elem):
    """The dense coordinate list of elem in the flat space `space`: its row
    of `coordinate_rows`, written out."""
    row = coordinate_rows([elem], space, space.p).rows[0]
    return [row.get(i, 0) for i in range(space.dim())]


def from_coords(space, vec):
    """The element of the flat space `space` with the dense coordinates vec:
    `from_row` of its nonzeros, or on a `BoundedRationalSpace`, which has no
    `from_row`, its polynomial part plus its D-adic digit over each pole."""
    if hasattr(space, "from_row"):
        return space.from_row({i: x for i, v in enumerate(vec) if (x := int(v) % space.p)})
    n, k = space.poly.dim(), space.digit.dim()
    out = space.base.fn(space.poly.from_coords(vec[:n]), 0)
    for j in range(1, space.N + 1):
        digit = space.digit.from_coords(vec[n + (j - 1) * k : n + j * k])
        if digit:
            out = out + space.base.fn(digit, j)
    return out


def reembed(rows, dom, amb):
    """The rows (coordinates in the BlockSpace `dom`) re-expressed in `amb`,
    a BlockSpace with each of dom's keys whose PolySpace copies hold each of
    dom's monomials: coordinate (key, monomial, F_q digit) of dom moves to
    the same (key, monomial, digit) of amb.  This is flatten(dom.from_row
    of each row) into amb, as an index map."""
    inner, wide = dom.inner, amb.inner
    e = inner.e
    moved = [wide.index[m] * e + k for m in inner.mons for k in range(e)]
    to = [amb.at(key) + i for key in dom.keys for i in moved]
    return SparseMatrix([{to[j]: v for j, v in row.items()} for row in rows.rows], amb.dim())
