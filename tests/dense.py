"""Dense matrices into the one matrix type of `frobext.linalg`.

The tests build their oracles and small examples as numpy arrays or lists of
rows; `linalg` takes only `SparseMatrix`es, so each goes through `sparse`."""

from frobext.linalg import SparseMatrix


def sparse(A, p):
    """A dense matrix (a numpy array or a list of rows) as a SparseMatrix over
    F_p, each entry reduced mod p."""
    rows = A.tolist() if hasattr(A, "tolist") else A
    ncols = A.shape[1] if hasattr(A, "shape") else len(rows[0]) if rows else 0
    return SparseMatrix([{j: x for j, v in enumerate(r) if (x := int(v) % p)} for r in rows], ncols)
