"""Exact F_p linear algebra, cross-checked against brute-force enumeration."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobext import linalg
from frobext.artinian import ArtinianAlgebra
from frobext.cartier import (
    ConeComplex,
    FreeTarget,
    cone_window,
    standard_module,
)
from frobext.koszul import KoszulComplex
from frobext.linalg import (
    StructureError,
    artin_schreier_map,
    complex_dims,
    flatten,
    intersection_dim,
    kernel_basis,
    keyed,
    matrix_of_map,
    product,
    rank,
    row_space_contains,
    rref_transform,
    solve,
    solve_with_certificate,
    tuple_space,
)
from frobext.poly import PolySpace, ring_over
from frobext.skew import FreeSkewElem, graded_skew_space

from dense import sparse


def brute_kernel_count(A, p):
    """Count kernel vectors by trying every input (oracle for small shapes)."""
    n = A.shape[1]
    count = 0
    for vec in itertools.product(range(p), repeat=n):
        if not ((A @ np.array(vec, dtype=np.int64)) % p).any():
            count += 1
    return count


def brute_solvable(A, b, p):
    n = A.shape[1]
    for vec in itertools.product(range(p), repeat=n):
        if (((A @ np.array(vec, dtype=np.int64)) - b) % p == 0).all():
            return np.array(vec, dtype=np.int64)
    return None


small_matrices = st.integers(2, 3).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(st.integers(0, 6), min_size=16, max_size=16),
    )
)


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_kernel_dimension_matches_enumeration(data):
    p, m, n, flat = data
    A = np.array(flat[: m * n], dtype=np.int64).reshape(m, n) % p
    ker = kernel_basis(sparse(A, p), p)
    assert brute_kernel_count(A, p) == p ** ker.shape[0]
    for row in np.asarray(ker):
        assert not ((A @ row) % p).any()


@given(small_matrices, st.lists(st.integers(0, 6), min_size=4, max_size=4))
@settings(max_examples=120, deadline=None)
def test_solve_agrees_with_enumeration(data, bflat):
    p, m, n, flat = data
    A = np.array(flat[: m * n], dtype=np.int64).reshape(m, n) % p
    b = np.array(bflat[:m], dtype=np.int64) % p
    x = solve(sparse(A, p), b, p)
    witness = brute_solvable(A, b, p)
    assert (x is None) == (witness is None)
    if x is not None:
        assert (((A @ x) - b) % p == 0).all()


@given(small_matrices, st.lists(st.integers(0, 6), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_unsat_certificate_is_a_cokernel_functional(data, bflat):
    p, m, n, flat = data
    A = np.array(flat[: m * n], dtype=np.int64).reshape(m, n) % p
    b = np.array(bflat[:m], dtype=np.int64) % p
    x, cert = solve_with_certificate(sparse(A, p), b, p)
    if x is None:
        # cert kills every column of A but not b: a proof of unsolvability
        assert not ((cert @ A) % p).any()
        assert (cert @ b) % p != 0
    else:
        assert cert is None
        assert (((A @ x) - b) % p == 0).all()


@given(small_matrices, st.integers(1, 3), st.lists(st.integers(0, 6), min_size=12, max_size=12))
@settings(max_examples=120, deadline=None)
def test_solve_with_stacked_targets_agrees_with_enumeration(data, k, bflat):
    p, m, n, flat = data
    A = np.array(flat[: m * n], dtype=np.int64).reshape(m, n) % p
    B = np.array(bflat[: m * k], dtype=np.int64).reshape(m, k) % p
    X = solve(sparse(A, p), sparse(B, p), p)
    solvable = all(brute_solvable(A, B[:, c], p) is not None for c in range(k))
    assert (X is not None) == solvable
    if X is not None:
        assert X.shape == (n, k)
        assert (((A @ X) - B) % p == 0).all()


def test_unsat_certificate_is_checked_independently(monkeypatch):
    # x = 0 and x = 1 over F_2: the left kernel of A is spanned by (1, 1)
    p = 2
    A = sparse(np.array([[1], [1]], dtype=np.int64), p)
    b = np.array([0, 1], dtype=np.int64)
    assert solve_with_certificate(A, b, p)[1] == [1, 1]
    monkeypatch.setattr(linalg, "kernel_basis", lambda At, p: linalg.SparseMatrix([{1: 1}], 2))
    with pytest.raises(RuntimeError, match=r"y @ A != 0"):
        solve_with_certificate(A, b, p)
    monkeypatch.setattr(linalg, "kernel_basis", lambda At, p: linalg.SparseMatrix([{}], 2))
    with pytest.raises(RuntimeError, match=r"y @ b != 0"):
        solve_with_certificate(A, b, p)


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


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(0, 9),
    st.integers(0, 9),
    st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 1.0]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=400, deadline=None)
def test_row_sparse_rref_matches_dense_gauss_jordan(p, m, n, density, unreduced, seed):
    rng = np.random.default_rng(seed)
    if unreduced:
        # any integers, multiples of p included: reduction mod p is the eliminator's
        vals = rng.integers(-3 * p, 3 * p, size=(m, n))
    else:
        vals = rng.integers(1, p, size=(m, n))  # nonzero mod p: density 1.0 is fully dense
    A = vals * (rng.random((m, n)) < density)
    R, pivots = rref_transform(sparse(A, p), p)
    R0, pivots0 = dense_rref(A, p)
    assert pivots == pivots0
    r = len(pivots)
    # R holds the nonzero rows of the reduced row echelon form
    assert R.shape == (r, n) and not R0[r:].any()
    assert (np.asarray(R) == R0[:r]).all()
    assert all(0 < v < p for row in R.rows for v in row.values())
    ker = kernel_basis(sparse(A, p), p)
    if n:
        dense = dense_kernel_rows(R0, pivots0, p)
        assert ker.shape == dense.shape and (np.asarray(ker) == dense).all()
    else:
        assert ker.shape == (0, 0)


def dense_rank(A, p):
    return len(dense_rref(A, p)[1])


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 1.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_sparse_matrices_match_the_dense_oracles(p, m, n, k, density, seed):
    rng = np.random.default_rng(seed)

    def draw(rows, cols):  # residues, zero with probability 1 - density
        return rng.integers(1, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)

    A, B, U = draw(m, n), draw(m, k), draw(k, n)
    S = sparse(A, p)
    assert S.shape == (m, n) and (np.asarray(S) == A).all()
    assert S.T == sparse(A.T, p)
    assert all(0 < v < p for row in S.rows for v in row.values())
    assert (np.asarray(S.first_columns(n // 2)) == A[:, : n // 2]).all()

    R, pivots = rref_transform(S, p)
    R0, pivots0 = dense_rref(A, p)
    r = len(pivots0)
    assert pivots == pivots0 and R.shape == (r, n)
    assert (np.asarray(R) == R0[:r]).all()
    assert rank(S, p) == r
    ker = kernel_basis(S, p)
    assert isinstance(ker, linalg.SparseMatrix)
    if n:
        assert (np.asarray(ker) == dense_kernel_rows(R0, pivots0, p)).all()
    assert ker.shape == (n - r, n)

    # one target: the solution and the certificate are the ones the dense
    # reduced row echelon forms of [A | b] and A.T give
    b = B[:, 0]
    x, y = solve_with_certificate(S, b.tolist(), p)
    Rb, pivb = dense_rref(np.hstack([A, b[:, None]]), p)
    if n not in pivb:
        assert y is None and solve(S, b.tolist(), p) == x
        want = np.zeros(n, dtype=np.int64)
        want[pivb] = Rb[: len(pivb), n]
        assert x == want.tolist()
    else:
        assert x is None and solve(S, b.tolist(), p) is None
        Rt, pivt = dense_rref(A.T, p)
        first = next(row for row in dense_kernel_rows(Rt, pivt, p) if (row @ b) % p)
        assert y == first.tolist()
        assert not ((np.array(y) @ A) % p).any()

    # stacked targets
    X = solve(S, sparse(B, p), p)
    RB, pivB = dense_rref(np.hstack([A, B]), p)
    if pivB and pivB[-1] >= n:
        assert X is None
        assert solve_with_certificate(S, sparse(B, p), p)[0] is None
    else:
        want = np.zeros((n, k), dtype=np.int64)
        want[pivB] = RB[: len(pivB), n:]
        assert X.shape == (n, k) and (np.asarray(X) == want).all()
        assert solve_with_certificate(S, sparse(B, p), p)[0] == X

    # a two-map complex: the rows of the second span the left kernel of A
    Rt, pivt = dense_rref(A.T, p)
    left = dense_kernel_rows(Rt, pivt, p) if m else np.zeros((0, 0), dtype=np.int64)
    mats = [S, sparse(left, p)]
    assert complex_dims(mats, p) == [n - r, m - dense_rank(left, p) - r]

    assert intersection_dim(sparse(U, p), S, p) == (
        dense_rank(U, p) + r - dense_rank(np.vstack([U, A]), p)
    )
    assert (np.asarray(product(S, sparse(U.T, p), p)) == (A @ U.T) % p).all()  # n x k on the right


def test_row_sparse_rref_on_large_sparse_and_dense_matrices():
    rng = np.random.default_rng(3)
    for p, (m, n), density in ((2, (120, 80), 0.02), (3, (60, 90), 0.05), (5, (40, 40), 1.0)):
        A = rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < density)
        R, pivots = rref_transform(sparse(A, p), p)
        R0, pivots0 = dense_rref(A, p)
        assert pivots == pivots0 and (np.asarray(R) == R0[: len(pivots)]).all()


def test_rref_transform_certifies_itself():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        for _ in range(20):
            A = rng.integers(0, p, size=(4, 5))
            R, pivots = rref_transform(sparse(A, p), p)
            r = len(pivots)
            R = np.asarray(R)
            assert R.shape == (r, A.shape[1])  # only the nonzero rows
            assert (R[:, pivots] == np.eye(r, dtype=np.int64)).all()
            # R's rows lie in A's row space and span all of it
            assert rank(sparse(np.vstack([A, R]), p), p) == r == rank(sparse(A, p), p)


def test_row_space_contains():
    p = 2
    rows = sparse(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64), p)
    assert row_space_contains(rows, np.array([1, 1, 0]), p)
    assert not row_space_contains(rows, np.array([0, 0, 1]), p)


def test_intersection_dim_by_enumeration():
    p = 2
    U = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int64)
    V = np.array([[1, 1, 1]], dtype=np.int64)
    # members of both spans, brute forced
    span = lambda B: {
        tuple((c @ B) % p) for c in itertools.product(range(p), repeat=B.shape[0])
    }
    both = span(U) & span(V)
    assert p ** intersection_dim(sparse(U, p), sparse(V, p), p) == len(both)


class _PairSpace:
    """Two-dimensional F_p coordinate space over plain numpy vectors."""

    def __init__(self, p):
        self.p = p

    def dim(self):
        return 2

    def basis_elems(self):
        return [np.array([1, 0], dtype=np.int64), np.array([0, 1], dtype=np.int64)]

    def coords(self, v):
        return [int(v[0]) % self.p, int(v[1]) % self.p]


def test_matrix_of_map_on_explicit_basis():
    p = 3
    basis = [(1, 0), (0, 1)]
    swap = matrix_of_map(basis, lambda v: (v[1], 2 * v[0]), _PairSpace(p), p)
    assert (np.asarray(swap.mat) == np.array([[0, 1], [2, 0]])).all()
    assert rank(swap.mat, p) == 2


def test_artin_schreier_map_requires_semilinearity():
    space = _PairSpace(2)
    good = artin_schreier_map(
        domain=space,
        codomain=space,
        pth_power=lambda v: v,
    )
    assert good.mat.shape == (2, 2)
    assert not np.asarray(good.mat).any()  # F = identity makes F - id the zero map
    with pytest.raises(StructureError):
        artin_schreier_map(
            domain=space,
            codomain=space,
            pth_power=lambda v: v + 1,  # not additive
        )


def test_linear_map_composition_and_image():
    p = 2
    A = sparse(np.array([[1, 1], [0, 1]], dtype=np.int64), p)
    B = sparse(np.array([[1, 0], [1, 1]], dtype=np.int64), p)
    assert (np.asarray(product(A, B, p)) == (np.asarray(A) @ np.asarray(B)) % p).all()
    # an explicit raise, which holds under python -O
    with pytest.raises(ValueError, match="cannot multiply 2 x 2 by 3 x 3"):
        product(A, sparse(np.eye(3, dtype=np.int64), p), p)


# -- the composite flat spaces ------------------------------------------------
# Each builder returns (space, element with a part outside the space).


def _cone_window():
    ring = ring_over(2, 1, 1)
    cone = ConeComplex(standard_module(ArtinianAlgebra(ring, (2,))))
    # spot 1 has a C part (the empty wedge) and a D part; F-degree 2 > dfmax 1
    return cone_window(cone, 1, 2, 1), {("D", (0,), 0, 2): ring.one}


def _hom_artinian():
    module = standard_module(ArtinianAlgebra(ring_over(3, 1, 1), (2,)))
    space = ConeComplex(module).hom_space(1, module.space())
    # a twisted-part key of spot 2
    return space, {("C", (0,), 0, (0,)): module.basis_gen()}


def _hom_free():
    ring = ring_over(2, 1, 1)
    cone = ConeComplex(standard_module(ArtinianAlgebra(ring, (2,))))
    # a plain-part key of spot 0
    return cone.hom_space(1, FreeTarget(ring).space(2)), {("D", (), 0): ring.one}


def _seq_window():
    ring = ring_over(2, 2, 1)
    space = keyed(range(-1, 2), PolySpace.total_degree(ring, 1))
    return space, {2: ring.one}


def _graded_skew(twist):
    def build():
        module = standard_module(ArtinianAlgebra(ring_over(2, 1, 1), (2,)))
        outside = FreeSkewElem(module, {3: module.basis_gen()}, twist)
        return graded_skew_space(module, 2, twist), outside

    return build


def _tuple_box():
    ring = ring_over(3, 1, 2)
    space = standard_module(ArtinianAlgebra(ring, (2, 1)), rank=2).space()
    return space, (ring.zero, ring.zero, ring.one)


def _shift_window():
    ring = ring_over(3, 1, 1)
    space = keyed(range(-1, 2), PolySpace.total_degree(ring, 1))
    return space, {-2: ring.one}


def _koszul_tuple():
    ring = ring_over(2, 1, 2)
    x, y = ring.gens()
    K = KoszulComplex(ring, [x**2, y])
    space = tuple_space(PolySpace.box(ring, 2), K.rank(1), ring.zero)
    return space, (ring.zero,) * K.rank(1) + (x,)


COMPOSITE_SPACES = {
    "cone-window": _cone_window,
    "hom-artinian": _hom_artinian,
    "hom-free": _hom_free,
    "seq-window": _seq_window,
    "graded-skew-0": _graded_skew(0),
    "graded-skew-1": _graded_skew(1),
    "tuple-box": _tuple_box,
    "shift-window": _shift_window,
    "koszul-tuple": _koszul_tuple,
}


@pytest.mark.parametrize("name", sorted(COMPOSITE_SPACES))
def test_composite_space_layout(name):
    space, outside = COMPOSITE_SPACES[name]()
    n = space.dim()
    basis = list(space.basis_elems())
    assert len(basis) == n > 0
    for k, b in enumerate(basis):
        assert space.coords(b) == [int(i == k) for i in range(n)]
    rng = random.Random(7)
    vec = [rng.randrange(space.p) for _ in range(n)]
    x = space.from_coords(vec)
    assert space.coords(x) == vec
    assert space.from_coords(space.coords(x)) == x
    assert space.from_row({i: v for i, v in enumerate(vec) if v}) == x
    with pytest.raises(ValueError):
        space.coords(outside)


def test_flatten_zero_shapes():
    ring = ring_over(3, 1, 1)
    cod = PolySpace.box(ring, 2)
    assert flatten([], cod, 3).shape == (cod.dim(), 0)
    assert flatten(iter([]), cod, 3).shape == (cod.dim(), 0)
    empty = tuple_space(cod, 0, ring.zero)
    assert flatten([(), (), ()], empty, 3).shape == (0, 3)
    x = ring.gens()[0]
    assert (flatten([x, 2 * x + 1], cod, 3) == np.array([[0, 1], [1, 2]])).all()


@pytest.mark.parametrize("name", sorted(COMPOSITE_SPACES))
def test_flatten_fills_by_parts_and_locates_outside_parts(name):
    space, outside = COMPOSITE_SPACES[name]()
    rng = random.Random(11)
    vecs = [[rng.randrange(space.p) for _ in range(space.dim())] for _ in range(3)]
    mat = flatten([space.from_coords(v) for v in vecs], space, space.p)
    assert isinstance(mat, linalg.SparseMatrix)
    assert mat.shape == (space.dim(), 3)
    assert (np.asarray(mat) == np.array(vecs, dtype=np.int64).T).all()
    # the sparse fill raises the same located error as coords
    with pytest.raises(ValueError) as from_coords_:
        space.coords(outside)
    with pytest.raises(ValueError, match=r"^part .+ lies outside this space \(keys .+\)$") as from_flatten:
        flatten([space.from_coords(vecs[0]), outside], space, space.p)
    assert str(from_flatten.value) == str(from_coords_.value)


def test_flatten_rejects_coordinates_of_the_wrong_length():
    class Short(_PairSpace):
        def coords(self, v):
            return [int(v[0]) % self.p]

    with pytest.raises(ValueError, match="1 coordinates for a space of dimension 2"):
        flatten([np.array([1, 0])], Short(3), 3)
    # inside a block the inner space's slot is checked the same way
    with pytest.raises(ValueError, match="1 coordinates for a space of dimension 2"):
        flatten([(np.array([1, 0]),)], tuple_space(Short(3), 1, None), 3)


def brute_complex_dims(mats, p):
    """Cohomology dimensions by enumerating every cocycle and coboundary."""
    dims = []
    for j, A in enumerate(mats):
        vecs = [np.array(v, dtype=np.int64) for v in itertools.product(range(p), repeat=A.shape[1])]
        cocycles = sum(1 for v in vecs if not ((A @ v) % p).any())
        if j == 0:
            coboundaries = 1
        else:
            prev = mats[j - 1]
            coboundaries = len({
                tuple((prev @ np.array(v, dtype=np.int64)) % p)
                for v in itertools.product(range(p), repeat=prev.shape[1])
            })
        dim = 0
        while p ** dim * coboundaries < cocycles:
            dim += 1
        assert p ** dim * coboundaries == cocycles
        dims.append(dim)
    return dims


def test_complex_dims_on_exact_complex():
    # 0 -> F_3 -> F_3^2 -> F_3 -> 0 with d0 = (1, 1)^T and d1 = (1, -1)
    p = 3
    mats = [
        np.array([[1], [1]], dtype=np.int64),
        np.array([[1, 2]], dtype=np.int64),
        np.zeros((0, 1), dtype=np.int64),
    ]
    assert complex_dims([sparse(A, p) for A in mats], p) == brute_complex_dims(mats, p) == [0, 0, 0]
    with pytest.raises(ValueError):  # d1 . d0 != 0: not a complex
        complex_dims([sparse(mats[0], p), sparse([[1, 1]], p)], p)


def test_complex_dims_counts_homology():
    # F_2 --(1,0)^T--> F_2^2 --0--> 0: the image is span{(1,0)} inside all of F_2^2
    p = 2
    mats = [np.array([[1], [0]], dtype=np.int64), np.zeros((0, 2), dtype=np.int64)]
    assert complex_dims([sparse(A, p) for A in mats], p) == brute_complex_dims(mats, p) == [0, 1]
    # the same with nothing mapping in: all of F_2^2 survives
    mats = [np.zeros((2, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)]
    assert complex_dims([sparse(A, p) for A in mats], p) == brute_complex_dims(mats, p) == [0, 2]
    with pytest.raises(ValueError):  # (1, 0) . (1, 0)^T != 0: not a complex
        complex_dims([sparse([[1], [0]], p), sparse([[1, 0]], p)], p)


@pytest.mark.parametrize("p,a,b", [(2, 2, 3), (3, 1, 2), (3, 3, 2)])
def test_complex_dims_on_koszul_complex_of_a_power(p, a, b):
    # Hom of the Koszul complex R --x^a--> R into A = F_p[x]/(x^b)
    ring = ring_over(p, 1, 1)
    (x,) = ring.gens()
    f = KoszulComplex(ring, [x**a]).differential({(0,): 1})[()]
    alg = ArtinianAlgebra(ring, (b,))
    mats = [np.asarray(alg.action_matrix(f).mat), np.zeros((0, alg.dim_fp()), dtype=np.int64)]
    assert complex_dims([sparse(A, p) for A in mats], p) == brute_complex_dims(mats, p) == [min(a, b)] * 2
