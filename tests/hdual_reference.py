"""The symbolic dual tail map: the reference the index-arithmetic assembly in
`frobext.skew.h_dual_matrix` must match.

`hdual_matrix` pushes every basis vector of the unknowns (s, t_1, ..., t_d)
through `h_dual_apply` with `matrix_of_map`, as `in_image_hdual` did before
its matrix was assembled by index arithmetic.  `hdual_system` sizes the
spaces as `in_image_hdual` does and returns that matrix with the target's
coordinates: the system A x = b that an `hdual-membership` report answers.
"""

from frobext.linalg import keyed, matrix_of_map, tuple_space
from frobext.poly import PolySpace
from frobext.skew import h_dual_apply

from dense import coords


def hdual_matrix(ring, window, dom_poly, cod_poly):
    lo, hi = window
    dom = tuple_space(keyed(range(lo, hi + 1), dom_poly), ring.d + 1, {})
    cod = keyed(range(lo, hi + 2), cod_poly)
    return matrix_of_map(dom.basis_elems(), lambda st: h_dual_apply(ring, st[0], st[1:]), cod, cod.p).mat


def hdual_system(ring, target, window, degree_bound):
    p, B = ring.field.p, degree_bound
    top = max((f.total_degree() for f in target.values()), default=0)
    dom_poly = PolySpace.total_degree(ring, B)
    cod_poly = PolySpace.total_degree(ring, max(p * B, B + 1, top))
    b = coords(keyed(range(window[0], window[1] + 2), cod_poly), target)
    return hdual_matrix(ring, window, dom_poly, cod_poly), b
