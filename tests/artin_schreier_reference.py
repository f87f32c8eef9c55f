"""The symbolic Artin-Schreier matrices: the reference the direct assembly in
`frobext.fmodules.artin_schreier_matrix` must match.

Each function pushes every basis vector of the domain through the symbolic
map with `matrix_of_map`, as the solvers did before the matrices were
assembled by index arithmetic:

* `poly_matrix`: z -> F(z) - z on polynomials of total degree <= deg, into
  total degree <= p*deg (`as-solve` on the ring, and `hom_fr` ring to ring);
* `limit_matrix`: z -> F(z) - z from level n of the limit carrier to level
  n*p (`as-solve` on the limit carrier);
* `hom_limit_matrix`: w -> (x1..xd)^(L(p-1)) * F(w) - w from level L to level
  L*p (`hom_fr` between limit carriers).

`limit_solve` is the limit-carrier solve on the reference matrix, with the
verdict, witness string and certificate the solver reports.
"""

from frobext.artinian import ELevelSpace
from frobext.linalg import matrix_of_map, solve_with_certificate
from frobext.poly import PolySpace


def poly_matrix(ring, deg):
    p = ring.field.p
    space = PolySpace.total_degree(ring, deg)
    big = PolySpace.total_degree(ring, p * deg)
    return matrix_of_map(space.basis_elems(), lambda z: z.frobenius() - z, big, p).mat


def limit_matrix(ering, n):
    p = ering.ring.field.p
    dom, cod = ELevelSpace(ering, n), ELevelSpace(ering, n * p)
    return matrix_of_map(dom.basis_elems(), lambda z: z.pth_power() - z, cod, p).mat


def hom_limit_matrix(ering, L):
    p = ering.ring.field.p
    dom, cod = ELevelSpace(ering, L), ELevelSpace(ering, L * p)
    shift = ering.xprod ** (L * (p - 1))
    return matrix_of_map(dom.basis_elems(), lambda w: w.pth_power().act(shift) - w, cod, p).mat


def limit_solve(ering, u, level_bound):
    """(verdict, witness string or None, certificate or None) for F(z) - z = u
    over level <= max(level_bound, level of u), as `as_solve` on `StdE`
    reports them."""
    p = ering.ring.field.p
    u = u.normalize()
    n = max(level_bound, u.level if u else 1)
    dom, cod = ELevelSpace(ering, n), ELevelSpace(ering, n * p)
    x, cert = solve_with_certificate(limit_matrix(ering, n), cod.coords(u), p)
    if x is None:
        return "UNSAT", None, cert
    return "SAT", repr(dom.from_coords(x)), None
