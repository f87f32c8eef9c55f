"""Checks on the cone and the unit transpose that no task reports.

`ConeComplex` is `frobext.cartier.ConeComplex` with a generator count per
spot, and its `koszul` is the Koszul complex of `koszul_reference`, which
carries the whole-element differential.  `FreeTarget` is the free target R
as a carrier of the dual complex, so that `frobext.cartier._dual_images`
evaluates functionals into it through polynomial products and the Cartier
map: the whole-matrix reference for `ext_dim_free_target`, which computes
the same images by index arithmetic.  `unit_transpose_report` gives the
rank of the unit transpose and `free_transpose_roundtrip` checks that on the
free rank-one module the transpose is digit reversal: `unitalize` reports
only the tower built on that transpose.
"""

from frobext import cartier
from frobext.cartier import _digit_tuples, unit_transpose_map
from frobext.linalg import rank
from frobext.poly import PolySpace

from koszul_reference import KoszulComplex


class ConeComplex(cartier.ConeComplex):
    def __init__(self, module):
        super().__init__(module)
        self.koszul = KoszulComplex(self.ring, self.fs)

    def generator_count(self, n):
        """Wedge-level generators at spot n (twisted + plain)."""
        return self.module.rank * (self.koszul.rank(n - 1) + self.koszul.rank(n))


class FreeTarget:
    """Dual-complex values in the polynomial ring itself, structure map the
    digit projection C.  Flat spaces are degree-capped boxes."""

    def __init__(self, ring):
        self.ring = ring

    def zero(self):
        return self.ring.zero

    def add(self, a, b):
        return a + b

    def eq(self, a, b):
        return a == b

    def act(self, r, v):
        return r * v

    def phi(self, v):
        return self.ring.cartier(v)

    def phi_iter(self, v, k):
        for _ in range(k):
            v = self.phi(v)
        return v

    def space(self, cap):
        # cap is the largest exponent allowed, inclusive
        return PolySpace.box(self.ring, cap + 1)


def unit_transpose_report(module):
    A = unit_transpose_map(module)[0].mat
    m, n = A.shape
    r = rank(A, module.ring.field.p)
    return {"domain_dim": n, "codomain_dim": m, "rank": r, "injective": r == n, "surjective": r == m}


def free_transpose_roundtrip(ring, cap):
    """For the rank-one free module with the plain digit projection, the
    transpose is digit reversal: tau(f)_a = digit_(p-1-a)(f), with inverse
    (m_a) -> sum_a m_a^p x^(p-1-a).  Checked exactly on the capped box."""
    p = ring.field.p
    digits = _digit_tuples(p, ring.d)

    def tau(f):
        return tuple(ring.cartier(ring.monomial(a, ring.field.one) * f) for a in digits)

    def inv(tup):
        acc = ring.zero
        for a, m in zip(digits, tup):
            acc = acc + m.frobenius() * ring.monomial(tuple(p - 1 - ai for ai in a), ring.field.one)
        return acc

    space = PolySpace.box(ring, cap)
    for f in space.basis_elems():
        t = tau(f)
        # digit reversal
        dig = ring.frobenius_digits(f)
        for a, v in zip(digits, t):
            want = dig.get(tuple(p - 1 - ai for ai in a), ring.zero)
            if v != want:
                return False
        if inv(t) != f:
            return False
    # the other composition, on tuples of capped polynomials
    small = PolySpace.box(ring, max(cap // p, 1))
    for k in range(len(digits)):
        for b in small.basis_elems():
            tup = tuple(b if i == k else ring.zero for i in range(len(digits)))
            if tau(inv(tup)) != tup:
                return False
    return True
