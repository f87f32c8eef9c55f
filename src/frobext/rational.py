"""Bounded slices of the rational function field F_q(t).

A slice is determined by a squarefree monic denominator D, a pole-order bound
N and a polynomial-degree bound B; its F_q-basis is

    { t^i : i <= B }  union  { t^i / D^j : 1 <= j <= N, 0 <= i < deg D }

(the D-adic digit basis; it spans the same space as listing partial fractions
by the roots of D, but needs no root-finding).  Elements are kept as exact
fractions numer / D^level, and coordinates are computed by division with
remainder followed by base-D digit expansion.
"""

from __future__ import annotations

from .poly import MultiPoly, PolySpace


def u_degree(f):
    return f.total_degree()


def u_divmod(f, g):
    """Division with remainder of univariate polynomials, any nonzero g."""
    ring = f.ring
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    quo = ring.zero
    rem = f
    dg = u_degree(g)
    lead_inv = g.terms[(dg,)].inverse()
    while rem and u_degree(rem) >= dg:
        dr = u_degree(rem)
        c = rem.terms[(dr,)] * lead_inv
        shift = ring.monomial((dr - dg,), c)
        quo = quo + shift
        rem = rem - shift * g
    return quo, rem


def u_gcd(f, g):
    while g:
        _, r = u_divmod(f, g)
        f, g = g, r
    if f:
        lead = f.terms[(u_degree(f),)]
        f = f * lead.inverse()
    return f


def u_derivative(f):
    ring = f.ring
    terms = {}
    for (a,), c in f.terms.items():
        if a:
            cc = c * a
            if cc:
                terms[(a - 1,)] = cc
    return MultiPoly(ring, terms)


def is_squarefree(f):
    """Char-p safe: f squarefree iff gcd(f, f') = 1 (a vanishing derivative
    means f is a p-th power, caught by gcd(f, 0) = f)."""
    d = u_derivative(f)
    if not d:
        return u_degree(f) <= 0
    return u_degree(u_gcd(f, d)) == 0


def is_monic(f):
    return bool(f) and f.terms[(u_degree(f),)] == f.ring.field.one


class RationalFn:
    """numer / D^level over a fixed denominator base D."""

    __slots__ = ("base", "numer", "level")

    def __init__(self, base, numer, level=0):
        self.base = base  # the RationalBase
        self.numer = numer
        self.level = level

    def raise_to(self, m):
        if m < self.level:
            raise ValueError("use cancellation, not raise_to, to lower levels")
        return RationalFn(self.base, self.numer * self.base.D ** (m - self.level), m)

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        m = max(self.level, other.level)
        return RationalFn(self.base, self.raise_to(m).numer + other.raise_to(m).numer, m)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(self.base, -self.numer, self.level)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Scalar (int / field element) multiplication."""
        return RationalFn(self.base, self.numer * other, self.level)

    __rmul__ = __mul__

    def pth_power(self):
        p = self.base.ring.field.p
        return RationalFn(self.base, self.numer.frobenius(), self.level * p)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.numer
        m = max(self.level, other.level)
        return self.raise_to(m).numer == other.raise_to(m).numer

    def __bool__(self):
        return bool(self.numer)

    def __repr__(self):
        ring = self.base.ring
        if self.level == 0:
            return ring.format(self.numer)
        return "(%s)/(%s)^%d" % (ring.format(self.numer), ring.format(self.base.D), self.level)


class RationalBase:
    def __init__(self, ring, D):
        if ring.d != 1:
            raise ValueError("rational slices are univariate")
        D = ring.coerce(D)
        if u_degree(D) < 1:
            raise ValueError("denominator base must be nonconstant")
        if not is_monic(D):
            raise ValueError("denominator base must be monic")
        if not is_squarefree(D):
            raise ValueError("denominator base must be squarefree")
        self.ring = ring
        self.D = D

    def fn(self, numer, level=0):
        return RationalFn(self, self.ring.coerce(numer), level)


class BoundedRationalSpace:
    """The F_p-flattened slice with pole bound N and degree bound B: the
    PolySpace of t^0..t^B, then one PolySpace box of D-adic digits (degree <
    deg D) over each pole D^j, j = 1..N."""

    def __init__(self, base, N, B):
        self.base = base
        self.N = N
        self.B = B
        self.ring = base.ring
        self.p = self.ring.field.p
        self.poly = PolySpace.total_degree(self.ring, B)
        self.digit = PolySpace.box(self.ring, u_degree(base.D))

    def _at(self, j):
        """The offset of the digit over D^j."""
        return self.poly.dim() + (j - 1) * self.digit.dim()

    def dim(self):
        return self._at(self.N + 1)

    def basis_elems(self):
        for f in self.poly.basis_elems():
            yield self.base.fn(f, 0)
        for j in range(1, self.N + 1):
            for f in self.digit.basis_elems():
                yield self.base.fn(f, j)

    def coord_items(self, fn):
        """The nonzero coordinates of fn, as (index, value) pairs; raises if
        fn does not lie in the slice."""
        if fn.base is not self.base:
            raise ValueError("element over a different denominator base")
        D = self.base.D
        quo, rem = u_divmod(fn.numer, D ** fn.level) if fn.level else (fn.numer, self.ring.zero)
        if u_degree(quo) > self.B:
            raise ValueError("polynomial part exceeds the degree bound")
        out = self.poly.coord_items(quo)
        # base-D digits of rem, lowest first: rem = sum_l digit_l * D^l, and
        # digit_l sits over the pole D^j, j = level - l
        for j in range(fn.level, 0, -1):
            rem, digit = u_divmod(rem, D)
            if not digit:
                continue
            if j > self.N:
                raise ValueError("pole order %d exceeds the bound %d" % (j, self.N))
            at = self._at(j)
            out.extend((at + i, v) for i, v in self.digit.coord_items(digit))
        if rem:
            raise ValueError("remainder does not expand in the D-adic basis")
        return out
