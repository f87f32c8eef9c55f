"""Monomial Artinian quotients A = R/(x1^a1, ..., xd^ad) and the direct-limit
module E = lim A_n whose elements are written (r; x1^n, ..., xd^n).

E-elements are stored as (numerator, level) pairs.  The canonical form keeps
the smallest level at which the element is representable; the transition from
level n to level m multiplies the numerator by (x1...xd)^(m-n).
"""

from __future__ import annotations

from .linalg import matrix_of_map
from .poly import MultiPoly, PolySpace, monomials_box


class ArtinianAlgebra:
    """R/(x1^a1, ..., xd^ad).  An exponent of 0 gives the zero algebra."""

    def __init__(self, ring, exponents):
        exponents = tuple(exponents)
        if len(exponents) != ring.d:
            raise ValueError("need one exponent per variable")
        if any(a < 0 for a in exponents):
            raise ValueError("exponents must be >= 0")
        self.ring = ring
        self.exponents = exponents
        self.dim_fq = 1
        for a in exponents:
            self.dim_fq *= a
        self.space = PolySpace(ring, monomials_box(ring.d, exponents))

    def reduce(self, f):
        """The normal form: drop every monomial with some exponent >= a_i.

        For a pure-power monomial ideal this is exactly reduction mod the
        ideal, and it is multiplicative: reduce(f*g) == reduce(reduce(f)*g).
        """
        f = self.ring.coerce(f)
        ex = self.exponents
        keep = {
            e: c for e, c in f.terms.items() if all(b < a for b, a in zip(e, ex))
        }
        return MultiPoly(self.ring, keep)

    def multiply(self, f, g):
        return self.reduce(self.ring.coerce(f) * g)

    def action_matrix(self, f):
        """Multiplication by f on the monomial basis, flattened over F_p."""
        return matrix_of_map(
            self.space.basis_elems(), lambda b: self.multiply(f, b), self.space, self.ring.field.p
        )

    def basis_elems(self):
        return self.space.basis_elems()

    def dim_fp(self):
        return self.space.dim()

    def __repr__(self):
        gens = ", ".join(
            "%s^%d" % (n, a) if a != 1 else n
            for n, a in zip(self.ring.var_names, self.exponents)
        )
        return "%r/(%s)" % (self.ring, gens)


class ERing:
    """Bookkeeping for E over a fixed polynomial ring (d >= 1 variables)."""

    def __init__(self, ring):
        if ring.d < 1:
            raise ValueError("E needs at least one variable")
        self.ring = ring
        self.xprod = ring.one
        for g in ring.gens():
            self.xprod = self.xprod * g

    def algebra(self, n):
        return ArtinianAlgebra(self.ring, (n,) * self.ring.d)

    def reduce(self, f, n):
        """f mod (x1^n, ..., xd^n): algebra(n).reduce(f) without building the
        algebra and its monomial box."""
        return MultiPoly(self.ring, {e: c for e, c in f.terms.items() if max(e) < n})

    def elem(self, numer, level):
        if level < 1:
            raise ValueError("level must be >= 1")
        numer = self.reduce(self.ring.coerce(numer), level)
        return EElem(self, level, numer)

    def zero(self):
        return EElem(self, 1, self.ring.zero)

    def socle(self, coeff=1):
        """(coeff; x1, ..., xd): the level-1 stratum."""
        return self.elem(self.ring.coerce(coeff), 1)

    def top_generator(self, level):
        return self.elem(self.ring.one, level)


class EElem:
    __slots__ = ("ering", "level", "numer")

    def __init__(self, ering, level, numer):
        self.ering = ering
        self.level = level
        self.numer = numer  # reduced mod (x1^level, ..., xd^level)

    def raise_to(self, m):
        """The same element presented at level m >= level."""
        if m < self.level:
            raise ValueError("cannot lower the level here; use normalize()")
        if m == self.level:
            return self
        # times (x1...xd)^k is k more on every exponent, then the level-m box
        k = m - self.level
        shifted = {tuple(a + k for a in e): c for e, c in self.numer.terms.items()}
        numer = self.ering.reduce(MultiPoly(self.ering.ring, shifted), m)
        return EElem(self.ering, m, numer)

    def normalize(self):
        """Smallest-level presentation; the zero element is (0; level 1)."""
        numer = self.numer
        level = self.level
        while True:
            if not numer:
                return EElem(self.ering, 1, self.ering.ring.zero)
            if level == 1:
                return EElem(self.ering, level, numer)
            if any(min(e) == 0 for e in numer.terms):
                return EElem(self.ering, level, numer)
            numer = MultiPoly(
                self.ering.ring,
                {tuple(a - 1 for a in e): c for e, c in numer.terms.items()},
            )
            level -= 1

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        if not isinstance(other, EElem):
            return NotImplemented
        m = max(self.level, other.level)
        a, b = self.raise_to(m), other.raise_to(m)
        return EElem(self.ering, m, self.ering.reduce(a.numer + b.numer, m))

    __radd__ = __add__

    def __neg__(self):
        return EElem(self.ering, self.level, -self.numer)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Scalar action of integers / field elements."""
        return EElem(self.ering, self.level, self.numer * other)

    __rmul__ = __mul__

    def act(self, f):
        """Module action of a ring element f."""
        numer = self.ering.reduce(self.numer * f, self.level)
        return EElem(self.ering, self.level, numer)

    def pth_power(self):
        """(r; x^n) -> (r^p; x^(np))."""
        p = self.ering.ring.field.p
        numer = self.ering.reduce(self.numer.frobenius(), self.level * p)
        return EElem(self.ering, self.level * p, numer)

    def __bool__(self):
        return bool(self.normalize().numer)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not bool(self)
        if not isinstance(other, EElem):
            return NotImplemented
        a, b = self.normalize(), other.normalize()
        return a.level == b.level and a.numer == b.numer

    def __hash__(self):
        a = self.normalize()
        return hash((a.level, frozenset((e, c.val) for e, c in a.numer.terms.items())))

    def __repr__(self):
        a = self.normalize()
        ring = self.ering.ring
        dens = ", ".join(
            "%s^%d" % (n, a.level) if a.level != 1 else n for n in ring.var_names
        )
        return "(%s; %s)" % (ring.format(a.numer), dens)


class ELevelSpace:
    """The F_p-space of E-elements representable at level <= n."""

    def __init__(self, ering, n):
        self.ering = ering
        self.n = n
        self.p = ering.ring.field.p
        self.box = ering.algebra(n).space  # the numerators at level n

    def dim(self):
        return self.box.dim()

    def basis_elems(self):
        for f in self.box.basis_elems():
            yield EElem(self.ering, self.n, f)

    def coords(self, z):
        z = z.normalize()
        if z.level > self.n:
            raise ValueError(
                "element needs level %d but the space is capped at %d" % (z.level, self.n)
            )
        return self.box.coords(z.raise_to(self.n).numer)

    def from_coords(self, vec):
        return EElem(self.ering, self.n, self.box.from_coords(vec))
