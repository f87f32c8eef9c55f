"""Sparse multivariate polynomials over F_q, with the p-power endomorphism
and its one-sided inverse (the digit-projection operator used to build
twisted module structures).

Monomials are exponent tuples; terms live in a dict keyed by exponent with
nonzero FieldElem values.  Display order is graded lexicographic, x1 > x2 > ...
"""

from __future__ import annotations

import operator

from .field import FieldElem, GF


def grlex_key(exp):
    return (sum(exp), exp)


class MultiPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # exp tuple -> nonzero FieldElem

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self.ring.coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int) or isinstance(other, FieldElem):
            c = self.ring.field.coerce(other)
            if not c:
                return self.ring.zero
            return MultiPoly(self.ring, {e: c * v for e, v in self.terms.items()})
        other = self.ring.coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                c = c1 * c2
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, FieldElem)):
            other = self.ring.coerce(other)
        return (
            isinstance(other, MultiPoly)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.ring), frozenset((e, c.val) for e, c in self.terms.items())))

    # -- structure -------------------------------------------------------

    def total_degree(self):
        """-1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.d, self.ring.field.zero)

    def frobenius(self):
        """f -> f^p termwise: coefficients^p, exponents*p."""
        p = self.ring.field.p
        return MultiPoly(
            self.ring,
            {tuple(a * p for a in e): c.frobenius() for e, c in self.terms.items()},
        )

    def __repr__(self):
        return self.ring.format(self)


class PolyRing:
    """F_q[x_1, ..., x_d].  d = 0 is allowed and means the field itself."""

    def __init__(self, field, d, var_names=None):
        self.field = field
        self.d = d
        if var_names is None:
            var_names = tuple("x%d" % (i + 1) for i in range(d))
        if len(var_names) != d:
            raise ValueError("expected %d variable names" % d)
        self.var_names = tuple(var_names)
        self.zero = MultiPoly(self, {})
        self.one = MultiPoly(self, {(0,) * d: field.one})
        self._gens = [
            MultiPoly(self, {tuple(int(j == i) for j in range(d)): field.one}) for i in range(d)
        ]

    def gens(self):
        """x_1, ..., x_d, in a fresh list; the elements are shared."""
        return list(self._gens)

    def monomial(self, exp, coeff=None):
        exp = tuple(exp)
        if len(exp) != self.d or any(a < 0 for a in exp):
            raise ValueError("bad exponent tuple %r" % (exp,))
        c = self.field.one if coeff is None else self.field.coerce(coeff)
        if not c:
            return self.zero
        return MultiPoly(self, {exp: c})

    def coerce(self, x):
        if isinstance(x, MultiPoly):
            if x.ring is not self:
                raise ValueError("polynomial from a different ring")
            return x
        if isinstance(x, (int, FieldElem)):
            c = self.field.coerce(x)
            return MultiPoly(self, {(0,) * self.d: c} if c else {})
        raise TypeError("cannot coerce %r into %r" % (x, self))

    # -- the digit-projection operator ------------------------------------

    def cartier(self, f):
        """The p^(-1)-semilinear projection picking out the top Frobenius
        digit: a term b*x^m contributes b^(1/p) * x^((m-(p-1))/p) exactly when
        every exponent of m is congruent to p-1 mod p, and is dropped
        otherwise.

        Identities (tested): cartier(x^(p-1,...,p-1) * g^p) == g and
        cartier(r^p * f) == r * cartier(f).
        """
        p = self.field.p
        out = {}
        for e, coeff in self.coerce(f).terms.items():
            if all(a % p == p - 1 for a in e):
                out[tuple((a - (p - 1)) // p for a in e)] = coeff.pth_root()
        return MultiPoly(self, out)

    def frobenius_digits(self, f):
        """Write f = sum_a (w_a)^p * x^a over the digit set a in [0, p-1]^d.

        Returns a dict a -> w_a (nonzero entries only).  This is the unique
        decomposition of f in the rank-p^d free module over the subring of
        p-th powers.
        """
        p = self.field.p
        out = {}
        for e, coeff in self.coerce(f).terms.items():
            a = tuple(x % p for x in e)
            m = tuple(x // p for x in e)
            w = out.setdefault(a, {})
            c = coeff.pth_root()
            s = w.get(m)
            s = c if s is None else s + c
            if s:
                w[m] = s
            else:
                w.pop(m, None)
        return {a: MultiPoly(self, w) for a, w in out.items() if w}

    # -- parsing and formatting -------------------------------------------

    def parse(self, text):
        return _PolyParser(self, text).parse()

    def format(self, f):
        f = self.coerce(f)
        if not f.terms:
            return "0"
        parts = []
        for e in sorted(f.terms, key=grlex_key, reverse=True):
            c = f.terms[e]
            mono = "*".join(
                ("%s" % n if a == 1 else "%s^%d" % (n, a))
                for n, a in zip(self.var_names, e)
                if a
            )
            cs = self.field.format_elem(c)
            if not mono:
                parts.append("(%s)" % cs if " " in cs else cs)
            elif c == self.field.one:
                parts.append(mono)
            else:
                parts.append("(%s)*%s" % (cs, mono) if " " in cs else "%s*%s" % (cs, mono))
        return " + ".join(parts)

    def __repr__(self):
        if self.d == 0:
            return "F_%d" % self.field.q
        return "F_%d[%s]" % (self.field.q, ",".join(self.var_names))


class _PolyParser:
    """Tiny recursive-descent parser for polynomial literals such as
    ``w*x1^2*x2 + (1+w)*x2 + 2``.  Whitespace is free."""

    def __init__(self, ring, text):
        self.ring = ring
        self.text = text
        self.pos = 0

    def parse(self):
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise self._error("unexpected trailing input")
        return value

    def _error(self, msg):
        return ValueError("%s at column %d in %r" % (msg, self.pos + 1, self.text))

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self):
        sign = 1
        ch = self._peek()
        if ch in "+-":
            self.pos += 1
            sign = -1 if ch == "-" else 1
        value = self._term() * sign
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                value = value + self._term()
            elif ch == "-":
                self.pos += 1
                value = value - self._term()
            else:
                return value

    def _term(self):
        value = self._factor()
        while self._peek() == "*":
            self.pos += 1
            value = value * self._factor()
        return value

    def _factor(self):
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            return base ** self._int()
        return base

    def _atom(self):
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            value = self._expr()
            if self._peek() != ")":
                raise self._error("expected ')'")
            self.pos += 1
            return value
        if ch.isdigit():
            return self.ring.coerce(self._int())
        if ch.isalpha() or ch == "_":
            name = self._name()
            if name == self.ring.field.gen_name and self.ring.field.e > 1:
                return self.ring.coerce(self.ring.field.gen)
            if name in self.ring.var_names:
                i = self.ring.var_names.index(name)
                return self.ring.monomial(tuple(1 if j == i else 0 for j in range(self.ring.d)))
            raise self._error("unknown name %r" % name)
        raise self._error("expected a polynomial atom")

    def _int(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self._error("expected an integer")
        return int(self.text[start : self.pos])

    def _name(self):
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start : self.pos]


# -- flat F_p coordinate spaces of bounded polynomials ----------------------


def monomials_total_degree(d, cap):
    """All exponent tuples of total degree <= cap, graded-lex ascending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for a in range(remaining + 1):
            rec(prefix + [a], remaining - a, slots - 1)

    rec([], cap, d)
    return sorted(out, key=grlex_key)


def monomials_box(d, caps):
    """All exponent tuples with e_i < caps[i], graded-lex ascending."""
    out = [()]
    for cap in caps:
        out = [e + (a,) for e in out for a in range(cap)]
    return sorted(out, key=grlex_key)


class PolySpace:
    """Finite-dimensional F_p-space of polynomials spanned by a fixed
    monomial list tensored with the F_q power basis."""

    def __init__(self, ring, monomial_list):
        self.ring = ring
        self.p = ring.field.p
        self.mons = list(monomial_list)
        self.index = {m: i for i, m in enumerate(self.mons)}
        self.e = ring.field.e

    @classmethod
    def total_degree(cls, ring, cap):
        return cls(ring, monomials_total_degree(ring.d, cap))

    @classmethod
    def box(cls, ring, caps):
        if isinstance(caps, int):
            caps = (caps,) * ring.d
        return cls(ring, monomials_box(ring.d, caps))

    def dim(self):
        return len(self.mons) * self.e

    def basis_elems(self):
        field = self.ring.field
        for m in self.mons:
            for k in range(self.e):
                coeff = field.from_coords(tuple(1 if j == k else 0 for j in range(self.e)))
                yield self.ring.monomial(m, coeff)

    def coords(self, f):
        vec = [0] * self.dim()
        for i, v in self.coord_items(f):
            vec[i] = v
        return vec

    def coord_items(self, f):
        """The nonzero coordinates of f, as (index, value) pairs."""
        f = self.ring.coerce(f)
        out = []
        for exp, c in f.terms.items():
            i = self.index.get(exp)
            if i is None:
                raise ValueError(
                    "polynomial has a monomial %r outside this space" % (exp,)
                )
            out.extend((i * self.e + k, ck) for k, ck in enumerate(c.val) if ck)
        return out

    def from_coords(self, vec):
        field = self.ring.field
        terms = {}
        for i, m in enumerate(self.mons):
            coeff = field.from_coords(tuple(int(vec[i * self.e + k]) % self.p for k in range(self.e)))
            if coeff:
                terms[m] = coeff
        return MultiPoly(self.ring, terms)


class FieldSpace(PolySpace):
    """F_q itself, as the d-variable polynomial space of constants."""

    def __init__(self, field):
        super().__init__(PolyRing(field, 0), [()])


def add_at(out, key, v):
    """out[key] += v, dropping the key when the sum vanishes: the one merge
    step of every key -> polynomial dict (sequences, cone elements, skew
    terms)."""
    if key in out:
        v = out[key] + v
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def random_poly(ring, mons, rng, density):
    """A seeded random polynomial on the monomial list `mons`: each monomial,
    in list order, is kept when rng.random() < density and then gets e random
    F_p coordinates.  Seeded structures and samples depend on this draw order."""
    field = ring.field
    f = ring.zero
    for m in mons:
        if rng.random() < density:
            f = f + ring.monomial(m, field.from_coords([rng.randrange(field.p) for _ in range(field.e)]))
    return f


def ring_over(p, e=1, d=1, var_names=None):
    """Convenience constructor used all over the tests and the CLI."""
    return PolyRing(GF(p, e), d, var_names)
