"""Arithmetic in small finite fields F_{p^e}, q = p^e <= MAX_Q.

An element is one int, its code, whose base-p digits (c_0 least significant)
are its coordinates in the power basis of a root ``w`` of a fixed modulus (see
:func:`lowest_irreducible`), so encodings agree across runs.  Each field
builds O(q) tables once from a primitive element g (Lidl and Niederreiter,
*Finite Fields*, ch. 9): g^k, logs, Zech logs log(1 + g^k) for addition,
negation, Frobenius and p-th roots, so every operation is a few lookups.
"""

from __future__ import annotations

from functools import lru_cache

MAX_Q = 1 << 16


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_divmod(num, den, p):
    # den is monic
    num = list(num)
    deg_d = len(den) - 1
    quo = [0] * max(1, len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i] % p
        if c:
            quo[i - deg_d] = c
            for j, dj in enumerate(den):
                num[i - deg_d + j] = (num[i - deg_d + j] - c * dj) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quo, num


def _poly_pow_mod(base, k, f, p):
    acc = [1]
    while k:
        if k & 1:
            acc = _poly_divmod(_poly_mul_mod_p(acc, base, p), f, p)[1]
        base = _poly_divmod(_poly_mul_mod_p(base, base, p), f, p)[1]
        k >>= 1
    return acc


def _poly_gcd(a, b, p):
    a = list(a)
    b = list(b)
    while any(c % p for c in b):
        _, r = _poly_divmod(a, _make_monic(b, p), p)
        a, b = _make_monic(b, p), r
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _make_monic(f, p):
    f = [c % p for c in f]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    lead = f[-1]
    if lead == 1:
        return f
    inv = pow(lead, p - 2, p)
    return [(c * inv) % p for c in f]


def _is_irreducible(f, p):
    """Monic f of degree e >= 1 over F_p.

    Any reducible monic f of degree e has an irreducible factor of some degree
    k < e, and that factor divides gcd(x^(p^k) - x, f).  So f is irreducible
    iff those gcds are trivial for k = 1 .. e-1.
    """
    e = len(f) - 1
    if e == 1:
        return True
    xp = [0, 1]
    for _ in range(1, e):
        xp = _poly_pow_mod(xp, p, f, p)
        diff = list(xp) + [0] * (2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(f, diff, p)) > 1:
            return False
    return True


def _digits(code, p, e):
    out = []
    for _ in range(e):
        code, c = divmod(code, p)
        out.append(c)
    return out


def lowest_irreducible(p, e):
    """The monic irreducible of degree e over F_p whose tail coefficient
    vector (c_0, c_1, ..., c_{e-1}), read as base-p digits of an integer with
    c_0 least significant, is smallest.  For e = 1 this is plain ``x``.
    """
    if e == 1:
        return [0, 1]
    for k in range(p ** e):
        f = _digits(k, p, e) + [1]
        if f[0] == 0:
            continue  # reducible: divisible by x
        if _is_irreducible(f, p):
            return f
    raise ValueError("no irreducible polynomial found (impossible)")


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldElem:
    """An element of F_{p^e}; its field holds one shared instance per code."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def val(self):  # the coordinates (c_0, ..., c_{e-1})
        return tuple(_digits(self.code, self.field.p, self.field.e))

    def __add__(self, other):
        f = self.field
        if other.__class__ is not FieldElem or other.field is not f:
            other = f.coerce(other)
        if not self.code:
            return other
        if not other.code:
            return self
        # g^a + g^b = g^(a + zech(b - a)); a negative index wraps mod q - 1
        log = f._log
        a = log[self.code]
        return f._exp[a + f._zech[log[other.code] - a]]

    __radd__ = __add__

    def __neg__(self):
        return self.field._neg[self.code]

    def __sub__(self, other):
        return self + -self.field.coerce(other)

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not FieldElem or other.field is not f:
            other = f.coerce(other)
        return f._mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        f = self.field
        if not self.code:
            if n < 0:
                raise ZeroDivisionError("inverse of zero in F_q")
            return self if n else f.one
        return f._exp[f._log[self.code] * n % (f.q - 1)]

    def inverse(self):
        if not self.code:
            raise ZeroDivisionError("inverse of zero in F_q")
        f = self.field
        return f._exp[-f._log[self.code] % (f.q - 1)]

    def __truediv__(self, other):
        return self * self.field.coerce(other).inverse()

    def frobenius(self):
        """a -> a^p."""
        return self.field._frob[self.code]

    def pth_root(self):
        """The unique b with b^p = a (Frobenius is bijective)."""
        return self.field._root[self.code]

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.coerce(other)
        return isinstance(other, FieldElem) and self.field is other.field and self.code == other.code

    def __hash__(self):
        return hash((id(self.field), self.code))

    def __repr__(self):
        return self.field.format_elem(self)


class FqSpec:
    """The field F_q with its fixed modulus, generator name and tables."""

    gen_name = "w"

    def __init__(self, p, e):
        if e < 1:
            raise ValueError("e must be >= 1")
        q = 1
        for _ in range(e):
            q *= p
            if q > MAX_Q:
                raise ValueError("q = %d^%d is above the field size cap 2^16" % (p, e))
        if _prime_factors(p) != [p]:
            raise ValueError("p must be prime, got %r" % (p,))
        self.p = p
        self.e = e
        self.q = q
        self.modulus = lowest_irreducible(p, e)
        self._elems = [FieldElem(self, code) for code in range(q)]
        self.zero = self._elems[0]
        self.one = self._elems[1]
        self.gen = self._elems[p] if e > 1 else self.one
        # 1, w, ..., w^(e-1) (code p^k is w^k): the F_p-basis of F_q that
        # every flat space tensors with
        self.power_basis = [self._elems[p**k] for k in range(e)]
        self._build_tables()

    def _build_tables(self):
        p, e, q, n = self.p, self.e, self.q, self.q - 1
        # g: the first code with g^((q-1)/r) != 1 for each prime r | q - 1
        cofactors = [n // r for r in _prime_factors(n)]
        for code in range(1, q):
            g = _digits(code, p, e)
            if all(_poly_pow_mod(g, k, self.modulus, p) != [1] for k in cofactors):
                break
        while g[-1] == 0:
            g.pop()
        # the codes of g^0 .. g^(q-2), multiplying digit lists by g (of low degree)
        gterms = [(i, c) for i, c in enumerate(g) if c]
        tail = [(j, c) for j, c in enumerate(self.modulus[:e]) if c]
        top = e + len(g) - 1
        v = [1] + [0] * (e - 1)
        codes = [1]
        for _ in range(q - 2):
            prod = [0] * top
            for i, gi in gterms:
                for j, vj in enumerate(v):
                    if vj:
                        prod[i + j] += gi * vj
            for t in range(top - 1, e - 1, -1):
                c = prod[t] % p
                if c:
                    for j, mj in tail:
                        prod[t - e + j] -= c * mj
            code = 0
            for j in range(e - 1, -1, -1):
                c = v[j] = prod[j] % p
                code = code * p + c
            codes.append(code)
        # log(0) = 2n - 1 and _exp holds g^k up to k = 2n - 2, then zero: no
        # zero test for a product, nor for a Zech sum with 1 + g^k = 0
        elems, zero = self._elems, self.zero
        log = self._log = [2 * n - 1] * q
        for k, code in enumerate(codes):
            log[code] = k
        exp = self._exp = [elems[codes[k % n]] for k in range(2 * n - 1)] + [zero] * (2 * n)
        # adding 1 changes only the lowest digit
        self._zech = [log[c - c % p + (c + 1) % p] for c in codes]
        # -1 is g^(n/2) for odd p, and 1 for p = 2
        half = n // 2 if p > 2 else 0
        self._neg = [exp[log[c] + half] for c in range(q)]
        self._frob = [exp[log[c] * p % n] if c else zero for c in range(q)]
        self._root = [zero] * q
        for a, b in zip(elems, self._frob):
            self._root[b.code] = a

    def coerce(self, x):
        if isinstance(x, FieldElem):
            if x.field is not self:
                raise ValueError("element from a different field")
            return x
        if isinstance(x, int):
            return self._elems[x % self.p]
        raise TypeError("cannot coerce %r into F_%d" % (x, self.q))

    def from_coords(self, coords):
        if len(coords) != self.e:
            raise ValueError("expected %d coordinates" % self.e)
        p = self.p
        code = 0
        for c in reversed(coords):
            code = code * p + c % p
        return self._elems[code]

    def _mul(self, a, b):
        log = self._log
        return self._exp[log[a.code] + log[b.code]]

    def elements(self):
        """All q elements, in code order (c_0 fastest)."""
        return iter(self._elems)

    def format_elem(self, a):
        if self.e == 1:
            return str(a.code)
        parts = []
        for i, c in enumerate(a.val):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else "%d*" % c
                parts.append("%s%s" % (head, self.gen_name if i == 1 else "%s^%d" % (self.gen_name, i)))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "F_%d" % self.q

    def __eq__(self, other):
        return isinstance(other, FqSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))


@lru_cache(maxsize=None)
def GF(p, e=1):
    """Shared field instances, so parsed literals compare equal."""
    return FqSpec(p, e)
