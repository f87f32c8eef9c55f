"""Arithmetic in small finite fields F_{p^e}.

Elements are coordinate vectors over F_p with respect to the power basis of a
fixed generator ``w`` satisfying a monic irreducible modulus of degree e.  The
modulus is chosen deterministically (see :func:`lowest_irreducible`) so that
two runs, or two machines, always agree on element encodings.
"""

from __future__ import annotations

from functools import lru_cache


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
        # xp <- xp^p mod f
        acc = [1]
        base = list(xp)
        k = p
        while k:
            if k & 1:
                acc = _poly_divmod(_poly_mul_mod_p(acc, base, p), f, p)[1]
            base = _poly_divmod(_poly_mul_mod_p(base, base, p), f, p)[1]
            k >>= 1
        xp = acc
        diff = list(xp) + [0] * (2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(f, diff, p)) > 1:
            return False
    return True


def lowest_irreducible(p, e):
    """The monic irreducible of degree e over F_p whose tail coefficient
    vector (c_0, c_1, ..., c_{e-1}), read as base-p digits of an integer with
    c_0 least significant, is smallest.  For e = 1 this is plain ``x``.
    """
    if e == 1:
        return [0, 1]
    for k in range(p ** e):
        digits = []
        n = k
        for _ in range(e):
            digits.append(n % p)
            n //= p
        f = digits + [1]
        if f[0] == 0:
            continue  # reducible: divisible by x
        if _is_irreducible(f, p):
            return f
    raise ValueError("no irreducible polynomial found (impossible)")


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldElem:
    """An element of F_{p^e}, a thin wrapper over a coefficient tuple."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def __add__(self, other):
        other = self.field.coerce(other)
        p = self.field.p
        return FieldElem(self.field, tuple((a + b) % p for a, b in zip(self.val, other.val)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElem(self.field, tuple((-a) % p for a in self.val))

    def __sub__(self, other):
        other = self.field.coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        other = self.field.coerce(other)
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        other = self.field.coerce(other)
        return self * other.inverse()

    def frobenius(self):
        """a -> a^p."""
        return self.field.frob(self)

    def pth_root(self):
        """The unique b with b^p = a (Frobenius is bijective)."""
        b = self
        for _ in range(self.field.e - 1):
            b = self.field.frob(b)
        return b

    def __bool__(self):
        return any(self.val)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.coerce(other)
        return isinstance(other, FieldElem) and self.field is other.field and self.val == other.val

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __repr__(self):
        return self.field.format_elem(self)


class FqSpec:
    """The field F_q, q = p^e, with its fixed modulus and generator name."""

    gen_name = "w"

    def __init__(self, p, e):
        if not _is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        if e < 1:
            raise ValueError("e must be >= 1")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = lowest_irreducible(p, e)
        self.zero = FieldElem(self, (0,) * e)
        self.one = FieldElem(self, (1,) + (0,) * (e - 1))
        self.gen = FieldElem(self, ((0, 1) + (0,) * e)[:e]) if e > 1 else self.one
        # Frobenius images of the power basis, cached for flattening
        self._frob_basis = None

    def coerce(self, x):
        if isinstance(x, FieldElem):
            if x.field is not self:
                raise ValueError("element from a different field")
            return x
        if isinstance(x, int):
            return FieldElem(self, (x % self.p,) + (0,) * (self.e - 1))
        raise TypeError("cannot coerce %r into F_%d" % (x, self.q))

    def from_coords(self, coords):
        if len(coords) != self.e:
            raise ValueError("expected %d coordinates" % self.e)
        return FieldElem(self, tuple(c % self.p for c in coords))

    def _mul(self, a, b):
        prod = _poly_mul_mod_p(list(a.val), list(b.val), self.p)
        _, rem = _poly_divmod(prod, self.modulus, self.p)
        rem = rem + [0] * (self.e - len(rem))
        return FieldElem(self, tuple(rem[: self.e]))

    def frob(self, a):
        if self.e == 1:
            return a
        if self._frob_basis is None:
            imgs = []
            for i in range(self.e):
                basis_vec = FieldElem(self, tuple(1 if j == i else 0 for j in range(self.e)))
                imgs.append(basis_vec ** self.p)
            self._frob_basis = imgs
        out = self.zero
        for c, img in zip(a.val, self._frob_basis):
            if c:
                out = out + self.coerce(c) * img
        return out

    def elements(self):
        """All q elements, in deterministic coordinate order."""
        p, e = self.p, self.e
        for k in range(self.q):
            coords = []
            n = k
            for _ in range(e):
                coords.append(n % p)
                n //= p
            yield FieldElem(self, tuple(coords))

    def format_elem(self, a):
        if self.e == 1:
            return str(a.val[0])
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
