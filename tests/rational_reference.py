"""The bounded fraction slice with a hand-written layout: the reference the
PolySpace-built `frobext.rational.BoundedRationalSpace` must match.

Its basis slots are listed one by one, polynomial part t^0..t^B and then the
D-adic digits t^i / D^j, j = 1..N, each tensored with the F_q power basis;
`coords` expands an element into base-D digits and writes them slot by slot,
and `from_coords` sums the slots back.
"""

from frobext.rational import u_degree, u_divmod


class BoundedRationalSpace:
    """The F_p-flattened slice with pole bound N and degree bound B."""

    def __init__(self, base, N, B):
        self.base = base
        self.N = N
        self.B = B
        self.ring = base.ring
        self.p = self.ring.field.p
        self.e = self.ring.field.e
        self.degD = u_degree(base.D)
        # basis monomial slots: polynomial part then pole parts by level
        self.slots = [("poly", i) for i in range(B + 1)]
        for j in range(1, N + 1):
            for i in range(self.degD):
                self.slots.append(("pole", j, i))

    def dim(self):
        return len(self.slots) * self.e

    def basis_elems(self):
        field = self.ring.field
        for slot in self.slots:
            for k in range(self.e):
                c = field.from_coords(tuple(1 if j == k else 0 for j in range(self.e)))
                if slot[0] == "poly":
                    yield self.base.fn(self.ring.monomial((slot[1],), c), 0)
                else:
                    _, j, i = slot
                    yield self.base.fn(self.ring.monomial((i,), c), j)

    def coords(self, fn):
        """Exact coordinates; raises if fn does not lie in the slice."""
        if fn.base is not self.base:
            raise ValueError("element over a different denominator base")
        quo, rem = u_divmod(fn.numer, self.base.D ** fn.level) if fn.level else (fn.numer, self.ring.zero)
        if u_degree(quo) > self.B:
            raise ValueError("polynomial part exceeds the degree bound")
        vec = [0] * self.dim()
        slot_index = {s: i for i, s in enumerate(self.slots)}
        for (a,), c in quo.terms.items():
            i = slot_index[("poly", a)]
            for k, ck in enumerate(c.val):
                vec[i * self.e + k] = ck
        # base-D digits of rem: rem = sum_l digit_l * D^l, so the digit at
        # position l sits over the pole D^(level - l)
        digits = []
        r = rem
        for _ in range(fn.level):
            r, digit = u_divmod(r, self.base.D)
            digits.append(digit)
        if r:
            raise ValueError("remainder does not expand in the D-adic basis")
        for l, digit in enumerate(digits):
            j = fn.level - l
            if not digit:
                continue
            if j > self.N:
                raise ValueError("pole order %d exceeds the bound %d" % (j, self.N))
            for (a,), c in digit.terms.items():
                i = slot_index[("pole", j, a)]
                for k, ck in enumerate(c.val):
                    vec[i * self.e + k] = ck
        return vec

    def from_coords(self, vec):
        field = self.ring.field
        out = self.base.fn(self.ring.zero, 0)
        for i, slot in enumerate(self.slots):
            c = field.from_coords(tuple(int(vec[i * self.e + k]) % self.p for k in range(self.e)))
            if not c:
                continue
            if slot[0] == "poly":
                out = out + self.base.fn(self.ring.monomial((slot[1],), c), 0)
            else:
                _, j, a = slot
                out = out + self.base.fn(self.ring.monomial((a,), c), j)
        return out
