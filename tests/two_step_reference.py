"""The symbolic two-step presentation: the reference the direct assembly in
`frobext.skew` must match.

`SkewElem` is an element of R{F} itself, with its sum and product, and
`skew_mul` that product: the arithmetic `SkewModuleElem.act_skew` is tested
against.  `SkewModuleElem` is an element of M (x) R{F} with its right
R{F}-module arithmetic, and `graded_skew_space` the flat layout of such
elements up to an F-degree.  `two_step_maps` gives alpha and beta on such
elements, `two_step_witness` the preimage of a beta-kernel element, and
`flatten_two_step` pushes every basis vector of the graded windows through
them with `matrix_of_map`.  The check itself never runs this code:
`check_two_step_exact` builds the matrix of phi once and assembles alpha,
beta and the witnesses from it, on F-degree -> carrier element dicts.
`check_with_alpha` runs that check with a replaced alpha, for mutation
tests.  `frob_power` is f^(p^k), the right action's twist on coefficients.
"""

from frobext import skew
from frobext.linalg import BlockSpace, matrix_of_map
from frobext.poly import MultiPoly, add_at


def frob_power(f, k):
    for _ in range(k):
        f = f.frobenius()
    return f


class SkewElem:
    """An element of R{F}: dict F-degree -> polynomial coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {i: c for i, c in terms.items() if c}

    @classmethod
    def of(cls, ring, coeff, power=0):
        return cls(ring, {power: ring.coerce(coeff)})

    def __add__(self, other):
        out = dict(self.terms)
        for i, c in other.terms.items():
            add_at(out, i, c)
        return SkewElem(self.ring, out)

    def __neg__(self):
        return SkewElem(self.ring, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """(r F^i)(s F^j) = r s^(p^i) F^(i+j)."""
        if isinstance(other, (int, MultiPoly)):
            other = SkewElem.of(self.ring, self.ring.coerce(other))
        out = {}
        for i, r in self.terms.items():
            for j, s in other.terms.items():
                add_at(out, i + j, r * frob_power(s, i))
        return SkewElem(self.ring, out)

    def __rmul__(self, other):
        return SkewElem.of(self.ring, self.ring.coerce(other)) * self

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SkewElem) and self.ring is other.ring and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for i in sorted(self.terms):
            c = self.ring.format(self.terms[i])
            c = "(%s)" % c if (" " in c and i > 0) else c
            if i == 0:
                parts.append(c)
            elif c == "1":
                parts.append("F" if i == 1 else "F^%d" % i)
            else:
                parts.append("%s*F%s" % (c, "" if i == 1 else "^%d" % i))
        return " + ".join(parts)


def skew_mul(a, b):
    return a * b


class SkewModuleElem:
    """An element of M (x) R{F}, a dict F-degree -> carrier element, with
    its sums and its right R{F}-action:

        (m (x) F^i) . r = (r^(p^(i+twist)) m) (x) F^i
        (m (x) F^i) . F = m (x) F^(i+1)
    """

    __slots__ = ("carrier", "terms", "twist")

    def __init__(self, carrier, terms, twist=0):
        self.carrier = carrier
        self.twist = twist
        self.terms = {}
        for i, m in terms.items():
            if not carrier.eq(m, carrier.zero()):
                self.terms[i] = m

    def __eq__(self, other):
        if not isinstance(other, SkewModuleElem):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.carrier.eq(self.terms[i], other.terms[i]) for i in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for i in sorted(self.terms):
            m = self.carrier.format(self.terms[i])
            parts.append(m if i == 0 else "%s(x)F^%d" % (m, i))
        return " + ".join(parts)

    def __add__(self, other):
        if self.twist != other.twist:
            raise ValueError("cannot add elements of twist %d and %d" % (self.twist, other.twist))
        out = dict(self.terms)
        for i, m in other.terms.items():
            cur = out.get(i)
            cur = m if cur is None else self.carrier.add(cur, m)
            if self.carrier.eq(cur, self.carrier.zero()):
                out.pop(i, None)
            else:
                out[i] = cur
        return SkewModuleElem(self.carrier, out, self.twist)

    def __neg__(self):
        return SkewModuleElem(self.carrier, {i: self.carrier.neg(m) for i, m in self.terms.items()}, self.twist)

    def __sub__(self, other):
        return self + (-other)

    def act_ring(self, r):
        """Right action of a ring element."""
        out = {}
        for i, m in self.terms.items():
            out[i] = self.carrier.act(frob_power(r, i + self.twist), m)
        return SkewModuleElem(self.carrier, out, self.twist)

    def act_F(self, k=1):
        """Right action of F^k."""
        return SkewModuleElem(self.carrier, {i + k: m for i, m in self.terms.items()}, self.twist)

    def act_skew(self, xi):
        out = SkewModuleElem(self.carrier, {}, self.twist)
        for j, r in xi.terms.items():
            out = out + self.act_ring(r).act_F(j)
        return out


def graded_skew_space(module, dmax, twist=0):
    """Flat F_p coordinates for M (x) R{F} truncated at F-degree <= dmax,
    where M has a finite flat space."""
    return BlockSpace(
        range(dmax + 1),
        module.space(),
        lambda elt: elt.terms.items(),
        lambda parts: SkewModuleElem(module, parts, twist),
    )


def check_with_alpha(monkeypatch, module, dmax, A):
    """`check_two_step_exact` with alpha replaced by the SparseMatrix A, next
    to the honest beta."""
    _, B = skew.two_step_matrices(module, dmax)
    with monkeypatch.context() as patch:
        patch.setattr(skew, "two_step_matrices", lambda *_: (A, B))
        return skew.check_two_step_exact(module, dmax)


def two_step_maps(module):
    """The pair (alpha, beta) for a module with structure map phi:

        alpha(x (x) F^i) = phi(x) (x) F^i - x (x) F^(i+1)
        beta(y (x) F^i)  = phi^i(y)

    `module` is any carrier exposing phi/phi_iter/add/neg; alpha consumes a
    twist-1 element and produces a twist-0 one, beta consumes twist-0 and
    lands in the carrier itself.
    """

    def alpha(elt):
        if elt.twist != 1:
            raise ValueError("alpha takes twist-1 elements, got twist %d" % elt.twist)
        out = SkewModuleElem(module, {}, 0)
        for i, m in elt.terms.items():
            out = out + SkewModuleElem(module, {i: module.phi(m)}, 0)
            out = out + SkewModuleElem(module, {i + 1: module.neg(m)}, 0)
        return out

    def beta(elt):
        if elt.twist != 0:
            raise ValueError("beta takes twist-0 elements, got twist %d" % elt.twist)
        acc = module.zero()
        for i, m in elt.terms.items():
            acc = module.add(acc, module.phi_iter(m, i))
        return acc

    return alpha, beta


def two_step_witness(module, kernel_elt):
    """The preimage formula x_j = -sum_{k > j} phi^(k-j-1)(y_k) for a
    beta-kernel element y = sum y_k (x) F^k; returns a twist-1 element.

    Computed top down by the recurrence x_(n-1) = -y_n, x_j = phi(x_(j+1)) -
    y_(j+1), with n the top degree of y: one phi per degree."""
    terms = kernel_elt.terms
    out = {}
    x = None
    for j in range(max(terms, default=0) - 1, -1, -1):
        y = module.neg(terms.get(j + 1, module.zero()))
        x = y if x is None else module.add(module.phi(x), y)
        out[j] = x
    return SkewModuleElem(module, out, 1)


def flatten_two_step(module, dmax):
    """Flattened (alpha, beta) with alpha restricted to F-degree <= dmax-1
    (so its image fits in degree <= dmax).  Returns (alpha_map, beta_map,
    dom_space, cod_space)."""
    alpha, beta = two_step_maps(module)
    dom = graded_skew_space(module, dmax - 1, twist=1)
    cod = graded_skew_space(module, dmax, twist=0)
    mspace = module.space()
    amap = matrix_of_map(dom.basis_elems(), alpha, cod, dom.p)
    bmap = matrix_of_map(cod.basis_elems(), beta, mspace, dom.p)
    return amap, bmap, dom, cod
