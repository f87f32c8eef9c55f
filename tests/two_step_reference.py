"""The symbolic two-step presentation: the reference the direct assembly in
`frobext.skew` must match.

`SkewModuleElem` is a `FreeSkewElem` with the right R{F}-module arithmetic
of M (x) R{F}.  `two_step_maps` gives alpha and beta on such elements,
`two_step_witness` the preimage of a beta-kernel element, and
`flatten_two_step` pushes every basis vector of the graded windows through
them with `matrix_of_map`.  The check itself never runs this code:
`check_two_step_exact` builds the matrix of phi once and assembles alpha,
beta and the witnesses from it.
"""

from frobext.linalg import matrix_of_map
from frobext.skew import FreeSkewElem, frob_power, graded_skew_space


class SkewModuleElem(FreeSkewElem):
    """An element of M (x) R{F} with its sums and its right R{F}-action:

        (m (x) F^i) . r = (r^(p^(i+twist)) m) (x) F^i
        (m (x) F^i) . F = m (x) F^(i+1)
    """

    __slots__ = ()

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
    return FreeSkewElem(module, out, 1)


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
