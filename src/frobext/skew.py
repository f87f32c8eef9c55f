"""The Frobenius-twisted polynomial ring R{F} and its free right modules.

R{F} has the commutation rule F r = r^p F, so every element has the normal
form sum_i r_i F^i with coefficients on the left.  For an R-module M, the
tensor M (x) R{F} is a right R{F}-module with

    (m (x) F^i) . r = (r^(p^(i+twist)) m) (x) F^i
    (m (x) F^i) . F = m (x) F^(i+1)

where twist is 0 for M itself and 1 for the relabeled module M' fed through
one Frobenius twist (its R-action goes through r -> r^p).
"""

from __future__ import annotations

from .linalg import (
    BlockSpace,
    kernel_basis,
    keyed,
    matrix_of_map,
    product,
    solve,
    solve_with_certificate,
    tuple_space,
)
from .poly import MultiPoly, PolySpace, add_at


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


class FreeCartierCarrier:
    """M = R^rank with a Cartier-type structure map.

    The structure map is phi(y)_t = C(sum_s kern[t][s] * y_s) where C is the
    digit-projection operator of the ring; any additive map with the twist law
    phi(r^p y) = r phi(y) between free modules has this shape.  On R^rank the
    kernel matrix is cmatrix itself; a quotient carrier builds its own kern
    once and puts each value in its normal form.
    """

    def __init__(self, ring, rank, cmatrix=None):
        self.ring = ring
        self.rank = rank
        if cmatrix is None:
            cmatrix = [[ring.one if s == t else ring.zero for s in range(rank)] for t in range(rank)]
        self.cmatrix = [[ring.coerce(v) for v in row] for row in cmatrix]
        if len(self.cmatrix) != rank or any(len(r) != rank for r in self.cmatrix):
            raise ValueError("cmatrix must be rank x rank")
        self.kern = self.cmatrix

    def normal_form(self, f):
        return f

    def zero(self):
        return (self.ring.zero,) * self.rank

    def add(self, a, b):
        # a sum of normal forms is one
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def act(self, r, a):
        return tuple(self.normal_form(x * r) for x in a)

    def phi(self, a):
        out = []
        for row in self.kern:
            acc = self.ring.zero
            for k, y in zip(row, a):
                if k and y:
                    acc = acc + k * y
            out.append(self.normal_form(self.ring.cartier(acc)))
        return tuple(out)

    def phi_iter(self, a, k):
        for _ in range(k):
            a = self.phi(a)
        return a

    def eq(self, a, b):
        return all(x == y for x, y in zip(a, b))

    def format(self, a):
        if self.rank == 1:
            return self.ring.format(a[0])
        return "(" + ", ".join(self.ring.format(x) for x in a) + ")"


class FreeSkewElem:
    """An element of M (x) R{F}: dict F-degree -> carrier element."""

    __slots__ = ("carrier", "terms", "twist")

    def __init__(self, carrier, terms, twist=0):
        self.carrier = carrier
        self.twist = twist
        self.terms = {}
        for i, m in terms.items():
            if not carrier.eq(m, carrier.zero()):
                self.terms[i] = m

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
        return FreeSkewElem(self.carrier, out, self.twist)

    def __neg__(self):
        return FreeSkewElem(self.carrier, {i: self.carrier.neg(m) for i, m in self.terms.items()}, self.twist)

    def __sub__(self, other):
        return self + (-other)

    def act_ring(self, r):
        """Right action of a ring element."""
        out = {}
        for i, m in self.terms.items():
            out[i] = self.carrier.act(frob_power(r, i + self.twist), m)
        return FreeSkewElem(self.carrier, out, self.twist)

    def act_F(self, k=1):
        """Right action of F^k."""
        return FreeSkewElem(self.carrier, {i + k: m for i, m in self.terms.items()}, self.twist)

    def act_skew(self, xi):
        out = FreeSkewElem(self.carrier, {}, self.twist)
        for j, r in xi.terms.items():
            out = out + self.act_ring(r).act_F(j)
        return out

    def __eq__(self, other):
        if not isinstance(other, FreeSkewElem):
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


# -- the two-step sequence ---------------------------------------------------


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
        out = FreeSkewElem(module, {}, 0)
        for i, m in elt.terms.items():
            out = out + FreeSkewElem(module, {i: module.phi(m)}, 0)
            out = out + FreeSkewElem(module, {i + 1: module.neg(m)}, 0)
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


def graded_skew_space(module, dmax, twist=0):
    """Flat F_p coordinates for M (x) R{F} truncated at F-degree <= dmax,
    where M has a finite flat space."""
    return BlockSpace(
        range(dmax + 1),
        module.space(),
        lambda elt: elt.terms.items(),
        lambda parts: FreeSkewElem(module, parts, twist),
    )


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


def check_two_step_exact(module, dmax, alpha_override=None):
    """Exactness report for 0 -> M' (x) R{F} -> M (x) R{F} -> M -> 0 on the
    F-degree window <= dmax.

    Checks: beta.alpha = 0; alpha injective; every beta-kernel element with
    top degree <= dmax - 1 is hit by alpha, producing the explicit witness
    x_j = -sum_{k>j} phi^(k-j-1)(y_k) and verifying it exactly.
    alpha_override, a SparseMatrix, replaces the flattened alpha (used by
    mutation tests).
    """
    amap, bmap, dom, cod = flatten_two_step(module, dmax)
    A = amap.mat if alpha_override is None else alpha_override
    p = dom.p
    report = {
        "dmax": dmax,
        "beta_alpha_zero": True,
        "alpha_injective": True,
        "kernel_covered": True,
        "witness_formula_ok": True,
        "counterexample": None,
        "passed": False,
    }
    comp = product(bmap.mat, A, p)
    if any(comp.rows):
        report["beta_alpha_zero"] = False
        col = min(min(row) for row in comp.rows if row)
        report["counterexample"] = repr(dom.from_row({col: 1}))
    ker_a = kernel_basis(A, p)
    if ker_a.rows:
        report["alpha_injective"] = False
        report["counterexample"] = repr(dom.from_row(ker_a.rows[0]))
    # beta-kernel elements with top degree <= dmax - 1; sub's layout is the
    # first sub.dim() coordinates of cod's, so a kernel row is also y's
    # coordinates in cod, and alpha's image of each witness is compared to it
    sub = graded_skew_space(module, dmax - 1, twist=0)
    kernel = kernel_basis(bmap.mat.first_columns(sub.dim()), p)
    ys = [sub.from_row(row) for row in kernel.rows]
    witnesses = matrix_of_map(ys, lambda y: two_step_witness(module, y), dom, p)
    images = product(A, witnesses.mat, p).T.rows
    for y, row, image in zip(ys, kernel.rows, images):
        if image != row:
            report["witness_formula_ok"] = False
            sol = solve(A, cod.coords(y), p)
            if sol is None:
                report["kernel_covered"] = False
                report["counterexample"] = repr(y)
                break
    report["passed"] = (
        report["beta_alpha_zero"]
        and report["alpha_injective"]
        and report["kernel_covered"]
        and report["witness_formula_ok"]
    )
    return report


# -- finitely supported sequences and the dual tail map ----------------------
#
# A sequence j -> polynomial is a dict holding its nonzero slots; absent slots
# are zero, and `keyed` gives such dicts their flat coordinates.


def format_seq(ring, z):
    """`j: f; ...` with the slots in increasing order, or `0`."""
    return "; ".join("%d: %s" % (j, ring.format(z[j])) for j in sorted(z)) or "0"


def h_dual_apply(ring, s, ts):
    """The dual of the tail map, on sequences:

      out_j = (-1)^d (s_j^p - s_(j-1)) + sum_i x_i t_(i,j)

    `s` and the d sequences `ts` are dicts j -> nonzero polynomial; only
    their slots are visited, and the result is such a dict too.
    """
    odd = ring.d % 2
    out = {}
    for j, f in s.items():
        fp = f.frobenius()
        add_at(out, j, -fp if odd else fp)
        add_at(out, j + 1, f if odd else -f)
    for x, t in zip(ring.gens(), ts):
        for j, f in t.items():
            add_at(out, j, x * f)
    return out


def residue_trace(ring, target):
    """The forced constant-term residues of any finitely supported preimage.

    Reducing the dual-tail equation mod (x_1, ..., x_d) leaves the recurrence
    res(s_(j-1)) = res(s_j)^p - (-1)^d res(target_j), and res(s_j) = 0 above
    the target's support.  If the forced residue just below the support is
    nonzero, the Frobenius recurrence keeps it nonzero for every lower index,
    so no finitely supported preimage exists at any window or degree bound.

    Returns (trace, proven_unsat) where trace maps j -> forced residue.
    """
    d = ring.d
    sign = ring.field.one if d % 2 == 0 else -ring.field.one
    if not target:
        return {}, False
    jmax, jmin = max(target), min(target)
    trace = {}
    cur = ring.field.zero  # res(s_jmax) = 0
    trace[jmax] = cur
    for j in range(jmax, jmin - 1, -1):
        r_j = target.get(j, ring.zero).constant_term()
        cur = cur.frobenius() - sign * r_j
        trace[j - 1] = cur
    return trace, bool(cur)


def in_image_hdual(ring, target, window, degree_bound):
    """Membership of `target` (a dict j -> nonzero polynomial) in the image of
    the dual tail map, searched over sequences supported in `window` with
    polynomial degree <= degree_bound.

    Returns a dict with verdict SAT (witness included, re-verified exactly)
    or UNSAT (cokernel functional; plus the residue trace, and proven=True
    when the trace argument rules out *every* window and bound).
    """
    lo, hi = window
    d = ring.d
    p = ring.field.p
    B = degree_bound
    dom_poly = PolySpace.total_degree(ring, B)
    cod_deg = max(p * B, B + 1, max((f.total_degree() for f in target.values()), default=0))
    cod_poly = PolySpace.total_degree(ring, cod_deg)
    # the unknowns (s, t_1, ..., t_d), all supported in the window
    dom = tuple_space(keyed(range(lo, hi + 1), dom_poly), d + 1, {})
    cod = keyed(range(lo, hi + 2), cod_poly)
    A = matrix_of_map(dom.basis_elems(), lambda st: h_dual_apply(ring, st[0], st[1:]), cod, p).mat
    x, cert = solve_with_certificate(A, cod.coords(target), p)
    trace, proven = residue_trace(ring, target)
    trace_str = {str(j): ring.field.format_elem(v) for j, v in sorted(trace.items())}
    if x is not None:
        s, *ts = dom.from_coords(x)
        assert h_dual_apply(ring, s, ts) == target  # exact re-verification
        return {
            "verdict": "SAT",
            "window": [lo, hi],
            "degree_bound": B,
            "witness_s": format_seq(ring, s),
            "witness_t": [format_seq(ring, t) for t in ts],
            "proven": False,
        }
    return {
        "verdict": "UNSAT",
        "window": [lo, hi],
        "degree_bound": B,
        "certificate": cert,
        "residue_trace": trace_str,
        "proven": bool(proven),
    }
