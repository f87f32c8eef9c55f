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
    SparseMatrix,
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
    """An element of M (x) R{F}: dict F-degree -> carrier element.  The
    check reads these only as the layout of `graded_skew_space` and in a
    counterexample's repr; their right R{F}-module arithmetic lives with the
    symbolic reference in the tests."""

    __slots__ = ("carrier", "terms", "twist")

    def __init__(self, carrier, terms, twist=0):
        self.carrier = carrier
        self.twist = twist
        self.terms = {}
        for i, m in terms.items():
            if not carrier.eq(m, carrier.zero()):
                self.terms[i] = m

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


def graded_skew_space(module, dmax, twist=0):
    """Flat F_p coordinates for M (x) R{F} truncated at F-degree <= dmax,
    where M has a finite flat space."""
    return BlockSpace(
        range(dmax + 1),
        module.space(),
        lambda elt: elt.terms.items(),
        lambda parts: FreeSkewElem(module, parts, twist),
    )


def two_step_matrices(module, dmax):
    """The flat maps of the two-step presentation

        alpha(x (x) F^i) = phi(x) (x) F^i - x (x) F^(i+1)
        beta(y (x) F^i)  = phi^i(y)

    with alpha on F-degree <= dmax-1 (so its image fits in degree <= dmax)
    and beta on F-degree <= dmax, in the layouts of `graded_skew_space`.
    phi is additive, so on M's flat space (dimension n) it is the n x n
    matrix Phi, built by one flatten of phi over M's basis.  Block (i, i) of
    alpha is Phi and block (i+1, i) is -I; block i of beta is Phi^i.
    Returns (Phi, A, B)."""
    mspace = module.space()
    p, n = mspace.p, mspace.dim()
    Phi = matrix_of_map(mspace.basis_elems(), module.phi, mspace, p).mat
    A = []
    for i in range(dmax + 1):
        for r in range(n):
            row = {i * n + k: v for k, v in Phi.rows[r].items()} if i < dmax else {}
            if i:
                row[(i - 1) * n + r] = p - 1
            A.append(row)
    B = [{r: 1} for r in range(n)]
    power = SparseMatrix([{r: 1} for r in range(n)], n)
    for i in range(1, dmax + 1):
        power = product(Phi, power, p)
        for row, prow in zip(B, power.rows):
            row.update({i * n + k: v for k, v in prow.items()})
    return Phi, SparseMatrix(A, dmax * n), SparseMatrix(B, (dmax + 1) * n)


def two_step_witnesses(Phi, kernel, p):
    """The preimages x_j = -sum_{k > j} phi^(k-j-1)(y_k) of beta-kernel rows
    y = sum y_k (x) F^k, one row of alpha's domain coordinates per row of
    `kernel` (which has alpha's domain width).

    Computed top down by x_j = Phi x_(j+1) - y_(j+1) from x = 0 above every
    row's top degree t, which gives x_(t-1) = -y_t: one product by Phi per
    degree, on all rows' {index: value} dicts at once."""
    n = Phi.ncols
    top = max((max(y) // n for y in kernel.rows), default=0)
    minus_y = [[{} for _ in kernel.rows] for _ in range(top + 1)]
    for r, y in enumerate(kernel.rows):
        for c, v in y.items():
            minus_y[c // n][r][c % n] = p - v
    X = SparseMatrix([{} for _ in kernel.rows], n)
    W = [{} for _ in kernel.rows]
    PhiT = Phi.T
    for j in range(top - 1, -1, -1):
        X = product(X, PhiT, p)
        for x, y, w in zip(X.rows, minus_y[j + 1], W):
            for k, v in y.items():
                if s := (x.get(k, 0) + v) % p:
                    x[k] = s
                else:
                    del x[k]
            w.update({j * n + k: v for k, v in x.items()})
    return SparseMatrix(W, kernel.ncols)


def check_two_step_exact(module, dmax, alpha_override=None):
    """Exactness report for 0 -> M' (x) R{F} -> M (x) R{F} -> M -> 0 on the
    F-degree window <= dmax.

    Checks: beta.alpha = 0; alpha injective; every beta-kernel element with
    top degree <= dmax - 1 is hit by alpha, producing the explicit witness
    x_j = -sum_{k>j} phi^(k-j-1)(y_k) and verifying it exactly.
    alpha_override, a SparseMatrix, replaces the assembled alpha (used by
    mutation tests).  A symbolic element is built only for a counterexample.
    """
    Phi, A, B = two_step_matrices(module, dmax)
    A = A if alpha_override is None else alpha_override
    dom = graded_skew_space(module, dmax - 1, twist=1)
    cod = graded_skew_space(module, dmax, twist=0)
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
    comp = product(B, A, p)
    if any(comp.rows):
        report["beta_alpha_zero"] = False
        col = min(min(row) for row in comp.rows if row)
        report["counterexample"] = repr(dom.from_row({col: 1}))
    # the kernel does not depend on the row order; taken bottom up, alpha's
    # rows below its first block start in echelon form (the -I blocks)
    ker_a = kernel_basis(SparseMatrix(A.rows[::-1], A.ncols), p)
    if ker_a.rows:
        report["alpha_injective"] = False
        report["counterexample"] = repr(dom.from_row(ker_a.rows[0]))
    # beta-kernel elements with top degree <= dmax - 1: dom's window, laid out
    # as the first dom.dim() coordinates of cod's, so a kernel row is also y's
    # coordinates in cod, and alpha's image of each witness is compared to it
    kernel = kernel_basis(B.first_columns(dom.dim()), p)
    images = product(two_step_witnesses(Phi, kernel, p), A.T, p).rows
    for row, image in zip(kernel.rows, images):
        if image != row:
            report["witness_formula_ok"] = False
            if solve(A, [row.get(i, 0) for i in range(cod.dim())], p) is None:
                report["kernel_covered"] = False
                report["counterexample"] = repr(cod.from_row(row))
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
        if h_dual_apply(ring, s, ts) != target:
            raise RuntimeError("witness check failed: the dual tail map misses the target")
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
