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
    SparseMatrix,
    coordinate_rows,
    kernel_basis,
    keyed,
    product,
    solve,
    solve_with_certificate,
    support,
    tuple_space,
)
from .poly import PolySpace, add_at, unit_digits


# -- the two-step sequence ---------------------------------------------------


def format_graded(module, z):
    """`m + m(x)F^1 + ...` for a dict F-degree -> carrier element, in
    F-degree order, or `0`."""
    parts = []
    for i in sorted(z):
        m = module.format(z[i])
        parts.append(m if i == 0 else "%s(x)F^%d" % (m, i))
    return " + ".join(parts) or "0"


def two_step_matrices(module, dmax):
    """The flat maps of the two-step presentation

        alpha(x (x) F^i) = phi(x) (x) F^i - x (x) F^(i+1)
        beta(y (x) F^i)  = phi^i(y)

    with alpha on F-degree <= dmax-1 (so its image fits in degree <= dmax)
    and beta on F-degree <= dmax, in the layouts `keyed(range(dmax + 1),
    module.space())`: F-degree blocks of M's flat space.
    phi is additive, so on M's flat space (dimension n) it is the carrier's
    n x n matrix Phi.  Block (i, i) of alpha is Phi and block (i+1, i) is
    -I; block i of beta is Phi^i.  Returns (A, B)."""
    mspace = module.space()
    p, n, Phi = mspace.p, mspace.dim(), module.Phi
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
    return SparseMatrix(A, dmax * n), SparseMatrix(B, (dmax + 1) * n)


def two_step_witnesses(B, kernel, p):
    """The preimages x_j = -sum_{k > j} phi^(k-j-1)(y_k) of beta-kernel rows
    y = sum y_k (x) F^k, one row of alpha's domain coordinates per row of
    `kernel` (which has alpha's domain width).

    Column c of Phi^m is row m*n + c of B.T (beta's block m), so entry i =
    k*n + c of y adds -y[i] times row i - (j+1)*n of B.T to x_j, for each
    j < k: the witnesses are sums of B.T's rows, with no product by Phi."""
    n, cols = len(B.rows), B.T.rows
    W = []
    for y in kernel.rows:
        w = {}
        for i, v in y.items():
            for at in range(0, i - n + 1, n):  # x_j's offset j*n, for j < k
                for r, u in cols[i - n - at].items():
                    w[at + r] = w.get(at + r, 0) + (p - v) * u
        W.append({j: x for j, v in w.items() if (x := v % p)})
    return SparseMatrix(W, kernel.ncols)


def check_two_step_exact(module, dmax):
    """Exactness report for 0 -> M' (x) R{F} -> M (x) R{F} -> M -> 0 on the
    F-degree window <= dmax.

    Checks: beta.alpha = 0; alpha injective; every beta-kernel element with
    top degree <= dmax - 1 is hit by alpha, producing the explicit witness
    x_j = -sum_{k>j} phi^(k-j-1)(y_k) and verifying it exactly.  An element
    is built, as F-degree -> carrier element, only for a counterexample.
    """
    A, B = two_step_matrices(module, dmax)
    dom = keyed(range(dmax), module.space())
    cod = keyed(range(dmax + 1), module.space())
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
        report["counterexample"] = format_graded(module, dom.from_row({col: 1}))
    # the kernel does not depend on the row order; bottom up, each alpha row
    # above block 0 pivots where it starts, and echelon stops at full rank
    ker_a = kernel_basis(SparseMatrix(A.rows[::-1], A.ncols), p)
    if ker_a.rows:
        report["alpha_injective"] = False
        report["counterexample"] = format_graded(module, dom.from_row(ker_a.rows[0]))
    # beta-kernel elements with top degree <= dmax - 1: dom's window, laid out
    # as the first dom.dim() coordinates of cod's, so a kernel row is also y's
    # coordinates in cod, and alpha's image of each witness is compared to it
    kernel = kernel_basis(B.first_columns(dom.dim()), p)
    images = product(two_step_witnesses(B, kernel, p), A.T, p).rows
    for row, image in zip(kernel.rows, images):
        if image != row:
            report["witness_formula_ok"] = False
            if solve(A, SparseMatrix([row], cod.dim()), p) is None:
                report["kernel_covered"] = False
                report["counterexample"] = format_graded(module, cod.from_row(row))
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


def h_dual_matrix(ring, slots, dom_poly, cod_poly):
    """The matrix of `h_dual_apply` from (s, t_1..t_d) on `slots` slots of
    `dom_poly` to slots + 1 slots of `cod_poly` (holding every image), in
    `matrix_of_map`'s order, by index arithmetic: unit c times x^a at slot j
    gives (-1)^d F(c) x^(p*a) at j, -(-1)^d c x^a at j+1 (s), c x^(a+e_i) at j (t_i)."""
    d, p, e = ring.d, dom_poly.p, dom_poly.e
    units, index, n = ring.field.power_basis, cod_poly.index, cod_poly.dim()
    up = unit_digits(-c.frobenius() if d % 2 else c.frobenius() for c in units)
    down = unit_digits(c if d % 2 else -c for c in units)
    ones, mons = unit_digits(units), dom_poly.mons
    # per block, per monomial a: the (row offset, per-unit digits) of its terms
    blocks = [[((index[tuple(p * x for x in a)] * e, up), (n + index[a] * e, down)) for a in mons]]
    blocks += [[((index[a[:i] + (a[i] + 1,) + a[i + 1 :]] * e, ones),) for a in mons] for i in range(d)]
    rows, col = [{} for _ in range((slots + 1) * n)], 0
    for block in blocks:
        for j in range(0, slots * n, n):
            for terms in block:
                for k in range(e):
                    for at, digits in terms:
                        for t, x in digits[k]:
                            rows[j + at + t][col] = x
                    col += 1
    return SparseMatrix(rows, col)


def in_image_hdual(ring, target, window, degree_bound):
    """Membership of `target` (a dict j -> nonzero polynomial) in the image of
    the dual tail map, searched over sequences supported in `window` with
    polynomial degree <= degree_bound.

    Returns a dict with verdict SAT (witness included, re-verified exactly,
    and refused when the residue trace rules every preimage out) or UNSAT
    (cokernel functional; plus the residue trace, and proven=True when the
    trace argument rules out *every* window and bound).
    """
    (lo, hi), p, B = window, ring.field.p, degree_bound
    dom_poly = PolySpace.total_degree(ring, B)
    cod_deg = max(p * B, B + 1, max((f.total_degree() for f in target.values()), default=0))
    cod_poly = PolySpace.total_degree(ring, cod_deg)
    # the unknowns (s, t_1, ..., t_d), all supported in the window
    dom = tuple_space(keyed(range(lo, hi + 1), dom_poly), ring.d + 1, {})
    cod = keyed(range(lo, hi + 2), cod_poly)
    A = h_dual_matrix(ring, hi - lo + 1, dom_poly, cod_poly)
    x, cert = solve_with_certificate(A, coordinate_rows([target], cod, p), p)
    trace, proven = residue_trace(ring, target)
    trace_str = {str(j): ring.field.format_elem(v) for j, v in sorted(trace.items())}
    if x is not None:
        s, *ts = dom.from_row(x.rows[0])
        if h_dual_apply(ring, s, ts) != target:
            raise RuntimeError("witness check failed: the dual tail map misses the target")
        if proven:
            raise RuntimeError("residue trace check failed: a witness exists where the trace rules one out")
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
        "certificate": support(cert),
        "residue_trace": trace_str,
        "proven": bool(proven),
    }
