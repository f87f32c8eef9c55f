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

from math import comb

from .linalg import SparseMatrix, kernel_basis, keyed, product, solve, solve_with_certificate, support
from .poly import add_at, grlex_index, unit_digits


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
# A sequence j -> polynomial is a dict holding its nonzero slots.


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
    if not target:
        return {}, False
    sign = -ring.field.one if ring.d % 2 else ring.field.one
    jmax, jmin = max(target), min(target)
    cur = ring.field.zero  # res(s_jmax) = 0
    trace = {jmax: cur}
    for j in range(jmax, jmin - 1, -1):
        cur = cur.frobenius() - sign * target.get(j, ring.zero).constant_term()
        trace[j - 1] = cur
    return trace, bool(cur)


def in_image_hdual(ring, target, window, degree_bound):
    """Membership of `target` (a dict j -> nonzero polynomial) in the image of
    the dual tail map, searched over sequences supported in `window` with
    polynomial degree <= degree_bound.

    Returns a dict with verdict SAT (witness included, re-verified exactly,
    and refused when the residue trace rules every preimage out) or UNSAT
    (cokernel functional; plus the residue trace, and proven=True when the
    trace argument rules out *every* window and bound).
    """
    (lo, hi), p, B, d, e = window, ring.field.p, degree_bound, ring.d, ring.field.e
    units = ring.field.power_basis
    up = unit_digits(-c.frobenius() if d % 2 else c.frobenius() for c in units)
    down = unit_digits(c if d % 2 else -c for c in units)
    ones = unit_digits(units)

    def columns(j, m):
        """The columns (k, i, a), x^a in slot i of s (k = 0) or t_k, holding row
        (j, m), each with its (row, per-unit digits) terms: unit c gives (-1)^d
        F(c) x^(p*a) at i and -(-1)^d c x^a at i+1 (s), c x^(a+e_k) at i (t_k)."""
        n = sum(m)
        if lo <= j <= hi:
            if n <= p * B and not any(x % p for x in m):
                a = tuple(x // p for x in m)
                yield (0, j, a), [((j, m), up), ((j + 1, a), down)]
            for k in range(1, d + 1 if n <= B + 1 else 1):
                if m[k - 1]:
                    yield (k, j, m[: k - 1] + (m[k - 1] - 1,) + m[k:]), [((j, m), ones)]
        if lo < j <= hi + 1 and n <= B:
            yield (0, j - 1, m), [((j - 1, tuple(p * x for x in m)), up), ((j, m), down)]

    if any(not lo <= j <= hi + 1 for j in target):
        raise ValueError("target slots %s lie outside %d..%d" % (sorted(target), lo, hi + 1))
    # b's closure, walked from its rows: A x = b splits over A's blocks, and
    # a block that b misses adds nothing, neither to x nor to a certificate
    queue = list(dict.fromkeys((j, m) for j, f in target.items() for m in f.terms))
    reached, cols = set(queue), {}
    for row in queue:  # the queue grows while it is walked
        for col, held in columns(*row):
            if col not in cols:
                cols[col] = held
                queue += (fresh := [r for r, _ in held if r not in reached])
                reached.update(fresh)
    # rows and columns by their indices in the whole-window layouts of record
    ncod = comb(max(p * B, B + 1, *(f.total_degree() for f in target.values())) + d, d) * e
    cod = {r: (r[0] - lo) * ncod + grlex_index(r[1]) * e for r in queue}
    rows = sorted(queue, key=cod.get)
    at = {r: i * e for i, r in enumerate(rows)}
    order = sorted(cols, key=lambda c: (c[0], c[1], grlex_index(c[2])))
    A = [{} for _ in range(len(rows) * e)]
    for c, col in enumerate(order):
        for r, digits in cols[col]:
            for u in range(e):
                for t, x in digits[u]:
                    A[at[r] + t][c * e + u] = x
    b = {at[j, m] + t: x for j, f in target.items() for m, v in f.terms.items() for t, x in enumerate(v.val) if x}
    x, cert = solve_with_certificate(SparseMatrix(A, len(order) * e), SparseMatrix([b], len(A)), p)
    trace, proven = residue_trace(ring, target)
    if x is not None:
        s, *ts = seqs = [{} for _ in range(d + 1)]
        for c, v in x.rows[0].items():
            k, j, a = order[c // e]
            add_at(seqs[k], j, ring.monomial(a, units[c % e] * v))
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
        "certificate": support({cod[rows[r // e]] + r % e: v for r, v in cert.items()}),
        "residue_trace": {str(j): ring.field.format_elem(v) for j, v in sorted(trace.items())},
        "proven": bool(proven),
    }
