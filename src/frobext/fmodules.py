"""Concrete modules with a p-th power operation, and decision procedures for
the equation F(z) - z = u inside them.

Each instance couples a carrier set with the semilinear operation F.  The
solver `as_solve` is exact: a SAT answer carries a witness that is re-checked
by direct arithmetic, an UNSAT answer carries the bound it was established
under, and `proven` is set only when a degree or level-descent argument rules
out every solution regardless of bounds (the docstrings spell the arguments
out case by case).
"""

from __future__ import annotations

import random

from .artinian import EElem
from .linalg import SparseMatrix, kernel_basis, keyed, matrix_of_map, rank, solve_with_certificate, support
from .poly import PolyRing, PolySpace, add_at, random_poly, unit_digits


class StdR:
    """The polynomial ring with F(f) = f^p."""

    def __init__(self, ring):
        self.ring = ring

    def coerce(self, f):
        return self.ring.coerce(f)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scal(self, r, x):
        return r * x

    def pth_power(self, f):
        return f.frobenius()

    def sample(self, rng):
        return random_poly(self.ring, PolySpace.total_degree(self.ring, 2).mons, rng, 0.5)

    def describe(self):
        return "polynomial ring, F = p-th power"


class StdE:
    """The graded dual carrier built from inverse monomials, F = p-th power
    on numerator and level alike."""

    def __init__(self, ering):
        self.ering = ering
        self.ring = ering.ring

    def coerce(self, z):
        return z

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scal(self, r, x):
        return x.act(r)

    def pth_power(self, z):
        return z.pth_power()

    def sample(self, rng):
        box = PolySpace.box(self.ring, 2)  # the numerators at level 2
        return EElem(self.ering, 2, box.from_coords([rng.randrange(box.p) for _ in range(box.dim())]))

    def describe(self):
        return "inverse-monomial carrier, F = p-th power"


class ShiftRInf:
    """Countably many ring copies z[j], j ranging over all integers, with

        F(sum r_j z[j]) = sum r_j^p z[j-1]

    Elements are finitely supported (a direct sum, never a product): dicts
    j -> nonzero polynomial.  Any window imposed later is a search bound, not
    a truncation of the carrier.
    """

    def __init__(self, ring):
        self.ring = ring

    def coerce(self, z):
        """A dict j -> polynomial with its zero slots dropped."""
        out = {}
        for j, r in z.items():
            r = self.ring.coerce(r)
            if r:
                out[j] = r
        return out

    def zero(self):
        return {}

    def add(self, x, y):
        out = dict(x)
        for j, r in y.items():
            add_at(out, j, r)
        return out

    def neg(self, x):
        return {j: -r for j, r in x.items()}

    def scal(self, r, x):
        return {j: rc for j, c in x.items() if (rc := r * c)}

    def pth_power(self, z):
        return {j - 1: r.frobenius() for j, r in z.items()}

    def sample(self, rng):
        """Random linear polynomials on the slots -2..2."""
        mons = PolySpace.total_degree(self.ring, 1).mons
        return self.coerce({j: random_poly(self.ring, mons, rng, 0.5) for j in range(-2, 3)})

    def format(self, z):
        """`(f)*z[j] + ...` with the slots in increasing order, or `0`."""
        return " + ".join("(%s)*z[%d]" % (self.ring.format(z[j]), j) for j in sorted(z)) or "0"

    def describe(self):
        return "integer-indexed shifted sum of ring copies"


class DirectSum:
    """Componentwise F on a tuple of same-shaped instances."""

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise ValueError("empty sum")
        kinds = {type(m) for m in self.parts}
        if len(kinds) != 1:
            raise ValueError("mixed-instance sums are not supported")
        rings = {id(m.ring) for m in self.parts}
        if len(rings) != 1:
            raise ValueError("summands live over different rings")
        self.ring = self.parts[0].ring

    def coerce(self, z):
        return tuple(m.coerce(c) for m, c in zip(self.parts, z))

    def add(self, x, y):
        return tuple(m.add(a, b) for m, a, b in zip(self.parts, x, y))

    def neg(self, x):
        return tuple(m.neg(a) for m, a in zip(self.parts, x))

    def scal(self, r, x):
        return tuple(m.scal(r, a) for m, a in zip(self.parts, x))

    def pth_power(self, z):
        return tuple(m.pth_power(c) for m, c in zip(self.parts, z))

    def sample(self, rng):
        return tuple(m.sample(rng) for m in self.parts)

    def describe(self):
        return "direct sum of %d x (%s)" % (len(self.parts), self.parts[0].describe())


def artin_schreier(module, z):
    """F(z) - z in any of the instances above."""
    return module.add(module.pth_power(z), module.neg(z))


# -- the solver ----------------------------------------------------------------


def as_solve(module, u, level_bound=4):
    """Decide F(z) - z = u in the given module.  Returns a report dict; use
    `as_solve_elem` when the witness is needed as an element."""
    report, _ = as_solve_elem(module, u, level_bound)
    return report


def as_solve_elem(module, u, level_bound=4):
    """Like `as_solve` but also returns the witness element (or None), which
    is re-checked here by direct arithmetic.

    Polynomial case: fully decided.  F(z) - z has degree exactly p*deg(z)
    when deg(z) >= 1, so a solution for constant u must be constant
    (exhausted over the finite field) and a solution for deg(u) >= 1 must
    have degree exactly deg(u)/p — nonexistent unless p divides deg(u),
    otherwise found by one exact linear solve over that degree box.  Either
    way `proven` is True.

    Limit-carrier case: one flattened solve over all elements of level
    <= max(level_bound, level of u).  An UNSAT is `proven` when u normalizes
    to a nonzero bottom-level element: writing a would-be solution in lowest
    terms (r; n), the identity r^p = (x1..xd)^(n(p-1)) * (r + u0 (x1..xd)^(n-1))
    holds on the nose, and for n >= 2 its right side is divisible by every
    variable while lowest terms leaves some exponent of r^p at zero (p-th
    powers cannot cancel monomials); the n = 1 leftover dies on its constant
    term.  Other UNSATs stay relative to the level bound.

    Shift case: the equation forces y_j = 0 above the support of u and then
    determines every lower slot by y_j = y_(j+1)^p - u_j, so there is exactly
    one candidate; it is finitely supported iff the forced value at the
    bottom of u's support is zero (a nonzero value propagates through F to
    every slot below).  SAT answers are absolute; UNSAT answers report the
    forced escape but are flagged relative, like every windowed verdict here.
    """
    if isinstance(module, StdR):
        rep, z = _as_solve_poly(module, module.coerce(u))
    elif isinstance(module, StdE):
        rep, z = _as_solve_limit(module, u, level_bound)
    elif isinstance(module, ShiftRInf):
        rep, z = _as_solve_shift(module, module.coerce(u))
    elif isinstance(module, DirectSum):
        rep, z = _as_solve_sum(module, u, level_bound)
    else:
        raise TypeError("no solver for %r" % type(module).__name__)
    if z is not None and artin_schreier(module, z) != module.coerce(u):
        raise RuntimeError("witness check failed: F(z) - z misses the target")
    return rep, z


def _as_solve_poly(module, u):
    ring = module.ring
    field = ring.field
    p = field.p
    if not u:
        return _sat(ring.format(ring.zero), "zero right-hand side"), ring.zero
    deg = u.total_degree()
    if deg == 0:
        c = u.constant_term()
        for z in field.elements():
            if z**p - z == c:
                zp = ring.coerce(z)
                return _sat(ring.format(zp), "constant solution found by enumeration"), zp
        rep = _unsat(
            proven=True,
            reason="no constant solves it, and any nonconstant z has "
            "deg(F(z) - z) = p*deg(z) >= p > 0",
            bound={"degree": 0},
        )
        return rep, None
    if deg % p != 0:
        rep = _unsat(
            proven=True,
            reason="deg(F(z) - z) is p*deg(z) for nonconstant z, never %d" % deg,
            bound={"degree": deg},
        )
        return rep, None
    space = PolySpace.total_degree(ring, deg // p)
    big = PolySpace.total_degree(ring, deg)
    x, cert = solve_with_certificate(artin_schreier_matrix(space, big, 0, 0), big.coords(u), p)
    if x is None:
        rep = _unsat(
            proven=True,
            reason="any solution must have degree exactly %d; the exact solve "
            "over that box has a cokernel certificate" % (deg // p),
            bound={"degree": deg // p},
            certificate=cert,
        )
        return rep, None
    z = space.from_coords(x)
    return _sat(ring.format(z), "forced-degree linear solve"), z


def _as_solve_limit(module, u, level_bound):
    ering = module.ering
    p = ering.ring.field.p
    u = u.normalize()
    n = max(level_bound, u.level if u else 1)
    # the numerators at levels n and n*p; at level n*p, z = (r; n) is
    # (r * (x1...xd)^((p-1)n); n*p) and F(z) is (r^p; n*p)
    dom, cod = PolySpace.box(ering.ring, n), PolySpace.box(ering.ring, n * p)
    fmat = artin_schreier_matrix(dom, cod, 0, (p - 1) * n)
    x, cert = solve_with_certificate(fmat, cod.coords(u.raise_to(n * p).numer), p)
    if x is not None:
        z = EElem(ering, n, dom.from_coords(x))
        return _sat(repr(z), "flattened solve at level %d" % n), z
    bottom = bool(u) and u.level == 1
    if bottom:
        reason = (
            "nonzero bottom-level right-hand side: in lowest terms a solution "
            "gives a p-th power every one of whose exponents is >= n(p-1), "
            "impossible when some exponent starts at zero"
        )
    else:
        reason = "no solution of level <= %d" % n
    rep = _unsat(
        proven=bottom,
        reason=reason,
        bound={"level": n},
        certificate=cert,
    )
    return rep, None


def _as_solve_shift(module, u):
    ring = module.ring
    if not u:
        return _sat("0", "zero right-hand side"), module.zero()
    lo, hi = min(u), max(u)
    # slots above hi are forced to zero (a nonzero top slot would propagate
    # upward forever); descend from there
    ys = {}
    nxt = ring.zero  # y_(j+1) while descending
    for j in range(hi, lo - 1, -1):
        yj = nxt.frobenius() - u.get(j, ring.zero)
        if yj:
            ys[j] = yj
        nxt = yj
    forced_bottom = nxt  # the value forced at slot lo
    if not forced_bottom:
        return _sat(module.format(ys), "forced recurrence from the top slot"), ys
    rep = _unsat(
        proven=False,
        reason=(
            "the unique candidate forces y[%d] = %s, and below the support "
            "each slot is the p-th power of the one above, so no finitely "
            "supported solution fits any window" % (lo, ring.format(forced_bottom))
        ),
        bound={"window": [lo, hi]},
    )
    return rep, None


def _as_solve_sum(module, u, level_bound):
    reports = []
    elems = []
    for part, comp in zip(module.parts, u):
        rep, elem = as_solve_elem(part, comp, level_bound)
        reports.append(rep)
        elems.append(elem)
    if all(r["verdict"] == "SAT" for r in reports):
        rep = _sat("(" + ", ".join(r["witness"] for r in reports) + ")", "componentwise")
        rep["components"] = reports
        return rep, tuple(elems)
    failing = [i for i, r in enumerate(reports) if r["verdict"] == "UNSAT"]
    first = reports[failing[0]]
    rep = _unsat(
        proven=any(reports[i]["proven"] for i in failing),
        reason="component %d is UNSAT: %s" % (failing[0], first["reason"]),
        bound=first.get("bound"),
    )
    rep["components"] = reports
    return rep, None


def _sat(witness, how):
    return {"verdict": "SAT", "witness": witness, "proven": True, "reason": how}


def _unsat(proven, reason, bound=None, certificate=None):
    out = {"verdict": "UNSAT", "witness": None, "proven": proven, "reason": reason}
    if bound is not None:
        out["bound"] = bound
    if certificate is not None:
        out["certificate"] = support(certificate)
    return out


def artin_schreier_matrix(dom, cod, h, s):
    """The matrix of c * x^a -> F(c) * x^(p*a + h) - c * x^(a + s), with h and
    s added to every exponent, from the PolySpace `dom` to the PolySpace
    `cod`: F(z) - z by index arithmetic, in the columns and rows that
    `matrix_of_map` gives.  A term that `cod` does not hold is dropped (on a
    box, the limit carrier's reduction); two terms on one monomial are summed
    in F_q before their digits are written."""
    p, e = dom.p, dom.e
    index = cod.index
    units = dom.ring.field.power_basis
    # per unit c: the nonzero digits of F(c), of -c, and of F(c) - c
    up_digits = unit_digits(c.frobenius() for c in units)
    down_digits = unit_digits(-c for c in units)
    both_digits = unit_digits(c.frobenius() - c for c in units)
    rows = [{} for _ in range(cod.dim())]
    col = 0
    for a in dom.mons:
        up = index.get(tuple(p * x + h for x in a))
        down = index.get(tuple(x + s for x in a))
        if up is not None and up == down:
            terms = [(up, both_digits)]
        else:
            terms = [(i, ds) for i, ds in ((up, up_digits), (down, down_digits)) if i is not None]
        for k in range(e):
            for i, ds in terms:
                for t, x in ds[k]:
                    rows[i * e + t][col] = x
            col += 1
    return SparseMatrix(rows, dom.dim())


def coker_formula(field):
    """dim over F_p of F_q modulo the image of x -> x^p - x: its kernel is F_p
    (the solutions of x^p = x), so this is 1; it is computed as e - rank."""
    space = PolySpace(PolyRing(field, 0), [()])
    return field.e - rank(artin_schreier_matrix(space, space, 0, 0), field.p)


# -- rank-two extensions -------------------------------------------------------


class ExtensionDatum:
    """The module of pairs (a, b), a from the base module and b from the ring,
    attached to a cocycle z:

        F(a, b) = (F(a) + b^p * z, b^p)

    The inclusion a -> (a, 0) and the projection (a, b) -> b both commute
    with F, so this extends the ring by the base module; the composite
    structure map sends (y, r) to (y + r*z, r).
    """

    def __init__(self, module, z):
        self.module = module
        self.z = module.coerce(z)

    def pth_power(self, ab):
        a, b = ab
        m = self.module
        bp = b.frobenius()
        return (m.add(m.pth_power(a), m.scal(bp, self.z)), bp)

    def section_shift(self, s):
        """psi(a, b) = (a + b*s, b) carries this datum to the one with class
        z - (F(s) - s), commuting with both F operations."""
        m = self.module

        def psi(ab):
            a, b = ab
            return (m.add(a, m.scal(b, s)), b)

        return psi, ExtensionDatum(m, m.add(self.z, m.neg(artin_schreier(m, s))))


def ext1_class(module, u1, u2, level_bound=4, samples=20, seed=0):
    """Are the two extensions with cocycles u1, u2 equivalent?  Exactly when
    u2 - u1 = F(x) - x for some x in the base module.  On SAT the witness is
    checked three ways: the shifted section carries one datum onto the other,
    the two composite formulas (y + r*u1 + r*F(x), r) and (y + r*u2 + r*x, r)
    agree on random samples, and the section map intertwines both F's on
    random pairs.  All three are exact identities: a failure raises a
    RuntimeError, and none is reported."""
    m = module
    u1 = m.coerce(u1)
    u2 = m.coerce(u2)
    diff = m.add(u2, m.neg(u1))
    res, x = as_solve_elem(m, diff, level_bound)
    out = {
        "equivalent": res["verdict"] == "SAT",
        "proven": res["proven"],
        "reason": res["reason"],
        "solver": res,
    }
    if res["verdict"] != "SAT":
        return out
    rng = random.Random(seed)
    ring = m.ring
    e1 = ExtensionDatum(m, u1)
    e2 = ExtensionDatum(m, u2)
    psi, carried = e1.section_shift(m.neg(x))
    if carried.z != e2.z:
        raise RuntimeError("section check failed: the shifted section does not carry u1 onto u2")
    fx = m.pth_power(x)
    quadratic = PolySpace.total_degree(ring, 2).mons
    for _ in range(samples):
        y = m.sample(rng)
        r = random_poly(ring, quadratic, rng, 0.5)
        left = m.add(y, m.add(m.scal(r, u1), m.scal(r, fx)))
        right = m.add(y, m.add(m.scal(r, u2), m.scal(r, x)))
        if left != right:
            raise RuntimeError("section check failed: the two composite formulas differ on a sample")
        a, b = m.sample(rng), random_poly(ring, quadratic, rng, 0.5)
        if psi(e1.pth_power((a, b))) != e2.pth_power(psi((a, b))):
            raise RuntimeError("section check failed: the section does not intertwine the two F's")
    out["section_shift"] = res["witness"]
    out["checked_samples"] = samples
    return out


# -- the shifted short exact sequence -------------------------------------------


def shift_ses_check(ring, nmax=3, degree_bound=2):
    """The two maps  z[i] -> z[i] - z[i+1]  and  z[i] -> 1  between the
    shifted sum and the ring.

    On the slot window [-N, N] with coefficient degree <= bound, checks that
    both maps commute with F (exactly, on every basis generator), that the
    first is injective and composes to zero with the second, and that every
    kernel element of the second map is hit, with the running-sum witness
    x_j = sum of the coefficients up to slot j verified exactly.

    A section of the second map compatible with F would have generator image
    {y_j} satisfying y_j = y_(j+1)^p for every j together with sum y_j = 1.
    With support in the window the topmost constraint kills y_N, then each
    one below, so the flattened system is UNSAT — and a nonzero y_j would
    need nonzero slots above every window.  The report carries the verdicts
    under the keys `exact` and `split`.
    """
    M = ShiftRInf(ring)
    p = ring.field.p
    pspace = PolySpace.total_degree(ring, degree_bound)
    lo, hi = -nmax, nmax

    def A(z):
        out = {}
        for j, r in z.items():
            add_at(out, j, r)
            add_at(out, j + 1, -r)
        return out

    def B(z):
        acc = ring.zero
        for r in z.values():
            acc = acc + r
        return acc

    report = {"window": [lo, hi], "degree_bound": degree_bound}

    space = keyed(range(lo, hi + 1), pspace)
    ok_a = ok_b = True
    for gen in space.basis_elems():
        ok_a = ok_a and M.pth_power(A(gen)) == A(M.pth_power(gen))
        ok_b = ok_b and B(M.pth_power(gen)) == B(gen).frobenius()
    report["first_map_commutes_with_F"] = ok_a
    report["second_map_commutes_with_F"] = ok_b

    # flattened exactness on the window
    cod = keyed(range(lo, hi + 2), pspace)
    amat = matrix_of_map(space.basis_elems(), A, cod, p).mat
    report["first_map_injective"] = rank(amat, p) == amat.ncols

    comp_ok = all(not B(A(gen)) for gen in space.basis_elems())
    report["second_after_first_zero"] = comp_ok

    bmap = matrix_of_map(space.basis_elems(), B, pspace, p)
    middle_ok = True
    kernel = kernel_basis(bmap.mat, p).rows
    for row in kernel:
        z = space.from_row(row)
        acc = ring.zero
        partial = {}
        for j in range(lo, hi + 1):
            acc = acc + z.get(j, ring.zero)
            if acc:
                partial[j] = acc
        middle_ok = middle_ok and hi not in partial and A(partial) == z
    report["kernel_dim"] = len(kernel)
    report["middle_exact_with_witness"] = middle_ok

    # the splitting system: y_j = y_(j+1)^p on every slot, sum y_j = 1
    slots = list(range(lo - 1, hi + 1))

    def split_system(z):
        out = {j: z.get(j, ring.zero) - z.get(j + 1, ring.zero).frobenius() for j in slots}
        out["sum"] = B(z)
        return out

    cod = keyed(slots + ["sum"], PolySpace.total_degree(ring, p * degree_bound))
    smap = matrix_of_map(space.basis_elems(), split_system, cod, p)
    x, cert = solve_with_certificate(smap.mat, cod.coords({"sum": ring.one}), p)
    report["split"] = x is not None
    report["split_window_certificate"] = cert and support(cert)
    report["support_escape"] = (
        "a nonzero y_j forces y_(j+1) nonzero through y_j = y_(j+1)^p, "
        "escaping every window upward; within the window the top slot dies "
        "first and the rest follow, against sum y_j = 1"
    )

    report["exact"] = (
        report["first_map_injective"]
        and report["second_after_first_zero"]
        and report["middle_exact_with_witness"]
    )
    report["passed"] = (
        report["exact"]
        and report["first_map_commutes_with_F"]
        and report["second_map_commutes_with_F"]
        and not report["split"]
    )
    return report


# -- homomorphism spaces ---------------------------------------------------------


def hom_fr(m1, m2, level=4, degree_bound=4):
    """F_p-dimension of the F-compatible module maps m1 -> m2, solved on two
    consecutive truncations; `stable` records whether they agree and
    `inconclusive` is its negation.

    Ring-to-ring: such a map is multiplication by s with F(s) = s, and
    deg(F(s)) = p*deg(s) pins s to the constants fixed by F — the prime
    field.  The answer 1 is proven; the flattened kernels are computed anyway
    and cross-checked.

    Limit-to-limit: a map is a coherent tower {w_n} of level-generator
    images with w_n = (x1..xd)^(m-n) * w_m and F-compatibility forcing
    w_(np) = F(w_n); eliminating everything against the level-L image w
    leaves the single closed condition w = (x1..xd)^(L(p-1)) * F(w), whose
    kernel is the candidate dimension at level L.
    """
    if isinstance(m1, StdR) and isinstance(m2, StdR):
        if m1.ring is not m2.ring:
            raise ValueError("rings differ")
        ring = m1.ring
        p = ring.field.p
        dims = []
        for bound in (degree_bound, degree_bound + 1):
            space = PolySpace.total_degree(ring, bound)
            big = PolySpace.total_degree(ring, p * bound)
            fmat = artin_schreier_matrix(space, big, 0, 0)
            dims.append(fmat.ncols - rank(fmat, p))
        if dims != [1, 1]:  # F(s) = s forces s constant with s^p = s
            raise RuntimeError("kernel check failed: F(s) = s has a solution space of dims %r" % dims)
        return {
            "dim": dims[1],
            "dims": dims,
            "proven": True,
            "stable": True,
            "inconclusive": False,
            "truncation": [degree_bound, degree_bound + 1],
            "basis": ["1"],
            "reason": "F(s) = s forces s constant with s^p = s",
        }
    if isinstance(m1, StdE) and isinstance(m2, StdE):
        if m1.ering.ring is not m2.ering.ring:
            raise ValueError("carriers differ")
        dims = [_hom_limit_dim(m1.ering, L) for L in (level, level + 1)]
        stable = dims[0] == dims[1]
        return {
            "dim": dims[1],
            "dims": dims,
            "proven": False,
            "stable": stable,
            "inconclusive": not stable,
            "truncation": [level, level + 1],
        }
    raise TypeError("no homomorphism solver for this pair")


def _hom_limit_dim(ering, L):
    """dim ker(w -> (x1..xd)^(L(p-1)) * F(w) - w) on level-L images w, both
    sides at level L*p, where w = (r; L) is (r * (x1..xd)^(L(p-1)); L*p)."""
    p = ering.ring.field.p
    shift = L * (p - 1)
    mat = artin_schreier_matrix(PolySpace.box(ering.ring, L), PolySpace.box(ering.ring, L * p), shift, shift)
    return mat.ncols - rank(mat, p)


# -- distinct classes of simple-pole fractions -----------------------------------


def rational_class_distinct(base, a, b, level_bound=3, degree_bound=3):
    """Are 1/(t-a) and 1/(t-b) in different F(z)-z classes of the bounded
    fraction space?  For a != b: always.  Two independent layers:

    * bounded cross-check — the flattened solve of F(z) - z = target over
      poles of order <= N and polynomial parts of degree <= B must be UNSAT;

    * symbolic layer — a solution z = f/g in lowest terms has
      F(z) - z = (f^p - f g^(p-1)) / g^p already in lowest terms (an
      irreducible factor of g dividing the numerator would divide f^p), so
      g^p would have to divide (t-a)(t-b) up to a unit.  For nonconstant g
      and p >= 3 the degree p*deg(g) > 2 rules that out; for p = 2 it would
      make the squarefree quadratic (t-a)(t-b) a perfect square; and constant
      g makes F(z) - z a polynomial while the target has honest poles.  This
      layer is a proof, so `proven` is True.
    """
    from .rational import BoundedRationalSpace, is_squarefree, u_divmod
    ring = base.ring
    field = ring.field
    t = ring.gens()[0]
    a = field.coerce(a)
    b = field.coerce(b)
    if a == b:
        raise ValueError("the two pole locations coincide")
    for c in (a, b):
        _, r = u_divmod(base.D, t - ring.coerce(c))
        if r:
            raise ValueError(
                "pole location %s is not a root of the base divisor" % field.format_elem(c)
            )
    qa, _ = u_divmod(base.D, t - ring.coerce(a))
    qb, _ = u_divmod(base.D, t - ring.coerce(b))
    target = base.fn(qa - qb, 1)  # 1/(t-a) - 1/(t-b)

    p = field.p
    quadratic = (t - ring.coerce(a)) * (t - ring.coerce(b))
    if not is_squarefree(quadratic):
        raise RuntimeError("squarefree check failed: (t-a)(t-b) with a != b has a square factor")
    if p >= 3:
        branch = "degree: p*deg(g) >= %d > 2 for nonconstant g" % p
    else:
        branch = "squarefree: g^2 dividing a squarefree quadratic is impossible"

    dom = BoundedRationalSpace(base, level_bound, degree_bound)
    cod = BoundedRationalSpace(base, level_bound * p, max(degree_bound * p, degree_bound + 1))
    fmap = matrix_of_map(dom.basis_elems(), lambda z: z.pth_power() - z, cod, p)
    x, cert = solve_with_certificate(fmap.mat, cod.coords(target), p)
    if x is not None:  # the symbolic layer says this solve can never succeed
        raise RuntimeError("certificate check failed: the bounded solve found a solution")
    return {
        "distinct": True,
        "proven": True,
        "bounded_check_unsat": True,
        "bound": {"level": level_bound, "degree": degree_bound},
        "certificate": support(cert),
        "symbolic_branch": branch,
        "reason": "a lowest-terms solution f/g forces g^p to divide "
        "(t-a)(t-b) up to a unit; " + branch,
    }
