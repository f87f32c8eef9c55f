"""Seeded scenario generators for the benchmark's workloads.

Each generator turns a seed into scenario files for `frobext run` together
with the result the report must show.  Every expectation follows from a
theorem or from how the scenario was built, never from a stored report, and
witness and certificate bytes are never compared.  This module does not
import frobext: the generated text is the program's only input.
"""

from __future__ import annotations

import random

# (p, d, window, degree bound, expected verdict) for hdual-flatten.
HDUAL_SIZES = (
    (2, 3, (-6, 0), 4, "SAT"),
    (2, 2, (-10, 0), 5, "UNSAT"),
    (3, 2, (-8, 0), 4, "SAT"),
    (3, 1, (-12, 0), 8, "UNSAT"),
)

# (p, d, exponents, cap, dfmax) for cone-eliminate.
CONE_SIZES = (
    (3, 2, (1, 1), 3, 3),
    (2, 3, (1, 1, 1), 1, 2),
)

# (p, d, exponents) for ext-free; the spot is the top one, j = d + 1.
EXT_SIZES = (
    (3, 2, (1, 1)),
    (2, 2, (1, 1)),
)

# (p, e, d, exponents, rank, dmax, structure terms) for the two-step half of
# fq-arith.  The structure is scaled:<lambda>, where lambda has seeded nonzero
# coefficients on the `terms` lowest monomials of the box.  The work follows
# lambda's support: with random:<seed> F_q multiplications ranged 160k-281k
# over seeds 1-10 at F_4, with a seeded support of 8 terms 113k-138k, and with
# this fixed support they stay within 2% (142k-145k over seeds 1-8).
TWO_STEP_SIZES = (
    (2, 2, 2, (4, 4), 2, 6, 8),
    (3, 2, 1, (6,), 3, 6, 3),
)

# The as-solve half of fq-arith: StdE over F_4 in two variables.
AS_SOLVE_FIELD = (2, 2, 2)  # (p, e, d)
AS_SOLVE_LEVEL = 12


def _names(d):
    return ["x%d" % (i + 1) for i in range(d)]


def _monomial(exp):
    factors = []
    for name, a in zip(_names(len(exp)), exp):
        if a == 1:
            factors.append(name)
        elif a > 1:
            factors.append("%s^%d" % (name, a))
    return "*".join(factors) or "1"


def _scalar(rng, p, e):
    """A nonzero element of F_{p^e}, written in the generator w."""
    while True:
        coords = [rng.randrange(p) for _ in range(e)]
        if any(coords):
            break
    parts = []
    for k, c in enumerate(coords):
        if c:
            power = "" if k == 0 else ("w" if k == 1 else "w^%d" % k)
            if not power:
                parts.append(str(c))
            else:
                parts.append(power if c == 1 else "%d*%s" % (c, power))
    return "(" + " + ".join(parts) + ")"


def _term(coeff, exp):
    mono = _monomial(exp)
    if mono == "1":
        return coeff
    return mono if coeff == "(1)" else "%s*%s" % (coeff, mono)


def _degree_box(d, bound):
    """Every exponent tuple of total degree <= bound."""
    if d == 0:
        return [()]
    return [(a,) + rest for a in range(bound + 1) for rest in _degree_box(d - 1, bound - a)]


def _random_poly(rng, p, e, monomials, count):
    """A sum of `count` distinct monomials with nonzero coefficients."""
    chosen = rng.sample(monomials, min(count, len(monomials)))
    return " + ".join(_term(_scalar(rng, p, e), m) for m in sorted(chosen))


def _scenario(name, expect, **keys):
    text = "".join("%s: %s\n" % (k, v) for k, v in keys.items())
    return {"name": name, "text": text, "expect": expect}


# -- the four workloads --------------------------------------------------------


def hdual_flatten(rng):
    out = []
    for p, d, (lo, hi), bound, verdict in HDUAL_SIZES:
        slot = rng.randint(lo, hi)
        box = _degree_box(d, bound)
        if verdict == "UNSAT":
            # A single-slot target with a nonzero constant term forces a
            # nonzero residue at every lower slot, so no finitely supported
            # preimage exists: UNSAT on any window, and the trace proves it.
            const = str(rng.randrange(1, p))
            rest = _random_poly(rng, p, 1, box[1:], 3)
            target = "%d: %s + %s" % (slot, const, rest)
            expect = {"verdict": "UNSAT", "proven": True}
        else:
            # x_i * g with deg g <= bound is the image of s = 0, t_i = g at
            # that slot, which lies inside the searched window.
            var = _names(d)[rng.randrange(d)]
            g = _random_poly(rng, p, 1, box, 3)
            target = "%d: %s*(%s)" % (slot, var, g)
            expect = {"verdict": "SAT"}
        out.append(_scenario(
            "hdual-p%d-d%d-w%d-b%d" % (p, d, hi - lo + 1, bound), expect,
            task="hdual-membership", p=p, d=d, window="%d..%d" % (lo, hi),
            degree_bound=bound, target=target,
        ))
    return out


def cone_eliminate(rng):
    out = []
    for p, d, exps, cap, dfmax in CONE_SIZES:
        # The mapping cone is a resolution for every structure, so the
        # windowed acyclicity sweep and both shape checks pass.
        out.append(_scenario(
            "cone-p%d-d%d-cap%d-df%d" % (p, d, cap, dfmax), {"passed": True},
            task="cone-resolution", p=p, d=d,
            exponents=",".join(map(str, exps)),
            structure="random:%d" % rng.randrange(10**6),
            cap=cap, dfmax=dfmax, seed=rng.randrange(10**6),
        ))
    return out


def ext_free(rng):
    # Inputs are fixed up to their order: the standard structure at the top
    # spot is the instance whose answer theory gives.  Ext^(d+1) against the
    # free target equals the additive cokernel F_q / (y^p - y), which is
    # one-dimensional over F_p for every q (the kernel of y -> y^p - y is F_p).
    out = []
    for p, d, exps in EXT_SIZES:
        out.append(_scenario(
            "ext-p%d-d%d-top" % (p, d), {"dim": 1, "stable": True},
            task="ext-rf", p=p, d=d, exponents=",".join(map(str, exps)),
            j=d + 1, target="free",
        ))
    rng.shuffle(out)
    return out


def fq_arith(rng):
    out = []
    for p, e, d, exps, rank, dmax, terms in TWO_STEP_SIZES:
        # The two-step presentation is exact for every structure.
        box = [m for m in _degree_box(d, sum(exps)) if all(a < n for a, n in zip(m, exps))]
        support = sorted(box, key=lambda m: (sum(m), m))[:terms]
        lam = " + ".join(_term(_scalar(rng, p, e), m) for m in support)
        out.append(_scenario(
            "two-step-q%d-d%d-r%d" % (p**e, d, rank), {"passed": True},
            task="two-step-check", p=p, e=e, d=d,
            exponents=",".join(map(str, exps)), rank=rank,
            structure="scaled:" + lam, dmax=dmax,
        ))
    p, e, d = AS_SOLVE_FIELD
    level = AS_SOLVE_LEVEL
    # SAT by construction: u = z^p - z for z = (r; n), written at level p*n
    # as (r^p - r * (x1...xd)^(n(p-1)); p*n).  With p*n <= level the witness
    # fits the searched level.
    n = level // p
    box = [m for m in _degree_box(d, d * (n - 1)) if max(m) < n]
    r = _random_poly(rng, p, e, box, 4)
    xprod = "*".join("%s^%d" % (x, n * (p - 1)) for x in _names(d))
    out.append(_scenario(
        "as-solve-q%d-sat" % p**e, {"verdict": "SAT"},
        task="as-solve", p=p, e=e, d=d, module="StdE", level_bound=level,
        target="((%s)^%d - (%s)*%s; %d)" % (r, p, r, xprod, p * n),
    ))
    # A nonzero bottom-level right-hand side is UNSAT at every level.
    out.append(_scenario(
        "as-solve-q%d-bottom" % p**e, {"verdict": "UNSAT", "proven": True},
        task="as-solve", p=p, e=e, d=d, module="StdE", level_bound=level,
        target="(%s; 1)" % _scalar(rng, p, e),
    ))
    return out


WORKLOADS = {
    "hdual-flatten": hdual_flatten,
    "cone-eliminate": cone_eliminate,
    "ext-free": ext_free,
    "fq-arith": fq_arith,
}


def generate(workload, seed):
    """The workload's scenarios for this seed, as dicts with `name`, `text`
    (the scenario file) and `expect` (report key -> required value)."""
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))


def check(expect, report, code):
    """None when the report meets the expectation, else the reason it fails."""
    if code != 0:
        return "exit code %d" % code
    for key, want in expect.items():
        if report.get(key) != want:
            return "%s is %r, expected %r" % (key, report.get(key), want)
    return None
