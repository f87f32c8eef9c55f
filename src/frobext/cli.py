"""Scenario runner: one flat `key: value` file in, one canonical report out.

Exit codes: 0 for a conclusive report (verdicts may still be negative),
1 for parse/validation/usage errors, 2 when any status in the report is
inconclusive (an unstable dimension, a solver that could not decide within
its bounds).  Reports are deterministic given the scenario; `elapsed_ms` is
the only field that varies between runs and the regress comparison strips it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys
import time
import traceback

from .poly import ring_over


class ScenarioError(Exception):
    """A parse or validation problem, pinned to a place in the file."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def render(self, path):
        loc = path
        if self.line is not None:
            loc += ":%d" % self.line
            if self.col is not None:
                loc += ":%d" % self.col
        return "error: %s: %s" % (loc, self.message)


_MISSING = object()


class Scenario:
    """Parsed key/value pairs with line bookkeeping and usage tracking."""

    def __init__(self, path, text):
        self.path = path
        self.pairs = {}
        self.lines = {}
        self.cols = {}
        self.used = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if ":" not in raw:
                raise ScenarioError(
                    "expected 'key: value'", line=lineno, col=len(raw.rstrip()) + 1
                )
            key, value = raw.split(":", 1)
            if not key.strip():
                raise ScenarioError("empty key", line=lineno, col=1)
            k = key.strip()
            if k in self.pairs:
                raise ScenarioError("duplicate key %r" % k, line=lineno, col=1)
            self.pairs[k] = value.strip()
            self.lines[k] = lineno
            self.cols[k] = len(key) + 2 + (len(value) - len(value.lstrip()))

    def line(self, key):
        return self.lines.get(key)

    def get(self, key, default=_MISSING):
        self.used.add(key)
        if key in self.pairs:
            return self.pairs[key]
        if default is _MISSING:
            raise ScenarioError("missing required key %r" % key)
        return default

    def int(self, key, default=_MISSING, minimum=None):
        raw = self.get(key, default)
        if raw is default and default is not _MISSING:
            return default
        try:
            val = int(raw)
        except (TypeError, ValueError):
            raise ScenarioError(
                "key %r must be an integer, got %r" % (key, raw), line=self.line(key)
            )
        if minimum is not None and val < minimum:
            raise ScenarioError(
                "key %r must be >= %d, got %d" % (key, minimum, val),
                line=self.line(key),
            )
        return val

    def fail(self, key, message):
        raise ScenarioError(message, line=self.line(key), col=self.cols.get(key))

    def check_unused(self):
        extra = [k for k in self.pairs if k not in self.used]
        if extra:
            k = min(extra, key=lambda k: self.lines[k])
            raise ScenarioError(
                "unknown key %r for this task" % k, line=self.lines[k]
            )


# -- literal parsers ----------------------------------------------------------


def build_ring(sc):
    """The scenario's ring, after loading the engine modules of its task."""
    for name in TASK_MODULES.get(sc.pairs.get("task"), "").split():
        importlib.import_module("." + name, __package__)
    p = sc.int("p", minimum=2)
    e = sc.int("e", 1, minimum=1)
    d = sc.int("d", 1, minimum=0)
    try:
        return ring_over(p, e, d)
    except ValueError as exc:
        raise ScenarioError("bad field/ring: %s" % exc, line=sc.line("p"))


def parse_poly(sc, ring, key, text=None, col_base=None):
    raw = sc.get(key) if text is None else text
    if text is None:
        col_base = sc.cols.get(key)
    try:
        return ring.parse(raw)
    except ValueError as exc:
        msg = str(exc)
        col = None
        m = re.search(r"at column (\d+)", msg)
        if m is not None and col_base is not None:
            col = col_base + int(m.group(1)) - 1
        raise ScenarioError(
            "bad polynomial in %r: %s" % (key, msg), line=sc.line(key), col=col
        )


def parse_scalar(sc, ring, key):
    f = parse_poly(sc, ring, key)
    if f.total_degree() > 0:
        sc.fail(key, "key %r must be a field constant" % key)
    return f.constant_term()


def parse_window(sc, key):
    raw = sc.get(key)
    m = re.fullmatch(r"\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*", raw)
    if not m:
        sc.fail(key, "key %r must look like 'lo..hi'" % key)
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        sc.fail(key, "window is empty: %d > %d" % (lo, hi))
    return lo, hi


def parse_entries(sc, ring, key, text=None):
    """`j: poly; j: poly` with integer (possibly negative) slots."""
    raw = sc.get(key) if text is None else text
    entries = {}
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            sc.fail(key, "entry %r must look like 'slot: poly'" % part)
        slot, poly = part.split(":", 1)
        try:
            j = int(slot)
        except ValueError:
            sc.fail(key, "slot %r is not an integer" % slot.strip())
        if j in entries:
            sc.fail(key, "slot %d listed twice" % j)
        entries[j] = parse_poly(sc, ring, key, text=poly.strip())
    return entries


def parse_exponents(sc, ring, minimum=0):
    raw = sc.get("exponents")
    try:
        exps = tuple(int(t) for t in raw.split(",")) if raw else ()
    except ValueError:
        sc.fail("exponents", "exponents must be a comma-separated integer list")
    if len(exps) != ring.d or any(a < 0 for a in exps):
        sc.fail("exponents", "need %d exponents, each >= 0" % ring.d)
    if any(a < minimum for a in exps):
        # x^0 = 1 is a unit: the Koszul sequence of the cone is not regular
        sc.fail("exponents", "the cone needs every exponent >= %d, got %s" % (minimum, raw.strip()))
    return exps


def parse_module(sc, ring, key, text=None):
    from .artinian import ERing
    from .fmodules import DirectSum, ShiftRInf, StdE, StdR
    raw = (sc.get(key) if text is None else text).strip()
    if raw.startswith("Sum[") and raw.endswith("]"):
        inner = raw[len("Sum[") : -1]
        if "Sum[" in inner:  # a '|'-separated element cannot address its parts
            sc.fail(key, "nested Sum[..] is not supported in %r" % raw)
        tokens = [t.strip() for t in inner.split(",")]
        if not tokens or any(not t for t in tokens):
            sc.fail(key, "empty component in %r" % raw)
        parts = [parse_module(sc, ring, key, text=t) for t in tokens]
        try:
            return DirectSum(parts)
        except ValueError as exc:
            sc.fail(key, str(exc))
    if raw == "StdR":
        return StdR(ring)
    if raw == "StdE":
        try:
            return StdE(ERing(ring))
        except ValueError as exc:
            sc.fail(key, str(exc))
    if raw == "ShiftRInf":
        return ShiftRInf(ring)
    sc.fail(key, "unknown module literal %r (expected one of StdR, StdE, ShiftRInf, or Sum[..])" % raw)


_EELEM_RE = re.compile(r"\s*\(\s*(.*?)\s*;\s*(-?\d+)\s*\)\s*$")


def parse_module_elem(sc, module, key, text=None, col=None):
    """`col` is the column where `text` starts on the key's line."""
    from .fmodules import DirectSum, ShiftRInf, StdE, StdR
    raw = sc.get(key) if text is None else text
    if text is None:
        col = sc.cols.get(key)
    ring = module.ring
    if isinstance(module, StdR):
        return parse_poly(sc, ring, key, text=raw, col_base=col)
    if isinstance(module, StdE):
        m = _EELEM_RE.fullmatch(raw)
        if not m:
            sc.fail(key, "element %r must look like '(numer; level)'" % raw)
        level = int(m.group(2))
        if level < 1:
            sc.fail(key, "level must be >= 1, got %d" % level)
        numer = parse_poly(sc, ring, key, text=m.group(1))
        return module.ering.elem(numer, level)
    if isinstance(module, ShiftRInf):
        return module.coerce(parse_entries(sc, ring, key, text=raw))
    if isinstance(module, DirectSum):
        comps = raw.split("|")
        if len(comps) != len(module.parts):
            sc.fail(
                key,
                "expected %d '|'-separated components, got %d"
                % (len(module.parts), len(comps)),
            )
        elems = []
        for part, c in zip(module.parts, comps):
            lead = len(c) - len(c.lstrip())
            elems.append(parse_module_elem(sc, part, key, text=c.strip(), col=col + lead))
            col += len(c) + 1
        return tuple(elems)
    sc.fail(key, "cannot parse elements for this module")


def fmt_elem(module, z):
    from .fmodules import DirectSum, ShiftRInf, StdR
    if isinstance(module, StdR):
        return module.ring.format(z)
    if isinstance(module, DirectSum):
        return " | ".join(fmt_elem(p, c) for p, c in zip(module.parts, z))
    if isinstance(module, ShiftRInf):
        return module.format(z)
    return repr(z)


def build_structure(sc, algebra):
    from .cartier import random_module, scaled_module, standard_module, zero_structure_module
    rank = sc.int("rank", 1, minimum=0)
    raw = sc.get("structure", "standard")
    if raw == "standard":
        return standard_module(algebra, rank), raw
    if raw == "zero":
        return zero_structure_module(algebra, rank), raw
    if raw.startswith("scaled:"):
        lam = parse_poly(sc, algebra.ring, "structure", text=raw[len("scaled:") :])
        return scaled_module(algebra, lam, rank), raw
    if raw.startswith("random:"):
        seed_txt = raw[len("random:") :].strip()
        try:
            seed = int(seed_txt)
        except ValueError:
            sc.fail("structure", "random seed %r is not an integer" % seed_txt)
        return random_module(algebra, rank, seed), raw
    sc.fail(
        "structure",
        "unknown structure %r (standard | zero | scaled:<poly> | random:<seed>)" % raw,
    )


def build_quotient_module(sc, ring, minimum=0):
    from .artinian import ArtinianAlgebra
    exps = parse_exponents(sc, ring, minimum)
    algebra = ArtinianAlgebra(ring, exps)
    module, structure = build_structure(sc, algebra)
    echo = {
        "exponents": list(exps),
        "rank": module.rank,
        "structure": structure,
        "carrier_dim_fp": module.space().dim(),
    }
    return module, echo


# -- task handlers ------------------------------------------------------------


def run_ext1_class(sc, ring):
    from .fmodules import ext1_class
    module = parse_module(sc, ring, "module")
    u1 = parse_module_elem(sc, module, "u1")
    u2 = parse_module_elem(sc, module, "u2")
    rep = ext1_class(
        module,
        u1,
        u2,
        level_bound=sc.int("level_bound", 4, minimum=1),
        samples=sc.int("samples", 20, minimum=1),
        seed=sc.int("seed", 0),
    )
    rep["module"] = module.describe()
    rep["u1"] = fmt_elem(module, u1)
    rep["u2"] = fmt_elem(module, u2)
    return rep


def run_as_solve(sc, ring):
    from .fmodules import as_solve
    module = parse_module(sc, ring, "module")
    target = parse_module_elem(sc, module, "target")
    rep = as_solve(module, target, level_bound=sc.int("level_bound", 4, minimum=1))
    rep["module"] = module.describe()
    rep["target"] = fmt_elem(module, target)
    return rep


def run_two_step(sc, ring):
    from .skew import check_two_step_exact
    module, echo = build_quotient_module(sc, ring)
    rep = check_two_step_exact(module, sc.int("dmax", 4, minimum=1))
    rep["module"] = echo
    return rep


def run_cone_resolution(sc, ring):
    from .cartier import ConeComplex, cone_acyclicity_report
    module, echo = build_quotient_module(sc, ring, minimum=1)
    cone = ConeComplex(module)
    cap = sc.int("cap", max((*module.algebra.exponents, 1)), minimum=0)
    dfmax = sc.int("dfmax", 2, minimum=0)
    growth = sc.int("max_growth", 3, minimum=1)
    acyc = cone_acyclicity_report(cone, cap, dfmax, max_growth=growth)
    squares = cone.d_squared_on_generators()
    linear = cone.right_linearity_check(seed=sc.int("seed", 0))
    return {
        "module": echo,
        "length": cone.length,
        "differential_squares_to_zero": squares,
        "right_linear": linear,
        "acyclicity": acyc,
        "passed": bool(squares and linear and acyc["passed"]),
    }


def run_ext_rf(sc, ring):
    from .cartier import ext_rf
    module, echo = build_quotient_module(sc, ring, minimum=1)
    j = sc.int("j", minimum=0)
    target_name = sc.get("target", "artinian")
    caps = {}
    if target_name == "artinian":
        target = module
    elif target_name == "free":
        target = ring
        bounds = (("cap", 0), ("gap", 0), ("max_rounds", 1))
        caps = {k: v for k, low in bounds if (v := sc.int(k, None, minimum=low)) is not None}
    else:
        sc.fail("target", "target must be 'artinian' or 'free', got %r" % target_name)
    rep = ext_rf(module, target, j, **caps)
    rep["module"] = echo
    rep["j"] = j
    rep["target"] = target_name
    return rep


def run_coker_formula(sc, ring):
    from .fmodules import coker_formula
    return {
        "dimension": coker_formula(ring.field),
        "proven": True,
        "map": "c - c^p on the coefficient field, cokernel over F_p",
    }


def run_hdual_membership(sc, ring):
    from .skew import format_seq, in_image_hdual
    lo, hi = parse_window(sc, "window")
    bound = sc.int("degree_bound", 3, minimum=0)
    entries = parse_entries(sc, ring, "target")
    outside = sorted(j for j in entries if not lo <= j <= hi + 1)
    if outside:
        sc.fail("target", "target slot %d lies outside %d..%d" % (outside[0], lo, hi + 1))
    target = {j: f for j, f in entries.items() if f}
    rep = in_image_hdual(ring, target, (lo, hi), bound)
    rep["target"] = format_seq(ring, target)
    return rep


def run_shift_ses(sc, ring):
    from .fmodules import shift_ses_check
    return shift_ses_check(
        ring,
        nmax=sc.int("n", 3, minimum=1),
        degree_bound=sc.int("degree_bound", 2, minimum=0),
    )


def run_hom_fr(sc, ring):
    from .fmodules import StdE, StdR, hom_fr
    source = parse_module(sc, ring, "source")
    target = parse_module(sc, ring, "target")
    if (type(source), type(target)) not in ((StdR, StdR), (StdE, StdE)):
        sc.fail("target", "hom-fr solves StdR -> StdR and StdE -> StdE only")
    rep = hom_fr(
        source,
        target,
        level=sc.int("level", 4, minimum=1),
        degree_bound=sc.int("degree_bound", 4, minimum=0),
    )
    rep["source"] = source.describe()
    rep["target"] = target.describe()
    return rep


def run_unitalize(sc, ring):
    from .cartier import unitalize_report
    module, echo = build_quotient_module(sc, ring)
    rep = unitalize_report(module, sc.int("levels", 3, minimum=1))
    rep["module"] = echo
    return rep


def run_rational_distinct(sc, ring):
    from .fmodules import rational_class_distinct
    from .rational import RationalBase
    if ring.d != 1:
        sc.fail("d", "rational-distinct needs a univariate ring (d: 1)")
    a = parse_scalar(sc, ring, "a")
    b = parse_scalar(sc, ring, "b")
    if a == b:
        sc.fail("b", "the two pole locations coincide")
    t = ring.gens()[0]
    raw_d = sc.get("denominator", None)
    if raw_d is None:
        denom = (t - ring.coerce(a)) * (t - ring.coerce(b))
    else:
        denom = parse_poly(sc, ring, "denominator")
    try:
        base = RationalBase(ring, denom)
        rep = rational_class_distinct(
            base,
            a,
            b,
            level_bound=sc.int("level_bound", 3, minimum=1),
            degree_bound=sc.int("degree_bound", 3, minimum=0),
        )
    except ValueError as exc:
        raise ScenarioError("invalid rational scenario: %s" % exc, line=sc.line("a"))
    rep["a"] = ring.field.format_elem(a)
    rep["b"] = ring.field.format_elem(b)
    rep["denominator"] = ring.format(denom)
    return rep


TASKS = {
    "ext1-class": run_ext1_class,
    "as-solve": run_as_solve,
    "two-step-check": run_two_step,
    "cone-resolution": run_cone_resolution,
    "ext-rf": run_ext_rf,
    "coker-formula": run_coker_formula,
    "hdual-membership": run_hdual_membership,
    "shift-ses": run_shift_ses,
    "hom-fr": run_hom_fr,
    "unitalize": run_unitalize,
    "rational-distinct": run_rational_distinct,
}

# The engine modules that each task's handler imports (and those import what
# they need).  `build_ring` loads them before the task is timed.
TASK_MODULES = {
    "ext1-class": "fmodules", "as-solve": "fmodules", "coker-formula": "fmodules",
    "shift-ses": "fmodules", "hom-fr": "fmodules", "rational-distinct": "fmodules rational",
    "two-step-check": "artinian cartier skew", "cone-resolution": "artinian cartier",
    "ext-rf": "artinian cartier", "unitalize": "artinian cartier", "hdual-membership": "skew",
}


# -- report plumbing ----------------------------------------------------------


def _plain(report):
    """The report as JSON values only: tuples become lists, keys strings and
    any other object its str()."""
    return json.loads(json.dumps(report, default=str))


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {
            k: strip_volatile(v) for k, v in obj.items() if k != "elapsed_ms"
        }
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def _leaves(obj, path=""):
    """The (path, leaf) pairs of a plain report: dict keys in sorted order,
    list items by index; an empty container has none."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], "%s.%s" % (path, k) if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, "%s[%d]" % (path, i))
    else:
        yield path, obj


def inconclusive_paths(report):
    """Every spot in the report that admits it could not decide: a leaf
    `stable: false` or `inconclusive: true`."""
    return [
        path
        for path, v in _leaves(report)
        if (v is True or v is False)
        and path.rpartition(".")[2] == ("inconclusive" if v else "stable")
    ]


def flatten_lines(report):
    return ["%s: %s" % (path, json.dumps(v)) for path, v in _leaves(report)]


def diff_paths(got, expected):
    """The first six leaves where two canonical reports disagree."""
    a, b = dict(_leaves(got)), dict(_leaves(expected))
    diffs = []
    for path in list(a) + [k for k in b if k not in a]:
        if path not in b:
            diffs.append("%s: not in expected report" % path)
        elif path not in a:
            diffs.append("%s: missing in new run" % path)
        elif a[path] != b[path]:
            diffs.append("%s: %r != expected %r" % (path, a[path], b[path]))
        if len(diffs) == 6:
            break
    return diffs


def run_scenario_file(path):
    """Parse and execute one scenario; returns (report, exit_code)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError("cannot read scenario: %s" % exc)
    sc = Scenario(path, text)
    task = sc.get("task")
    handler = TASKS.get(task)
    if handler is None:
        sc.fail(
            "task",
            "unknown task %r (expected one of: %s)" % (task, ", ".join(sorted(TASKS))),
        )
    ring = build_ring(sc)
    t0 = time.perf_counter()
    body = handler(sc, ring)
    elapsed = (time.perf_counter() - t0) * 1000.0
    sc.check_unused()
    field = ring.field
    report = {"task": task, "field": {"p": field.p, "e": field.e, "q": field.q}}
    report["ring"] = {"d": ring.d, "vars": list(ring.var_names)}
    report.update(body)
    report["elapsed_ms"] = round(elapsed, 3)
    report = _plain(report)
    code = 2 if inconclusive_paths(report) else 0
    return report, code


def emit_report(report, fmt, out):
    if fmt == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        payload = "\n".join(flatten_lines(report)) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_run(args):
    try:
        report, code = run_scenario_file(args.scenario)
    except ScenarioError as exc:
        print(exc.render(args.scenario), file=sys.stderr)
        return 1
    emit_report(report, args.emit, args.out)
    if code == 2:
        print(
            "inconclusive: " + "; ".join(inconclusive_paths(report)), file=sys.stderr
        )
    return code


def cmd_regress(args):
    root = args.corpus
    if not os.path.isdir(root):
        print("error: corpus directory %r does not exist" % root, file=sys.stderr)
        return 1
    names = sorted(
        f[: -len(".scenario")] for f in os.listdir(root) if f.endswith(".scenario")
    )
    if not names:
        print("error: no *.scenario entries in %r" % root, file=sys.stderr)
        return 1
    failures = 0
    for name in names:
        spath = os.path.join(root, name + ".scenario")
        epath = os.path.join(root, name + ".expected.json")
        if not os.path.exists(epath):
            print("MISSING %s (no expected report)" % name)
            failures += 1
            continue
        try:
            with open(epath, "r", encoding="utf-8") as fh:
                expected = json.load(fh)
        except ValueError as exc:
            print("BROKEN %s (expected report is not JSON: %s)" % (name, exc))
            failures += 1
            continue
        try:
            report, _ = run_scenario_file(spath)
        except ScenarioError as exc:
            print("ERROR %s (%s)" % (name, exc.message))
            failures += 1
            continue
        except Exception as exc:  # one crashing entry must not abort the run
            print("CRASH %s (%s: %s)" % (name, type(exc).__name__, exc), flush=True)
            try:
                traceback.print_exc()
            except MemoryError:  # near the limit, printing the traceback can run out too
                pass
            failures += 1
            continue
        got = strip_volatile(report)
        want = strip_volatile(expected)
        if got != want:
            print("DRIFT %s" % name)
            for line in diff_paths(got, want):
                print("    " + line)
            failures += 1
        else:
            print("ok %s" % name)
    if failures:
        print("%d of %d corpus entries failed" % (failures, len(names)))
        return 1
    print("all %d corpus entries match" % len(names))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="frobext",
        description="Frobenius-module scenario runner with canonical reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one scenario file")
    runp.add_argument("scenario", help="path to a key: value scenario file")
    runp.add_argument("--emit", choices=("json", "text"), default="json")
    runp.add_argument("--out", default=None, help="write the report here")
    runp.set_defaults(func=cmd_run)
    regp = sub.add_parser("regress", help="re-run a corpus and diff the reports")
    regp.add_argument("corpus", help="directory of <name>.scenario/.expected.json")
    regp.set_defaults(func=cmd_regress)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
