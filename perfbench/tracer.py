"""Outside-in tracing of frobext's layers, installed from the benchmark.

`Tracer.install()` replaces public functions and methods of the layer modules
with wrappers that time and count calls.  A function is replaced at every
attribute that refers to it -- in its own module, in every module that
imported it by name, and under every alias in its class -- because that is
the attribute the caller resolves.  The wrappers call the original with the
same arguments and return its result unchanged, so a traced run gives the
same reports as an untraced one.

Timed calls are spans on one stack.  A span's self time is its duration minus
the time covered by the spans it called.  Everything is kept in memory and
read once, through `metrics()`, when the pass is over.

The install is process-wide and is never undone: call it only in a process
that exists to run one traced pass.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

# Every module whose globals may hold a traced function.
MODULES = (
    "field", "poly", "linalg", "artinian", "koszul", "rational",
    "skew", "cartier", "fmodules", "cli",
)

# The five task engines: one verdict each, timed as flatten / elimination /
# verify phases.
ENGINES = (
    ("skew", "in_image_hdual"),
    ("skew", "check_two_step_exact"),
    ("cartier", "cone_acyclicity_report"),
    ("cartier", "ext_rf"),
    ("fmodules", "as_solve"),
)

# Methods that are only counted: (module, class, method, metric).
COUNTED = (
    ("field", "FqSpec", "from_coords", "field.from_coords_calls"),
    ("field", "FqSpec", "_mul", "field.mul_calls"),
    ("poly", "MultiPoly", "__mul__", "poly.mul_calls"),
    ("poly", "MultiPoly", "frobenius", "poly.frobenius_calls"),
    ("poly", "PolyRing", "cartier", "poly.cartier_calls"),
    ("poly", "PolyRing", "frobenius_digits", "poly.frobenius_digits_calls"),
    ("artinian", "EElem", "pth_power", "artinian.pth_power_calls"),
)

# Coordinate-space work, all timed under the one span "poly.space".
SPACE_METHODS = (
    ("__init__", "poly.space_builds"),
    ("coords", "poly.space_coords_calls"),
    ("from_coords", "poly.space_from_coords_calls"),
)
SPACE_FUNCTIONS = ("monomials_total_degree", "monomials_box")

MB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.stack = []  # one [time covered by child spans] per open span
        # [start, time that is not flattening, end of the last elimination]
        self.engine = None
        self.phase_s = Counter()
        self.blocks = set()
        self.rhs_cols = 0  # trailing b columns of the next elimination
        self.max_matrix_mb = 0.0

    # -- span and counter plumbing ---------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        """Wrap fn as a span.  before(args) runs first and its time is
        charged to no layer; after(result, start, duration) runs once the
        span has closed."""
        stack, self_s, clock = self.stack, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t = clock()
                before(args)
                hook = clock() - t
                if stack:
                    stack[-1][0] += hook
                if self.engine is not None:
                    self.engine[1] += hook
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(result, start, duration)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- layer hooks -------------------------------------------------------

    def _before_rref(self, args):
        A, p = args[0], args[1]
        arr = np.asarray(A, dtype=np.int64) % p
        m, n = arr.shape
        c = self.counts
        c["linalg.rref_calls"] += 1
        c["linalg.rref_cells"] += m * n
        c["linalg.rref_nnz"] += int(np.count_nonzero(arr))
        c["linalg.transform_cells"] += m * m
        self.max_matrix_mb = max(self.max_matrix_mb, 8 * (m * n + m * m) / MB)
        # A solve eliminates [A | b]; repeats are counted on the A block.
        block = np.ascontiguousarray(arr[:, : n - self.rhs_cols])
        self.rhs_cols = 0
        digest = hashlib.blake2b(block.data, digest_size=16).hexdigest()
        self.blocks.add((p, block.shape, digest))

    def _after_rref(self, result, start, duration):
        if self.engine is not None:
            self.engine[1] += duration
            self.engine[2] = start + duration

    def _solve(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(A, b, p):
            self.rhs_cols = 1 if np.ndim(b) == 1 else np.shape(b)[1]
            result = fn(A, b, p)
            counts["linalg.solve_calls"] += 1
            if result[1] is not None:
                counts["linalg.unsat_certs"] += 1
            return result

        return wrapper

    def _after_matrix_of_map(self, result, start, duration):
        self.counts["linalg.matrix_of_map_cols"] += result.mat.shape[1]

    def _engine(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.engine is not None:  # an engine called by an engine
                return fn(*args, **kwargs)
            start = clock()
            self.engine = [start, 0.0, start]
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                _, excluded, last = self.engine
                self.engine = None
                self.phase_s["flatten.s"] += last - start - excluded
                self.phase_s["verify.s"] += end - last

        return self._timed("engine", wrapper)

    # -- installation --------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module("frobext." + name) for name in MODULES}

        def rebind(original, wrapper):
            """Point every module global and class attribute that refers to
            `original` at `wrapper`."""
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                    elif inspect.isclass(val) and val.__module__ == mod.__name__:
                        for cattr, cval in list(vars(val).items()):
                            if cval is original:
                                setattr(val, cattr, wrapper)

        linalg = mods["linalg"]
        rebind(linalg.rref_transform, self._timed(
            "linalg.rref", linalg.rref_transform, self._before_rref, self._after_rref))
        rebind(linalg.solve_with_certificate, self._solve(linalg.solve_with_certificate))
        rebind(linalg.matrix_of_map, self._timed(
            "linalg.matrix_of_map", linalg.matrix_of_map, after=self._after_matrix_of_map))
        for mod, name in ENGINES:
            fn = getattr(mods[mod], name)
            rebind(fn, self._engine(fn))
        for mod, cls, meth, key in COUNTED:
            fn = vars(getattr(mods[mod], cls))[meth]
            rebind(fn, self._counted(key, fn))
        space = mods["poly"].PolySpace
        for meth, key in SPACE_METHODS:
            fn = vars(space)[meth]
            rebind(fn, self._counted(key, self._timed("poly.space", fn)))
        for name in SPACE_FUNCTIONS:
            fn = getattr(mods["poly"], name)
            rebind(fn, self._timed("poly.space", fn))
        fn = mods["cli"].run_scenario_file
        rebind(fn, self._timed("cli.task", fn))

    # -- results ---------------------------------------------------------------

    def metrics(self):
        c = self.counts
        calls = c["linalg.rref_calls"]
        cells = c["linalg.rref_cells"]
        out = {
            "linalg.rref_s": self.self_s["linalg.rref"],
            "linalg.rref_calls": calls,
            "linalg.rref_cells": cells,
            "linalg.nnz_frac": c["linalg.rref_nnz"] / cells if cells else 0.0,
            "linalg.distinct_frac": len(self.blocks) / calls if calls else 0.0,
            "linalg.transform_cells": c["linalg.transform_cells"],
            "linalg.max_matrix_mb": self.max_matrix_mb,
            "linalg.unsat_certs": c["linalg.unsat_certs"],
            "linalg.solve_calls": c["linalg.solve_calls"],
            "flatten.s": self.phase_s["flatten.s"],
            "verify.s": self.phase_s["verify.s"],
            "linalg.matrix_of_map_s": self.self_s["linalg.matrix_of_map"],
            "linalg.matrix_of_map_cols": c["linalg.matrix_of_map_cols"],
            "poly.space_s": self.self_s["poly.space"],
            "cli.task_s": self.self_s["cli.task"],
        }
        for _, key in SPACE_METHODS:
            out[key] = c[key]
        for _, _, _, key in COUNTED:
            out[key] = c[key]
        return out
