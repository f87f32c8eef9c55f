"""frobext benchmark: one workload, one seed, timed in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's scenarios are
generated from the seed into a scratch directory inside the checkout.  Passes
run one after another, each in a fresh single-threaded process (`worker.py`)
that imports frobext from `src/`: a closed loop with one client.  A pass
starts only if it should end within S seconds.

--trace 0 prints the end-to-end metrics: wall time (the sum over scenarios
of each one's median time across passes), median set-up time (two
set-up-only processes before every pass add samples, so they are spread over
the whole run) and median peak RSS.  Both times are at reference speed: each
sample is scaled by REFERENCE_S over the mean time of a short fixed piece of
pure-Python work (`worker.Reference`) timed over or right next to it, which
cancels most of a shared host's drift in speed.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones and their overhead.

The last line of stdout is one JSON object: correct, attempted, failed
(counted in scenario runs) and metrics.  Failures and each pass's
per-scenario times go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 2  # set-up-only processes before each pass
PASS_TIMEOUT_S = 150
MAX_CRASHED_PASSES = 3
# The reference's time at reference speed: about its median inside workers on
# the 2-vCPU VM that baseline.json was measured on, so that times read as
# seconds there.  Changing it rescales every time metric.
REFERENCE_S = 0.0068

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "linalg.rref_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_cells": "count",
    "linalg.nnz_frac": "ratio",
    "linalg.distinct_frac": "ratio",
    "linalg.transform_cells": "count",
    "linalg.max_matrix_mb": "MB",
    "linalg.unsat_certs": "count",
    "linalg.solve_calls": "count",
    "flatten.s": "s",
    "verify.s": "s",
    "linalg.matrix_of_map_s": "s",
    "linalg.matrix_of_map_cols": "count",
    "poly.space_coords_calls": "count",
    "poly.space_from_coords_calls": "count",
    "poly.space_s": "s",
    "poly.space_builds": "count",
    "field.from_coords_calls": "count",
    "field.mul_calls": "count",
    "poly.mul_calls": "count",
    "poly.frobenius_calls": "count",
    "poly.cartier_calls": "count",
    "poly.frobenius_digits_calls": "count",
    "artinian.pth_power_calls": "count",
    "cli.task_s": "s",
    "cli.parse_s": "s",
    "import_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a measurement."""


def spawn(manifest, reference, *flags):
    """Run one worker process to completion and return its JSON output, with
    `reference`'s time just before the start as `spawn_ref_s`."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    spawn_ref_s = reference.time_s(worker.SETUP_REF_SAMPLES)
    cmd = [sys.executable, str(HERE / "worker.py"), manifest, *flags]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out after %d s" % PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            "worker exited with %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])
        )
    out = json.loads(lines[-1])
    out["spawn_ref_s"] = spawn_ref_s
    return out


@dataclass
class Runs:
    """What one measuring period produced."""

    passes: list = field(default_factory=list)  # untraced worker outputs
    traced: list = field(default_factory=list)  # traced worker outputs
    setups: list = field(default_factory=list)  # every worker output
    failures: list = field(default_factory=list)  # (scenario, reason)
    attempted: int = 0  # scenario runs


def measure(manifest, entries, seconds, trace):
    """Run passes, alternating untraced and traced ones when `trace`, each
    after SETUP_SAMPLES set-up-only processes, until the next one would end
    after `seconds`."""
    runs = Runs()
    reference = worker.Reference()
    last = {False: 0.0, True: 0.0}  # duration of the last pass of each kind
    crashed = 0
    start = time.monotonic()
    while True:
        tracing = trace and len(runs.traced) < len(runs.passes)
        elapsed = time.monotonic() - start
        if runs.passes and (runs.traced or not trace) and elapsed + last[tracing] > seconds:
            break
        begun = time.monotonic()
        runs.setups += [spawn(manifest, reference, "--setup-only") for _ in range(SETUP_SAMPLES)]
        runs.attempted += len(entries)
        try:
            out = spawn(manifest, reference, *(("--trace",) if tracing else ()))
        except BenchError as exc:
            runs.failures += [(e["name"], "pass crashed: %s" % exc) for e in entries]
            crashed += 1
            if crashed == MAX_CRASHED_PASSES:
                raise
            continue
        last[tracing] = time.monotonic() - begun
        (runs.traced if tracing else runs.passes).append(out)
        runs.setups.append(out)
        runs.failures += [(r["name"], r["error"]) for r in out["results"] if "error" in r]
    if trace:
        want = {r["name"]: r.get("digest") for r in runs.passes[0]["results"]}
        for out in runs.traced:
            for r in out["results"]:
                if "error" not in r and r["digest"] != want[r["name"]]:
                    runs.failures.append((r["name"], "traced report differs from untraced"))
    return runs


def median_of(outs, key):
    return statistics.median(out[key] for out in outs)


def setup_time(out):
    """Set-up time at reference speed, against the loop timed just before
    the process started and right after its set-up."""
    return out["setup_s"] * REFERENCE_S * 2 / (out["spawn_ref_s"] + out["setup_ref_s"])


def pass_wall(outs):
    """Sum over the scenarios of each one's median time across passes, at
    reference speed.  The speed of a shared host drifts by up to half within
    seconds; the reference loop timed around each scenario follows it
    (README.md gives the measured spreads)."""
    per_scenario = zip(*(out["results"] for out in outs))
    return sum(
        statistics.median(r["wall_s"] * REFERENCE_S / r["ref_s"] for r in rs)
        for rs in per_scenario
    )


def end_to_end(runs):
    return {
        "wall_s": pass_wall(runs.passes),
        "setup_s": statistics.median(setup_time(out) for out in runs.setups),
        "peak_rss_mb": median_of(runs.passes, "peak_rss_mb"),
    }


def per_layer(runs):
    layers = [out["layers"] for out in runs.traced]
    counts = [{k: v for k, v in lay.items() if isinstance(v, int)} for lay in layers]
    if any(c != counts[0] for c in counts):
        raise BenchError("layer counts differ between traced passes of one input")
    metrics = {k: statistics.median(lay[k] for lay in layers) for k in layers[0]}
    metrics["cli.parse_s"] = median_of(runs.setups, "parse_s")
    metrics["import_s"] = median_of(runs.setups, "import_s")
    metrics["trace.overhead"] = pass_wall(runs.traced) / pass_wall(runs.passes)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running worker is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if sys.flags.optimize:
        # Re-verification in frobext is plain asserts, which -O removes.
        print("error: refusing to run under python -O", file=sys.stderr)
        return 1
    if not (ROOT / "src" / "frobext" / "__init__.py").is_file():
        print("error: no frobext sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 1

    scenarios = workloads.generate(args.workload, args.seed)
    # Inside the checkout: the benchmark reads and writes nowhere else.
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        entries = []
        for sc in scenarios:
            path = os.path.join(work, sc["name"] + ".scenario")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(sc["text"])
            entries.append({"name": sc["name"], "path": path, "expect": sc["expect"]})
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        runs = measure(manifest, entries, args.seconds, bool(args.trace))
        if args.trace:
            values, units = per_layer(runs), LAYER_UNITS
        else:
            values, units = end_to_end(runs), END_TO_END
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, why in runs.failures:
        print("FAILED %s: %s" % (name, why.strip()), file=sys.stderr)
    for kind, outs in (("pass", runs.passes), ("traced pass", runs.traced)):
        for out in outs:
            times = " ".join("%.3f/%.4f" % (r["wall_s"], r["ref_s"]) for r in out["results"])
            print("%s (wall_s/ref_s): %s" % (kind, times), file=sys.stderr)
    print(
        "%s seed %d: failed_frac %d/%d"
        % (args.workload, args.seed, len(runs.failures), runs.attempted),
        file=sys.stderr,
    )
    result = {
        "correct": not runs.failures,
        "attempted": runs.attempted,
        "failed": len(runs.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
