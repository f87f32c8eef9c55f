"""One pass of a workload in a fresh process.

    python3 worker.py MANIFEST --spawned-at T [--trace] [--setup-only]

MANIFEST is a JSON list of {"name", "path", "expect"} entries.  The worker
imports frobext, parses every scenario and builds its ring (set-up), then
runs the scenarios one at a time through `frobext.cli.run_scenario_file` and
checks each report.  A crash, a non-zero exit code or a wrong result counts
as a failed scenario and the pass goes on.  It prints one JSON object on
stdout.  T is the parent's `time.monotonic()` just before it started this
process, so set-up includes interpreter start-up.

The host's speed drifts by up to half within seconds, so the worker also
measures it: right after set-up, and before, during and after every scenario
(`SpeedProbe`), it times a short fixed piece of pure-Python work
(`Reference`).  The parent divides each time by the reference's mean time
over the same span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import signal
import sys
import time
import traceback

import workloads


PROBE_INTERVAL_S = 0.05
SETUP_REF_SAMPLES = 10  # reference runs timed next to each set-up
MB = float(1 << 20)


class Reference:
    """A fixed piece of pure-Python work, about 6 ms, whose time follows the
    host's speed.

    It is an arithmetic loop plus reads of int objects at random places in a
    36 MB heap.  On a shared host, arithmetic-bound code (elimination,
    F_q arithmetic) and code that walks many Python objects (flattening)
    slow down by different amounts, and the mix tracks both kinds better
    than either part alone (README.md).
    """

    ARITHMETIC = 30_000  # loop iterations, about 2.5 ms
    LOADS = 10_000  # random reads, about 3 ms

    def __init__(self):
        self.ints = list(range(1 << 20, 2 << 20))
        rng = random.Random(0)
        self.places = [rng.randrange(len(self.ints)) for _ in range(self.LOADS)]

    def time_s(self, samples=1):
        """Mean seconds of one run, now, over `samples` runs."""
        ints, places = self.ints, self.places
        spent = 0.0
        for _ in range(samples):
            start = time.perf_counter()
            total = 0
            for i in range(self.ARITHMETIC):
                total += i * i % 7
            for k in places:
                total += ints[k]
            spent += time.perf_counter() - start
        return spent / samples


def rss_bytes():
    """This process's resident memory now (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


class SpeedProbe:
    """Times `reference` every PROBE_INTERVAL_S while a span runs.

    A SIGALRM handler runs it between two bytecodes of whatever is running,
    so the samples cover the whole span, not only its edges.  The span's
    code sees no change but the delay, which `stop()` takes out of the
    span's time.  `close()` puts back the previous SIGALRM handler.
    """

    def __init__(self, reference):
        self.reference = reference
        self.samples = []
        self.began = 0.0
        self.previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())

    def sample(self):
        self.samples.append(self.reference.time_s())

    def start(self):
        self.samples = []
        self.sample()
        self.began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        """End the span; returns its seconds without the samples taken in it,
        and the reference's mean time over the span and one sample on each
        edge."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        span_s = time.perf_counter() - self.began - sum(self.samples[1:])
        self.sample()
        return span_s, sum(self.samples) / len(self.samples)

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)


def digest(report):
    """Hash of the report without its one volatile field."""
    plain = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()


def run_pass(entries, runner, reference):
    """Run and check every entry in turn; returns one result per entry with
    its wall time (probe samples taken out), the reference's mean time over
    it, its report digest and, if it failed, the reason."""
    probe = SpeedProbe(reference)
    results = []
    try:
        for entry in entries:
            probe.start()
            result = {"name": entry["name"]}
            try:
                report, code = runner(entry["path"])
            except Exception:
                result["error"] = traceback.format_exc(limit=3)
            else:
                result["digest"] = digest(report)
                reason = workloads.check(entry["expect"], report, code)
                if reason is not None:
                    result["error"] = reason
            result["wall_s"], result["ref_s"] = probe.stop()
            results.append(result)
    finally:
        probe.close()
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.manifest, encoding="utf-8") as fh:
        entries = json.load(fh)

    t0 = time.monotonic()
    import frobext.cli as cli

    t1 = time.monotonic()
    for entry in entries:
        with open(entry["path"], encoding="utf-8") as fh:
            cli.build_ring(cli.Scenario(entry["path"], fh.read()))
    t2 = time.monotonic()
    out = {"setup_s": t2 - args.spawned_at, "import_s": t1 - t0, "parse_s": t2 - t1}
    before = rss_bytes()
    reference = Reference()
    reference_bytes = rss_bytes() - before  # resident until exit
    out["setup_ref_s"] = reference.time_s(SETUP_REF_SAMPLES)
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        # Looked up after install, so a traced pass calls the wrapper.
        out["results"] = run_pass(entries, cli.run_scenario_file, reference)
        if tracer is not None:
            out["layers"] = tracer.metrics()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - reference_bytes
    out["peak_rss_mb"] = peak / MB
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
