"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/prove.py --workload NAME [--workload NAME ...]
        --seeds 1-10 --seconds 30 [--out FILE]

For every workload and metric it prints the median of the per-seed values
and the distance between their first and third quartiles as a share of the
median (`statistics.quantiles(values, n=4)`), which is how a metric's spread
is compared with its bound in BENCHMARK.json.  It measures the end-to-end
metrics (--trace 0).  --out writes the raw values and the summary as JSON;
baseline.json is built from two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out")
    args = parser.parse_args()
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(proc.stderr)
            runs.append({"seed": seed, **result})
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, iqr = spread(values)
            metrics[name] = {"median": med, "iqr_frac": iqr, "values": values}
            print("%-14s %-30s median %-12.6g iqr/median %.4f" % (workload, name, med, iqr))
        summary[workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
