"""Self-tests of the benchmark: python3 -m pytest perfbench

They use shrunken sizes of the four workloads, so they take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

TINY = {
    "HDUAL_SIZES": ((2, 1, (-2, 0), 2, "SAT"), (3, 1, (-3, 0), 1, "UNSAT")),
    "CONE_SIZES": ((2, 1, (1,), 1, 1),),
    "EXT_SIZES": ((2, 1, (1,)),),
    "TWO_STEP_SIZES": ((2, 2, 1, (2,), 1, 2, 1),),
    "AS_SOLVE_FIELD": (2, 2, 1),
    "AS_SOLVE_LEVEL": 4,
}


@pytest.fixture(scope="module")
def reference():
    return worker.Reference()


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)


def write_manifest(tmp_path, seed):
    entries = []
    for name in sorted(workloads.WORKLOADS):
        for sc in workloads.generate(name, seed):
            path = tmp_path / (sc["name"] + ".scenario")
            path.write_text(sc["text"], encoding="utf-8")
            entries.append({"name": sc["name"], "path": str(path), "expect": sc["expect"]})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries), encoding="utf-8")
    return str(manifest), entries


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_scenarios(name):
    assert workloads.generate(name, 5) == workloads.generate(name, 5)
    if name != "ext-free":  # its inputs are fixed by design
        assert workloads.generate(name, 5) != workloads.generate(name, 6)


def test_generated_expectations_hold(tiny, tmp_path, reference):
    from frobext.cli import run_scenario_file

    for seed in range(4):
        _, entries = write_manifest(tmp_path, seed)
        for result in worker.run_pass(entries, run_scenario_file, reference):
            assert "error" not in result, result


def test_flipped_verdict_counts_as_failure(tiny, tmp_path, reference):
    from frobext.cli import run_scenario_file

    _, entries = write_manifest(tmp_path, 1)

    def flipped(path):
        report, code = run_scenario_file(path)
        if "verdict" in report:
            report["verdict"] = {"SAT": "UNSAT", "UNSAT": "SAT"}[report["verdict"]]
        return report, code

    results = worker.run_pass(entries, flipped, reference)
    failed = [r for r in results if "error" in r]
    assert 0 < len(failed) < len(results)
    assert all("verdict" in r["error"] for r in failed)


def test_crash_is_counted_and_the_pass_goes_on(tiny, tmp_path, reference):
    _, entries = write_manifest(tmp_path, 1)

    def crash(path):
        raise RuntimeError("boom")

    results = worker.run_pass(entries, crash, reference)
    assert len(results) == len(entries)
    assert all("boom" in r["error"] for r in results)


def test_traced_pass_matches_untraced_and_repeats_counts(tiny, tmp_path, reference):
    manifest, entries = write_manifest(tmp_path, 2)
    plain = run.spawn(manifest, reference)
    traced = [run.spawn(manifest, reference, "--trace") for _ in range(2)]
    digests = [r["digest"] for r in plain["results"]]
    for out in traced:
        assert [r["digest"] for r in out["results"]] == digests
        assert not any("error" in r for r in out["results"])
    counts = [
        {k: v for k, v in out["layers"].items() if isinstance(v, int)} for out in traced
    ]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.rref_calls"] > 0
    assert counts[0]["field.mul_calls"] > 0
    assert "layers" not in plain


def test_refuses_optimized_mode():
    proc = subprocess.run(
        [sys.executable, "-O", str(ROOT / "perfbench" / "run.py"), "--workload",
         "ext-free", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ext-free", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_times_are_scaled_to_reference_speed():
    def out(speed):
        # A host `speed` times slower stretches every time alike.
        results = [{"wall_s": w * speed, "ref_s": run.REFERENCE_S * speed} for w in (1.0, 2.5)]
        return {"results": results, "setup_s": 0.2 * speed,
                "setup_ref_s": run.REFERENCE_S * speed, "spawn_ref_s": run.REFERENCE_S * speed}

    outs = [out(1.0), out(1.5), out(1.2)]
    assert run.pass_wall(outs) == pytest.approx(3.5)
    assert all(run.setup_time(o) == pytest.approx(0.2) for o in outs)
