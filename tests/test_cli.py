"""End-to-end checks of the scenario runner: report shape, error locations,
exit codes, determinism, and corpus regression."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frobext import cli
from frobext.cli import main
from frobext.linalg import SparseMatrix

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_coker_formula_dimension_one(tmp_path, capsys):
    path = write(
        tmp_path,
        "c.scenario",
        "task: coker-formula\np: 2\ne: 1\nd: 1\n",
    )
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["task"] == "coker-formula"
    assert rep["dimension"] == 1
    assert rep["proven"] is True


def test_shift_ses_exact_but_not_split(tmp_path, capsys):
    path = write(tmp_path, "s.scenario", "task: shift-ses\np: 2\nn: 3\n")
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["exact"] is True
    assert rep["split"] is False


def test_every_task_name_is_wired(tmp_path, capsys):
    path = write(tmp_path, "bad.scenario", "task: no-such-thing\n")
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    for name in (
        "ext1-class",
        "as-solve",
        "two-step-check",
        "cone-resolution",
        "ext-rf",
        "coker-formula",
        "hdual-membership",
        "shift-ses",
        "hom-fr",
        "unitalize",
        "rational-distinct",
    ):
        assert name in err


def test_malformed_ring_spec_exits_nonzero(tmp_path, capsys):
    path = write(tmp_path, "r.scenario", "task: coker-formula\np: 4\ne: 1\nd: 1\n")
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "bad field/ring" in err


def test_field_above_the_size_cap_is_refused_at_the_p_line(tmp_path, capsys):
    text = "task: coker-formula\np: 2\ne: 17\nd: 1\n"
    path = write(tmp_path, "big.scenario", text)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "run", path)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert f"{path}:2:" in err and "2^16" in err


def test_poly_parse_error_reports_line_and_column(tmp_path, capsys):
    text = "task: as-solve\np: 2\ne: 1\nd: 1\nmodule: StdR\ntarget: x1 + $\n"
    path = write(tmp_path, "p.scenario", text)
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert f"{path}:6:" in err  # the bad token sits on line 6


def test_unknown_key_is_located(tmp_path, capsys):
    text = "task: coker-formula\np: 2\ne: 1\nd: 1\nbogus: 7\n"
    path = write(tmp_path, "k.scenario", text)
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "bogus" in err and ":5:" in err


def test_duplicate_key_is_rejected(tmp_path, capsys):
    text = "task: coker-formula\np: 2\np: 3\ne: 1\nd: 1\n"
    path = write(tmp_path, "d.scenario", text)
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "duplicate" in err


def test_validation_error_names_the_invariant(tmp_path, capsys):
    # coincident points collapse the default denominator to a square
    text = (
        "task: rational-distinct\np: 2\ne: 2\nd: 1\n"
        "a: w\nb: w\n"
    )
    path = write(tmp_path, "v.scenario", text)
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "squarefree" in err


def test_reports_are_deterministic(tmp_path, capsys):
    path = write(
        tmp_path,
        "det.scenario",
        "task: two-step-check\np: 3\ne: 1\nd: 1\nexponents: 2\n",
    )
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "run", path)
        assert code == 0
        rep = json.loads(out)
        rep.pop("elapsed_ms")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_text_emitter_flattens_scalars(tmp_path, capsys):
    path = write(tmp_path, "t.scenario", "task: shift-ses\np: 2\nn: 2\n")
    code, out, _ = run_cli(capsys, "run", path, "--emit", "text")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["exact"] == "true"
    assert lines["split"] == "false"


def test_regress_passes_on_the_shipped_corpus(capsys):
    code, out, _ = run_cli(capsys, "regress", str(CORPUS))
    assert code == 0
    assert "drift" not in out.lower() or "0 drift" in out.lower()


def test_the_runtime_needs_no_numpy():
    # importing the CLI leaves numpy out; with numpy then made unimportable
    # the whole corpus still regresses clean
    child = (
        "import sys\n"
        "import frobext.cli\n"
        "if 'numpy' in sys.modules:\n"
        "    sys.exit('import frobext.cli imported numpy')\n"
        "sys.modules['numpy'] = None\n"
        "sys.exit(frobext.cli.main(['regress', sys.argv[1]]))\n"
    )
    src = str(CORPUS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", child, str(CORPUS)], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_the_corpus_densifies_no_matrix(monkeypatch):
    # SparseMatrix.__array__ serves only the tests' oracles and the
    # benchmark's tracer: with it raising, every corpus entry still gives
    # its expected report
    def refuse(self, dtype=None, copy=None):
        raise RuntimeError("a SparseMatrix was densified")

    monkeypatch.setattr(SparseMatrix, "__array__", refuse)
    names = sorted(path.stem for path in CORPUS.glob("*.scenario"))
    assert names
    for name in names:
        report, _ = cli.run_scenario_file(str(CORPUS / (name + ".scenario")))
        expected = json.loads((CORPUS / (name + ".expected.json")).read_text())
        assert cli.strip_volatile(report) == cli.strip_volatile(expected), name


def test_regress_detects_drift(tmp_path, capsys):
    shutil.copy(CORPUS / "coker-f2.scenario", tmp_path / "coker-f2.scenario")
    expected = json.loads((CORPUS / "coker-f2.expected.json").read_text())
    expected["dimension"] = 99
    (tmp_path / "coker-f2.expected.json").write_text(json.dumps(expected))
    code, out, _ = run_cli(capsys, "regress", str(tmp_path))
    assert code == 1
    assert "DRIFT" in out
    assert "dimension" in out


def test_regress_errors_on_missing_expected(tmp_path, capsys):
    shutil.copy(CORPUS / "coker-f2.scenario", tmp_path / "orphan.scenario")
    code, out, _ = run_cli(capsys, "regress", str(tmp_path))
    assert code == 1
    assert "MISSING" in out


def test_regress_goes_on_after_a_crash(tmp_path, capsys, monkeypatch):
    for name in ("coker-f2", "cone-d1"):
        for ext in (".scenario", ".expected.json"):
            shutil.copy(CORPUS / (name + ext), tmp_path / (name + ext))

    def crash(sc):
        raise KeyError("boom")

    monkeypatch.setitem(cli.TASKS, "cone-resolution", crash)
    code, out, _ = run_cli(capsys, "regress", str(tmp_path))
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("CRASH")] == ["CRASH cone-d1 (KeyError: 'boom')"]
    assert [line for line in lines if line.startswith("ok")] == ["ok coker-f2"]


@pytest.mark.parametrize("slot", [9, -50])
def test_hdual_target_outside_the_window_is_located(tmp_path, capsys, slot):
    text = (CORPUS / "hdual-z0-unsat.scenario").read_text()
    assert "target: 0: 1" in text
    path = write(tmp_path, "h.scenario", text.replace("target: 0: 1", "target: %d: 1" % slot))
    code, out, err = run_cli(capsys, "run", path)
    assert code == 1
    assert out == ""
    target_line = text.splitlines().index("target: 0: 1") + 1
    assert f"{path}:{target_line}:" in err
    assert "target slot %d lies outside -4..5" % slot in err


def test_regress_rejects_an_absent_corpus(tmp_path, capsys):
    code, _, err = run_cli(capsys, "regress", str(tmp_path / "nowhere"))
    assert code == 1
    assert "no" in err.lower()


def test_inconclusive_reports_exit_two(tmp_path, capsys):
    # a free-target stability probe that cannot stabilize within one round
    path = write(
        tmp_path,
        "i.scenario",
        "task: ext-rf\np: 2\ne: 1\nd: 1\nexponents: 2\nj: 2\n"
        "target: free\ncap: 1\nmax_rounds: 1\n",
    )
    code, out, err = run_cli(capsys, "run", path)
    if code == 2:
        assert "inconclusive" in err.lower()
    else:
        # the probe stabilized after all; then it must be conclusive
        assert code == 0
        rep = json.loads(out)
        assert rep["stable"] is True
