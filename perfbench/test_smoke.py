"""Smoke test of the benchmark itself, on toy-size inputs.

Run from the repository root:

    python3 -m pytest perfbench -q

It runs every workload in-process at toy size and checks that it reports
exactly the metrics BENCHMARK.json declares, that per-layer counts
repeat exactly across runs of one seed, that a failed operation is
counted while the run stays correct and exits 0, that a wrong answer
makes the run incorrect and exit non-zero, and that the benchmark
refuses to run without the darpkit sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from spans import untraced  # noqa: E402
from workloads import WORKLOADS, Op, check_export_text  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def _run(args, cwd, script):
    proc = subprocess.run([sys.executable, str(script), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def _toy_run(workload, traced, outdir):
    run = bench.Run(WORKLOADS[workload](5, outdir, "toy"), seconds=0.2,
                    traced=traced)
    run.setup()
    run.loop()
    return run


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics_and_repeats_counts(workload,
                                                              tmp_path):
    run = _toy_run(workload, traced=False, outdir=tmp_path)
    assert run.failures == run.wrong == [] and run.attempted >= 1
    metrics = run.end_to_end()
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())

    traced = []
    for _ in range(2):
        run = _toy_run(workload, traced=True, outdir=tmp_path)
        assert run.failures == run.wrong == []
        metrics = run.per_layer()
        assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
        traced.append({k: metrics[k][0] for k in COUNT_METRICS})
    assert traced[0] == traced[1]
    assert traced[0]["event_graph.nodes"] > 0 and traced[0]["model.rows"] > 0


def test_export_gate_rejects_a_damaged_file(tmp_path):
    wl = WORKLOADS["export-q3"](1, tmp_path, "toy")
    wl.setup(untraced)
    op = wl.operations()[0]
    state = wl.run(op, untraced, bench.Clock(bench.reference_s()))
    counts, failed, wrong = wl.check(op, state)
    assert failed == wrong == []
    text = (tmp_path / f"gate-{op.variant}.mps").read_text()
    assert check_export_text(text, counts["rows"], counts["cols"]) == []
    # drop one constraint row from the ROWS section
    lines = text.splitlines()
    first_row = next(i for i, line in enumerate(lines) if line.startswith(" L "))
    damaged = "\n".join(lines[:first_row] + lines[first_row + 1:])
    assert check_export_text(damaged, counts["rows"], counts["cols"])
    assert wl.finish() == []


class _Flaky:
    """A workload whose second repeat changes its counts and whose gate
    fails on one instance, as a failed operation or as a wrong answer."""

    name = "flaky"

    def __init__(self, wrong=False):
        self.calls = 0
        self.wrong = wrong

    def setup(self, call):
        return {"screened": 1, "accepted": 1}

    def inputs_digest(self):
        return "same"

    def operations(self):
        return [Op(("flaky", "i1", "v", "o"), "k", None, "v", "o"),
                Op(("flaky", "i2", "v", "o"), "k", None, "v", "o")]

    def run(self, op, call, clock):
        self.calls += 1
        return {"rt": [0.001], "n": self.calls}

    def check(self, op, state):
        gate = ["gate"] if op.key[1] == "i2" and state["n"] == 2 else []
        counts = {"rows": 3 if state["n"] < 3 else 4}
        return (counts, [], gate) if self.wrong else (counts, gate, [])

    def finish(self):
        return []


def test_gate_failures_and_count_changes_are_counted(monkeypatch):
    monkeypatch.setattr(bench, "import_in_fresh_interpreter", lambda: None)
    run = bench.Run(_Flaky(), seconds=0.0, traced=False)
    run.setup()
    run.loop()
    assert run.attempted == 2 and run.failed == 1     # i2's gate failed
    assert run.failures == ["gate"] and run.wrong == []
    run.execute(run.wl.operations()[0], run.untraced)    # rows 4 != 3
    assert run.failed == 2
    assert any("counts changed on repeat" in f for f in run.wrong)
    assert run.end_to_end()["ok_share"][0] == pytest.approx(1 / 3)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result, _ = _run(["--workload", "export-q3", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                           script=tmp_path / "perfbench" / "run.py")
    assert code != 0 and result is None


@pytest.mark.parametrize("wrong", [False, True])
def test_failed_operations_are_counted_and_wrong_answers_fail_the_run(
        wrong, monkeypatch, capsys):
    import workloads
    monkeypatch.setattr(bench, "import_in_fresh_interpreter", lambda: None)
    monkeypatch.setitem(workloads.WORKLOADS, "export-q3",
                        lambda seed, outdir: _Flaky(wrong))
    code = bench.main(["--workload", "export-q3", "--seed", "1",
                       "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["metrics"]["ok_share"]["value"] == pytest.approx(0.5)
    assert (code, result["correct"]) == ((1, False) if wrong else (0, True))
