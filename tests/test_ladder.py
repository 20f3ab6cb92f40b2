"""The ladder script (bench/ladder.py) on one toy rung."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from darpkit import GeneratorConfig, ObjectiveSpec, generate_synthetic, oracle_solve

LADDER = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_record_on_a_toy_rung(ladder):
    rec = ladder.run_instance(4, 3, 401)
    assert (rec["n"], rec["q"], rec["seed"]) == (4, 3, 401)
    assert set(rec["graph"]) == {"complete_nodes", "complete_arcs",
                                 "pruned_nodes", "pruned_arcs", "fragments"}
    assert 0 < rec["graph"]["pruned_nodes"] <= rec["graph"]["complete_nodes"]
    assert 0 < rec["graph"]["pruned_arcs"] <= rec["graph"]["complete_arcs"]
    assert set(rec["model"]) == {"rows", "cols", "nnz"}
    assert all(v > 0 for v in rec["model"].values())
    assert set(rec["stage_s"]) == {"graph", "model", "write_mps",
                                   "parse_mps", "solve_mip"}
    assert all(v >= 0 for v in rec["stage_s"].values())
    solver = rec["solver"]
    assert set(solver) == {"status", "objective", "mip_gap",
                           "mip_node_count", "mip_dual_bound"}
    assert solver["status"] == "optimal" and solver["mip_gap"] == 0
    assert solver["mip_node_count"] >= 0
    inst = generate_synthetic(GeneratorConfig(n=4, capacity=3, seed=401))
    exact = oracle_solve(inst, ObjectiveSpec(variant="cost")).objective.total
    assert solver["objective"] == pytest.approx(exact, abs=1e-6)
    assert solver["mip_dual_bound"] == pytest.approx(exact, abs=1e-6)
    bounds = rec["lp_bound"]
    assert set(bounds) == {"model2", "model3"}
    for variant in bounds.values():
        assert set(variant) == {"cost", "cost_excess"}
        assert variant["cost"] <= exact + 1e-6
    # claim 1: model3's relaxation is at least as tight as model2's
    for objective in ("cost", "cost_excess"):
        assert bounds["model3"][objective] >= bounds["model2"][objective] - 1e-6


def test_ladder_warms_up_before_the_first_rung(ladder, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(ladder, "RUNGS", ((3, 3), (3, 4)))
    monkeypatch.setattr(ladder, "LONG_RUNGS", ())
    monkeypatch.setattr(ladder, "SEEDS", (401,))
    monkeypatch.setattr(ladder, "warm_up", lambda: calls.append("warm_up"))
    run = ladder.run_instance
    monkeypatch.setattr(ladder, "run_instance",
                        lambda *args: calls.append("rung") or run(*args))
    assert ladder.main(["--side", "change", "-o", str(tmp_path / "b.json")]) == 0
    assert calls == ["warm_up", "rung", "rung"]


def test_warm_up_leaves_no_import_to_the_timed_stages():
    # in a fresh interpreter: after the warm-up, parsing and solving a
    # model loads no further module (numpy and scipy load on first use)
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(LADDER.parent)!r})\n"
        "import ladder\n"
        "ladder.warm_up()\n"
        "before = set(sys.modules)\n"
        "from darpkit import *\n"
        "inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))\n"
        "graph = build_event_graph(inst, pruned=True)\n"
        "solve_mip(parse_mps(write_mps(build_model(graph, 'model2'))))\n"
        "assert set(sys.modules) == before, sorted(set(sys.modules) - before)\n")
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120)


def test_ladder_file_keeps_one_entry_per_side(ladder, monkeypatch, tmp_path,
                                              capsys):
    monkeypatch.setattr(ladder, "RUNGS", ((3, 3),))
    monkeypatch.setattr(ladder, "LONG_RUNGS", ())
    monkeypatch.setattr(ladder, "SEEDS", (401,))
    out = tmp_path / "bench.json"
    for side in ("parent", "change"):
        assert ladder.main(["--side", side, "-o", str(out)]) == 0
    assert "q=3 n=3 seed=401: optimal" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert set(doc["sides"]) == {"parent", "change"}
    for side in doc["sides"].values():
        assert len(side["src_sha256"]) == 64
        assert {"commit", "src_modified", "scipy", "time_limit_s"} <= set(side)
        assert [(r["q"], r["n"], r["seed"]) for r in side["instances"]] == [
            (3, 3, 401)]


def test_ladder_refuses_a_darpkit_outside_its_checkout(ladder, monkeypatch,
                                                       tmp_path, capsys):
    monkeypatch.setattr(ladder, "SRC", tmp_path)
    out = tmp_path / "bench.json"
    assert ladder.main(["--side", "change", "-o", str(out)]) == 2
    assert "not " + str(tmp_path) in capsys.readouterr().err
    assert not out.exists()
