"""The ladder script (bench/ladder.py) on one toy rung."""

import importlib.util
import json
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
                                 "pruned_nodes", "pruned_arcs"}
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
