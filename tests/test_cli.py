import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from darpkit import (
    cli, instance_from_json, instance_sha256, instance_to_json, oracle_solve,
    parse_mps, read_mapping,
)
from darpkit import (
    DataError, GeneratorConfig, ObjectiveSpec, build_event_graph, build_model,
    generate_synthetic, write_mps,
)

from helpers import capture_milp, line_instance


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def instance_file(tmp_path) -> Path:
    path = tmp_path / "inst.json"
    assert cli.main(["generate", "--n", "2", "--q", "3", "--seed", "0",
                     "-o", str(path)]) == 0
    return path


def test_version():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_generate_writes_instance_and_manifest(tmp_path, capsys):
    out = tmp_path / "g.json"
    argv = ["generate", "--n", "3", "--q", "6", "--seed", "7", "-o", str(out)]
    assert cli.main(argv) == 0
    assert "wrote" in capsys.readouterr().out
    inst = instance_from_json(out.read_text())
    assert inst.n == 3 and inst.capacity == 6
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    assert manifest["tool"] == "darpkit"
    assert manifest["command"] == "generate"
    # the arguments main was given, not those of the host process
    assert manifest["argv"] == argv
    assert manifest["seed"] == 7
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"][str(out)] == digest


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert cli.main(["generate", "--n", "4", "--q", "3", "--seed", "5",
                         "-o", str(out)]) == 0
    assert a.read_text() == b.read_text()


def test_generate_rejects_other_capacities(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--n", "2", "--q", "4", "--seed", "0",
                  "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_convert_cordeau(tmp_path, tiny_cordeau_text, capsys):
    src = tmp_path / "tiny.txt"
    src.write_text(tiny_cordeau_text)
    out = tmp_path / "tiny.json"
    assert cli.main(["convert", str(src), "-o", str(out),
                     "--name", "renamed", "--tighten"]) == 0
    inst = instance_from_json(out.read_text())
    assert inst.name == "renamed"
    assert all(r.direction is not None for r in inst.requests)
    manifest = json.loads((tmp_path / "tiny.json.manifest.json").read_text())
    assert str(src) in manifest["inputs"]


def test_convert_renames_a_json_instance(tmp_path, instance_file):
    out = tmp_path / "renamed.json"
    assert cli.main(["convert", str(instance_file), "-o", str(out),
                     "--name", "renamed"]) == 0
    inst, src = (instance_from_json(p.read_text()) for p in (out, instance_file))
    assert inst.name == "renamed" and src.name != "renamed"
    assert inst.requests == src.requests


def test_convert_keeps_windows_without_tighten(tmp_path, tiny_cordeau_text):
    src = tmp_path / "tiny.txt"
    src.write_text(tiny_cordeau_text)
    out = tmp_path / "tiny.json"
    assert cli.main(["convert", str(src), "-o", str(out)]) == 0
    inst = instance_from_json(out.read_text())
    assert any(r.direction is None for r in inst.requests)


def test_convert_reads_a_json_instance(tmp_path, instance_file):
    # JSON is told from the text format by its first character
    out = tmp_path / "again.json"
    assert cli.main(["convert", str(instance_file), "-o", str(out)]) == 0
    assert out.read_text() == instance_file.read_text()


@pytest.mark.parametrize("name", ["two\nlines", ""])
@pytest.mark.parametrize("source", ["json", "text"])
def test_convert_refuses_a_name_that_breaks_the_exports(tmp_path, instance_file,
                                                        tiny_cordeau_text, capsys,
                                                        name, source):
    # a line break would split the MPS NAME line, and an empty name is not
    # taken as no name: exit 2, no file written
    src = instance_file
    if source == "text":
        src = tmp_path / "tiny.txt"
        src.write_text(tiny_cordeau_text)
    out = tmp_path / "x.json"
    assert cli.main(["convert", str(src), "-o", str(out), "--name", name]) == 2
    assert not out.exists()
    assert "instance name must be printable text" in capsys.readouterr().err


def test_convert_missing_file(tmp_path, capsys):
    code = cli.main(["convert", str(tmp_path / "absent.txt"),
                     "-o", str(tmp_path / "x.json")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["solve-mps", "."],
    ["graph", "."],
    ["convert", ".", "-o", "x.json"],
    ["compare", ".", "."],
])
def test_a_directory_for_an_input_file_is_refused(capsys, argv):
    _refused(capsys, argv, "Is a directory")


@pytest.mark.parametrize("argv", [
    ["solve-mps", "bad.mps"],
    ["graph", "bad.json"],
    ["convert", "bad.txt", "-o", "x.json"],
])
def test_an_input_file_that_is_not_utf8_is_refused(tmp_path, capsys, argv):
    (tmp_path / argv[1]).write_bytes(b"\xff\xfe not text\n")
    _refused(capsys, argv, "can't decode")


def test_convert_garbage(tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("definitely not an instance\n")
    assert cli.main(["convert", str(src), "-o", str(tmp_path / "x.json")]) == 2


def test_convert_header_only_file(tmp_path, capsys):
    # a header without node rows declares n = -1: refused, not a traceback
    src = tmp_path / "header.txt"
    src.write_text("2 0 480 3 30\n")
    _refused(capsys, ["convert", str(src), "-o", str(tmp_path / "x.json")],
             "at least one request")


def test_graph_stats_text(instance_file, capsys):
    assert cli.main(["graph", str(instance_file)]) == 0
    out = capsys.readouterr().out
    assert "nodes: 9" in out
    assert "arcs:" in out
    assert "closed form" in out


def test_graph_stats_json_and_dot(tmp_path, instance_file, capsys):
    dot = tmp_path / "g.dot"
    assert cli.main(["graph", str(instance_file), "--json",
                     "--dot", str(dot)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["nodes"] == 9
    assert stats["arcs"] == stats["closed_form"]["arcs"]
    assert dot.read_text().startswith("digraph")
    assert (tmp_path / "g.dot.manifest.json").exists()


def test_model_default_naming(tmp_path, instance_file, capsys):
    assert cli.main(["model", str(instance_file), "--variant", "model3",
                     "--objective", "cost-excess"]) == 0
    base = "synth-q3-n2-s0.model3.cost_excess"
    for ext in (".mps", ".lp", ".map.json"):
        assert (tmp_path / (base + ext)).exists()
    assert (tmp_path / (base + ".mps.manifest.json")).exists()
    out = capsys.readouterr().out
    assert "variables:" in out and "rows:" in out
    sidecar = json.loads((tmp_path / (base + ".map.json")).read_text())
    assert sidecar["variant"] == "model3"
    assert sidecar["objective"]["variant"] == "cost_excess"


def test_model_rejects_unknown_objective(instance_file):
    assert cli.main(["model", str(instance_file),
                     "--objective", "fastest"]) == 2


def test_model_rce_needs_denial(tmp_path, instance_file, capsys):
    # rce prices denied requests, so it gets acceptance columns unasked
    assert cli.main(["model", str(instance_file), "--objective", "rce",
                     "-o", str(tmp_path / "m")]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("variables: "))
    assert json.loads(line.split(" ", 2)[2])["p"] == 2


def test_solve_oracle(tmp_path, instance_file, capsys):
    out = tmp_path / "sol.json"
    assert cli.main(["solve", str(instance_file), "--oracle",
                     "--objective", "cost", "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "validation: OK" in stdout
    doc = json.loads(out.read_text())
    inst = instance_from_json(instance_file.read_text())
    exact = oracle_solve(inst, ObjectiveSpec(variant="cost"))
    assert doc["objective"]["total"] == pytest.approx(exact.objective.total)
    assert (tmp_path / "sol.json.manifest.json").exists()


def test_solve_oracle_infeasible(tmp_path, capsys):
    inst = line_instance(
        "conflict", positions=(0.0, 1.0, 51.0, 2.0, 52.0),
        specs=[
            {"pickup": (10, 12), "dropoff": (0, 200), "max_ride": 10},
            {"pickup": (10, 12), "dropoff": (0, 200), "max_ride": 10},
        ],
        fleet_size=1, capacity=2, depot_window=(0.0, 400.0))
    path = tmp_path / "conflict.json"
    path.write_text(instance_to_json(inst))
    assert cli.main(["solve", str(path), "--oracle"]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_solve_oracle_respects_limit(instance_file, capsys):
    assert cli.main(["solve", str(instance_file), "--oracle",
                     "--limit", "1"]) == 2
    assert "limited" in capsys.readouterr().err


def test_solve_oracle_limit_defaults_to_the_oracle_guard(tmp_path, capsys):
    path = tmp_path / "seven.json"
    assert cli.main(["generate", "--n", "7", "--q", "3", "--seed", "1",
                     "-o", str(path)]) == 0
    _refused(capsys, ["solve", str(path), "--oracle"],
             "oracle is limited to 6 requests, instance has 7")


@pytest.mark.parametrize("flags, words", [
    (["--limit", "1"], "--import runs no oracle; drop --limit"),
    (["--limit", "6"], "--import runs no oracle; drop --limit"),
    (["--alpha", "2", "--limit", "1"],
     "--import takes the objective from the mapping sidecar; drop --alpha"),
], ids=["limit", "default-limit", "alpha+limit"])
def test_import_refuses_oracle_options(tmp_path, instance_file, capsys,
                                       flags, words):
    # --limit guards only the oracle; the import would silently ignore it
    assign, sidecar = _export_and_solve(instance_file, tmp_path / "m")
    _refused(capsys, ["solve", str(instance_file), "--import", str(assign),
                      "--mapping", str(sidecar), *flags], words)


@pytest.mark.parametrize("sidecar", ["nonexistent.json", "m.map.json"])
def test_oracle_refuses_a_mapping(tmp_path, instance_file, capsys, sidecar):
    # the oracle reads no sidecar, whether or not the file exists
    _export_and_solve(instance_file, tmp_path / "m")
    _refused(capsys, ["solve", str(instance_file), "--oracle",
                      "--mapping", sidecar],
             "--oracle reads no mapping sidecar; drop --mapping")


def test_model_solve_import_round_trip(tmp_path, instance_file, capsys,
                                      monkeypatch):
    assert cli.main(["model", str(instance_file), "--variant", "model2",
                     "-o", str(tmp_path / "m")]) == 0
    assign = tmp_path / "m.assign"
    calls = capture_milp(monkeypatch)
    assert cli.main(["solve-mps", str(tmp_path / "m.mps"),
                     "-o", str(assign)]) == 0
    stdout = capsys.readouterr().out
    assert "status: optimal" in stdout
    objective = float(re.search(r"^objective: (\S+)$", stdout, re.M).group(1))
    assert re.search(r"^gap: 0, nodes: \d+, dual bound: (\S+)$", stdout, re.M)
    solver = json.loads((tmp_path / "m.assign.manifest.json").read_text())["solver"]
    assert solver["status"] == "optimal" and solver["mip_gap"] == 0
    assert solver["mip_node_count"] >= 0
    assert solver["mip_dual_bound"] == pytest.approx(objective, abs=1e-6)
    # the options the solve passed to HiGHS, and the scipy that ran it
    assert solver["highs_options"] == calls[0] == {
        "mip_rel_gap": 0.0, "mip_heuristic_run_feasibility_jump": False}
    assert solver["scipy"] == scipy.__version__
    assert cli.main(["solve", str(instance_file),
                     "--import", str(assign),
                     "--mapping", str(tmp_path / "m.map.json"),
                     "-o", str(tmp_path / "imported.json")]) == 0
    stdout = capsys.readouterr().out
    assert "validation: OK" in stdout
    doc = json.loads((tmp_path / "imported.json").read_text())
    inst = instance_from_json(instance_file.read_text())
    exact = oracle_solve(inst, ObjectiveSpec(variant="cost"))
    assert doc["objective"]["total"] == pytest.approx(exact.objective.total,
                                                      abs=1e-6)


def test_import_reports_how_far_solver_times_fall_short(tmp_path, instance_file,
                                                       capsys):
    # how far the assignment's stop times fall below the re-timed
    # schedule at most: printed, and kept in the manifest
    assign, sidecar = _export_and_solve(instance_file, tmp_path / "m")
    gaps, latest = [], []
    for name in ("solver", "zeros"):
        text = "".join(
            f"{var} 0.0\n" if name == "zeros" and var.startswith("B_")
            else f"{var} {value}\n"
            for var, value in (line.split() for line in
                               assign.read_text().splitlines()[1:]))
        given = tmp_path / f"{name}.assign"
        given.write_text(text)
        out = tmp_path / f"{name}.json"
        assert cli.main(["solve", str(instance_file), "--import", str(given),
                         "--mapping", str(sidecar), "-o", str(out)]) == 0
        line = re.search(r"^solver times: largest shortfall below the "
                         r"re-timed schedule (\S+)$", capsys.readouterr().out,
                         re.M)
        manifest = json.loads((tmp_path / f"{name}.json.manifest.json")
                              .read_text())
        assert float(line.group(1)) == pytest.approx(manifest["raw_time_gap"])
        gaps.append(manifest["raw_time_gap"])
        latest.append(max(stop["time"] for tour in
                          json.loads(out.read_text())["tours"] for stop in tour))
    # the solver's own times fall short only by its tolerance; times all
    # set to 0 fall short by the latest re-timed stop
    assert 0.0 <= gaps[0] <= 1e-6
    assert latest[0] == latest[1] > 0.0
    assert gaps[1] == pytest.approx(latest[1], abs=1e-9)


def test_solve_import_needs_mapping(instance_file, tmp_path):
    assign = tmp_path / "a.assign"
    assign.write_text("x_0 1.0\n")
    assert cli.main(["solve", str(instance_file),
                     "--import", str(assign)]) == 2


def test_solve_import_bad_sidecar(instance_file, tmp_path, capsys):
    assign = tmp_path / "a.assign"
    assign.write_text("x_0 1.0\n")
    sidecar = tmp_path / "m.map.json"
    sidecar.write_text("{\"variant\": \"model2\"}")
    assert cli.main(["solve", str(instance_file), "--import", str(assign),
                     "--mapping", str(sidecar)]) == 2
    assert "sidecar" in capsys.readouterr().err


def _export_and_solve(instance_file, base, *extra):
    assert cli.main(["model", str(instance_file), "-o", str(base), *extra]) == 0
    assign = base.parent / (base.name + ".assign")
    assert cli.main(["solve-mps", str(base) + ".mps", "-o", str(assign)]) == 0
    return assign, base.parent / (base.name + ".map.json")


def _import_fails(instance_file, assign, sidecar, capsys, words):
    capsys.readouterr()
    assert cli.main(["solve", str(instance_file), "--import", str(assign),
                     "--mapping", str(sidecar)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mapping sidecar") and err.count("\n") == 1
    assert words in err


def test_sidecar_names_its_instance_graph_and_columns(tmp_path, instance_file):
    _, sidecar = _export_and_solve(instance_file, tmp_path / "m")
    doc = json.loads(sidecar.read_text())
    inst = instance_from_json(instance_file.read_text())
    assert doc["instance_sha256"] == instance_sha256(inst)
    assert doc["graph"] == "pruned-fragments"
    mps = sidecar.parent / "m.mps"
    assert doc["columns"] == len(parse_mps(mps.read_text()).col_names)
    # the column names describe themselves; the sidecar does not list them
    assert "variables" not in doc and "objective_constant" not in doc


def test_import_reads_a_sidecar_that_still_lists_its_columns(tmp_path,
                                                             instance_file):
    # sidecars once carried a per-column map and the objective's constant
    assign, sidecar = _export_and_solve(
        instance_file, tmp_path / "m", "--objective", "rce")
    inst = instance_from_json(instance_file.read_text())
    model = read_mapping(sidecar.read_text(), inst)
    ref_key = {"x": "arc", "B": "node", "p": "request", "z": "request",
               "d": "request"}
    old = tmp_path / "old.map.json"
    old.write_text(json.dumps({
        **json.loads(sidecar.read_text()),
        "objective_constant": model.obj_constant,
        "variables": {var.name: {"kind": var.kind, **(
            {ref_key[var.kind]: var.ref} if var.kind in ref_key else {})}
            for var in model.vars}}))
    assert read_mapping(old.read_text(), inst).vars == model.vars
    outputs = []
    for path, out in ((sidecar, "new.json"), (old, "old.json")):
        assert cli.main(["solve", str(instance_file), "--import", str(assign),
                         "--mapping", str(path), "-o", out]) == 0
        outputs.append((tmp_path / out).read_text())
    assert outputs[0] == outputs[1]


def test_import_refuses_a_sidecar_of_another_instance(tmp_path, instance_file,
                                                      capsys):
    assign, sidecar = _export_and_solve(instance_file, tmp_path / "m")
    other = tmp_path / "other.json"
    assert cli.main(["generate", "--n", "2", "--q", "3", "--seed", "1",
                     "-o", str(other)]) == 0
    _import_fails(other, assign, sidecar, capsys, "this instance's pruned graph")


def test_import_refuses_a_changed_column_count(tmp_path, instance_file, capsys):
    assign, sidecar = _export_and_solve(instance_file, tmp_path / "m")
    doc = json.loads(sidecar.read_text())
    doc["columns"] += 1
    sidecar.write_text(json.dumps(doc))
    _import_fails(instance_file, assign, sidecar, capsys, "columns, the model has")


def test_import_refuses_a_sidecar_of_older_pruning_rules(tmp_path,
                                                        instance_file, capsys):
    # a sidecar of the graph before the fragment rule numbers other columns,
    # even where the column count happens to match
    assign, sidecar = _export_and_solve(instance_file, tmp_path / "m")
    doc = json.loads(sidecar.read_text())
    doc["graph"] = "pruned"
    sidecar.write_text(json.dumps(doc))
    inst = instance_from_json(instance_file.read_text())
    with pytest.raises(DataError, match="graph form 'pruned', not "
                                        "'pruned-fragments'"):
        read_mapping(sidecar.read_text(), inst)
    _import_fails(instance_file, assign, sidecar, capsys,
                  "graph form 'pruned'")


def test_import_refuses_a_sidecar_without_its_binding(tmp_path, instance_file,
                                                      capsys):
    # a sidecar written before column ids were bound to the pruned graph
    assign, sidecar = _export_and_solve(instance_file, tmp_path / "m")
    doc = json.loads(sidecar.read_text())
    for key in ("instance_sha256", "graph", "columns"):
        del doc[key]
    sidecar.write_text(json.dumps(doc))
    _import_fails(instance_file, assign, sidecar, capsys,
                  "this instance's pruned graph")


def test_import_validates_denial_as_the_sidecar_allows(tmp_path, instance_file,
                                                       capsys):
    # at gamma 0.01 denying every request is optimal
    assign, sidecar = _export_and_solve(
        instance_file, tmp_path / "m", "--objective", "rce", "--gamma", "0.01")
    capsys.readouterr()
    argv = ["solve", str(instance_file), "--import", str(assign),
            "--mapping", str(sidecar)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "accepted 0/2" in out and "validation: OK" in out
    # sidecars once carried an allow_denial key; the objective decides now
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**doc, "allow_denial": True}))
    assert cli.main(argv) == 0
    assert "validation: OK" in capsys.readouterr().out


def _refused(capsys, argv, words):
    """The command exits 2 with one ``error:`` line naming ``words``."""
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert words in err


@pytest.mark.parametrize("argv", [
    ["model", "--variant", "model3", "--objective", "cost-excess",
     "--alpha", "nan"],
    ["solve", "--oracle", "--objective", "cost-excess", "--alpha", "inf"],
], ids=["model", "solve"])
def test_non_finite_weights_exit_2(instance_file, capsys, argv):
    _refused(capsys, argv[:1] + [str(instance_file)] + argv[1:],
             "objective weight alpha must be a finite number")


@pytest.mark.parametrize("key, value, words", [
    ("alpha", "abc", "objective weight alpha must be a finite number"),
], ids=["alpha"])
def test_import_refuses_mistyped_sidecar_settings(tmp_path, instance_file,
                                                  capsys, key, value, words):
    assign, sidecar = _export_and_solve(instance_file, tmp_path / "m",
                                        "--objective", "cost-excess")
    doc = json.loads(sidecar.read_text())
    (doc["objective"] if key == "alpha" else doc)[key] = value
    sidecar.write_text(json.dumps(doc))
    _refused(capsys, ["solve", str(instance_file), "--import", str(assign),
                      "--mapping", str(sidecar)], words)


@pytest.mark.parametrize("flags", [
    ["--objective", "cost"], ["--alpha", "2"], ["--beta", "1"],
    ["--gamma", "5"], ["--objective", "rce", "--gamma", "5"],
], ids=["objective", "alpha", "beta", "gamma", "objective+gamma"])
def test_import_refuses_objective_flags(tmp_path, instance_file, capsys,
                                        flags):
    # the sidecar decides the objective; a flag would be silently ignored
    assign, sidecar = _export_and_solve(instance_file, tmp_path / "m",
                                        "--objective", "cost-excess")
    _refused(capsys, ["solve", str(instance_file), "--import", str(assign),
                      "--mapping", str(sidecar), *flags],
             "--import takes the objective from the mapping sidecar; drop "
             + ", ".join(f for f in flags if f.startswith("--")))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_import_refuses_a_non_finite_assignment_value(tmp_path, instance_file,
                                                      capsys, value):
    assign, sidecar = _export_and_solve(instance_file, tmp_path / "m")
    lines = assign.read_text().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("x_0 "))
    lines[at] = f"x_0 {value}"
    assign.write_text("\n".join(lines) + "\n")
    _refused(capsys, ["solve", str(instance_file), "--import", str(assign),
                      "--mapping", str(sidecar)],
             f"assignment line {at + 1} has a non-finite value")


def test_solve_mps_refuses_a_nan_coefficient(tmp_path, capsys):
    path = tmp_path / "nan.mps"
    path.write_text("NAME nan\nROWS\n N  obj\n G  r\nCOLUMNS\n"
                    "    x  obj  nan  r  1.0\nRHS\n    RHS  r  1.0\nENDATA\n")
    _refused(capsys, ["solve-mps", str(path)], "malformed MPS line 6")


def test_graph_reports_the_pruned_graph(instance_file, capsys):
    inst = instance_from_json(instance_file.read_text())
    pruned = build_model(build_event_graph(inst), "model2").graph
    assert cli.main(["graph", str(instance_file), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["pruned"] == {"nodes": pruned.node_count,
                               "arcs": pruned.arc_count,
                               "compatible_pairs": len(pruned.compatible),
                               "fragments": pruned.fragments}
    assert pruned.fragments > 0
    assert stats["nodes"] == 9    # the complete graph
    line = (f"pruned graph: nodes {pruned.node_count}, arcs {pruned.arc_count}"
            f" ({len(pruned.compatible)} of 1 request pairs can ride together)")
    assert cli.main(["graph", str(instance_file)]) == 0
    assert line in capsys.readouterr().out.splitlines()
    assert cli.main(["model", str(instance_file)]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_graph_json_reports_stage_seconds(instance_file, capsys):
    assert cli.main(["graph", str(instance_file), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    stages = stats["stage_s"]
    assert set(stages) == {"complete", "pruned"}
    assert all(sec >= 0 for sec in stages.values())
    assert sum(stages.values()) <= stats["build_s"]


def test_manifests_report_stage_seconds(tmp_path, instance_file, capsys):
    base = tmp_path / "m"
    assert cli.main(["model", str(instance_file), "--out", str(base)]) == 0
    timings = json.loads(
        (tmp_path / "m.mps.manifest.json").read_text())["timings_s"]
    stages = timings["stage_s"]
    assert set(stages) == {"pruned", "model", "write_mps", "write_lp",
                           "write_mapping"}
    assert all(sec >= 0 for sec in stages.values())
    assert sum(stages.values()) <= timings["total"]
    dot = tmp_path / "g.dot"
    capsys.readouterr()
    assert cli.main(["graph", str(instance_file), "--json", "--dot", str(dot)]) == 0
    printed = json.loads(capsys.readouterr().out)["stage_s"]
    manifest = json.loads((tmp_path / "g.dot.manifest.json").read_text())
    assert manifest["timings_s"]["stage_s"] == printed
    assign = tmp_path / "m.assign"
    runs = [
        (["solve-mps", str(tmp_path / "m.mps"), "-o", str(assign)],
         assign, {"parse", "solve"}),
        (["solve", str(instance_file), "--import", str(assign), "--mapping",
          str(tmp_path / "m.map.json"), "-o", str(tmp_path / "i.json")],
         tmp_path / "i.json", {"load", "import", "validate"}),
        (["solve", str(instance_file), "--oracle", "-o", str(tmp_path / "o.json")],
         tmp_path / "o.json", {"load", "oracle", "validate"}),
    ]
    for argv, out, names in runs:
        assert cli.main(argv) == 0
        path = out.parent / (out.name + ".manifest.json")
        timings = json.loads(path.read_text())["timings_s"]
        assert set(timings) == {"stage_s", "total"}
        assert set(timings["stage_s"]) == names
        assert all(sec >= 0 for sec in timings["stage_s"].values())
        assert sum(timings["stage_s"].values()) <= timings["total"]


COLD_START = """
import sys
from darpkit import cli

for argv in (
        ["generate", "--n", "3", "--q", "3", "--seed", "4", "-o", "i.json"],
        ["convert", "i.json", "-o", "c.json"],
        ["graph", "i.json", "--json"],
        ["model", "i.json", "--variant", "model3", "-o", "m"],
        ["solve", "i.json", "--oracle", "-o", "a.json"],
        ["solve", "i.json", "--oracle", "--objective", "excess", "-o", "b.json"],
        ["compare", "a.json", "b.json"]):
    assert cli.main(argv) == 0, argv
loaded = {"numpy", "scipy"} & set(sys.modules)
assert not loaded, loaded
assert cli.main(["solve-mps", "m.mps", "-o", "m.assign"]) == 0
"""


def test_commands_that_solve_nothing_load_no_numpy_or_scipy(tmp_path):
    # a fresh interpreter: this test process has long loaded both
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", COLD_START], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "status: optimal" in proc.stdout
    assert (tmp_path / "m.assign").exists()


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_solve_mps_infeasible(tmp_path, capsys):
    bad = tmp_path / "bad.mps"
    bad.write_text("""\
NAME bad
ROWS
 N  obj
 G  r
COLUMNS
    x         obj            1.0   r              1.0
RHS
    RHS       r              2.0
BOUNDS
 BV BND       x
ENDATA
""")
    assert cli.main(["solve-mps", str(bad)]) == 1
    assert "status: infeasible" in capsys.readouterr().out


def test_solve_mps_time_limit(tmp_path, capsys):
    path = tmp_path / "m.mps"
    path.write_text(write_mps(build_model(build_event_graph(
        generate_synthetic(GeneratorConfig(n=10, capacity=3, seed=1))), "model3")))
    assert cli.main(["solve-mps", str(path), "--time-limit", "0"]) == 1
    assert "status: time_limit" in capsys.readouterr().out


@pytest.mark.parametrize("value, options", [
    ("30", {"time_limit": 30.0}),
    ("inf", {}),   # HiGHS's default, so not passed
])
def test_solve_mps_manifest_records_the_time_limit(tmp_path, instance_file,
                                                   value, options,
                                                   monkeypatch):
    assert cli.main(["model", str(instance_file), "-o",
                     str(tmp_path / "m")]) == 0
    assign = tmp_path / "m.assign"
    calls = capture_milp(monkeypatch)
    assert cli.main(["solve-mps", str(tmp_path / "m.mps"), "--time-limit",
                     value, "-o", str(assign)]) == 0
    text = (tmp_path / "m.assign.manifest.json").read_text()
    assert "Infinity" not in text   # standard JSON
    assert json.loads(text)["solver"]["highs_options"] == calls[0] == {
        "mip_rel_gap": 0.0, "mip_heuristic_run_feasibility_jump": False,
        **options}


@pytest.mark.parametrize("option, value", [
    ("--time-limit", "-1"), ("--time-limit", "nan"),
    ("--gap", "-1"), ("--gap", "nan"), ("--gap", "inf"),
])
def test_solve_mps_refuses_bad_solver_options(tmp_path, capsys, option, value):
    path = tmp_path / "m.mps"
    path.write_text(write_mps(build_model(build_event_graph(
        generate_synthetic(GeneratorConfig(n=10, capacity=3, seed=1))), "model3")))
    words = {"--time-limit": "time limit", "--gap": "MIP gap"}[option]
    _refused(capsys, ["solve-mps", str(path), option, value], words)
    # a zero time limit is an option, not a refusal
    assert cli.main(["solve-mps", str(path), "--time-limit", "0"]) == 1
    assert "status: time_limit" in capsys.readouterr().out


@pytest.mark.parametrize("command, name, text", [
    ("solve-mps", "bad.mps", "NAME bad\nROWS\n N  obj\n G  r\nCOLUMNS\n"
                             "    x  obj  1.0  r  one\nENDATA\n"),
    ("graph", "bad.json", '{"metric": {"coords": {"0": [0, "north"]}}}'),
    ("solve-mps", "nocols.mps",
     "ROWS\n N COST\n L c\nCOLUMNS\nRHS\n    RHS c 1\nENDATA\n"),
    ("solve-mps", "sos.mps", "NAME s\nROWS\n N obj\nCOLUMNS\n    x obj 1\n"
                             "SOS\n S1 SOS s1 1\n    s1 x 1\nENDATA\n"),
    ("solve-mps", "name_data.mps", "NAME s\n    junk  here  1.0\nROWS\n N obj\n"
                                   "COLUMNS\n    x obj 1\nENDATA\n"),
])
def test_malformed_input_exits_2(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_instance_without_requests_exits_2(tmp_path, instance_file, capsys):
    doc = json.loads(instance_file.read_text())
    doc["requests"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    for command in (["graph"], ["model"], ["solve", "--oracle"]):
        _refused(capsys, command + [str(path)], "at least one request")


def test_nan_time_factor_exits_2(tmp_path, instance_file, capsys):
    doc = json.loads(instance_file.read_text())
    doc["metric"]["time_factor"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert '"time_factor": NaN' in path.read_text()
    for command in (["graph"], ["model"], ["solve", "--oracle"]):
        assert cli.main(command + [str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: time_factor")


def test_matrix_time_factor_exits_2(tmp_path, capsys):
    inst = line_instance(
        "matrix", positions=(0.0, 1.0, 4.0),
        specs=[{"pickup": (10, 30), "dropoff": (20, 100), "max_ride": 40}],
        fleet_size=1, capacity=1, depot_window=(0.0, 200.0))
    doc = json.loads(instance_to_json(inst))
    assert doc["metric"]["time_factor"] == 1.0
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["graph", str(path)]) == 0
    capsys.readouterr()
    # a matrix carries its times: a factor other than 1 would be ignored
    doc["metric"]["time_factor"] = 4
    path.write_text(json.dumps(doc))
    assert cli.main(["graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: time_factor must be 1") and err.count("\n") == 1


def test_model_census_lists_the_hub_variables(instance_file, capsys):
    assert cli.main(["model", str(instance_file)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("variables: "))
    assert json.loads(line.split(" ", 2)[2])["z"] == 2


def test_compare_table(tmp_path, instance_file, capsys):
    sol_a = tmp_path / "a.json"
    sol_b = tmp_path / "b.json"
    assert cli.main(["solve", str(instance_file), "--oracle",
                     "--objective", "cost", "-o", str(sol_a)]) == 0
    assert cli.main(["solve", str(instance_file), "--oracle",
                     "--objective", "cost-excess", "-o", str(sol_b)]) == 0
    capsys.readouterr()
    assert cli.main(["compare", str(sol_a), str(sol_b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["metric", "A", "B", "delta%"]
    assert out[1].startswith("f_c")
    assert out[4].startswith("a.r.")


def _solution_doc(**objective):
    """A complete solution document, as ``compare`` and the library read
    it: no tours, request 1 accepted, the given objective fields."""
    return {"tours": [], "accepted": [1],
            "objective": {"total": 1.0, "f_c": 1.0, "f_e": 1.0, "f_emax": 1.0,
                          "f_n": 0, **objective}}


def test_compare_zero_baseline(tmp_path, capsys):
    doc = _solution_doc(f_c=0.0)
    a = tmp_path / "a.json"
    a.write_text(json.dumps(doc))
    assert cli.main(["compare", str(a), str(a)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-1] == "n/a"
    assert lines[2].split()[-1] == "+0"


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_compare_refuses_a_non_finite_component(tmp_path, capsys, value):
    doc = _solution_doc()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    doc["objective"]["f_c"] = value
    b.write_text(json.dumps(doc))
    _refused(capsys, ["compare", str(a), str(b)], "f_c is not a finite number")


@pytest.mark.parametrize("key, value", [("f_c", "1.0"), ("f_e", True), ("f_emax", None)])
def test_compare_refuses_a_non_numeric_component(tmp_path, capsys, key, value):
    doc = _solution_doc(f_e=1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    assert cli.main(["compare", str(a), str(a)]) == 0
    doc["objective"][key] = value
    b.write_text(json.dumps(doc))
    _refused(capsys, ["compare", str(a), str(b)], f"{key} must be a number")


@pytest.mark.parametrize("accepted", ["abc", [1, 1, 1, 1, 1], [1.5], [True]])
def test_compare_refuses_bad_accepted_ids(tmp_path, capsys, accepted):
    doc = _solution_doc()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    doc["accepted"] = accepted
    b.write_text(json.dumps(doc))
    _refused(capsys, ["compare", str(a), str(b)], "request id")


@pytest.mark.parametrize("path", [("tours",), ("objective", "total"),
                                  ("objective", "f_n")])
def test_compare_refuses_a_partial_document(tmp_path, capsys, path):
    # compare reads a solution file as the library does: a document
    # without tours, total or f_n is refused, naming the missing field
    doc = _solution_doc()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    assert cli.main(["compare", str(a), str(a)]) == 0
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    b.write_text(json.dumps(doc))
    _refused(capsys, ["compare", str(a), str(b)], repr(path[-1]))


def test_compare_refuses_a_stop_of_unknown_kind(tmp_path, capsys):
    doc = _solution_doc()
    doc["tours"] = [[{"request": 1, "kind": "pickup", "time": 1.0},
                     {"request": 1, "kind": "banana", "time": 2.0}]]
    a = tmp_path / "a.json"
    a.write_text(json.dumps(doc))
    _refused(capsys, ["compare", str(a), str(a)], "unknown kind 'banana'")


@pytest.mark.parametrize("doc", ["[]", "5", '"x"'])
def test_compare_refuses_a_document_that_is_not_an_object(tmp_path, capsys, doc):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_solution_doc()))
    b.write_text(doc)
    _refused(capsys, ["compare", str(a), str(b)], "not a JSON object")


def test_compare_bad_file(tmp_path):
    a = tmp_path / "a.json"
    a.write_text("{}")
    assert cli.main(["compare", str(a), str(a)]) == 2
