"""Command line interface.

Subcommands: ``convert`` (text/JSON instance conversion), ``generate``
(synthetic instances), ``graph`` (event-graph statistics and DOT
export), ``model`` (MPS/LP/sidecar export), ``solve`` (exact oracle or
decoding an external solver's assignment), ``solve-mps`` (run the
bundled scipy backend on an exported MPS file) and ``compare``
(percentage deltas between two solution files).

Every produced artifact gets a run manifest JSON next to it recording
the command, arguments, input/output hashes and timings.  Exit codes:
0 success, 1 infeasible or failed validation, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .backend import read_assignment, solve_mps_text, write_assignment
from .errors import DarpkitError, InfeasibleError, ParseError, SolutionError
from .event_graph import build_event_graph, graph_stats, to_dot
from .instance import (
    GeneratorConfig, Instance, generate_synthetic, instance_from_json,
    instance_to_json, parse_cordeau, tighten_time_windows,
)
from .model import (
    OBJECTIVES, VARIANTS, ObjectiveSpec, build_model, read_mapping, write_lp,
    write_mapping, write_mps,
)
from .schedule import compatible_pairs
from .solve import (
    import_solution, oracle_solve, solution_to_json, validate_solution,
)

USAGE_ERROR = 2
FAILURE = 1


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(primary: Path, command: str, argv: list[str],
                    inputs: list[Path], outputs: list[Path],
                    timings: dict, seed: int | None = None) -> Path:
    doc = {
        "tool": "darpkit",
        "version": __version__,
        "command": command,
        "argv": argv,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "timings_s": timings,
    }
    path = primary.parent / (primary.name + ".manifest.json")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


class _Stages:
    """Seconds of consecutive named stages, each from the previous mark."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def mark(self, name: str):
        now = time.perf_counter()
        self.seconds[name] = round(now - self._last, 6)
        self._last = now


def _load_instance(path: Path, fmt: str = "auto", name: str | None = None,
                   auto_tighten: bool = True) -> Instance:
    text = path.read_text()
    if fmt == "auto":
        fmt = "json" if text.lstrip().startswith("{") else "cordeau"
    if fmt == "json":
        inst = instance_from_json(text)
    else:
        inst = parse_cordeau(text, name=name or path.stem)
    if auto_tighten and any(r.direction is None for r in inst.requests):
        inst = tighten_time_windows(inst)
    return inst


def _objective_from_args(args) -> ObjectiveSpec:
    token = (args.objective or "cost").replace("-", "_")
    if token == "rce":
        token = "request_cost_excess"
    return ObjectiveSpec(variant=token,
                         alpha=args.alpha, beta=args.beta, gamma=args.gamma)


def _add_objective_args(p: argparse.ArgumentParser):
    p.add_argument("--objective", default=None,
                   help="one of " + ", ".join(o.replace("_", "-") for o in OBJECTIVES)
                        + " (default cost; rce is short for request-cost-excess,"
                        " the one objective that lets requests be denied)")
    p.add_argument("--alpha", type=float, default=None,
                   help="weight of total excess (default 3)")
    p.add_argument("--beta", type=float, default=None,
                   help="weight of maximal excess (default 3n/5)")
    p.add_argument("--gamma", type=float, default=None,
                   help="penalty per denied request (default 60)")


def cmd_convert(args) -> int:
    t0 = time.perf_counter()
    src = Path(args.input)
    inst = _load_instance(src, fmt=args.format, name=args.name,
                          auto_tighten=False)
    if args.tighten:
        inst = tighten_time_windows(inst)
    out = Path(args.out)
    out.write_text(instance_to_json(inst))
    _write_manifest(out, "convert", sys.argv[1:], [src], [out],
                    {"total": time.perf_counter() - t0})
    print(f"wrote {out} ({inst.n} requests, fleet {inst.fleet_size}, "
          f"capacity {inst.capacity})")
    return 0


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    cfg = GeneratorConfig(n=args.n, capacity=args.capacity, seed=args.seed,
                          fleet_size=args.fleet_size, area_side=args.area_side)
    inst = generate_synthetic(cfg)
    out = Path(args.out)
    out.write_text(instance_to_json(inst))
    _write_manifest(out, "generate", sys.argv[1:], [], [out],
                    {"total": time.perf_counter() - t0}, seed=args.seed)
    print(f"wrote {out} ({inst.name}: {inst.n} requests, fleet "
          f"{inst.fleet_size}, capacity {inst.capacity})")
    return 0


def _pruned_line(graph) -> str:
    n = graph.inst.n
    return (f"pruned graph: nodes {graph.node_count}, arcs {graph.arc_count} "
            f"({len(graph.compatible)} of {n * (n - 1) // 2} request pairs "
            "can ride together)")


def cmd_graph(args) -> int:
    t0 = time.perf_counter()
    src = Path(args.instance)
    inst = _load_instance(src)
    stages = _Stages()
    graph = build_event_graph(inst)
    stages.mark("complete")
    pairs = compatible_pairs(inst)
    stages.mark("compatible_pairs")
    pruned = build_event_graph(inst, pairs)
    stages.mark("pruned")
    stats = graph_stats(graph)
    stats["pruned"] = {"nodes": pruned.node_count, "arcs": pruned.arc_count,
                       "compatible_pairs": len(pruned.compatible)}
    stats["build_s"] = round(time.perf_counter() - t0, 6)
    stats["stage_s"] = stages.seconds
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(f"instance {stats['instance']}: {stats['requests']} requests, "
              f"capacity {stats['capacity']}")
        print(f"nodes: {stats['nodes']}")
        print(f"arcs:  {stats['arcs']}")
        for cls, count in stats["arc_classes"].items():
            print(f"  {cls}: {count}")
        if "closed_form" in stats:
            cf = stats["closed_form"]
            print(f"closed form (unit loads): nodes {cf['nodes']}, arcs {cf['arcs']}")
        print(_pruned_line(pruned))
    if args.dot:
        out = Path(args.dot)
        out.write_text(to_dot(graph))
        _write_manifest(out, "graph", sys.argv[1:], [src], [out],
                        {"total": time.perf_counter() - t0,
                         "stage_s": stages.seconds})
    return 0


def cmd_model(args) -> int:
    t0 = time.perf_counter()
    src = Path(args.instance)
    inst = _load_instance(src)
    objective = _objective_from_args(args)
    variant = args.variant
    stages = _Stages()
    pairs = compatible_pairs(inst)
    stages.mark("compatible_pairs")
    graph = build_event_graph(inst, pairs)
    stages.mark("pruned")
    model = build_model(graph, variant, objective)
    stages.mark("model")
    t_build = time.perf_counter() - t0
    base = args.out
    if base is None:
        base = f"{inst.name}.{variant}.{objective.variant}"
    for ext in (".mps", ".lp"):
        if base.endswith(ext):
            base = base[:-len(ext)]
    mps_path = Path(base + ".mps")
    lp_path = Path(base + ".lp")
    map_path = Path(base + ".map.json")
    mps_path.write_text(write_mps(model))
    stages.mark("write_mps")
    lp_path.write_text(write_lp(model))
    stages.mark("write_lp")
    map_path.write_text(write_mapping(model) + "\n")
    stages.mark("write_mapping")
    _write_manifest(mps_path, "model", sys.argv[1:], [src],
                    [mps_path, lp_path, map_path],
                    {"build": round(t_build, 6), "stage_s": stages.seconds,
                     "total": round(time.perf_counter() - t0, 6)})
    census = model.census
    print(f"wrote {mps_path}, {lp_path}, {map_path}")
    print(_pruned_line(graph))
    print(f"variables: {sum(census['variables'].values())} "
          + json.dumps(census["variables"], sort_keys=True))
    print(f"rows: {sum(census['rows'].values())} "
          + json.dumps(census["rows"], sort_keys=True))
    return 0


def _report_solution(inst, sol, objective: ObjectiveSpec) -> int:
    report = validate_solution(inst, sol, objective=objective)
    obj = sol.objective
    print(f"tours: {len(sol.tours)}, accepted {len(sol.accepted)}/{inst.n}")
    print(f"objective total {obj.total:.6f} (cost {obj.cost:.6f}, "
          f"excess {obj.excess:.6f}, max excess {obj.max_excess:.6f}, "
          f"denied {obj.denied})")
    if report.ok:
        print("validation: OK")
        return 0
    print(f"validation: {len(report.violations)} violation(s)")
    for v in report.violations:
        where = "" if v.tour is None else f" tour {v.tour}"
        where += "" if v.stop is None else f" stop {v.stop}"
        print(f"  {v.kind}{where}: {v.detail} (magnitude {v.magnitude:.6f})")
    return FAILURE


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    src = Path(args.instance)
    inst = _load_instance(src)
    inputs = [src]
    if args.oracle:
        objective = _objective_from_args(args)
        sol = oracle_solve(inst, objective, limit=args.limit)
    else:
        if not args.mapping:
            raise DarpkitError("--import needs --mapping SIDECAR")
        given = [f"--{flag}" for flag in ("objective", "alpha", "beta", "gamma")
                 if getattr(args, flag) is not None]
        if given:
            raise DarpkitError(f"--import takes the objective from the mapping "
                               f"sidecar; drop {', '.join(given)}")
        map_path = Path(args.mapping)
        assign_path = Path(getattr(args, "import"))
        inputs += [assign_path, map_path]
        model = read_mapping(map_path.read_text(), inst)
        objective = model.objective
        sol = import_solution(model, read_assignment(assign_path.read_text()))
    code = _report_solution(inst, sol, objective)
    if args.out:
        out = Path(args.out)
        out.write_text(solution_to_json(sol) + "\n")
        _write_manifest(out, "solve", sys.argv[1:], inputs, [out],
                        {"total": round(time.perf_counter() - t0, 6)})
    return code


def cmd_solve_mps(args) -> int:
    t0 = time.perf_counter()
    src = Path(args.mps)
    result = solve_mps_text(src.read_text(), time_limit=args.time_limit,
                            mip_gap=args.gap)
    print(f"status: {result.status}")
    if result.objective is None:
        return FAILURE
    print(f"objective: {result.objective:.6f}")
    if args.out:
        out = Path(args.out)
        out.write_text(write_assignment(result))
        _write_manifest(out, "solve-mps", sys.argv[1:], [src], [out],
                        {"total": round(time.perf_counter() - t0, 6)})
    return 0 if result.status == "optimal" else FAILURE


def cmd_compare(args) -> int:
    def pct(name, va, vb):
        if va == 0:
            return "n/a"
        return f"{round(100.0 * (vb - va) / va):+d}"

    try:
        a = json.loads(Path(args.a).read_text())
        b = json.loads(Path(args.b).read_text())
        rows = []
        for key in ("f_c", "f_e", "f_emax"):
            va = float(a["objective"][key])
            vb = float(b["objective"][key])
            if not (math.isfinite(va) and math.isfinite(vb)):
                raise ValueError(f"{key} is not a finite number")
            rows.append((key, va, vb, pct(key, va, vb)))
        ar_a = len(a["accepted"])
        ar_b = len(b["accepted"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"solution file: {exc}") from None
    rows.append(("a.r.", float(ar_a), float(ar_b), pct("a.r.", ar_a, ar_b)))
    print(f"{'metric':<8}{'A':>12}{'B':>12}{'delta%':>8}")
    for name, va, vb, delta in rows:
        print(f"{name:<8}{va:>12.4f}{vb:>12.4f}{delta:>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darpkit",
        description="Event-based graph tooling for the static dial-a-ride problem")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert an instance file to JSON")
    p.add_argument("input")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--format", choices=("auto", "cordeau", "json"), default="auto")
    p.add_argument("--name", default=None, help="instance name override")
    p.add_argument("--tighten", action="store_true",
                   help="derive the unspecified time windows")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("generate", help="generate a synthetic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", "--capacity", dest="capacity", type=int,
                   choices=(3, 6), required=True, help="vehicle capacity")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fleet-size", type=int, default=None)
    p.add_argument("--area-side", type=float, default=5.0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("graph", help="build the event graph and report stats")
    p.add_argument("instance")
    p.add_argument("--stats", action="store_true",
                   help="print size statistics (the default output)")
    p.add_argument("--json", action="store_true", help="machine-readable stats")
    p.add_argument("--dot", default=None, help="write a Graphviz file")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("model", help="export MPS/LP model files")
    p.add_argument("instance")
    p.add_argument("--variant", choices=VARIANTS, default="model2")
    _add_objective_args(p)
    p.add_argument("-o", "--out", default=None,
                   help="output base path (default <instance>.<variant>.<objective>)")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("solve", help="solve exactly or decode a solver assignment")
    p.add_argument("instance")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--oracle", action="store_true",
                      help="exhaustive exact solve (small instances)")
    mode.add_argument("--import", dest="import", default=None, metavar="ASSIGNMENT",
                      help="decode a 'name value' assignment file")
    p.add_argument("--mapping", default=None, metavar="SIDECAR",
                   help="variable mapping JSON written next to the model")
    p.add_argument("--limit", type=int, default=6,
                   help="oracle size guard (requests)")
    _add_objective_args(p)
    p.add_argument("-o", "--out", default=None, help="solution JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-mps", help="solve an exported MPS file with scipy")
    p.add_argument("mps")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--gap", type=float, default=0.0)
    p.add_argument("-o", "--out", default=None, help="assignment output path")
    p.set_defaults(func=cmd_solve_mps)

    p = sub.add_parser("compare", help="percentage deltas between two solutions")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return FAILURE
    except SolutionError as exc:
        print(f"solution error: {exc}", file=sys.stderr)
        return FAILURE
    except (ParseError, DarpkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
