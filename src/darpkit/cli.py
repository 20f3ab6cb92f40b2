"""Command line interface.

Subcommands: ``convert`` (text/JSON instance conversion), ``generate``
(synthetic instances), ``graph`` (event-graph statistics and DOT
export), ``model`` (MPS/LP/sidecar export), ``solve`` (exact oracle or
decoding an external solver's assignment), ``solve-mps`` (run the
bundled scipy backend on an exported MPS file) and ``compare``
(percentage deltas between two solution files).

Every produced artifact gets a run manifest JSON next to it recording
the command, arguments, input/output hashes and timings.  Exit codes:
0 success, 1 infeasible or failed validation, 2 usage, parse or file
errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .backend import (
    highs_options, parse_mps, read_assignment, solve_mip, write_assignment,
)
from .errors import DarpkitError, InfeasibleError, SolutionError
from .event_graph import build_event_graph, graph_stats, to_dot
from .instance import (
    GeneratorConfig, Instance, generate_synthetic,
    instance_from_json, instance_to_json, parse_cordeau, tighten_time_windows,
)
from .model import (
    OBJECTIVES, VARIANTS, ObjectiveSpec, build_model, read_mapping, write_lp,
    write_mapping, write_mps,
)
from .solve import (
    ORACLE_LIMIT, _read_solution, import_solution, oracle_solve,
    solution_to_json, validate_solution,
)

USAGE_ERROR = 2
FAILURE = 1


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Stages:
    """A command's one clock: seconds of consecutive stages, each from the
    previous mark, and the total since the command started."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._start = self._last = time.perf_counter()

    def mark(self, name: str | None):
        """End the running stage; record it unless ``name`` is None."""
        now = time.perf_counter()
        if name is not None:
            self.seconds[name] = round(now - self._last, 6)
        self._last = now

    def total(self) -> float:
        return round(time.perf_counter() - self._start, 6)


def _write_manifest(args, primary: Path, inputs: list[Path],
                    outputs: list[Path], stages: _Stages, **extra) -> Path:
    """Record the command ``main`` parsed from ``args.argv``; ``extra``
    adds command-specific keys."""
    doc = {
        "tool": "darpkit",
        "version": __version__,
        "command": args.command,
        "argv": args.argv,
        "seed": getattr(args, "seed", None),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "timings_s": {"stage_s": stages.seconds, "total": stages.total()},
        **extra,
    }
    path = primary.parent / (primary.name + ".manifest.json")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _load_instance(path: Path, name: str | None = None,
                   auto_tighten: bool = True) -> Instance:
    text = path.read_text()
    # JSON starts with "{"; anything else is read as the plain-text format
    if text.lstrip().startswith("{"):
        inst = instance_from_json(text)
        if name is not None:
            inst = replace(inst, name=name)
    else:
        inst = parse_cordeau(text, name=path.stem if name is None else name)
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
    stages = _Stages()
    src = Path(args.input)
    inst = _load_instance(src, name=args.name, auto_tighten=False)
    if args.tighten:
        inst = tighten_time_windows(inst)
    out = Path(args.out)
    out.write_text(instance_to_json(inst))
    _write_manifest(args, out, [src], [out], stages)
    print(f"wrote {out} ({inst.n} requests, fleet {inst.fleet_size}, "
          f"capacity {inst.capacity})")
    return 0


def cmd_generate(args) -> int:
    stages = _Stages()
    cfg = GeneratorConfig(n=args.n, capacity=args.capacity, seed=args.seed,
                          fleet_size=args.fleet_size, area_side=args.area_side)
    inst = generate_synthetic(cfg)
    out = Path(args.out)
    out.write_text(instance_to_json(inst))
    _write_manifest(args, out, [], [out], stages)
    print(f"wrote {out} ({inst.name}: {inst.n} requests, fleet "
          f"{inst.fleet_size}, capacity {inst.capacity})")
    return 0


def _pruned_line(graph) -> str:
    n = graph.inst.n
    return (f"pruned graph: nodes {graph.node_count}, arcs {graph.arc_count} "
            f"({len(graph.compatible)} of {n * (n - 1) // 2} request pairs "
            "can ride together)")


def cmd_graph(args) -> int:
    stages = _Stages()
    src = Path(args.instance)
    inst = _load_instance(src)
    stages.mark(None)
    graph = build_event_graph(inst)
    stages.mark("complete")
    pruned = build_event_graph(inst, pruned=True)
    stages.mark("pruned")
    stats = graph_stats(graph)
    stats["pruned"] = {"nodes": pruned.node_count, "arcs": pruned.arc_count,
                       "compatible_pairs": len(pruned.compatible),
                       "fragments": pruned.fragments}
    stats["build_s"] = stages.total()
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
        _write_manifest(args, out, [src], [out], stages)
    return 0


def cmd_model(args) -> int:
    stages = _Stages()
    src = Path(args.instance)
    inst = _load_instance(src)
    objective = _objective_from_args(args)
    stages.mark(None)
    graph = build_event_graph(inst, pruned=True)
    stages.mark("pruned")
    model = build_model(graph, args.variant, objective)
    stages.mark("model")
    base = model.name if args.out is None else args.out
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
    _write_manifest(args, mps_path, [src], [mps_path, lp_path, map_path],
                    stages)
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


def _refuse_other_mode(args):
    """Refuse the ``solve`` options that the chosen mode would ignore."""
    if args.oracle:
        refused = [("--oracle reads no mapping sidecar", ["mapping"])]
    elif not args.mapping:
        raise DarpkitError("--import needs --mapping SIDECAR")
    else:
        refused = [("--import takes the objective from the mapping sidecar",
                    ["objective", "alpha", "beta", "gamma"]),
                   ("--import runs no oracle", ["limit"])]
    for reason, names in refused:
        given = [f"--{name}" for name in names if getattr(args, name) is not None]
        if given:
            raise DarpkitError(f"{reason}; drop {', '.join(given)}")


def cmd_solve(args) -> int:
    _refuse_other_mode(args)
    stages = _Stages()
    src = Path(args.instance)
    inst = _load_instance(src)
    stages.mark("load")
    inputs = [src]
    extra = {}
    if args.oracle:
        objective = _objective_from_args(args)
        limit = ORACLE_LIMIT if args.limit is None else args.limit
        sol = oracle_solve(inst, objective, limit=limit)
        stages.mark("oracle")
    else:
        map_path = Path(args.mapping)
        assign_path = Path(getattr(args, "import"))
        inputs += [assign_path, map_path]
        model = read_mapping(map_path.read_text(), inst)
        objective = model.objective
        sol = import_solution(model, read_assignment(assign_path.read_text()))
        stages.mark("import")
        extra["raw_time_gap"] = sol.raw_time_gap
        print("solver times: largest shortfall below the re-timed schedule "
              + _or_na(sol.raw_time_gap, ".6g"))
    code = _report_solution(inst, sol, objective)
    stages.mark("validate")
    if args.out:
        out = Path(args.out)
        out.write_text(solution_to_json(sol) + "\n")
        _write_manifest(args, out, inputs, [out], stages, **extra)
    return code


def _or_na(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def cmd_solve_mps(args) -> int:
    stages = _Stages()
    src = Path(args.mps)
    mip = parse_mps(src.read_text())
    stages.mark("parse")
    result = solve_mip(mip, time_limit=args.time_limit, mip_gap=args.gap)
    stages.mark("solve")
    print(f"status: {result.status}")
    if result.objective is None:
        return FAILURE
    print(f"objective: {result.objective:.6f}")
    print(f"gap: {_or_na(result.mip_gap, '.6g')}, "
          f"nodes: {_or_na(result.mip_node_count, 'd')}, "
          f"dual bound: {_or_na(result.mip_dual_bound, '.6f')}")
    if args.out:
        out = Path(args.out)
        out.write_text(write_assignment(result))
        import scipy   # loaded by the solve already
        solver = {"status": result.status, "mip_gap": result.mip_gap,
                  "mip_node_count": result.mip_node_count,
                  "mip_dual_bound": result.mip_dual_bound,
                  "highs_options": highs_options(args.time_limit, args.gap),
                  "scipy": scipy.__version__}
        _write_manifest(args, out, [src], [out], stages, solver=solver)
    return 0 if result.status == "optimal" else FAILURE


def cmd_compare(args) -> int:
    def pct(va, vb):
        if va == 0:
            return "n/a"
        return f"{round(100.0 * (vb - va) / va):+d}"

    # tours, stop times, accepted ids, objective
    _, _, acc_a, obj_a = _read_solution(Path(args.a).read_text())
    _, _, acc_b, obj_b = _read_solution(Path(args.b).read_text())
    rows = [("f_c", obj_a.cost, obj_b.cost), ("f_e", obj_a.excess, obj_b.excess),
            ("f_emax", obj_a.max_excess, obj_b.max_excess),
            ("a.r.", float(len(acc_a)), float(len(acc_b)))]
    print(f"{'metric':<8}{'A':>12}{'B':>12}{'delta%':>8}")
    for name, va, vb in rows:
        print(f"{name:<8}{va:>12.4f}{vb:>12.4f}{pct(va, vb):>8}")
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
                   help="the .map.json sidecar written next to the model")
    p.add_argument("--limit", type=int, default=None,
                   help=f"oracle size guard (requests, default {ORACLE_LIMIT})")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return FAILURE
    except SolutionError as exc:
        print(f"solution error: {exc}", file=sys.stderr)
        return FAILURE
    except (DarpkitError, OSError, UnicodeDecodeError) as exc:
        # a bad input or an unreadable file: a directory, a missing path,
        # bytes that are not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
