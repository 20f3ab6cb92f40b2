"""darpkit ladder: sizes, stage times, solver statistics and LP bounds on
fixed generated instances.

Usage, from the repository root:

    python3 bench/ladder.py --side change -o BENCH_<n>.json

Each instance is ``generate_synthetic(GeneratorConfig(n=n, capacity=q,
seed=seed))`` for every rung (q, n) in ``RUNGS`` and then in
``LONG_RUNGS``, and every seed in ``SEEDS``.  Per instance the record
holds:

- ``graph``: complete nodes and arcs (the closed forms, which equal the
  complete graph for unit loads; at q=6, n=40 it has 53 million states
  and is never built), the pruned graph's nodes and arcs, and the number
  of feasible fragments its fragment rule closed (null when its walk ran
  out of steps);
- ``model``: rows, columns and nonzeros of model3 under ``cost``, as the
  solver reads them from the exported MPS text;
- ``stage_s``: seconds of the pruned graph build, ``build_model``,
  ``write_mps``, ``parse_mps`` and ``solve_mip``.  The four stages
  before the solve run ``REPEATS`` times in rounds, each round from a
  fresh graph, since a graph keeps its adjacency once a model has read
  it, and each records its median; the solve runs once, on the last
  round's model;
- ``solver``: that solve's status, objective, gap, node count and dual
  bound, under a limit of ``TIME_LIMIT_S`` seconds.  The limit is 120 s,
  the bar of the ladder's target, about twice what q=3 n=30 seed 401 takes
  (1 047 solver nodes, 54-66 s on a 2-core host), so that the rung's
  status follows the code and not the host's speed on the day;
- ``lp_bound``: the LP-relaxation bound of model2 and model3 under
  ``cost`` and ``cost_excess`` (the parsed model with its integrality
  zeroed, solved by ``solve_mip``), the paper's claim that model3's
  relaxation is at least as tight as model2's.

Before the first rung, one untimed toy instance goes through every stage,
so that numpy's and scipy's imports on first use, which ``parse_mps`` and
``solve_mip`` make, are not timed into the first rung's stages.

The output file keeps one entry per ``--side``, with the commit and a
digest of the darpkit sources that produced it; running again with
another side adds that side and keeps the others.  The script refuses
to run against a darpkit outside its own checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import darpkit  # noqa: E402
from darpkit import (  # noqa: E402
    GeneratorConfig, ObjectiveSpec, arc_count_closed_form, build_event_graph,
    build_model, generate_synthetic, node_count_closed_form, parse_mps,
    solve_mip, write_mps,
)

RUNGS = ((3, 6), (3, 10), (3, 14), (3, 20), (6, 20), (6, 40))
LONG_RUNGS = ((3, 30), (3, 40))
SEEDS = (401, 402, 403)
TIME_LIMIT_S = 120.0
REPEATS = 5


def lp_bound(mip) -> float | None:
    """The LP-relaxation optimum of a parsed model, None if not solved."""
    relaxed = replace(mip, integrality=numpy.zeros_like(mip.integrality))
    result = solve_mip(relaxed, time_limit=TIME_LIMIT_S)
    return result.objective if result.status == "optimal" else None


def warm_up() -> None:
    """Run a toy instance through every timed stage, untimed."""
    inst = generate_synthetic(GeneratorConfig(n=2, capacity=3, seed=0))
    graph = build_event_graph(inst, pruned=True)
    solve_mip(parse_mps(write_mps(build_model(graph, "model3"))))


def run_instance(n: int, q: int, seed: int) -> dict:
    """One ladder record: model3 ``cost`` through every stage, then the
    four LP bounds (model3 ``cost`` relaxes the model just solved)."""
    inst = generate_synthetic(GeneratorConfig(n=n, capacity=q, seed=seed))
    laps: dict[str, list[float]] = {}

    def mark(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        laps.setdefault(stage, []).append(now - clock)
        clock = now

    for _ in range(REPEATS):
        clock = time.perf_counter()
        graph = build_event_graph(inst, pruned=True)
        mark("graph")
        model = build_model(graph, "model3", ObjectiveSpec(variant="cost"))
        mark("model")
        text = write_mps(model)
        mark("write_mps")
        mip = parse_mps(text)
        mark("parse_mps")
    clock = time.perf_counter()
    result = solve_mip(mip, time_limit=TIME_LIMIT_S)
    mark("solve_mip")
    stage_s = {stage: round(statistics.median(times), 6)
               for stage, times in laps.items()}
    bounds = {}
    for variant in ("model2", "model3"):
        bounds[variant] = {}
        for objective in ("cost", "cost_excess"):
            if (variant, objective) == ("model3", "cost"):
                parsed = mip
            else:
                parsed = parse_mps(write_mps(build_model(
                    graph, variant, ObjectiveSpec(variant=objective))))
            bounds[variant][objective] = lp_bound(parsed)
    return {
        "n": n, "q": q, "seed": seed,
        "graph": {"complete_nodes": node_count_closed_form(n, q),
                  "complete_arcs": arc_count_closed_form(n, q),
                  "pruned_nodes": graph.node_count,
                  "pruned_arcs": len(graph.arcs),
                  "fragments": graph.fragments},
        "model": {"rows": len(mip.row_names), "cols": len(mip.col_names),
                  "nnz": int(mip.matrix.nnz)},
        "stage_s": stage_s,
        "solver": {"status": result.status, "objective": result.objective,
                   "mip_gap": result.mip_gap,
                   "mip_node_count": result.mip_node_count,
                   "mip_dual_bound": result.mip_dual_bound},
        "lp_bound": bounds,
    }


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.strip()


def provenance() -> dict:
    """The commit, whether the sources differ from it, and their digest."""
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "darpkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--", "src")
    return {"commit": _git("rev-parse", "HEAD"),
            "src_modified": None if status is None else bool(status),
            "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--side", required=True,
                   help="name of this run in the output file, e.g. parent")
    p.add_argument("-o", "--out", required=True, help="BENCH JSON path")
    args = p.parse_args(argv)
    if Path(darpkit.__file__).resolve().parent != SRC / "darpkit":
        print(f"imported darpkit from {darpkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    plan = [(q, n, seed) for q, n in (*RUNGS, *LONG_RUNGS) for seed in SEEDS]
    warm_up()
    records = []
    for q, n, seed in plan:
        rec = run_instance(n, q, seed)
        solver = rec["solver"]
        print(f"q={q} n={n} seed={seed}: {solver['status']} "
              f"{solver['objective']} nodes={solver['mip_node_count']} "
              f"solve={rec['stage_s']['solve_mip']:.3f}s", flush=True)
        records.append(rec)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"sides": {}}
    doc["sides"][args.side] = {
        **provenance(), "variant": "model3", "objective": "cost",
        "time_limit_s": TIME_LIMIT_S, "instances": records}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
