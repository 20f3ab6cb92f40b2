"""darpkit benchmark: one workload per process, closed loop, one op at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload export-q3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation twice, untraced and traced in alternating order, and prints
the per-layer metrics and the tracing overhead.  ``--workload all`` runs each workload in its
own process, untraced and traced, prints both tables, and fails when the
two runs of a workload count differently.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts every operation that failed a gate;
``correct`` is false, and the exit code 1, when one of them is a wrong
answer (see workloads.py).  Metric definitions are in README.md next to
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_ROUNDS = 5
REF_LOOPS = 300_000
# Seconds the reference loop takes in the fast regime of the 2-core x86-64
# host (Python 3.11) the bounds were set on; figures are in seconds at
# that speed.
REF_NOMINAL_S = 0.0115
# a timed segment is closed with a reference loop once it is this long
SEGMENT_S = 0.25
WORKLOAD_NAMES = ("export-q3", "solve-mid", "verify-batch")

# per-layer time metric -> the traced call it sums, in seconds per operation
LAYER_TIMES = {
    "event_graph.build_s": "event_graph.build_event_graph",
    "model.build_s": "model.build_model",
    "model.write_mps_s": "model.write_mps",
    "model.write_lp_s": "model.write_lp",
    "model.write_mapping_s": "model.write_mapping",
    "backend.parse_mps_s": "backend.parse_mps",
    "backend.solve_mip_s": "backend.solve_mip",
    "solve.oracle_s": "solve.oracle_solve",
    "solve.import_s": "solve.import_solution",
    "solve.validate_s": "solve.validate_solution",
}
# per-layer count metric -> the per-operation count it sums over one pass
LAYER_COUNTS = {
    "event_graph.nodes": "nodes", "event_graph.arcs": "arcs",
    "model.rows": "rows", "model.cols": "cols", "model.nnz": "nnz",
    "model.ride_rows": "ride_rows", "model.mps_bytes": "mps_bytes",
    "model.lp_bytes": "lp_bytes", "backend.solve_calls": "solve_calls",
    "solve.oracle_calls": "oracle_calls",
    "solve.validate_fail": "validate_fail",
}
LAYERS = ("instance", "event_graph", "model", "backend", "solve", "bench")


def environment() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}


def import_in_fresh_interpreter() -> None:
    """Import darpkit the way a user's first call does: from a cold start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-c", "import darpkit"], env=env,
                   cwd=ROOT, check=True)


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOPS):
        x += i & 7
    return time.perf_counter() - t0


class Clock:
    """Rescaled seconds of one timed piece of work.

    The work is cut, at darpkit call boundaries, into segments of at
    least SEGMENT_S.  Each segment is bracketed by the reference loop,
    and its wall time is multiplied by REF_NOMINAL_S over the mean of its
    two reference times.  Shared hosts switch between speed regimes that
    differ by up to half for seconds at a time, and one reference loop
    can be slowed by a context switch; short segments follow the regime
    and confine such a slow loop to one segment (see README.md).
    """

    def __init__(self, ref: float):
        self.ref = ref           # reference time at the open segment's start
        self.scaled = 0.0        # rescaled seconds of the closed segments
        self.wall = 0.0          # their wall seconds
        self.excluded = 0.0      # wall seconds of reference loops and untimed work
        self.t0 = time.perf_counter()

    def now(self) -> float:
        """Rescaled seconds so far; the open segment at its start's speed."""
        return self.scaled + ((time.perf_counter() - self.t0)
                              * REF_NOMINAL_S / self.ref)

    def split(self) -> None:
        """Close the open segment with a reference loop."""
        wall = time.perf_counter() - self.t0
        ref = reference_s()
        self.scaled += wall * REF_NOMINAL_S / ((self.ref + ref) / 2)
        self.wall += wall
        self.ref = ref
        self.t0 = time.perf_counter()
        self.excluded += ref

    def after_call(self) -> None:
        if time.perf_counter() - self.t0 >= SEGMENT_S:
            self.split()

    @contextmanager
    def untimed(self):
        """Benchmark bookkeeping inside an operation, left out of its time."""
        self.split()
        try:
            yield
        finally:
            now = time.perf_counter()
            self.excluded += now - self.t0
            self.t0 = now


class Run:
    """Measures one workload in this process; every time is rescaled by
    a :class:`Clock`."""

    def __init__(self, workload, seconds: float, traced: bool):
        from spans import Tracer, untraced
        self.wl = workload
        self.seconds = seconds
        self.tracer = Tracer() if traced else None
        self.call = self.tracer.call if traced else untraced
        self.untraced = untraced
        self.records: list[tuple[str, float, list[float]]] = []
        self.walls: list[float] = []
        self.refs: list[float] = [reference_s()]
        self.pairs: list[tuple[float, float]] = []
        self.first_counts: dict[tuple, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []    # operations the program failed
        self.wrong: list[str] = []       # wrong answers
        self.failed = 0

    def measure(self, work, call, span: str | None, op_id: list):
        """Run ``work(call, clock)`` as one timed piece, as span ``span``
        when given; returns its result and its rescaled seconds."""
        clock = Clock(self.refs[-1])

        def timed_call(name, fn, *args):
            try:
                return call(name, fn, *args)
            finally:
                clock.after_call()

        sid = self.tracer.begin(span, op_id) if span else None
        result = work(timed_call, clock)
        if sid is not None:
            self.tracer.end(sid)
        clock.split()
        clock.excluded -= clock.ref      # the closing loop is outside the span
        if sid is not None:
            self.tracer.spans[sid].update(scale=clock.scaled / clock.wall,
                                          excluded=clock.excluded)
        self.refs.append(clock.ref)
        self.walls.append(clock.wall)
        return result, clock.scaled

    def setup(self) -> None:
        """SETUP_ROUNDS full set-ups; each must build the same inputs."""
        self.setup_s, digests = [], set()

        def work(call, clock):
            import_in_fresh_interpreter()
            clock.after_call()
            return self.wl.setup(call)

        for r in range(SETUP_ROUNDS):
            self.screen, seconds = self.measure(
                work, self.call, "bench.setup" if self.tracer else None,
                [self.wl.name, "setup", r])
            self.setup_s.append(seconds)
            digests.add(self.wl.inputs_digest())
        if len(digests) != 1:
            self.wrong_answer("set-up rounds built different inputs from one"
                              " seed")

    def wrong_answer(self, msg: str) -> None:
        self.failed += 1
        self.wrong.append(msg)

    def execute(self, op, call) -> float:
        """Run one operation; returns its rescaled seconds."""
        traced = call is not self.untraced
        state, seconds = self.measure(
            lambda call, clock: self.wl.run(op, call, clock), call,
            "bench.op" if traced else None, list(op.key))
        counts, failed, wrong = self.wl.check(op, state)
        self.attempted += 1
        if not traced:
            self.records.append((op.kind, seconds, state["rt"]))
        del state
        first = self.first_counts.setdefault(op.key, counts)
        if counts != first:
            wrong.append(f"{op.key}: counts changed on repeat:"
                         f" {first} -> {counts}")
        if failed or wrong:
            self.failed += 1
            self.failures += failed
            self.wrong += wrong
        return seconds

    def loop(self) -> None:
        """Cycle through the operations for the set time, at least one pass."""
        ops = self.wl.operations()
        start = time.perf_counter()
        i = 0
        while i < len(ops) or time.perf_counter() - start < self.seconds:
            op = ops[i % len(ops)]
            if not self.tracer:
                self.execute(op, self.untraced)
            elif i % 2:
                # alternate which run goes first: the second one finds
                # warmer caches
                traced = self.execute(op, self.call)
                self.pairs.append((self.execute(op, self.untraced), traced))
            else:
                plain = self.execute(op, self.untraced)
                self.pairs.append((plain, self.execute(op, self.call)))
            i += 1
        self.passes = i / len(ops)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for msg in self.wl.finish():
            self.wrong_answer(msg)

    def end_to_end(self) -> dict:
        kinds: dict[str, tuple[list, list]] = {}
        for kind, elapsed, rts in self.records:
            durs, trips = kinds.setdefault(kind, ([], []))
            durs.append(elapsed)
            trips.extend(rts)
        per_kind = list(kinds.values())
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "op_s": (statistics.fmean(
                statistics.median(d) for d, _ in per_kind), "s"),
            "roundtrip_s_p50": (statistics.fmean(
                statistics.median(t) for _, t in per_kind if t), "s"),
            "ok_share": (1.0 - self.failed / max(self.attempted, 1), "share"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def self_seconds(self, key, phase: str) -> dict[str, float]:
        """Rescaled self seconds of the traced spans of one phase
        ("setup" or "op"), grouped by ``key(span)``."""
        from spans import self_times
        spans = self.tracer.spans
        own = self_times(spans)
        out: dict[str, float] = {}
        for s in spans:
            top = s if s["parent"] is None else spans[s["parent"]]
            if (top["op"][1] == "setup") == (phase == "setup"):
                seconds = (own[s["id"]] - s.get("excluded", 0.0)) * top["scale"]
                out[key(s)] = out.get(key(s), 0.0) + seconds
        return out

    def per_pass_counts(self) -> dict[str, int]:
        """Exact counts summed over one pass of the operation list."""
        per_pass: dict[str, int] = {}
        for counts in self.first_counts.values():
            for name, value in counts.items():
                if isinstance(value, int):
                    per_pass[name] = per_pass.get(name, 0) + value
        return dict(sorted(per_pass.items()))

    def per_layer(self) -> dict:
        by_call = self.self_seconds(lambda s: s["name"], "op")
        per_pass = self.per_pass_counts()
        setup = self.self_seconds(lambda s: s["name"], "setup")
        out = {"instance.generate_s": (
            setup.get("instance.generate_synthetic", 0.0) / SETUP_ROUNDS, "s")}
        out.update({metric: (by_call.get(call, 0.0) / len(self.pairs), "s")
                    for metric, call in LAYER_TIMES.items()})
        out.update({metric: (per_pass.get(key, 0), "count")
                    for metric, key in LAYER_COUNTS.items()})
        solves = per_pass.get("solve_calls", 0)
        out["backend.optimal_ratio"] = (
            per_pass.get("optimal", 0) / solves if solves else 1.0, "ratio")
        out["solve.screen_feasible_ratio"] = (
            self.screen["accepted"] / self.screen["screened"], "ratio")
        out["trace.overhead_share"] = (statistics.median(
            (t - u) / u for u, t in self.pairs), "ratio")
        return out

    def layer_table(self) -> dict[str, float]:
        """Self seconds per traced operation, by layer."""
        by_layer = self.self_seconds(lambda s: s["name"].split(".")[0], "op")
        return {layer: by_layer.get(layer, 0.0) / len(self.pairs)
                for layer in LAYERS}


def run_workload(args) -> int:
    if not (SRC / "darpkit" / "__init__.py").is_file():
        print(f"darpkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import darpkit
    if Path(darpkit.__file__).resolve().parent != SRC / "darpkit":
        print(f"imported darpkit from {darpkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    run = Run(wl, args.seconds, bool(args.trace))
    run.setup()
    run.loop()
    env = environment()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": round(run.passes, 3), "env": env,
                      "wall_s": round(sum(run.walls), 3),
                      "reference_s_median": statistics.median(run.refs)}))
    # compared by --workload all between the untraced and the traced run
    print("counts " + json.dumps(run.per_pass_counts()))
    for msg in run.failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    for msg in run.wrong[:20]:
        print(f"WRONG {msg}", file=sys.stderr)
    if args.trace:
        metrics = run.per_layer()
        table = run.layer_table()
        print("self s/op  " + "  ".join(f"{layer}={table[layer]:.6f}"
                                        for layer in LAYERS))
        path = OUT / f"spans-{args.workload}-s{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "self_s_per_op_by_layer": table, "spans": run.tracer.spans}))
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = run.end_to_end()
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    correct = not run.wrong
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced and traced; the two
    runs of a workload must report the same per-pass counts."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        counts = {}
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith("self s/op"):
                    print(f"{name:13s} {line}")
                elif line.startswith("counts "):
                    counts[trace] = json.loads(line[len("counts "):])
            if proc.returncode != 0:
                status = 1
            if not lines or not lines[-1].startswith("{"):
                print(f"{name} trace={trace}: no result (exit {proc.returncode})")
                continue
            result = json.loads(lines[-1])
            result["env"] = json.loads(lines[0])["env"]
            results[f"{name} trace={trace}"] = result
            for metric, m in result["metrics"].items():
                print(f"{name:13s} {metric:32s} {m['value']:16.6f} {m['unit']}")
            print(f"{name:13s} correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']}")
        if len(counts) == 2 and counts[0] != counts[1]:
            status = 1
            print(f"{name}: counts differ between the untraced and the traced"
                  f" run: {counts[0]} != {counts[1]}", file=sys.stderr)
    print(json.dumps({"correct": status == 0, "results": results}))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
