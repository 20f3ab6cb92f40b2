"""The benchmark's workloads: inputs from a seed, operations, gates.

Every call into darpkit goes through ``call(name, fn, *args)``, which is
either :func:`spans.untraced` or :meth:`spans.Tracer.call`; that is the
only difference between an untraced and a traced run.  Each operation
has a timed part (``run``) and an untimed part (``check``) that reads
the exact counts and applies the correctness gate.  ``run`` reads
rescaled seconds from ``clock.now()`` and wraps bookkeeping that must
not be timed in ``clock.untimed()``.

A gate failure is one of two kinds.  A *failed* operation is one the
program itself reports as failed: the solver status is not optimal,
``import_solution`` raises, or ``validate_solution`` rejects the plan
(``darpkit solve`` exits 1 on each).  A *wrong* answer is an output the
program delivers as good that the benchmark finds wrong: a validated
plan whose total misses the oracle's, an MPS text that parses to another
size, counts that change.  Both count as failed operations; only a wrong
answer makes the run incorrect.

Why these three workloads, and which layer each is meant to expose, is
written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from darpkit.event_graph import DROPOFF, PICKUP
from darpkit import (
    DarpkitError, GeneratorConfig, InfeasibleError, ObjectiveSpec, Schedule,
    Solution, arc_count_closed_form, build_event_graph, build_model,
    evaluate_objective, generate_synthetic, import_solution, instance_to_json,
    minimal_schedule, node_count_closed_form, oracle_solve, parse_mps,
    solve_mip, validate_solution, write_lp, write_mapping, write_mps,
)

FIVE_OBJECTIVES = ("cost", "excess", "max_excess", "cost_excess",
                   "cost_max_excess")
VARIANTS = ("model2", "model3")
RETIMED_TOL = 1e-6     # criterion 3 on re-timed totals, and criterion 4
REPORTED_TOL = 5e-5    # criterion 3 on the solver's own reported totals
SCREEN_TRIALS = 50     # candidate seeds tried per verify-batch slot

# Instance sizes.  "full" is what the benchmark measures; "toy" keeps
# every code path but runs in seconds, for the smoke test.
SIZES = {
    "full": {
        "export-q3": {"n": 15, "q": 3},
        "solve-mid": {"n": 10, "q": 3, "instances": 24},
        "verify-batch": {"slots": [(n, q) for _ in range(12)
                                   for n in (2, 3, 4, 5) for q in (3, 6)]},
    },
    "toy": {
        "export-q3": {"n": 4, "q": 3},
        "solve-mid": {"n": 4, "q": 3, "instances": 2},
        "verify-batch": {"slots": [(2, 3), (3, 6), (3, 3)]},
    },
}


@dataclass(frozen=True)
class Op:
    """One operation: its id is (workload, instance, variant, objective)."""

    key: tuple
    kind: str          # timings are summarised per kind, then averaged
    inst: object
    variant: str
    objective: str


def _spec(name: str) -> ObjectiveSpec:
    return ObjectiveSpec(variant=name)


def _unit_loads(inst) -> bool:
    return all(r.q == 1 for r in inst.requests)


def graph_counts(graph) -> tuple[dict, list[str]]:
    """Node/arc counts, and the wrong answers among them: counts that
    miss the closed forms where those hold."""
    inst = graph.inst
    counts = {"nodes": graph.node_count, "arcs": graph.arc_count}
    wrong = []
    if _unit_loads(inst):
        want = (node_count_closed_form(inst.n, inst.capacity),
                arc_count_closed_form(inst.n, inst.capacity))
        if (graph.node_count, graph.arc_count) != want:
            wrong.append(f"{inst.name}: graph has {graph.node_count} nodes,"
                         f" {graph.arc_count} arcs; closed form {want}")
    return counts, wrong


def model_counts(model) -> dict:
    return {"rows": len(model.rows), "cols": len(model.vars),
            "nnz": sum(len(row.terms) for row in model.rows),
            "ride_rows": model.census["rows"]["ride_time"]}


def add_counts(total: dict, part: dict) -> dict:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value
    return total


def retimed_total(inst, sol, spec, call) -> float | None:
    """Objective of the decoded tours under their minimal schedules.

    This is criterion 3's exact total: the tours are integral, and only
    the solver's continuous times carry tolerance.  ``None`` when a tour
    has no feasible schedule.
    """
    times = []
    for tour in sol.tours:
        sched = call("solve.minimal_schedule", minimal_schedule, list(tour), inst)
        if sched is None:
            return None
        times.append(sched.times[0])
    exact = Solution(tours=sol.tours,
                     schedule=Schedule(times=tuple(times), excess={},
                                       makespans=()),
                     accepted=sol.accepted, objective=None)
    return call("model.evaluate_objective", evaluate_objective,
                inst, exact, spec).total


def sequential_plan(inst, call) -> list | None:
    """Tours that carry one passenger at a time, first fit in pickup order.

    A sufficient feasibility test: when it returns tours, every one has a
    minimal schedule and the fleet suffices, so the instance has a plan.
    """
    tours: list[list] = []
    for req in sorted(inst.requests, key=lambda r: (r.pickup_window[0], r.id)):
        ride = [(req.id, PICKUP), (req.id, DROPOFF)]
        for k, tour in enumerate(tours):
            if call("solve.minimal_schedule", minimal_schedule,
                    tour + ride, inst) is not None:
                tours[k] = tour + ride
                break
        else:
            if len(tours) == inst.fleet_size or call(
                    "solve.minimal_schedule", minimal_schedule,
                    ride, inst) is None:
                return None
            tours.append(ride)
    return tours


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_export_text(text: str, rows: int, cols: int) -> list[str]:
    """The export gate: the written MPS parses back to the model's size."""
    try:
        mip = parse_mps(text)
    except DarpkitError as exc:
        return [f"written MPS does not parse: {exc}"]
    got = (len(mip.row_names), len(mip.col_names))
    if got != (rows, cols):
        return [f"written MPS parses to {got[0]} rows, {got[1]} columns;"
                f" model has {rows}, {cols}"]
    return []


class Workload:
    """Base class: ``setup`` builds the inputs, ``operations`` lists them."""

    name = ""

    def __init__(self, seed: int, outdir: Path, size: str = "full"):
        self.seed = seed
        self.outdir = outdir
        self.cfg = SIZES[size][self.name]
        self.instances: list = []

    def setup(self, call) -> dict:
        """Generate (and screen) the inputs; returns screening counts."""
        raise NotImplementedError

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for inst in self.instances:
            h.update(instance_to_json(inst).encode())
        return h.hexdigest()

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, call, clock) -> dict:
        """The timed part of an operation; returns what ``check`` needs,
        with the round-trip seconds under ``rt``."""
        raise NotImplementedError

    def check(self, op: Op, state: dict) -> tuple[dict, list[str], list[str]]:
        """Exact counts of the operation, its failures and its wrong
        answers."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Gates that run once after the measured loop; returns wrong
        answers."""
        return []


class ExportQ3(Workload):
    """One q=3 instance exported as model2 and as model3, no solve."""

    name = "export-q3"

    def setup(self, call):
        cfg = GeneratorConfig(n=self.cfg["n"], capacity=self.cfg["q"],
                              seed=self.seed)
        self.instances = [call("instance.generate_synthetic",
                               generate_synthetic, cfg)]
        self._gate_files: dict[str, tuple[Path, int, int]] = {}
        return {"screened": 1, "accepted": 1}

    def operations(self):
        inst = self.instances[0]
        return [Op((self.name, inst.name, v, "cost"), v, inst, v, "cost")
                for v in ("model3", "model2")]

    def run(self, op, call, clock):
        graph = call("event_graph.build_event_graph", build_event_graph, op.inst)
        t0 = clock.now()
        model = call("model.build_model", build_model, graph, op.variant,
                     _spec(op.objective))
        # each text is measured and dropped as soon as its writer returns,
        # as the command-line export writes and drops it, so that no two
        # texts are alive at once; the first MPS of a variant is kept on
        # disk for the gate
        texts = {}
        for part, writer in (("mps", write_mps), ("lp", write_lp),
                             ("mapping", write_mapping)):
            text = call(f"model.write_{part}", writer, model)
            with clock.untimed():
                texts[part] = (len(text), text_digest(text))
                if part == "mps" and op.variant not in self._gate_files:
                    path = self.outdir / f"gate-{op.variant}.mps"
                    path.write_text(text)
                    self._gate_files[op.variant] = (path, len(model.rows),
                                                    len(model.vars))
                del text
        return {"graph": graph, "model": model, "texts": texts,
                "rt": [clock.now() - t0]}

    def check(self, op, state):
        counts, wrong = graph_counts(state["graph"])
        counts.update(model_counts(state["model"]))
        texts = state["texts"]
        counts.update({"mps_bytes": texts["mps"][0],
                       "lp_bytes": texts["lp"][0],
                       "digest": tuple(d for _, d in texts.values())})
        return counts, [], wrong

    def finish(self):
        """The export gate, after the loop so that the parser's memory does
        not count into the export's peak: the first MPS of each variant
        parses back to the model's row and column count.  Every later
        export has the first one's digest, or its counts change.  Returns
        wrong answers."""
        wrong = []
        for variant, (path, rows, cols) in sorted(self._gate_files.items()):
            wrong += [f"{variant}: {msg}" for msg in
                      check_export_text(path.read_text(), rows, cols)]
            path.unlink()
        return wrong


class SolveMid(Workload):
    """q=3, n=10 instances solved in-process under model3."""

    name = "solve-mid"
    objectives = ("cost", "cost_excess")

    def setup(self, call):
        # a drawn fleet can be too small for its requests; keep only draws
        # with a provable plan (221 of 224 q=3, n=10 draws have one)
        self.instances = []
        screened = 0
        while len(self.instances) < self.cfg["instances"]:
            if screened == SCREEN_TRIALS * self.cfg["instances"]:
                raise DarpkitError("too few instances pass screening")
            cand = call("instance.generate_synthetic", generate_synthetic,
                        GeneratorConfig(n=self.cfg["n"], capacity=self.cfg["q"],
                                        seed=self.seed * 1000 + screened))
            screened += 1
            if sequential_plan(cand, call) is not None:
                self.instances.append(cand)
        return {"screened": screened, "accepted": len(self.instances)}

    def operations(self):
        # one objective per instance: more distinct instances per second
        # of run than solving each instance twice
        ops = []
        for k, inst in enumerate(self.instances):
            obj = self.objectives[k % len(self.objectives)]
            ops.append(Op((self.name, inst.name, "model3", obj), "solve",
                          inst, "model3", obj))
        return ops

    def run(self, op, call, clock):
        graph = call("event_graph.build_event_graph", build_event_graph, op.inst)
        t0 = clock.now()
        model = call("model.build_model", build_model, graph, op.variant,
                     _spec(op.objective))
        text = call("model.write_mps", write_mps, model)
        result = call("backend.solve_mip", solve_mip,
                      call("backend.parse_mps", parse_mps, text))
        sol = error = report = None
        if result.status == "optimal":
            try:
                sol = call("solve.import_solution", import_solution, model,
                           result.assignment)
            except DarpkitError as exc:
                error = f"import failed: {exc}"
        rt = clock.now() - t0
        if sol is not None:
            report = call("solve.validate_solution", validate_solution,
                          op.inst, sol)
        return {"graph": graph, "model": model, "mps_bytes": len(text),
                "status": result.status, "error": error, "report": report,
                "rt": [rt]}

    def check(self, op, state):
        counts, wrong = graph_counts(state["graph"])
        counts.update(model_counts(state["model"]))
        report = state["report"]
        counts.update({"mps_bytes": state["mps_bytes"], "solve_calls": 1,
                       "optimal": int(state["status"] == "optimal"),
                       "validate_fail": int(report is not None
                                            and not report.ok)})
        where = f"{op.inst.name} {op.variant} {op.objective}"
        failed = []
        if state["status"] != "optimal":
            failed.append(f"{where}: solver status {state['status']}")
        if state["error"]:
            failed.append(f"{where}: {state['error']}")
        if report is not None and not report.ok:
            failed.append(f"{where}: raw import fails validation:"
                          f" {report.violations[0]}")
        return counts, failed, wrong


class VerifyBatch(Workload):
    """Tiny feasible instances cross-checked: oracle against both MILPs."""

    name = "verify-batch"

    def setup(self, call):
        self.instances = []
        screened = 0
        for slot, (n, q) in enumerate(self.cfg["slots"]):
            for trial in range(SCREEN_TRIALS):
                screened += 1
                cand = call("instance.generate_synthetic", generate_synthetic,
                            GeneratorConfig(n=n, capacity=q, seed=self.seed
                                            * 100000 + 1000 * slot + trial))
                try:
                    call("solve.oracle_solve", oracle_solve, cand, _spec("cost"))
                except InfeasibleError:
                    continue
                self.instances.append(cand)
                break
            else:
                raise DarpkitError(f"no feasible instance for slot {slot}"
                                   f" (n={n}, q={q}) in {SCREEN_TRIALS} seeds")
        return {"screened": screened, "accepted": len(self.instances)}

    def operations(self):
        return [Op((self.name, inst.name, "+".join(VARIANTS),
                    "+".join(FIVE_OBJECTIVES)), f"n{inst.n}q{inst.capacity}",
                   inst, "", "")
                for inst in self.instances]

    def run(self, op, call, clock):
        inst = op.inst
        graph = call("event_graph.build_event_graph", build_event_graph, inst)
        models, failed, wrong, rts = [], [], [], []
        optimal = validate_fail = 0
        for name in FIVE_OBJECTIVES:
            spec = _spec(name)
            target = call("solve.oracle_solve", oracle_solve, inst,
                          spec).objective.total
            exact, accepted = {}, []
            for variant in VARIANTS:
                where = f"{inst.name} {variant} {name}"
                t0 = clock.now()
                model = call("model.build_model", build_model, graph,
                             variant, spec)
                text = call("model.write_mps", write_mps, model)
                result = call("backend.solve_mip", solve_mip,
                              call("backend.parse_mps", parse_mps, text))
                models.append((model, len(text)))
                if result.status != "optimal":
                    failed.append(f"{where}: solver status {result.status}")
                    continue
                optimal += 1
                try:
                    sol = call("solve.import_solution", import_solution,
                               model, result.assignment)
                except DarpkitError as exc:
                    failed.append(f"{where}: import failed: {exc}")
                    continue
                rts.append(clock.now() - t0)
                report = call("solve.validate_solution", validate_solution,
                              inst, sol)
                if not report.ok:
                    validate_fail += 1
                    failed.append(f"{where}: raw import fails validation:"
                                  f" {report.violations[0]}")
                # criterion 3 still runs on a rejected plan; what it finds
                # there is part of that failure, and a wrong answer only
                # in a plan the validator accepted
                misses = wrong if report.ok else failed
                total = retimed_total(inst, sol, spec, call)
                if total is None:
                    misses.append(f"{where}: decoded tour has no schedule")
                    continue
                exact[variant] = total
                accepted.append(report.ok)
                if abs(total - target) > RETIMED_TOL:
                    misses.append(f"{where}: re-timed total {total!r},"
                                  f" oracle {target!r}")
                if abs(result.objective - target) > REPORTED_TOL:
                    misses.append(f"{where}: reported total"
                                  f" {result.objective!r}, oracle {target!r}")
            if len(exact) == 2 and abs(exact["model2"] - exact["model3"]) > RETIMED_TOL:
                (wrong if all(accepted) else failed).append(
                    f"{inst.name} {name}: model2 {exact['model2']!r}"
                    f" != model3 {exact['model3']!r}")
        return {"graph": graph, "models": models, "optimal": optimal,
                "validate_fail": validate_fail, "failed": failed,
                "wrong": wrong, "rt": rts}

    def check(self, op, state):
        counts, wrong = graph_counts(state["graph"])
        for model, mps_bytes in state["models"]:
            add_counts(counts, model_counts(model))
            add_counts(counts, {"mps_bytes": mps_bytes})
        counts.update({"oracle_calls": len(FIVE_OBJECTIVES),
                       "solve_calls": len(state["models"]),
                       "optimal": state["optimal"],
                       "validate_fail": state["validate_fail"]})
        return counts, state["failed"], wrong + state["wrong"]


WORKLOADS = {cls.name: cls for cls in (ExportQ3, SolveMid, VerifyBatch)}
