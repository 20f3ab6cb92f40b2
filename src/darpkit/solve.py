"""Exact reference solving, scoring, validation and solution decoding.

The oracle enumerates accepted request sets, set partitions into at most
fleet-size tours and feasible stop orders per tour, pruning partial
orders whose difference-constraint system is already infeasible.  Each
complete tour gets its componentwise-minimal schedule; since lowering
any service-start never hurts window, ride-time or duration slack, that
schedule simultaneously minimizes every per-request dropoff excess, so
scoring it is exact for every supported objective.  The oracle shares no
code with the MILP formulation beyond the instance data and the schedule
primitives of :mod:`darpkit.schedule`, which also decide which requests
the event graph lets ride together.  ``max_acceptance`` runs the same
partition search.  Every plan, from the oracle, a decoded assignment or
a solution file, is scored by one function, which builds the plan's
schedule once and reads the objective components from it.

Solver assignments (variable name -> value) are decoded back into tours
by walking the selected arcs from the depot; anything that is not a
set of depot-anchored simple cycles is rejected, and each decoded tour
is re-timed to its minimal schedule.  The validator checks
decoded or constructed solutions directly against the instance and
reports typed violations instead of raising.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import DataError, InfeasibleError, ParseError, SolutionError
from .instance import DROPOFF, PICKUP, Instance
from .model import MilpModel, ObjectiveSpec, ObjectiveValue, combine_components
from .schedule import (
    Schedule, Stop, _schedule, _tour_cost, _tour_times, minimal_schedule,
)


@dataclass(frozen=True)
class Solution:
    tours: tuple[tuple[Stop, ...], ...]
    schedule: Schedule
    accepted: frozenset
    objective: ObjectiveValue | None

    @property
    def times(self) -> tuple[tuple[float, ...], ...]:
        return self.schedule.times


@dataclass(frozen=True)
class Violation:
    # capacity|pairing|precedence|window|ride_time|duration|fleet|coverage|objective
    kind: str
    tour: int | None
    stop: int | None
    magnitude: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _scored(inst: Instance, tours: Sequence[Sequence[Stop]],
            times: Sequence[Sequence[float]], accepted: Iterable[int],
            objective: ObjectiveSpec) -> Solution:
    """The plan with its schedule and the objective value of that schedule."""
    obj = objective.resolve(inst.n)
    schedule = _schedule(tours, times, inst)
    cost = sum(_tour_cost(stops, inst) for stops in tours)
    excess = schedule.excess.values()
    f_e = sum(excess)
    f_emax = max(excess, default=0.0)
    accepted = frozenset(accepted)
    denied = inst.n - len(accepted)
    total = combine_components(obj, cost, f_e, f_emax, denied)
    value = ObjectiveValue(total, cost, f_e, f_emax, denied)
    return Solution(tuple(tours), schedule, accepted, value)


def evaluate_objective(inst: Instance, sol: Solution,
                       objective: ObjectiveSpec) -> ObjectiveValue:
    """Recompute objective components from tours and schedule times."""
    return _scored(inst, sol.tours, sol.times, sol.accepted, objective).objective


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def _partitions(items: Sequence[int], max_blocks: int):
    """Set partitions into at most max_blocks blocks, canonically ordered."""
    blocks: list[list[int]] = []

    def rec(i):
        if i == len(items):
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([items[i]])
            yield from rec(i + 1)
            blocks.pop()

    yield from rec(0)


def _feasible_orderings(block: Iterable[int], inst: Instance):
    """All time-feasible stop orders of one vehicle serving ``block``."""
    reqs = sorted(block)
    loads = {i: inst.request(i).q for i in reqs}
    results = []
    seq: list[Stop] = []
    onboard: set[int] = set()
    done: set[int] = set()

    def rec(load: int):
        if len(seq) == 2 * len(reqs):
            times = _tour_times(seq, inst)
            if times is not None:
                results.append((tuple(seq), tuple(times)))
            return
        for i in reqs:
            if i in onboard or i in done or load + loads[i] > inst.capacity:
                continue
            seq.append((i, PICKUP))
            onboard.add(i)
            if _tour_times(seq, inst, complete=False) is not None:
                rec(load + loads[i])
            onboard.discard(i)
            seq.pop()
        for i in sorted(onboard):
            seq.append((i, DROPOFF))
            onboard.discard(i)
            done.add(i)
            if _tour_times(seq, inst, complete=False) is not None:
                rec(load - loads[i])
            done.discard(i)
            onboard.add(i)
            seq.pop()

    rec(0)
    return results


def _encoding(tours: Iterable[Sequence[Stop]]):
    return tuple(sorted(
        tuple((rid, 0 if kind == PICKUP else 1) for rid, kind in tour)
        for tour in tours))


def _subsets(ids: Sequence[int]):
    for mask in range(1 << len(ids)):
        yield tuple(i for b, i in enumerate(ids) if mask >> b & 1)


ORACLE_LIMIT = 6


def _check_limit(inst: Instance, limit: int):
    if inst.n > limit:
        raise DataError(
            f"oracle is limited to {limit} requests, instance has {inst.n}")


def _feasible_partitions(inst: Instance, accepted_sets, orderings):
    """(accepted, per-block orders) of each partition into at most
    fleet-size blocks in which every block, as a frozenset, has an order."""
    for accepted in accepted_sets:
        for partition in _partitions(accepted, inst.fleet_size):
            options = [orderings(frozenset(block)) for block in partition]
            if all(options):
                yield accepted, options


def oracle_solve(inst: Instance, objective: ObjectiveSpec | None = None,
                 limit: int = ORACLE_LIMIT) -> Solution:
    """Provably optimal solution by exhaustive enumeration (small n only);
    requests go unserved only if the objective prices denial."""
    _check_limit(inst, limit)
    obj = (objective or ObjectiveSpec()).resolve(inst.n)

    @cache
    def orderings(block):
        """Feasible orders of a block as (stops, times, cost, excesses)."""
        return [(seq, ts, _tour_cost(seq, inst),
                 tuple(_schedule((seq,), (ts,), inst).excess.values()))
                for seq, ts in _feasible_orderings(block, inst)]

    ids = [r.id for r in inst.requests]
    best_key = None
    best = None
    subsets = _subsets(ids) if obj._weights()[3] else [tuple(ids)]
    for accepted, options in _feasible_partitions(inst, subsets, orderings):
        denied = inst.n - len(accepted)
        for combo in product(*options):
            cost = sum(opt[2] for opt in combo)
            excess = [e for opt in combo for e in opt[3]]
            total = combine_components(obj, cost, sum(excess),
                                       max(excess, default=0.0), denied)
            tours = tuple(opt[0] for opt in combo)
            key = (total, _encoding(tours))
            if best_key is None or key < best_key:
                best_key = key
                best = (tours, tuple(opt[1] for opt in combo), accepted)
    if best is None:
        raise InfeasibleError("no feasible solution serves every request")
    return _scored(inst, *best, obj)


def max_acceptance(inst: Instance, limit: int = ORACLE_LIMIT) -> int:
    """Largest number of requests any feasible solution can serve."""
    _check_limit(inst, limit)
    ids = [r.id for r in inst.requests]
    subsets = sorted(_subsets(ids), key=len, reverse=True)
    orderings = cache(lambda block: _feasible_orderings(block, inst))
    for accepted, _ in _feasible_partitions(inst, subsets, orderings):
        return len(accepted)
    return 0


# ---------------------------------------------------------------------------
# decoding solver assignments
# ---------------------------------------------------------------------------

def import_solution(model: MilpModel, assignment: Mapping[str, float]) -> Solution:
    """Decode a name -> value assignment into tours and validate roundness.

    Selected arcs must form depot-anchored simple cycles; isolated
    cycles, revisited states, fractional binaries and double service are
    rejected.  Only the binaries are read: each decoded tour is re-timed
    with its componentwise-minimal schedule, so the solver's continuous
    times, and their tolerance, never reach the plan.  A tour without a
    feasible schedule is rejected.  The objective is recomputed from the
    re-timed tours; a mismatch beyond 1e-4 against the assignment's own
    objective value triggers a warning.
    """
    graph = model.graph
    inst = graph.inst

    selected: set[int] = set()
    p_on: set[int] = set()
    for var in model.vars:
        if not var.integer:
            continue
        if var.name not in assignment:
            raise SolutionError(f"assignment misses variable {var.name}")
        raw = float(assignment[var.name])
        if not math.isfinite(raw):
            raise SolutionError(f"binary {var.name} has non-finite value {raw}")
        level = round(raw)
        if abs(raw - level) > 1e-6:
            raise SolutionError(f"binary {var.name} has fractional value {raw}")
        if level not in (0, 1):
            raise SolutionError(f"binary {var.name} is out of range: {raw}")
        if level == 1:
            if var.kind == "x":
                selected.add(var.ref)
            else:
                p_on.add(var.ref)

    tails, heads = graph.arcs.tail, graph.arcs.head
    out_sel: dict[int, list[int]] = {}
    for a in sorted(selected):
        out_sel.setdefault(tails[a], []).append(a)

    used: set[int] = set()
    tours: list[tuple[Stop, ...]] = []
    for a0 in out_sel.get(graph.depot_node, []):
        stops: list[Stop] = []
        head = heads[a0]
        used.add(a0)
        guard = 0
        while head != graph.depot_node:
            node = graph.nodes[head]
            stops.append((node.request, node.kind))
            nexts = [a for a in out_sel.get(head, []) if a not in used]
            if len(nexts) != 1:
                raise SolutionError(
                    f"state {node.label(inst.capacity)} has "
                    f"{len(nexts)} unused outgoing selected arcs, expected 1")
            used.add(nexts[0])
            head = heads[nexts[0]]
            guard += 1
            if guard > len(selected) + 1:
                raise SolutionError("selected arcs do not close at the depot")
        tours.append(tuple(stops))
    if used != selected:
        raise SolutionError(
            f"{len(selected) - len(used)} selected arcs form cycles not "
            "anchored at the depot")

    served: dict[int, int] = {}
    for tour in tours:
        for rid, kind in tour:
            if kind == PICKUP:
                served[rid] = served.get(rid, 0) + 1
    for rid, count in served.items():
        if count > 1:
            raise SolutionError(f"request {rid} is served {count} times")
    accepted = frozenset(served)
    if model.objective._weights()[3] and accepted != p_on:
        raise SolutionError(
            f"acceptance variables {sorted(p_on)} disagree with served "
            f"requests {sorted(accepted)}")

    times = []
    for k, tour in enumerate(tours):
        sched = minimal_schedule(tour, inst)
        if sched is None:
            raise SolutionError(f"decoded tour {k} has no feasible schedule")
        times.append(sched.times[0])
    sol = _scored(inst, tours, times, accepted, model.objective)
    try:
        claimed = model.objective_value(assignment)
    except KeyError:
        claimed = None
    if claimed is not None and abs(claimed - sol.objective.total) > 1e-4:
        warnings.warn(
            f"assignment objective {claimed} deviates from recomputed "
            f"{sol.objective.total}", stacklevel=2)
    return sol


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_solution(inst: Instance, sol: Solution, tol: float = 1e-6,
                      objective: ObjectiveSpec | None = None) -> ValidationReport:
    """Check a solution directly against the instance semantics.

    A request may go unserved only if ``objective`` prices denial.  The
    claimed cost, excess, maximal excess, denial count and (given an
    objective) total must match the plan to ``tol`` * max(1, |value|).
    """
    obj = (objective or ObjectiveSpec()).resolve(inst.n)
    found: list[Violation] = []

    def flag(kind, tour, stop, magnitude, detail):
        found.append(Violation(kind, tour, stop, magnitude, detail))

    if len(sol.tours) > inst.fleet_size:
        flag("fleet", None, None, float(len(sol.tours) - inst.fleet_size),
             f"{len(sol.tours)} tours exceed the fleet of {inst.fleet_size}")

    seen_tour: dict[int, int] = {}
    unknown_in: set[int] = set()
    for t, tour in enumerate(sol.tours):
        for k, (rid, kind) in enumerate(tour):
            if not 1 <= rid <= inst.n:
                flag("coverage", t, k, 1.0, f"stop names unknown request {rid}")
                unknown_in.add(t)
            if kind not in (PICKUP, DROPOFF):
                flag("pairing", t, k, 1.0, f"stop of request {rid} has unknown "
                     f"kind {kind!r}")
                unknown_in.add(t)
            if kind == PICKUP:
                if rid in seen_tour and seen_tour[rid] != t:
                    flag("pairing", t, None, 1.0,
                         f"request {rid} appears in tours {seen_tour[rid]} and {t}")
                seen_tour.setdefault(rid, t)
    served = {rid for tour in sol.tours for rid, _ in tour}
    if served != sol.accepted:
        flag("coverage", None, None, float(len(served ^ sol.accepted)),
             f"tours serve {sorted(served)}, accepted claims "
             f"{sorted(sol.accepted)}")
    denied = set(range(1, inst.n + 1)) - sol.accepted
    if denied and not obj._weights()[3]:
        flag("coverage", None, None, float(len(denied)),
             f"requests {sorted(denied)} are not accepted and denial is off")

    e0, l0 = inst.depot_window
    for t, (tour, ts) in enumerate(zip(sol.tours, sol.times)):
        if t in unknown_in:
            continue    # per-stop checks need the stop's request and kind
        if len(ts) != len(tour):
            flag("pairing", t, None, float(abs(len(ts) - len(tour))),
                 "schedule length disagrees with the stop list")
            continue
        state: dict[int, str] = {}
        load = 0
        pick_time: dict[int, float] = {}
        for k, ((rid, kind), when) in enumerate(zip(tour, ts)):
            req = inst.request(rid)
            loc = inst.location(rid, kind)
            if kind == PICKUP:
                if state.get(rid) is not None:
                    flag("pairing", t, k, 1.0, f"request {rid} picked up twice")
                state[rid] = "on"
                load += req.q
                if load > inst.capacity:
                    flag("capacity", t, k, float(load - inst.capacity),
                         f"load {load} exceeds capacity {inst.capacity}")
                pick_time[rid] = when
            else:
                prior = state.get(rid)
                if prior == "off":
                    flag("pairing", t, k, 1.0, f"request {rid} dropped off twice")
                elif prior is None:
                    flag("precedence", t, k, 1.0,
                         f"dropoff of {rid} precedes its pickup")
                else:
                    load -= req.q
                    ride = when - pick_time[rid] - req.s
                    if ride > req.max_ride + tol:
                        flag("ride_time", t, k, ride - req.max_ride,
                             f"request {rid} rides {ride:.3f}, limit {req.max_ride:.3f}")
                state[rid] = "off"
            # negated in-range tests, so that a NaN time is out of range
            e, l = inst.windows[loc]
            if not when >= e - tol:
                flag("window", t, k, e - when,
                     f"stop starts {e - when:.3f} before its window")
            elif not when <= l + tol:
                flag("window", t, k, when - l,
                     f"stop starts {when - l:.3f} after its window")
        dangling = [rid for rid, st in state.items() if st == "on"]
        for rid in dangling:
            flag("pairing", t, None, 1.0, f"request {rid} is never dropped off")
        # consecutive stops must respect service plus travel separation
        locs = [inst.location(*stop) for stop in tour]
        for k in range(len(tour) - 1):
            a, b = locs[k], locs[k + 1]
            gap = inst.service[a] + inst.metric.time(a, b)
            short = ts[k] + gap - ts[k + 1]
            if short > tol:
                flag("precedence", t, k + 1, short,
                     f"stop starts {short:.3f} too early for travel and service")
        if tour:
            depart = ts[0] - inst.metric.time(inst.depot_loc, locs[0])
            if depart < e0 - tol:
                flag("duration", t, 0, e0 - depart,
                     f"tour departs {e0 - depart:.3f} before the depot opens")
            ret = ts[-1] + inst.service[locs[-1]] + inst.metric.time(
                locs[-1], inst.depot_loc)
            if ret > l0 + tol:
                flag("duration", t, len(tour) - 1, ret - l0,
                     f"tour returns {ret - l0:.3f} after the depot closes")

    if sol.objective is not None and not unknown_in:
        # the components do not depend on the objective weights, the total
        # is only known under a given objective
        plan = evaluate_objective(inst, sol, obj)
        names = ["cost", "excess", "max_excess", "denied"]
        if objective is not None:
            names.append("total")
        for name in names:
            claimed, actual = getattr(sol.objective, name), getattr(plan, name)
            if not abs(claimed - actual) <= tol * max(1.0, abs(actual)):
                flag("objective", None, None, abs(claimed - actual),
                     f"claimed {name} {claimed} disagrees with the plan's {actual}")
    return ValidationReport(ok=not found, violations=tuple(found))


# ---------------------------------------------------------------------------
# solution JSON
# ---------------------------------------------------------------------------

def solution_to_json(sol: Solution) -> str:
    doc = {
        "tours": [
            [{"request": rid, "kind": kind, "time": when}
             for (rid, kind), when in zip(tour, ts)]
            for tour, ts in zip(sol.tours, sol.times)
        ],
        "accepted": sorted(sol.accepted),
        "objective": sol.objective.as_json_dict(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def solution_from_json(text: str, inst: Instance) -> Solution:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    try:
        tours = []
        times = []
        for tour in doc["tours"]:
            tours.append(tuple((int(st["request"]), str(st["kind"])) for st in tour))
            times.append(tuple(float(st["time"]) for st in tour))
        accepted = frozenset(int(i) for i in doc["accepted"])
        objective = ObjectiveValue(
            total=float(doc["objective"]["total"]),
            cost=float(doc["objective"]["f_c"]),
            excess=float(doc["objective"]["f_e"]),
            max_excess=float(doc["objective"]["f_emax"]),
            denied=int(doc["objective"]["f_n"]))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"solution JSON is missing or mistypes a field: {exc}") from None
    if not all(math.isfinite(when) for ts in times for when in ts):
        raise ParseError("solution JSON has a non-finite stop time")
    if not all(math.isfinite(v) for v in objective.as_json_dict().values()):
        raise ParseError("solution JSON has a non-finite objective value")
    for tour in tours:
        for rid, kind in tour:
            if kind not in (PICKUP, DROPOFF):
                raise ParseError(f"stop of request {rid} has unknown kind {kind!r}")
    return Solution(tours=tuple(tours), schedule=_schedule(tours, times, inst),
                    accepted=accepted, objective=objective)
