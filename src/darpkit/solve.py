"""Exact reference solving, scoring, validation and solution decoding.

The oracle finds every feasible stop order of one vehicle in one
depth-first search per instance: each prefix is explored once, extends
its parent's minimal schedule by one schedule step and is pruned once
that schedule misses a window, and whenever the vehicle is empty the
prefix is a tour of the requests served so far, recorded with its cost
and excess.  It then places the requests one at a time, in id order:
each joins a block, opens one while the fleet has a vehicle left or, if
the objective prices denial, is denied; a plan combines the recorded
tours of its blocks.  Each tour carries its componentwise-minimal
schedule; since lowering any service-start never hurts window, ride-time
or duration slack, that schedule simultaneously minimizes every
per-request dropoff excess, so scoring it is exact for every supported
objective.  The oracle shares no code with the MILP formulation beyond
the instance data and the schedule primitives of
:mod:`darpkit.schedule`, which also decide which requests the event
graph lets ride together.  ``max_acceptance`` runs the same search and
the same enumeration, with denial always on.  Every plan, from the
oracle, a decoded assignment or a solution file, is scored by one
function, which builds the plan's schedule once and reads the objective
components from it.

Solver assignments (variable name -> value) are decoded back into tours
by walking the selected arcs from the depot; anything that is not a
set of depot-anchored simple cycles is rejected, and each decoded tour
is re-timed to its minimal schedule once.  The validator checks
decoded or constructed solutions directly against the instance, reading
each stop's ``Instance.stop_table`` entry once, and reports typed
violations instead of raising.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import DataError, InfeasibleError, ParseError, SolutionError
from .instance import DEPOT_LOCATION, DROPOFF, PICKUP, Instance, _json_float, _json_int
from .model import MilpModel, ObjectiveSpec, ObjectiveValue, combine_components
from .schedule import (
    Schedule, Stop, _Prefix, _schedule, _tour_cost, _tour_faults, _tour_times,
)


@dataclass(frozen=True)
class Solution:
    """A plan: tours, their schedule, the accepted requests and the value.

    ``raw_time_gap`` is set on a decoded solver assignment only: how
    far the assignment's stop times fall below the re-timed schedule at
    most (0 when none does), None when the assignment gives no times.
    The re-timed schedule is componentwise minimal, so a time below it
    comes only from solver tolerance.  It takes no part in equality.
    """

    tours: tuple[tuple[Stop, ...], ...]
    schedule: Schedule
    accepted: frozenset
    objective: ObjectiveValue | None
    raw_time_gap: float | None = field(default=None, compare=False)

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

def _stop_orders(inst: Instance) -> dict[frozenset, list]:
    """Every time-feasible stop order of one vehicle, by the requests it
    serves, as (stops, times, cost, excess of each dropoff in stop order).

    The search runs once per instance object, which is frozen, and is kept
    in its memo; each call returns a fresh dict over the same per-block
    lists, which callers only read.
    """
    if "stop_orders" not in inst._memo:
        inst._memo["stop_orders"] = _search_stop_orders(inst)
    return dict(inst._memo["stop_orders"])


def _search_stop_orders(inst: Instance) -> dict[frozenset, list]:
    """The search behind :func:`_stop_orders`.

    One depth-first search over the stop sequences of all requests: each
    step picks up a waiting request that fits the vehicle or drops off an
    onboard one, pickups by id first, then dropoffs by id, and extends
    its parent prefix's minimal schedule.  A prefix without a schedule is
    not extended.  Whenever the vehicle is empty, the prefix is a tour of
    the requests served so far; it is recorded, with its cost and its
    dropoffs' excess, if it also returns to the depot in time, and then
    extended further.  Each block's orders come out in the order of that
    step rule.
    """
    loads = {r.id: r.q for r in inst.requests}
    found: dict[frozenset, list] = {}
    prefix = _Prefix(inst)
    onboard: set[int] = set()
    done: set[int] = set()

    def rec(load: int):
        for i, q in loads.items():
            if i in onboard or i in done or load + q > inst.capacity:
                continue
            if prefix.push((i, PICKUP)):
                onboard.add(i)
                rec(load + q)
                onboard.discard(i)
                prefix.pop()
        for i in sorted(onboard):
            if prefix.push((i, DROPOFF)):
                onboard.discard(i)
                done.add(i)
                if not onboard and prefix.returns_in_time():
                    stops, times = tuple(prefix.stops), tuple(prefix.times)
                    excess = _schedule((stops,), (times,), inst).excess
                    found.setdefault(frozenset(done), []).append(
                        (stops, times, _tour_cost(stops, inst),
                         tuple(excess.values())))
                rec(load - loads[i])
                done.discard(i)
                onboard.add(i)
                prefix.pop()

    rec(0)
    return found


def _encoding(tours: Iterable[Sequence[Stop]]):
    return tuple(sorted(
        tuple((rid, 0 if kind == PICKUP else 1) for rid, kind in tour)
        for tour in tours))


ORACLE_LIMIT = 6


def _check_limit(inst: Instance, limit: int):
    if inst.n > limit:
        raise DataError(
            f"oracle is limited to {limit} requests, instance has {inst.n}")


def _plans(inst: Instance, orderings, deny: bool):
    """(accepted, per-block orders) of every plan in which each block, as
    a frozenset, has an order.

    The requests are placed one at a time, in id order: each joins one of
    the blocks so far, opens a new block while there are fewer than
    fleet-size, or, if ``deny`` is set, is denied.  A block is checked
    only once every request is placed: giving up on a growing block that
    has no order yet would rest on the triangle inequality, the event
    graph's own pruning argument, which the oracle is there to check.
    """
    ids = [r.id for r in inst.requests]

    def place(i, accepted, blocks):
        if i == len(ids):
            options = [orderings(frozenset(block)) for block in blocks]
            if all(options):
                yield accepted, options
            return
        rid = ids[i]
        served = accepted + (rid,)
        for k, block in enumerate(blocks):
            yield from place(i + 1, served,
                             blocks[:k] + (block + (rid,),) + blocks[k + 1:])
        if len(blocks) < inst.fleet_size:
            yield from place(i + 1, served, blocks + ((rid,),))
        if deny:
            yield from place(i + 1, accepted, blocks)

    yield from place(0, (), ())


def oracle_solve(inst: Instance, objective: ObjectiveSpec | None = None,
                 limit: int = ORACLE_LIMIT) -> Solution:
    """Provably optimal solution by exhaustive enumeration (small n only);
    requests go unserved only if the objective prices denial."""
    _check_limit(inst, limit)
    obj = (objective or ObjectiveSpec()).resolve(inst.n)
    best_key = None
    best = None
    deny = bool(obj._weights()[3])
    for accepted, options in _plans(inst, _stop_orders(inst).get, deny):
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
    return max(len(accepted)
               for accepted, _ in _plans(inst, _stop_orders(inst).get, True))


# ---------------------------------------------------------------------------
# decoding solver assignments
# ---------------------------------------------------------------------------

def import_solution(model: MilpModel, assignment: Mapping[str, float]) -> Solution:
    """Decode a name -> value assignment into tours and validate roundness.

    Selected arcs must form depot-anchored simple cycles; isolated
    cycles, revisited states, fractional binaries and double service are
    rejected.  Only the binaries are read: each decoded tour is re-timed
    with its componentwise-minimal schedule, so the solver's continuous
    times, and their tolerance, never reach the plan; how far they fall
    below it is kept as the solution's ``raw_time_gap``.  A tour without a
    feasible schedule is rejected.  A decoded tour needs no pass over the
    stop rules: each event-graph state carries its onboard set, so loads,
    precedence and the final dropoffs hold by construction, and the
    served-once check refuses the one fault left, a request picked up
    again.  The plan's schedule is built once, when it is scored.  The
    objective is recomputed from the re-timed tours; a mismatch beyond
    1e-4 against the assignment's own objective value triggers a warning.
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
    states: list[int] = []      # the state of every stop, tour after tour
    for a0 in out_sel.get(graph.depot_node, []):
        stops: list[Stop] = []
        head = heads[a0]
        used.add(a0)
        while head != graph.depot_node:
            node = graph.nodes[head]
            stops.append((node.request, node.kind))
            states.append(head)
            nexts = [a for a in out_sel.get(head, []) if a not in used]
            if len(nexts) != 1:
                raise SolutionError(
                    f"state {node.label(inst.capacity)} has "
                    f"{len(nexts)} unused outgoing selected arcs, expected 1")
            used.add(nexts[0])
            head = heads[nexts[0]]
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
        ts = _tour_times(tour, inst)
        if ts is None:
            raise SolutionError(f"decoded tour {k} has no feasible schedule")
        times.append(ts)
    retimed = [t for ts in times for t in ts]
    try:
        gap = max((t - float(assignment[f"B_{v}"])
                   for v, t in zip(states, retimed)), default=0.0)
        gap = max(gap, 0.0)
    except KeyError:
        gap = None
    sol = replace(_scored(inst, tours, times, accepted, model.objective),
                  raw_time_gap=gap)
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

# absolute slack of every time check, relative slack of every claimed value
_TOL = 1e-6


def _hashable(rid):
    """``rid``, or None if it cannot be hashed (a list, say)."""
    try:
        hash(rid)
    except TypeError:
        return None
    return rid


def _id_order(rid):
    """Sort key of request ids: numbers by value, then any other id (such
    as ``"x"``) by its repr, so that no number is compared with text."""
    return (0, rid) if isinstance(rid, (int, float)) else (1, repr(rid))


def validate_solution(inst: Instance, sol: Solution,
                      objective: ObjectiveSpec | None = None) -> ValidationReport:
    """Check a solution directly against the instance semantics.

    A request may go unserved only if ``objective`` prices denial.  The
    claimed cost, excess, maximal excess, denial count and (given an
    objective) total must match the plan to 1e-6 * max(1, |value|).
    """
    obj = (objective or ObjectiveSpec()).resolve(inst.n)
    found: list[Violation] = []

    def flag(kind, tour, stop, magnitude, detail):
        found.append(Violation(kind, tour, stop, magnitude, detail))

    # each stop's stop-table entry (None for an unknown request or kind),
    # read once, and its request id as the instance has it: 1 where the
    # stop says 1.0, None where the stop's id cannot be hashed
    entries = [[inst._entry((rid, kind)) for rid, kind in tour]
               for tour in sol.tours]
    ids = [[entry[4].id if entry else _hashable(rid)
            for (rid, _), entry in zip(tour, row)]
           for tour, row in zip(sol.tours, entries)]

    if len(sol.tours) > inst.fleet_size:
        flag("fleet", None, None, float(len(sol.tours) - inst.fleet_size),
             f"{len(sol.tours)} tours exceed the fleet of {inst.fleet_size}")
    served = {rid for tour_ids in ids for rid in tour_ids}
    served.discard(None)
    if served != sol.accepted:
        flag("coverage", None, None, float(len(served ^ sol.accepted)),
             f"tours serve {sorted(served, key=_id_order)}, accepted claims "
             f"{sorted(sol.accepted, key=_id_order)}")
    denied = set(range(1, inst.n + 1)) - sol.accepted
    if denied and not obj._weights()[3]:
        flag("coverage", None, None, float(len(denied)),
             f"requests {sorted(denied)} are not accepted and denial is off")
    timed = len(sol.times) == len(sol.tours)
    if not timed:
        flag("pairing", None, None, float(abs(len(sol.times) - len(sol.tours))),
             f"schedule has {len(sol.times)} rows for {len(sol.tours)} tours")

    rows, service = inst.metric.time_rows, inst.service
    e0, l0 = inst.depot_window
    first_tour: dict[int, int] = {}
    known = True    # every stop of the plan has a request and a kind
    for t, (tour, tour_entries, tour_ids) in enumerate(zip(sol.tours, entries, ids)):
        for kind, k, magnitude, detail in _tour_faults(tour, tour_entries, inst):
            flag(kind, t, k, magnitude, detail)
        for (_, kind), rid in zip(tour, tour_ids):
            if (kind == PICKUP and rid is not None
                    and first_tour.setdefault(rid, t) != t):
                flag("pairing", t, None, 1.0,
                     f"request {rid} appears in tours {first_tour[rid]} and {t}")
        # the time checks need each stop's location and window, and its time
        if None in tour_entries:
            known = False
        if None in tour_entries or not timed:
            continue
        ts = sol.times[t]
        if len(ts) != len(tour):
            flag("pairing", t, None, float(abs(len(ts) - len(tour))),
                 "schedule length disagrees with the stop list")
            continue
        pick_time: dict[int, float] = {}
        prev = DEPOT_LOCATION
        for k, ((_, kind), (loc, e, l, _, req), when) in enumerate(zip(tour, tour_entries, ts)):
            if kind == PICKUP:
                pick_time[req.id] = when
            elif req.id in pick_time:
                ride = when - pick_time.pop(req.id) - req.s
                if ride > req.max_ride + _TOL:
                    flag("ride_time", t, k, ride - req.max_ride,
                         f"request {req.id} rides {ride:.3f}, limit {req.max_ride:.3f}")
            # negated in-range tests, so that a NaN time is out of range
            if not when >= e - _TOL:
                flag("window", t, k, e - when,
                     f"stop starts {e - when:.3f} before its window")
            elif not when <= l + _TOL:
                flag("window", t, k, when - l,
                     f"stop starts {when - l:.3f} after its window")
            # consecutive stops must respect service plus travel separation
            if k:
                short = ts[k - 1] + (service[prev] + rows[prev][loc]) - when
                if short > _TOL:
                    flag("precedence", t, k, short,
                         f"stop starts {short:.3f} too early for travel and service")
            prev = loc
        if tour:
            depart = ts[0] - rows[DEPOT_LOCATION][tour_entries[0][0]]
            if depart < e0 - _TOL:
                flag("duration", t, 0, e0 - depart,
                     f"tour departs {e0 - depart:.3f} before the depot opens")
            ret = ts[-1] + service[prev] + rows[prev][DEPOT_LOCATION]
            if ret > l0 + _TOL:
                flag("duration", t, len(tour) - 1, ret - l0,
                     f"tour returns {ret - l0:.3f} after the depot closes")

    if sol.objective is not None and known and timed:
        # the components do not depend on the objective weights, the total
        # is only known under a given objective
        plan = evaluate_objective(inst, sol, obj)
        names = ["cost", "excess", "max_excess", "denied"]
        if objective is not None:
            names.append("total")
        for name in names:
            claimed, actual = getattr(sol.objective, name), getattr(plan, name)
            if not abs(claimed - actual) <= _TOL * max(1.0, abs(actual)):
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


def _finite(value, what: str) -> float:
    """A finite real number read from JSON."""
    value = _json_float(value, what)
    if not math.isfinite(value):
        raise ValueError(f"{what} is not a finite number")
    return value


def _read_solution(text: str) -> tuple[list, list, frozenset[int], ObjectiveValue]:
    """A solution document's tours, stop times, accepted request ids and
    claimed objective, each checked without an instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"solution JSON is not a JSON object: {text.strip()[:40]}")
    part = "tours"    # the top-level field being read, for the message
    try:
        tours = []
        times = []
        for tour in doc["tours"]:
            tours.append(tuple((_json_int(st["request"], "request id"), str(st["kind"]))
                               for st in tour))
            times.append(tuple(_finite(st["time"], "stop time") for st in tour))
        part = "accepted"
        ids = [_json_int(i, "request id") for i in doc["accepted"]]
        if len(set(ids)) != len(ids):
            raise ValueError(f"accepted list repeats a request id: {ids}")
        part = "objective"
        obj = doc["objective"]
        objective = ObjectiveValue(
            total=_finite(obj["total"], "total"),
            cost=_finite(obj["f_c"], "f_c"),
            excess=_finite(obj["f_e"], "f_e"),
            max_excess=_finite(obj["f_emax"], "f_emax"),
            denied=_json_int(obj["f_n"], "f_n"))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError("solution JSON has a missing, mistyped or non-finite "
                         f"field in {part!r}: {exc}") from None
    for tour in tours:
        for rid, kind in tour:
            if kind not in (PICKUP, DROPOFF):
                raise ParseError(f"stop of request {rid} has unknown kind {kind!r}")
    return tours, times, frozenset(ids), objective


def solution_from_json(text: str, inst: Instance) -> Solution:
    tours, times, accepted, objective = _read_solution(text)
    return Solution(tours=tuple(tours), schedule=_schedule(tours, times, inst),
                    accepted=accepted, objective=objective)
