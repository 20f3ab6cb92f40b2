"""Tour schedules: the timing primitives every other layer reads.

A tour is a stop sequence of (request id, PICKUP | DROPOFF) pairs that
starts and ends at the depot.  Its componentwise-minimal schedule comes
from propagating lower bounds (window starts, depot departure, travel
chaining, the ride-time limit read backwards) to a fixpoint; since the
feasible region is closed under componentwise minima, that schedule
minimizes every service start and every dropoff excess at once.  The
oracle, the assignment import, the validator's scoring and the event
graph's ride-compatibility test all use the same functions, with the
same tolerance ``_TIME_EPS`` on upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .errors import DataError
from .instance import DROPOFF, PICKUP, Instance

Stop = tuple[int, str]

_TIME_EPS = 1e-9


@dataclass(frozen=True)
class Schedule:
    """Service-start times per tour stop, per-request excess, makespans."""

    times: tuple[tuple[float, ...], ...]
    excess: Mapping[int, float]
    makespans: tuple[float, ...]


def _tour_times(stops: Sequence[Stop], inst: Instance,
                complete: bool = True) -> list[float] | None:
    """Componentwise-minimal feasible service starts, or None.

    Lower bounds (window starts, depot departure, travel chaining and the
    ride-time limit read backwards as a pickup lower bound) are propagated
    to a fixpoint; one extra sweep still raising means the bound system
    has a positive cycle, i.e. is infeasible.  The feasible region is
    closed under componentwise minima, so the fixpoint is the unique
    minimal schedule whenever it respects all upper bounds.
    """
    m = len(stops)
    if m == 0:
        return []
    e0, l0 = inst.depot_window
    locs = [inst.location(*st) for st in stops]
    svc = [inst.service[loc] for loc in locs]

    lower = [inst.windows[loc][0] for loc in locs]
    lower[0] = max(lower[0], e0 + inst.metric.time(inst.depot_loc, locs[0]))
    upper = [inst.windows[loc][1] for loc in locs]
    if complete:
        upper[-1] = min(
            upper[-1],
            l0 - svc[-1] - inst.metric.time(locs[-1], inst.depot_loc))

    edges: list[tuple[int, int, float]] = []
    for k in range(m - 1):
        edges.append((k, k + 1, svc[k] + inst.metric.time(locs[k], locs[k + 1])))
    pick_at = {}
    for k, (rid, kind) in enumerate(stops):
        if kind == PICKUP:
            pick_at[rid] = k
        elif rid in pick_at:
            req = inst.request(rid)
            edges.append((k, pick_at[rid], -(req.max_ride + req.s)))

    times = list(lower)
    for _ in range(m):
        changed = False
        for src, dst, w in edges:
            cand = times[src] + w
            if cand > times[dst]:
                times[dst] = cand
                changed = True
        if not changed:
            break
    else:
        for src, dst, w in edges:
            if times[src] + w > times[dst]:
                return None    # positive cycle keeps raising bounds
    for k in range(m):
        if times[k] > upper[k] + _TIME_EPS:
            return None
    return times


def _check_structure(stops: Sequence[Stop], inst: Instance):
    """Raise unless the tour pairs, orders and loads its requests validly."""
    state: dict[int, str] = {}
    load = 0
    for rid, kind in stops:
        if kind not in (PICKUP, DROPOFF):
            raise DataError(f"unknown stop kind {kind!r}")
        seen = state.get(rid)
        if kind == PICKUP:
            if seen is not None:
                raise DataError(f"request {rid} picked up twice")
            state[rid] = "on"
            load += inst.request(rid).q
            if load > inst.capacity:
                raise DataError(f"load {load} exceeds capacity after picking up {rid}")
        else:
            if seen != "on":
                raise DataError(f"dropoff of request {rid} without a preceding pickup")
            state[rid] = "off"
            load -= inst.request(rid).q
    riding = [rid for rid, st in state.items() if st == "on"]
    if riding:
        raise DataError(f"requests {riding} are never dropped off")


def _tour_cost(stops: Sequence[Stop], inst: Instance) -> float:
    cost = 0.0
    prev = inst.depot_loc
    for stop in stops:
        loc = inst.location(*stop)
        cost += inst.metric.cost(prev, loc)
        prev = loc
    return cost + inst.metric.cost(prev, inst.depot_loc)


def _tour_makespan(stops: Sequence[Stop], times: Sequence[float],
                   inst: Instance) -> float:
    if not stops:
        return 0.0
    depart = times[0] - inst.metric.time(inst.depot_loc, inst.location(*stops[0]))
    last = inst.location(*stops[-1])
    ret = times[-1] + inst.service[last] + inst.metric.time(last, inst.depot_loc)
    return ret - depart


def _schedule(tours: Sequence[Sequence[Stop]],
              times: Sequence[Sequence[float]], inst: Instance) -> Schedule:
    """Per-request dropoff excess and per-tour makespans of timed tours."""
    excess = {}
    for stops, ts in zip(tours, times):
        for (rid, kind), t in zip(stops, ts):
            if kind == DROPOFF:
                excess[rid] = max(0.0, t - inst.request(rid).dropoff_window[0])
    makespans = tuple(_tour_makespan(stops, ts, inst)
                      for stops, ts in zip(tours, times))
    return Schedule(times=tuple(tuple(ts) for ts in times), excess=excess,
                    makespans=makespans)


def minimal_schedule(tour: Sequence[Stop], inst: Instance) -> Schedule | None:
    """Componentwise-minimal schedule of one structurally valid tour."""
    stops = [tuple(st) for st in tour]
    _check_structure(stops, inst)
    times = _tour_times(stops, inst)
    if times is None:
        return None
    return _schedule((stops,), (times,), inst)


def compatible_pairs(inst: Instance) -> frozenset[tuple[int, int]]:
    """Request pairs (i, j), i < j, that can be on board at the same time.

    A pair is compatible when both fit the vehicle together and one of the
    four depot-anchored tours that carry them at once (i+ j+ i- j-,
    i+ j+ j- i-, j+ i+ i- j-, j+ i+ j- i-) has a schedule.  Travel times
    satisfy the triangle inequality, so dropping stops from a feasible
    tour leaves a feasible tour: two requests that share a vehicle in any
    feasible plan pass this test.
    """
    found = set()
    for i, j in combinations(range(1, inst.n + 1), 2):
        if inst.request(i).q + inst.request(j).q > inst.capacity:
            continue
        orders = ((i, j), (j, i))
        tours = [((a, PICKUP), (b, PICKUP), (c, DROPOFF), (d, DROPOFF))
                 for a, b in orders for c, d in orders]
        if any(_tour_times(tour, inst) is not None for tour in tours):
            found.add((i, j))
    return frozenset(found)
