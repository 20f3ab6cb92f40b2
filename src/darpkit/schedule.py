"""Tour schedules: the timing primitives every other layer reads.

A tour is a stop sequence of (request id, PICKUP | DROPOFF) pairs that
starts and ends at the depot.  Its componentwise-minimal schedule comes
from propagating lower bounds (window starts, depot departure, travel
chaining, the ride-time limit read backwards) to a fixpoint; since the
feasible region is closed under componentwise minima, that schedule
minimizes every service start and every dropoff excess at once.

That schedule is built one stop at a time: appending a stop to a prefix
extends the prefix's schedule by one step (``_Prefix.push``), and
``pop`` takes the step back.  The oracle's stop-order search extends
each prefix from its parent this way; ``_tour_times`` is the same step
folded over a whole tour.  The oracle, the assignment import, the
validator's scoring and the event graph's ride-compatibility test all
use it, with the same tolerance ``_TIME_EPS`` on upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DataError
from .instance import DEPOT_LOCATION, DROPOFF, PICKUP, Instance

Stop = tuple[int, str]

_TIME_EPS = 1e-9


@dataclass(frozen=True)
class Schedule:
    """Service-start times per tour stop, per-request excess, makespans."""

    times: tuple[tuple[float, ...], ...]
    excess: Mapping[int, float]
    makespans: tuple[float, ...]


class _Prefix:
    """A stop sequence grown and shrunk at its end, with its minimal schedule.

    ``push`` is the one schedule step.  The new stop starts at the later
    of its window start and the previous stop's start plus service and
    travel (the depot departure for a first stop).  A dropoff then reads
    the ride-time limit backwards as a lower bound on its pickup, and any
    raise moves forward along the chain, and back along the ride limits
    of the dropoffs it reaches, until nothing rises.  The bounds only
    grow as stops are appended and every step is a monotone function of
    the times before it, also with rounding, so the times equal the
    unique least fixpoint of the prefix's bound system, computed from
    scratch or not.  A prefix is accepted when every stop meets its
    window end; ``pop`` undoes exactly the raises of the last accepted
    push.  A positive cycle in the bounds keeps raising; one sweep per
    stop bounds the rounds, and a push still raising after them is
    infeasible.
    """

    __slots__ = ("inst", "stops", "times", "_stop", "_rows", "_locs", "_gaps",
                 "_rides", "_log")

    def __init__(self, inst: Instance):
        self.inst = inst
        self.stops: list[Stop] = []
        self.times: list[float] = []
        self._stop = inst._memoised("stop_table", _stop_table)
        self._rows = inst.metric.time_rows
        self._locs: list[int] = []
        self._gaps: list[float] = []    # service plus travel to the next stop
        self._rides: list[tuple[int, float] | None] = []    # (pickup, -limit)
        self._log: list[Sequence[tuple[int, float]]] = []    # (stop, old time)

    def push(self, stop: Stop) -> bool:
        """Append ``stop`` and reschedule; False, and no change, if the
        prefix has no schedule within the windows."""
        loc, early, late, limit, _ = self._stop[stop]
        times = self.times
        if times:
            prev = self._locs[-1]
            gap = self.inst.service[prev] + self._rows[prev][loc]
            start = max(early, times[-1] + gap)
        else:
            start = max(early, self.inst.depot_window[0] + self._rows[0][loc])
        if start > late + _TIME_EPS:
            return False    # raises only ever make it later
        ride = None
        if limit is not None:
            # a request's pickup appears at most once in a prefix
            pickup = (stop[0], PICKUP)
            if pickup in self.stops:
                ride = (self.stops.index(pickup), limit)
        if times:
            self._gaps.append(gap)
        self.stops.append(stop)
        times.append(start)
        self._locs.append(loc)
        self._rides.append(ride)
        if ride is None or start + limit <= times[ride[0]]:
            self._log.append(())
            return True
        raised: list[tuple[int, float]] = []
        self._log.append(raised)
        windows, locs = self.inst.windows, self._locs
        if not self._settle(raised) or any(
                times[k] > windows[locs[k]][1] + _TIME_EPS for k, _ in raised):
            self.pop()
            return False
        return True

    def _settle(self, raised: list[tuple[int, float]]) -> bool:
        """Raise times from the last stop's ride limit to the fixpoint,
        logging each raise; False on a positive cycle."""
        times, gaps, rides = self.times, self._gaps, self._rides
        m = len(times)
        lo = m - 1
        for _ in range(m):
            nxt = m
            for k in range(lo, m):
                if k > lo:
                    cand = times[k - 1] + gaps[k - 1]
                    if cand > times[k]:
                        raised.append((k, times[k]))
                        times[k] = cand
                ride = rides[k]
                if ride is not None:
                    pick, w = ride
                    cand = times[k] + w
                    if cand > times[pick]:
                        raised.append((pick, times[pick]))
                        times[pick] = cand
                        nxt = min(nxt, pick)
            if nxt == m:
                return True
            lo = nxt
        return False

    def pop(self):
        """Remove the last stop and restore the times before its push."""
        raised = self._log.pop()
        if raised:
            for k, old in reversed(raised):
                self.times[k] = old
        self.stops.pop()
        self.times.pop()
        self._locs.pop()
        self._rides.pop()
        if self._gaps:
            self._gaps.pop()

    def returns_in_time(self) -> bool:
        """Whether the vehicle reaches the depot before it closes after
        serving the last stop."""
        inst = self.inst
        last = self._locs[-1]
        latest = (inst.depot_window[1] - inst.service[last]
                  - self._rows[last][DEPOT_LOCATION])
        return not self.times[-1] > latest + _TIME_EPS


def _stop_table(inst: Instance) -> dict:
    """What the schedule step and the tour rules read of each stop, once
    per instance: its location, window, negated ride limit (None for a
    pickup) and request, whose id a key may give as any equal number."""
    stop = {}
    for req in inst.requests:
        stop[req.id, PICKUP] = (inst.location(req.id, PICKUP),
                                *req.pickup_window, None, req)
        stop[req.id, DROPOFF] = (inst.location(req.id, DROPOFF),
                                 *req.dropoff_window, -(req.max_ride + req.s), req)
    return stop


def _stop_entries(stops: Sequence[Stop], inst: Instance) -> list[tuple]:
    """Each stop's :func:`_stop_table` entry; ``DataError`` for a stop of
    an unknown request or kind."""
    table = inst._memoised("stop_table", _stop_table)
    try:
        return [table[stop] for stop in stops]
    except KeyError as exc:
        raise DataError(f"unknown stop {exc.args[0]!r}") from None


def _tour_times(stops: Sequence[Stop], inst: Instance) -> list[float] | None:
    """Componentwise-minimal feasible service starts, or None.

    The schedule step of :class:`_Prefix` folded over the stops.  The
    feasible region is closed under componentwise minima, so the
    fixpoint is the unique minimal schedule whenever it respects all
    upper bounds, the vehicle's return to the depot before it closes
    included.
    """
    prefix = _Prefix(inst)
    for stop in stops:
        if not prefix.push(stop):
            return None
    if stops and not prefix.returns_in_time():
        return None
    return prefix.times


def _tour_faults(stops: Sequence[Stop], inst: Instance):
    """The faults of a tour's stops in stop order, as (violation kind,
    stop index or None, magnitude, detail): the one statement of the
    pairing, precedence and capacity rules.  A fault is a stop of an
    unknown request or kind (a tour with one is checked for nothing
    else), a repeated pickup or dropoff, a dropoff before its pickup, a
    load over capacity or a request never dropped off.
    """
    known = inst._memoised("stop_table", _stop_table)
    unknown = [(k, rid, kind) for k, (rid, kind) in enumerate(stops)
               if (rid, kind) not in known]
    for k, rid, kind in unknown:
        if (rid, PICKUP) not in known:
            yield "coverage", k, 1.0, f"stop names unknown request {rid}"
        if kind not in (PICKUP, DROPOFF):
            yield "pairing", k, 1.0, f"stop of request {rid} has unknown kind {kind!r}"
    if unknown:
        return
    state: dict[int, str] = {}
    load = 0
    for k, (rid, kind) in enumerate(stops):
        req = known[rid, kind][4]
        rid = req.id    # 1, also where the stop says 1.0
        prior = state.get(rid)
        if kind == PICKUP:
            if prior is not None:
                yield "pairing", k, 1.0, f"request {rid} picked up twice"
            state[rid] = "on"
            load += req.q
            if load > inst.capacity:
                yield ("capacity", k, float(load - inst.capacity),
                       f"load {load} exceeds capacity {inst.capacity}")
        else:
            if prior is None:
                yield "precedence", k, 1.0, f"dropoff of {rid} precedes its pickup"
            elif prior == "off":
                yield "pairing", k, 1.0, f"request {rid} dropped off twice"
            else:
                load -= req.q
            state[rid] = "off"
    for rid, st in state.items():
        if st == "on":
            yield "pairing", None, 1.0, f"request {rid} is never dropped off"


def _tour_cost(stops: Sequence[Stop], inst: Instance) -> float:
    rows = inst.metric.cost_rows
    cost = 0.0
    prev = DEPOT_LOCATION
    for entry in _stop_entries(stops, inst):
        cost += rows[prev][entry[0]]
        prev = entry[0]
    return cost + rows[prev][DEPOT_LOCATION]


def _tour_makespan(entries: Sequence[tuple], times: Sequence[float],
                   inst: Instance) -> float:
    if not entries:
        return 0.0
    depart = times[0] - inst.metric.time(DEPOT_LOCATION, entries[0][0])
    last = entries[-1][0]
    ret = times[-1] + inst.service[last] + inst.metric.time(last, DEPOT_LOCATION)
    return ret - depart


def _schedule(tours: Sequence[Sequence[Stop]],
              times: Sequence[Sequence[float]], inst: Instance) -> Schedule:
    """Per-request dropoff excess and per-tour makespans of timed tours."""
    excess = {}
    makespans = []
    for stops, ts in zip(tours, times):
        entries = _stop_entries(stops, inst)
        for (_, kind), (_, early, _, _, req), t in zip(stops, entries, ts):
            if kind == DROPOFF:
                excess[req.id] = max(0.0, t - early)
        makespans.append(_tour_makespan(entries, ts, inst))
    return Schedule(times=tuple(tuple(ts) for ts in times), excess=excess,
                    makespans=tuple(makespans))


def minimal_schedule(tour: Sequence[Stop], inst: Instance) -> Schedule | None:
    """Componentwise-minimal schedule of one tour, None if it has none;
    a tour that breaks a stop rule of :func:`_tour_faults`, the rules the
    validator checks, raises ``DataError`` naming its first fault."""
    stops = [tuple(st) for st in tour]
    for _, _, _, detail in _tour_faults(stops, inst):
        raise DataError(detail)
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

    The tours share their pickup prefixes on one :class:`_Prefix`: each
    first pickup is pushed once for all its partners, each pickup order
    once for its two dropoff orders.
    """
    found = set()
    prefix = _Prefix(inst)
    push, pop = prefix.push, prefix.pop
    ids = range(1, inst.n + 1)
    load = [0, *(req.q for req in inst.requests)]
    for a in ids:
        if not push((a, PICKUP)):
            continue
        room = inst.capacity - load[a]
        for b in ids:
            if b == a or load[b] > room:
                continue
            pair = (a, b) if a < b else (b, a)
            if pair in found:
                continue
            if push((b, PICKUP)):
                for c, d in ((a, b), (b, a)):
                    if push((c, DROPOFF)):
                        fits = push((d, DROPOFF))
                        if fits:
                            fits = prefix.returns_in_time()
                            pop()
                        pop()
                        if fits:
                            found.add(pair)
                            break
                pop()
        pop()
    return frozenset(found)
