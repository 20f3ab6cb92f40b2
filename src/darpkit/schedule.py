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
from .instance import DROPOFF, PICKUP, Instance

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

    __slots__ = ("inst", "stops", "times", "_locs", "_gaps", "_rides", "_log")

    def __init__(self, inst: Instance):
        self.inst = inst
        self.stops: list[Stop] = []
        self.times: list[float] = []
        self._locs: list[int] = []
        self._gaps: list[float] = []    # service plus travel to the next stop
        self._rides: list[tuple[int, float] | None] = []    # (pickup, -limit)
        self._log: list[Sequence[tuple[int, float]]] = []    # (stop, old time)

    def push(self, stop: Stop) -> bool:
        """Append ``stop`` and reschedule; False, and no change, if the
        prefix has no schedule within the windows."""
        inst = self.inst
        rid, kind = stop
        loc = inst.location(rid, kind)
        early, late = inst.windows[loc]
        times = self.times
        if times:
            prev = self._locs[-1]
            gap = inst.service[prev] + inst.metric.time(prev, loc)
            start = max(early, times[-1] + gap)
        else:
            start = max(early, inst.depot_window[0]
                        + inst.metric.time(inst.depot_loc, loc))
        if start > late + _TIME_EPS:
            return False    # raises only ever make it later
        ride = None
        if kind == DROPOFF:
            for k in range(len(self.stops) - 1, -1, -1):
                if self.stops[k] == (rid, PICKUP):
                    req = inst.request(rid)
                    ride = (k, -(req.max_ride + req.s))
                    break
        if times:
            self._gaps.append(gap)
        self.stops.append((rid, kind))
        times.append(start)
        self._locs.append(loc)
        self._rides.append(ride)
        if ride is None or start + ride[1] <= times[ride[0]]:
            self._log.append(())
            return True
        raised: list[tuple[int, float]] = []
        self._log.append(raised)
        windows, locs = inst.windows, self._locs
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
        for k, old in reversed(self._log.pop()):
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
                  - inst.metric.time(last, inst.depot_loc))
        return not self.times[-1] > latest + _TIME_EPS


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

    The tours share their pickup prefixes on one :class:`_Prefix`: each
    first pickup is pushed once for all its partners, each pickup order
    once for its two dropoff orders.
    """
    found = set()
    prefix = _Prefix(inst)
    push, pop = prefix.push, prefix.pop
    ids = range(1, inst.n + 1)
    for a in ids:
        if not push((a, PICKUP)):
            continue
        room = inst.capacity - inst.request(a).q
        for b in ids:
            pair = (a, b) if a < b else (b, a)
            if b == a or pair in found or inst.request(b).q > room:
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
