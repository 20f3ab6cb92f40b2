"""Problem data for the static dial-a-ride problem.

A problem instance consists of n transportation requests, a homogeneous
fleet and a single depot.  Request i has a pickup location i and a dropoff
location n+i (the depot is location 0), a seat demand q_i, a service
duration s_i applied at both of its locations, service time windows at
both locations and a maximal ride time L_i.  Travel costs and travel
times between locations come from a :class:`TravelMetric`, either
Euclidean coordinates with a cost-to-minutes factor or explicit matrices.

The module covers reading the classic text format for benchmark files,
time-window tightening (deriving the unspecified window of each request
from the specified one), a reproducible synthetic generator and a JSON
round-trip format.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import random
from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import DataError, ParseError

INBOUND = "inbound"
OUTBOUND = "outbound"

#: event kinds; a stop is a (request id, PICKUP | DROPOFF) pair
DEPOT = "depot"
PICKUP = "pickup"
DROPOFF = "dropoff"
#: the depot's location; request i picks up at i and drops off at n + i
DEPOT_LOCATION = 0

#: fleet sizes used by the synthetic generator, keyed by (capacity, n)
FLEET_SIZES = {
    (3, 10): 6, (3, 15): 7, (3, 20): 9, (3, 25): 9, (3, 30): 11, (3, 35): 12, (3, 40): 15,
    (6, 10): 6, (6, 15): 9, (6, 20): 11, (6, 25): 15, (6, 30): 16, (6, 35): 18, (6, 40): 20,
}


@dataclass(frozen=True)
class TravelMetric:
    """Pairwise travel costs and travel times between location ids.

    Exactly one of ``coords`` / (``cost_matrix``, ``time_matrix``) must be
    given, covering location ids 0..m-1.  With coordinates the cost
    between two locations is their Euclidean distance and the travel time
    is ``time_factor`` times the cost.  Matrices are indexed directly by
    location id and carry times verbatim, so their ``time_factor`` must be
    1.  Both sources are turned into one cost table and one time table
    when the metric is built: ``cost_rows[a][b]`` and ``time_rows[a][b]``
    are the values from a to b.
    """

    coords: Mapping[int, tuple[float, float]] | None = None
    cost_matrix: tuple[tuple[float, ...], ...] | None = None
    time_matrix: tuple[tuple[float, ...], ...] | None = None
    time_factor: float = 1.0
    cost_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    time_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        has_coords = self.coords is not None
        has_matrix = self.cost_matrix is not None or self.time_matrix is not None
        if has_coords == has_matrix:
            raise DataError("metric needs either coordinates or matrices, not both")
        if not math.isfinite(self.time_factor) or self.time_factor <= 0:
            raise DataError("time_factor must be positive and finite")
        if has_matrix:
            if self.cost_matrix is None or self.time_matrix is None:
                raise DataError("matrix metric needs both a cost and a time matrix")
            if self.time_factor != 1:
                raise DataError("time_factor must be 1 for a matrix metric, "
                                "whose times are given")
            self._check_matrix(self.cost_matrix, "cost")
            self._check_matrix(self.time_matrix, "time")
            if len(self.cost_matrix) != len(self.time_matrix):
                raise DataError("cost and time matrices differ in size")
            cost, time = self.cost_matrix, self.time_matrix
        else:
            if sorted(self.coords) != list(range(len(self.coords))):
                raise DataError("coordinates must cover location ids 0..m-1")
            pts = [self.coords[a] for a in range(len(self.coords))]
            bad = [a for a, xy in enumerate(pts) if not all(map(math.isfinite, xy))]
            if bad:
                raise DataError(f"non-finite coordinate for location {bad[0]}")
            cost = [[math.hypot(xa - xb, ya - yb) for xb, yb in pts] for xa, ya in pts]
            time = [[self.time_factor * c for c in row] for row in cost]
        object.__setattr__(self, "cost_rows", tuple(map(tuple, cost)))
        object.__setattr__(self, "time_rows", tuple(map(tuple, time)))

    @staticmethod
    def _check_matrix(mat, label):
        import numpy as np

        m = len(mat)
        if any(len(row) != m for row in mat):
            raise DataError(f"{label} matrix is not square")
        arr = np.array(mat, dtype=float).reshape(m, m)
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            raise DataError(f"non-finite {label} entry at ({bad[0][0]}, {bad[0][1]})")
        neg = np.argwhere(arr < 0)
        if len(neg):
            raise DataError(f"negative {label} entry at ({neg[0][0]}, {neg[0][1]})")
        # triangle inequality, direct connections never lose: for each first
        # index i, bad[j, k] is arr[i, k] > arr[i, j] + arr[j, k] + 1e-9; one
        # m x m test per i keeps memory O(m^2) and finds the first (i, j, k)
        for i in range(m):
            bad = np.argwhere(arr[i][None, :] > arr[i][:, None] + arr + 1e-9)
            if len(bad):
                j, k = bad[0]
                raise DataError(f"{label} matrix violates the triangle "
                                f"inequality on ({i}, {j}, {k})")

    @property
    def size(self) -> int:
        """Number of locations; the ids run 0..size-1."""
        return len(self.cost_rows)

    def cost(self, a: int, b: int) -> float:
        return self.cost_rows[self._id(a)][self._id(b)]

    def time(self, a: int, b: int) -> float:
        return self.time_rows[self._id(a)][self._id(b)]

    def _id(self, a: int) -> int:
        """``a``, refused unless it is a location id (a negative one would
        index a row from its end)."""
        if not 0 <= a < len(self.cost_rows):
            raise DataError(f"unknown location id {a}")
        return a


def _require_int(value, field: str):
    """``DataError`` naming ``field`` unless ``value`` is an int (not a bool)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DataError(f"{field} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Request:
    """One transportation request; :meth:`Instance.location` places its stops."""

    id: int
    q: int
    s: float
    pickup_window: tuple[float, float]
    dropoff_window: tuple[float, float]
    max_ride: float
    direction: str | None = None     # set by tighten_time_windows

    def __post_init__(self):
        _require_int(self.id, "request id")
        _require_int(self.q, f"request {self.id}: seat demand q")
        times = (self.s, self.max_ride, *self.pickup_window, *self.dropoff_window)
        if not all(map(math.isfinite, times)):
            raise DataError(f"request {self.id}: non-finite window, ride time "
                            "or service duration")
        if self.q < 1:
            raise DataError(f"request {self.id}: seat demand must be at least 1")
        if self.s < 0:
            raise DataError(f"request {self.id}: negative service duration")
        if self.max_ride <= 0:
            raise DataError(f"request {self.id}: maximal ride time must be positive")
        for which, (e, l) in (("pickup", self.pickup_window), ("dropoff", self.dropoff_window)):
            if e > l:
                raise DataError(f"request {self.id}: empty {which} window [{e}, {l}]")
        if self.direction not in (None, INBOUND, OUTBOUND):
            raise DataError(f"request {self.id}: unknown direction {self.direction!r}")


@dataclass(frozen=True)
class Instance:
    """A complete dial-a-ride instance.

    Locations are numbered 0 (depot), 1..n (pickups), n+1..2n (dropoffs);
    :meth:`location` maps a stop to its location.  ``windows`` and
    ``service`` give every location's time window and service duration
    (the depot's window is the depot window, its service 0).
    ``stop_table`` maps each stop to its location, window start and end,
    ride limit L_i + s_i (None for a pickup) and request; a key may give
    the request id as any equal number, such as ``1.0``.
    """

    name: str
    requests: tuple[Request, ...]
    fleet_size: int
    capacity: int
    depot_window: tuple[float, float]
    metric: TravelMetric
    windows: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    service: tuple[float, ...] = field(init=False, repr=False, compare=False)
    stop_table: dict = field(init=False, repr=False, compare=False)
    # the oracle's stop orders, computed on first use; ``replace`` builds
    # a fresh instance with an empty memo
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the name heads every exported file and names the default outputs
        if not (isinstance(self.name, str) and self.name and self.name.isprintable()):
            raise DataError(f"instance name must be printable text, got {self.name!r}")
        _require_int(self.fleet_size, "fleet_size")
        _require_int(self.capacity, "capacity")
        if self.fleet_size < 1:
            raise DataError("fleet size must be at least 1")
        if self.capacity < 1:
            raise DataError("vehicle capacity must be at least 1")
        if not self.requests:
            raise DataError("instance needs at least one request")
        e0, l0 = self.depot_window
        if not (math.isfinite(e0) and math.isfinite(l0)):
            raise DataError("non-finite depot window")
        if e0 > l0:
            raise DataError("empty depot window")
        for pos, req in enumerate(self.requests, start=1):
            if req.id != pos:
                raise DataError("request ids must be 1..n in order")
            if req.q > self.capacity:
                raise DataError(
                    f"request {req.id} demands {req.q} seats, capacity is {self.capacity}")
        if self.metric.size < 2 * self.n + 1:
            raise DataError(f"metric covers locations 0..{self.metric.size - 1}, "
                            f"the instance needs 0..{2 * self.n}")
        reqs = self.requests
        object.__setattr__(self, "windows", (self.depot_window,)
                           + tuple(r.pickup_window for r in reqs)
                           + tuple(r.dropoff_window for r in reqs))
        object.__setattr__(self, "service", (0.0,) + tuple(r.s for r in reqs) * 2)
        stops = {}
        for r in reqs:
            stops[r.id, PICKUP] = (r.id, *r.pickup_window, None, r)
            stops[r.id, DROPOFF] = (self.n + r.id, *r.dropoff_window, r.max_ride + r.s, r)
        object.__setattr__(self, "stop_table", stops)

    @property
    def n(self) -> int:
        return len(self.requests)

    @property
    def horizon(self) -> float:
        """Planning horizon T, the width of the depot window."""
        e0, l0 = self.depot_window
        return l0 - e0

    def request(self, i: int) -> Request:
        if not 1 <= i <= len(self.requests):
            raise DataError(f"unknown request id {i}; ids run 1..{self.n}")
        return self.requests[i - 1]

    def location(self, rid: int, kind: str) -> int:
        """Location of a stop: ``rid`` for a pickup, ``n + rid`` for a dropoff."""
        return self._stop((rid, kind))[0]

    def _entry(self, stop: tuple[int, str]) -> tuple | None:
        """The stop's entry of ``stop_table``; None for an unknown request
        or kind, also one that cannot be hashed (``([1], "pickup")``)."""
        try:
            return self.stop_table.get(stop)
        except TypeError:
            return None

    def _stop(self, stop: tuple[int, str]) -> tuple:
        """The stop's entry of ``stop_table``; ``DataError`` naming the stop
        for an unknown request or kind."""
        try:
            return self.stop_table[stop]
        except (KeyError, TypeError):
            raise DataError(f"stop {stop!r} names an unknown request or kind; "
                            f"request ids run 1..{self.n}") from None


# ---------------------------------------------------------------------------
# benchmark text format
# ---------------------------------------------------------------------------

def _num(tok: str, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {tok!r}") from None


def _int(tok: str, what: str) -> int:
    val = _num(tok, what)
    if not val.is_integer():    # also rejects inf and nan
        raise ParseError(f"{what} must be an integer, got {tok!r}")
    return int(val)


def parse_cordeau(text: str, name: str = "instance") -> Instance:
    """Parse the classic whitespace text format for benchmark instances.

    Layout: a header line ``fleet_size node_count horizon capacity max_ride``
    followed by one row ``id x y s q e l`` per node.  Row 0 is the depot,
    rows 1..n the pickups, rows n+1..2n the dropoffs, optionally followed
    by a terminal copy of the depot row.  Header node counts that include
    the depot rows (2n+1 or 2n+2) as well as counts of only the 2n request
    rows are accepted; the actual number of rows decides.

    Dropoff rows must carry the negated seat demand of their pickup row.
    Windows are taken verbatim; run :func:`tighten_time_windows` afterwards.
    The returned metric is Euclidean over the row coordinates with a
    time factor of 1, and the header max ride time applies to every request.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ParseError("empty instance file")
    header = rows[0]
    if len(header) != 5:
        raise ParseError(f"header must have 5 fields, got {len(header)}")
    fleet = _int(header[0], "fleet size")
    declared = _int(header[1], "node count")
    horizon = _num(header[2], "horizon")
    capacity = _int(header[3], "capacity")
    max_ride = _num(header[4], "max ride time")
    if fleet < 1 or capacity < 1:
        raise ParseError("fleet size and capacity must be positive")

    body = rows[1:]
    got = len(body)
    # 2n+1 rows (no terminal depot) or 2n+2 rows (terminal depot present);
    # the header counts every row, or, as published files do, the 2n
    # request rows only
    n = (got - 1) // 2
    if declared not in (got, 2 * n):
        raise ParseError(
            f"{got} node rows do not match declared node count {declared}")
    if n < 1:
        raise ParseError("instance needs at least one request")

    parsed = []
    for idx, row in enumerate(body):
        if len(row) != 7:
            raise ParseError(f"node row {idx} must have 7 fields, got {len(row)}")
        rid = _int(row[0], "node id")
        if rid != idx:
            raise ParseError(f"node row {idx} carries id {rid}")
        x = _num(row[1], "x coordinate")
        y = _num(row[2], "y coordinate")
        s = _num(row[3], "service duration")
        q = _int(row[4], "seat demand")
        e = _num(row[5], "window start")
        l = _num(row[6], "window end")
        parsed.append((x, y, s, q, e, l))

    x0, y0, s0, q0, e0, l0 = parsed[0]
    if e0 == l0 == 0.0:
        e0, l0 = 0.0, horizon
    coords = {i: (parsed[i][0], parsed[i][1]) for i in range(2 * n + 1)}
    metric = TravelMetric(coords=coords, time_factor=1.0)

    requests = []
    for i in range(1, n + 1):
        px, py, ps, pq, pe, pl = parsed[i]
        dx, dy, ds, dq, de, dl = parsed[n + i]
        if pq <= 0:
            raise ParseError(f"pickup row {i} must demand a positive number of seats")
        if dq != -pq:
            raise ParseError(
                f"load mismatch for request {i}: pickup {pq}, dropoff {dq}")
        if pq > capacity:
            raise ParseError(f"request {i} demands {pq} seats, capacity is {capacity}")
        if ds != ps:
            raise ParseError(
                f"service duration mismatch for request {i}: pickup {ps}, dropoff {ds}")
        requests.append(Request(
            id=i, q=pq, s=ps,
            pickup_window=(pe, pl), dropoff_window=(de, dl), max_ride=max_ride))

    return Instance(
        name=name, requests=tuple(requests), fleet_size=fleet, capacity=capacity,
        depot_window=(e0, l0), metric=metric)


# ---------------------------------------------------------------------------
# time-window tightening
# ---------------------------------------------------------------------------

def tighten_time_windows(inst: Instance) -> Instance:
    """Derive the unspecified window of each request from the specified one.

    A request is classified inbound when its pickup window is narrower
    than its dropoff window (ties count as inbound); already-classified
    requests keep their direction.  Inbound requests get their dropoff
    window from the pickup window,

        e_drop = e_pick + s + t_direct,   l_drop = l_pick + s + L,

    outbound requests the mirrored pickup window

        e_pick = e_drop - L - s,          l_pick = l_drop - t_direct - s.

    Both windows are then clipped to the depot window.  The operation is
    idempotent.
    """
    e0, l0 = inst.depot_window
    width0 = l0 - e0
    out = []
    for req in inst.requests:
        t_direct = inst.metric.time(inst.location(req.id, PICKUP),
                                    inst.location(req.id, DROPOFF))
        direction = req.direction
        if direction is None:
            wp = req.pickup_window[1] - req.pickup_window[0]
            wd = req.dropoff_window[1] - req.dropoff_window[0]
            if wp >= width0 and wd >= width0:
                raise DataError(
                    f"request {req.id}: both windows are trivial, cannot classify")
            direction = INBOUND if wp <= wd else OUTBOUND
        if direction == INBOUND:
            ep, lp = req.pickup_window
            ed = ep + req.s + t_direct
            ld = lp + req.s + req.max_ride
        else:
            ed, ld = req.dropoff_window
            ep = ed - req.max_ride - req.s
            lp = ld - t_direct - req.s
        pickup = (max(ep, e0), min(lp, l0))
        dropoff = (max(ed, e0), min(ld, l0))
        if pickup[0] > pickup[1] or dropoff[0] > dropoff[1]:
            raise DataError(
                f"request {req.id}: window empty after tightening and clipping")
        out.append(replace(
            req, pickup_window=pickup, dropoff_window=dropoff, direction=direction))
    return replace(inst, requests=tuple(out))


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

_HORIZON = 150.0
_WINDOW_LENGTH = 15.0
_FIRST_PICKUP = 15.0
_LAST_PICKUP = 60.0
_PICKUP_STEP = 5.0
_RIDE_FACTOR = 1.5
_TIME_FACTOR = 4.0


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for the reproducible synthetic instance generator.

    Locations are sampled uniformly in a square of side ``area_side`` with
    the depot at the centre.  Pickup windows start on a 5-minute grid in
    [15, 60] and are 15 minutes long; every request is inbound.  Seat
    demands are 1 for capacity 3 and uniform on 1..6 for capacity 6, with
    service durations equal to the demand.  The maximal ride time is 1.5
    times the direct travel time, and travel times are 4 times the
    Euclidean cost.
    """

    n: int
    capacity: int
    seed: int
    fleet_size: int | None = None
    area_side: float = 5.0

    def __post_init__(self):
        _require_int(self.n, "n")
        _require_int(self.capacity, "capacity")
        # a seed of another type would seed a different instance under the
        # same name (seed="1" is not seed=1)
        _require_int(self.seed, "seed")
        if self.fleet_size is not None:
            _require_int(self.fleet_size, "fleet_size")
        if self.n < 1:
            raise DataError("generator needs n >= 1")
        if self.capacity not in (3, 6):
            raise DataError("generator capacity must be 3 or 6")
        # a bool is no side (True would place the points on a side of 1)
        if not isinstance(self.area_side, numbers.Real) or isinstance(
                self.area_side, bool):
            raise DataError(f"area_side must be a real number, got {self.area_side!r}")
        # a NaN or infinite side never yields two distinct points
        if not (math.isfinite(self.area_side) and self.area_side > 0):
            raise DataError("area_side must be positive and finite")
        if self.fleet_size is not None and self.fleet_size < 1:
            raise DataError("fleet size must be at least 1")


def generate_synthetic(cfg: GeneratorConfig) -> Instance:
    """Generate a reproducible synthetic instance (already tightened)."""
    rng = random.Random(cfg.seed)
    side = cfg.area_side
    coords = {0: (side / 2.0, side / 2.0)}
    ticks = int(round((_LAST_PICKUP - _FIRST_PICKUP) / _PICKUP_STEP)) + 1
    requests = []
    for i in range(1, cfg.n + 1):
        while True:
            px, py = rng.uniform(0, side), rng.uniform(0, side)
            dx, dy = rng.uniform(0, side), rng.uniform(0, side)
            dist = math.hypot(px - dx, py - dy)
            if dist > 1e-9:
                break
        coords[i] = (px, py)
        coords[cfg.n + i] = (dx, dy)
        q = 1 if cfg.capacity == 3 else rng.randint(1, 6)
        start = _FIRST_PICKUP + _PICKUP_STEP * rng.randrange(ticks)
        t_direct = _TIME_FACTOR * dist
        requests.append(Request(
            id=i, q=q, s=float(q),
            pickup_window=(start, start + _WINDOW_LENGTH),
            dropoff_window=(0.0, _HORIZON),
            max_ride=_RIDE_FACTOR * t_direct,
            direction=INBOUND))
    fleet = cfg.fleet_size
    if fleet is None:
        fleet = FLEET_SIZES.get((cfg.capacity, cfg.n), math.ceil(cfg.n / 2))
    inst = Instance(
        name=f"synth-q{cfg.capacity}-n{cfg.n}-s{cfg.seed}",
        requests=tuple(requests), fleet_size=fleet, capacity=cfg.capacity,
        depot_window=(0.0, _HORIZON),
        metric=TravelMetric(coords=coords, time_factor=_TIME_FACTOR))
    return tighten_time_windows(inst)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def instance_to_json(inst: Instance) -> str:
    """Serialize an instance to JSON (full float precision)."""
    metric: dict
    if inst.metric.coords is not None:
        metric = {
            "coords": {str(loc): list(xy) for loc, xy in sorted(inst.metric.coords.items())},
            "time_factor": inst.metric.time_factor,
        }
    else:
        metric = {
            "cost": [list(row) for row in inst.metric.cost_matrix],
            "time": [list(row) for row in inst.metric.time_matrix],
            "time_factor": inst.metric.time_factor,
        }
    doc = {
        "name": inst.name,
        "fleet_size": inst.fleet_size,
        "capacity": inst.capacity,
        "depot": {"location": DEPOT_LOCATION,
                  "e": inst.depot_window[0], "l": inst.depot_window[1]},
        "requests": [
            {
                "id": r.id,
                "pickup": {"location": inst.location(r.id, PICKUP),
                           "e": r.pickup_window[0], "l": r.pickup_window[1]},
                "dropoff": {"location": inst.location(r.id, DROPOFF),
                            "e": r.dropoff_window[0], "l": r.dropoff_window[1]},
                "q": r.q,
                "s": r.s,
                "max_ride": r.max_ride,
                "direction": r.direction,
            }
            for r in inst.requests
        ],
        "metric": metric,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def instance_sha256(inst: Instance) -> str:
    """SHA-256 of the instance's JSON form: binds artifacts to their instance."""
    return hashlib.sha256(instance_to_json(inst).encode()).hexdigest()


def _json_int(value, what: str) -> int:
    """An integer read from JSON: an int or integral float, never a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_float(value, what: str) -> float:
    """A real number read from JSON: an int or a float, never a bool or text."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _json_window(stop: dict, what: str) -> tuple[float, float]:
    """The ``e`` and ``l`` of a JSON stop or depot, as a window."""
    return _json_float(stop["e"], f"{what} e"), _json_float(stop["l"], f"{what} l")


def instance_from_json(text: str) -> Instance:
    """Parse an instance from its JSON form; its ``location`` keys must
    follow the fixed scheme (:meth:`Instance.location`)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    try:
        m = doc["metric"]
        time_factor = _json_float(m.get("time_factor", 1.0), "time_factor")
        if "coords" in m:
            metric = TravelMetric(
                coords={int(k): (_json_float(x, "coordinate"), _json_float(y, "coordinate"))
                        for k, (x, y) in m["coords"].items()},
                time_factor=time_factor)
        else:
            metric = TravelMetric(
                cost_matrix=tuple(tuple(_json_float(v, "cost entry") for v in row)
                                  for row in m["cost"]),
                time_matrix=tuple(tuple(_json_float(v, "time entry") for v in row)
                                  for row in m["time"]),
                time_factor=time_factor)
        depot = _json_int(doc["depot"]["location"], "depot location")
        if depot != DEPOT_LOCATION:
            raise DataError(f"depot must be location {DEPOT_LOCATION}, got {depot}")
        requests = []
        for r in doc["requests"]:
            requests.append(Request(
                id=_json_int(r["id"], "request id"), q=_json_int(r["q"], "q"),
                s=_json_float(r["s"], "s"),
                pickup_window=_json_window(r["pickup"], "pickup"),
                dropoff_window=_json_window(r["dropoff"], "dropoff"),
                max_ride=_json_float(r["max_ride"], "max_ride"),
                direction=r.get("direction")))
        inst = Instance(
            name=doc.get("name", "instance"),
            requests=tuple(requests),
            fleet_size=_json_int(doc["fleet_size"], "fleet_size"),
            capacity=_json_int(doc["capacity"], "capacity"),
            depot_window=_json_window(doc["depot"], "depot"),
            metric=metric)
        for req, r in zip(inst.requests, doc["requests"]):
            if any(_json_int(r[k]["location"], f"{k} location") != inst.location(req.id, k)
                   for k in (PICKUP, DROPOFF)):
                raise DataError(
                    f"request {req.id}: locations must follow the 0/1..n/n+1..2n scheme")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"instance JSON is missing or mistypes a field: {exc}") from None
    return inst
