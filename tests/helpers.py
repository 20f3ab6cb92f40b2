"""Shared pure helpers for the test suite.

The brute-force state/transition enumeration here is predicate-based
(filter all candidate tuples and tuple pairs) rather than constructive,
so it shares no logic with the package's graph builder.
"""

import functools
import warnings
from dataclasses import replace
from itertools import combinations

from darpkit import (
    GeneratorConfig, INBOUND, OUTBOUND, InfeasibleError, Instance, ObjectiveSpec,
    Request, TravelMetric, generate_synthetic, oracle_solve, tighten_time_windows,
)
from darpkit.instance import DEPOT_LOCATION
from darpkit.schedule import _tour_times

PICK = "pickup"
DROP = "dropoff"

# two requests in the classic text format: request 1 inbound, 2 outbound
TINY_CORDEAU_TEXT = """\
2 4 480 3 30
0 0.0 0.0 0 0 0 480
1 1.0 2.0 3 1 100 115
2 -1.0 3.0 3 1 0 480
3 2.0 -1.0 3 -1 0 480
4 0.5 4.0 3 -1 200 215
"""


def brute_state_space(loads: dict[int, int], capacity: int):
    """All vehicle states and transitions by exhaustive filtering.

    States are (kind, request, frozenset_of_others); the depot state is
    ("depot", 0, frozenset()).  A transition exists when the onboard set
    after the tail state admits the head event.
    """
    ids = sorted(loads)
    depot = ("depot", 0, frozenset())
    states = [depot]
    for i in ids:
        others = [j for j in ids if j != i]
        for k in range(min(len(others), capacity - 1) + 1):
            for combo in combinations(others, k):
                if loads[i] + sum(loads[j] for j in combo) <= capacity:
                    states.append((PICK, i, frozenset(combo)))
                    states.append((DROP, i, frozenset(combo)))
    state_set = set(states)

    def onboard_after(state):
        kind, i, others = state
        if kind == "depot":
            return frozenset()
        return others | {i} if kind == PICK else others

    arcs = []
    for u in states:
        for v in states:
            ku, i, _ = u
            kv, j, sv = v
            if ku == "depot" and kv == PICK and not sv:
                arcs.append((u, v))
            elif kv == "depot" and ku == DROP and not u[2]:
                arcs.append((u, v))
            elif ku != "depot" and kv != "depot":
                after = onboard_after(u)
                if kv == PICK and j not in after and sv == after:
                    # a request leaves the system at its dropoff, so its
                    # pickup event cannot follow its own dropoff directly
                    if not (ku == DROP and j == i):
                        arcs.append((u, v))
                elif kv == DROP and j in after and sv == after - {j}:
                    arcs.append((u, v))
    return state_set, arcs


def lp_schedule(tour, inst):
    """Componentwise-minimal schedule via linear programming, or None.

    Minimizing the sum of service starts over the difference-constraint
    system returns the componentwise minimum because the feasible set is
    closed under componentwise minima.  Shares nothing with the
    package's fixpoint propagation.
    """
    from scipy.optimize import linprog

    m = len(tour)
    if m == 0:
        return []
    locs = []
    wins = []
    svcs = []
    rides = {}
    for k, (rid, kind) in enumerate(tour):
        req = inst.request(rid)
        locs.append(inst.location(rid, kind))
        if kind == PICK:
            wins.append(req.pickup_window)
            rides[rid] = [k, None]
        else:
            wins.append(req.dropoff_window)
            rides[rid][1] = k
        svcs.append(req.s)
    e0, l0 = inst.depot_window
    lo = [w[0] for w in wins]
    hi = [w[1] for w in wins]
    lo[0] = max(lo[0], e0 + inst.metric.time(DEPOT_LOCATION, locs[0]))
    hi[-1] = min(hi[-1], l0 - svcs[-1] - inst.metric.time(locs[-1], DEPOT_LOCATION))
    A = []
    b = []
    for k in range(m - 1):
        row = [0.0] * m
        row[k] = 1.0
        row[k + 1] = -1.0
        A.append(row)
        b.append(-(svcs[k] + inst.metric.time(locs[k], locs[k + 1])))
    for rid, (a_idx, b_idx) in rides.items():
        req = inst.request(rid)
        row = [0.0] * m
        row[b_idx] = 1.0
        row[a_idx] = -1.0
        A.append(row)
        b.append(req.max_ride + req.s)
    res = linprog(c=[1.0] * m, A_ub=A, b_ub=b, bounds=list(zip(lo, hi)),
                  method="highs")
    if not res.success:
        return None
    return list(res.x)


def lp_tours(block, inst):
    """Every stop order of one vehicle serving ``block`` that
    ``lp_schedule`` finds feasible, as (stops, LP times).

    Orders are built stop by stop from the pairing rules alone: pick up
    a waiting request that fits the vehicle, or drop off an onboard one.
    A prefix is dropped when the earliest starts read forward through
    the windows, with no ride limits, already miss a window by more than
    the LP's tolerance: every completion's LP has larger lower bounds
    there, so it is infeasible too.
    """
    e0 = inst.depot_window[0]
    found = []

    def rec(seq, waiting, onboard, load, start):
        if not waiting and not onboard:
            times = lp_schedule(seq, inst)
            if times is not None:
                found.append((tuple(seq), times))
            return
        steps = [(i, PICK) for i in sorted(waiting)
                 if load + inst.request(i).q <= inst.capacity]
        steps += [(i, DROP) for i in sorted(onboard)]
        for rid, kind in steps:
            req = inst.request(rid)
            loc = inst.location(rid, kind)
            e, l = req.pickup_window if kind == PICK else req.dropoff_window
            if seq:
                prev = inst.request(seq[-1][0])
                prev_loc = inst.location(*seq[-1])
                arrive = start + prev.s + inst.metric.time(prev_loc, loc)
            else:
                arrive = e0 + inst.metric.time(DEPOT_LOCATION, loc)
            begin = max(e, arrive)
            if begin > l + 1e-6:
                continue
            if kind == PICK:
                rec(seq + [(rid, kind)], waiting - {rid}, onboard | {rid},
                    load + req.q, begin)
            else:
                rec(seq + [(rid, kind)], waiting, onboard - {rid},
                    load - req.q, begin)

    rec([], frozenset(block), frozenset(), 0, 0.0)
    return found


def compatible_pairs_reference(inst):
    """Ride-compatible request pairs, each of a pair's four tours timed
    from an empty prefix: the loop ``compatible_pairs`` replaced."""
    found = set()
    for i, j in combinations(range(1, inst.n + 1), 2):
        if inst.request(i).q + inst.request(j).q > inst.capacity:
            continue
        orders = ((i, j), (j, i))
        tours = [((a, PICK), (b, PICK), (c, DROP), (d, DROP))
                 for a, b in orders for c, d in orders]
        if any(_tour_times(tour, inst) is not None for tour in tours):
            found.add((i, j))
    return frozenset(found)


def line_metric(positions):
    """Symmetric metric on the line; costs and times are distances."""
    m = len(positions)
    mat = tuple(tuple(float(abs(positions[a] - positions[b])) for b in range(m))
                for a in range(m))
    return TravelMetric(cost_matrix=mat, time_matrix=mat)


def line_instance(name, positions, specs, fleet_size, capacity,
                  depot_window=(0.0, 1000.0)):
    """Instance over line positions [depot, p_1..p_n, d_1..d_n].

    Each spec dict gives pickup/dropoff windows and max_ride, optionally
    q, s and direction.  Directions default to inbound so the instance
    is ready for graph building without tightening.
    """
    metric = line_metric(positions)
    reqs = []
    for i, sp in enumerate(specs, start=1):
        reqs.append(Request(
            id=i, q=sp.get("q", 1), s=float(sp.get("s", 0.0)),
            pickup_window=tuple(float(v) for v in sp["pickup"]),
            dropoff_window=tuple(float(v) for v in sp["dropoff"]),
            max_ride=float(sp["max_ride"]),
            direction=sp.get("direction", INBOUND)))
    return Instance(name=name, requests=tuple(reqs), fleet_size=fleet_size,
                    capacity=capacity, depot_window=depot_window,
                    metric=metric)


def ring_instance(n, capacity, loads=None, name=None):
    """Unit-circle instance with permissive windows, for counting tests."""
    import math

    coords = {0: (0.0, 0.0)}
    for i in range(1, n + 1):
        ang = 2.0 * math.pi * i / (2 * n + 1)
        coords[i] = (math.cos(ang), math.sin(ang))
        ang = 2.0 * math.pi * (n + i) / (2 * n + 1)
        coords[n + i] = (math.cos(ang), math.sin(ang))
    metric = TravelMetric(coords=coords)
    reqs = []
    for i in range(1, n + 1):
        q = 1 if loads is None else loads[i]
        reqs.append(Request(
            id=i, q=q, s=1.0,
            pickup_window=(0.0, 400.0), dropoff_window=(0.0, 400.0),
            max_ride=50.0, direction=INBOUND))
    return Instance(
        name=name or f"ring-n{n}-q{capacity}", requests=tuple(reqs),
        fleet_size=max(1, n // 2), capacity=capacity,
        depot_window=(0.0, 1000.0), metric=metric)


@functools.cache
def criterion3_instances() -> tuple:
    """The 50 feasible generated instances of the acceptance suite.

    Slots are five rounds of n = 2..6 at capacities 3 and 6; each slot
    takes the first of 50 seeds whose cost optimum exists.  Screened once
    per session and shared by every module that reads them.
    """
    slots = [(n, q) for _ in range(5) for n in (2, 3, 4, 5, 6) for q in (3, 6)]
    out = []
    for slot, (n, q) in enumerate(slots):
        for trial in range(50):
            cand = generate_synthetic(
                GeneratorConfig(n=n, capacity=q, seed=1000 * slot + trial))
            try:
                oracle_solve(cand, ObjectiveSpec(variant="cost"))
            except InfeasibleError:
                continue
            out.append(cand)
            break
        else:
            raise AssertionError(f"no feasible instance for n={n}, q={q}")
    return tuple(out)


def outbound_evens(inst):
    """``inst`` with every even request outbound: its dropoff window
    narrowed to 15 from its start, its pickup window derived from it."""
    reqs = [replace(r, direction=OUTBOUND,
                    dropoff_window=(r.dropoff_window[0], r.dropoff_window[0] + 15.0))
            if r.id % 2 == 0 else r for r in inst.requests]
    return tighten_time_windows(replace(inst, requests=tuple(reqs)))


def capture_milp(monkeypatch, warn=()):
    """Wrap ``scipy.optimize.milp``: record each call's options and raise
    the given warnings before solving."""
    from scipy import optimize
    calls = []
    milp = optimize.milp

    def wrapped(*args, **kwargs):
        calls.append(kwargs["options"])
        for message, category in warn:
            warnings.warn(message, category)
        return milp(*args, **kwargs)

    monkeypatch.setattr(optimize, "milp", wrapped)
    return calls
