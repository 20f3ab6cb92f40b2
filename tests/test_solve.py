import hashlib
import itertools
import json
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from darpkit import (
    DataError, GeneratorConfig, InfeasibleError, ObjectiveSpec, Schedule, Solution,
    SolutionError, build_event_graph, build_model, generate_synthetic,
    import_solution,
    max_acceptance, minimal_schedule, oracle_solve, solution_from_json,
    solution_to_json, validate_solution,
)
from darpkit.event_graph import DROPOFF, PICKUP
from darpkit.instance import DEPOT_LOCATION
from darpkit import solve as solve_module
from darpkit.schedule import _Prefix, _schedule, _tour_cost, _tour_times
from darpkit.solve import _stop_orders

from helpers import criterion3_instances, line_instance, lp_schedule, lp_tours

P, D = PICKUP, DROPOFF


# ---------------------------------------------------------------------------
# minimal schedules
# ---------------------------------------------------------------------------

def test_minimal_schedule_delays_first_pickup(stacked_instance):
    sched = minimal_schedule([(1, P), (2, P), (2, D), (1, D)], stacked_instance)
    assert sched is not None
    # earliest window times (20, 30, 40, 50) would let request 1 ride 30 > 25
    assert sched.times[0] == pytest.approx((25.0, 30.0, 40.0, 50.0))
    assert sched.excess == {1: 0.0, 2: 0.0}
    assert sched.makespans[0] == pytest.approx(57.0)  # depart 20, return 77


def test_makespans_run_from_departure_to_return():
    # the oracle plans of the criterion-3 instances, their makespans read
    # off the stop times and the metric alone
    for inst in criterion3_instances():
        sol = oracle_solve(inst, ObjectiveSpec(variant="cost"))
        for k, (tour, ts) in enumerate(zip(sol.tours, sol.times)):
            (first, first_kind), (last, last_kind) = tour[0], tour[-1]
            first_loc = first if first_kind == P else inst.n + first
            last_loc = last if last_kind == P else inst.n + last
            depart = ts[0] - inst.metric.time(DEPOT_LOCATION, first_loc)
            ret = ts[-1] + inst.request(last).s + inst.metric.time(last_loc, DEPOT_LOCATION)
            assert sol.schedule.makespans[k] == ret - depart, (inst.name, k)


def test_minimal_schedule_matches_grid():
    # all data on the 0.01 grid, so the exact minimum lies on grid points
    inst = line_instance(
        "grid", positions=(0.0, 2.0, 17.0),
        specs=[{"pickup": (10, 12), "dropoff": (20, 33), "max_ride": 25, "s": 1}],
        fleet_size=1, capacity=1, depot_window=(0.0, 100.0))
    tour = [(1, P), (1, D)]

    def grid_min(inst, step=0.01):
        req = inst.request(1)
        e0, l0 = inst.depot_window
        lo1 = max(req.pickup_window[0], e0 + inst.metric.time(0, 1))
        hi1 = req.pickup_window[1]
        lo2 = req.dropoff_window[0]
        hi2 = min(req.dropoff_window[1],
                  l0 - req.s - inst.metric.time(2, 0))
        b1 = lo1 + step * np.arange(int(round((hi1 - lo1) / step)) + 1)
        b2 = lo2 + step * np.arange(int(round((hi2 - lo2) / step)) + 1)
        diff = b2[None, :] - b1[:, None]
        feas = (diff >= req.s + inst.metric.time(1, 2) - 1e-9) \
            & (diff <= req.max_ride + req.s + 1e-9)
        if not feas.any():
            return None
        m1 = b1[feas.any(axis=1)].min()
        m2 = b2[feas.any(axis=0)].min()
        # the feasible set is closed under componentwise minima
        assert feas[np.searchsorted(b1, m1), np.searchsorted(b2, m2)]
        return m1, m2

    sched = minimal_schedule(tour, inst)
    assert sched.times[0] == pytest.approx(grid_min(inst), abs=1e-9)
    assert sched.times[0] == pytest.approx((10.0, 26.0))

    # a late dropoff window plus a tight ride limit forces the pickup to wait
    tight = replace(inst, requests=(replace(
        inst.request(1), dropoff_window=(30.0, 33.0), max_ride=17.0),))
    sched = minimal_schedule(tour, tight)
    assert sched.times[0] == pytest.approx(grid_min(tight), abs=1e-9)
    assert sched.times[0] == pytest.approx((12.0, 30.0))


def test_minimal_schedule_matches_lp(gen_instances):
    checked = 0
    for inst in gen_instances:
        sol = oracle_solve(inst, ObjectiveSpec(variant="cost"))
        for tour in sol.tours:
            sched = minimal_schedule(tour, inst)
            lp = lp_schedule(tour, inst)
            assert sched is not None and lp is not None
            assert np.allclose(sched.times[0], lp, atol=1e-6)
            checked += 1
    assert checked >= len(gen_instances)


def test_minimal_schedule_none_agreement(gen_instances):
    # fixpoint and LP agree on feasibility for arbitrary two-request tours
    inst = gen_instances[3]
    checked = 0
    for i, j in itertools.permutations(range(1, inst.n + 1), 2):
        for tour in [
            [(i, P), (i, D), (j, P), (j, D)],
            [(i, P), (j, P), (i, D), (j, D)],
            [(i, P), (j, P), (j, D), (i, D)],
        ]:
            sched = minimal_schedule(tour, inst)
            lp = lp_schedule(tour, inst)
            assert (sched is None) == (lp is None)
            if sched is not None:
                assert np.allclose(sched.times[0], lp, atol=1e-6)
            checked += 1
    assert checked == inst.n * (inst.n - 1) * 3


def test_minimal_schedule_infeasible_window_chain():
    inst = line_instance(
        "far", positions=(0.0, 1.0, 11.0),
        specs=[{"pickup": (0, 5), "dropoff": (100, 110), "max_ride": 20, "s": 0}],
        fleet_size=1, capacity=1, depot_window=(0.0, 200.0))
    assert minimal_schedule([(1, P), (1, D)], inst) is None


def test_minimal_schedule_detects_positive_cycle():
    # ride limit below the direct travel time keeps raising both bounds
    inst = line_instance(
        "cycle", positions=(0.0, 1.0, 11.0),
        specs=[{"pickup": (0, 100), "dropoff": (0, 100), "max_ride": 5, "s": 0}],
        fleet_size=1, capacity=1, depot_window=(0.0, 200.0))
    assert minimal_schedule([(1, P), (1, D)], inst) is None


def test_dropoff_ride_limit_raises_its_pickup_and_the_chain():
    # positions: depot 0, pickups 1 and 2, dropoffs 3 and 4, no service
    inst = line_instance(
        "raise", positions=(0.0, 1.0, 2.0, 3.0, 4.0),
        specs=[{"pickup": (0, 100), "dropoff": (20, 100), "max_ride": 5},
               {"pickup": (0, 100), "dropoff": (0, 100), "max_ride": 10}],
        fleet_size=1, capacity=2, depot_window=(0.0, 200.0))
    prefix = _Prefix(inst)
    assert prefix.push((1, P)) and prefix.push((2, P))
    assert prefix.times == [1.0, 2.0]
    # dropoff 1 waits for its window, 20; its ride limit then holds
    # pickup 1 back to 15, and pickup 2 follows one unit later
    assert prefix.push((1, D))
    assert prefix.times == [15.0, 16.0, 20.0]
    assert prefix.push((2, D)) and prefix.returns_in_time()
    assert prefix.times == [15.0, 16.0, 20.0, 21.0]
    prefix.pop()
    prefix.pop()
    assert prefix.stops == [(1, P), (2, P)] and prefix.times == [1.0, 2.0]
    tour = [(1, P), (2, P), (1, D), (2, D)]
    assert _tour_times(tour, inst) == [15.0, 16.0, 20.0, 21.0]
    assert minimal_schedule(tour, inst).times == ((15.0, 16.0, 20.0, 21.0),)
    assert np.allclose(lp_schedule(tour, inst), [15.0, 16.0, 20.0, 21.0])


def test_tour_without_a_return_before_the_depot_closes_has_no_times():
    # pickup at 1 and dropoff at 2 start on time at 1 and 2, but the
    # vehicle is back at the depot at 4, after it closes at 3
    inst = line_instance(
        "late-return", positions=(0.0, 1.0, 2.0),
        specs=[{"pickup": (0, 100), "dropoff": (0, 100), "max_ride": 10}],
        fleet_size=1, capacity=1, depot_window=(0.0, 3.0))
    prefix = _Prefix(inst)
    assert prefix.push((1, P)) and prefix.push((1, D))
    assert prefix.times == [1.0, 2.0] and not prefix.returns_in_time()
    assert _tour_times([(1, P), (1, D)], inst) is None


def test_positive_cycle_through_a_nested_ride_is_infeasible():
    # positions: depot 0, pickups 1 and 2, dropoffs 2.5 and 3, no service.
    # Each request alone fits its ride limit of 2, but riding across the
    # other's stops takes 2.5 or 3: a positive cycle in the bounds, which
    # no window can repair
    inst = line_instance(
        "nested", positions=(0.0, 1.0, 2.0, 2.5, 3.0),
        specs=[{"pickup": (0, 100), "dropoff": (0, 100), "max_ride": 2},
               {"pickup": (0, 100), "dropoff": (0, 100), "max_ride": 2}],
        fleet_size=1, capacity=2, depot_window=(0.0, 200.0))
    tour = [(1, P), (2, P), (2, D), (1, D)]
    assert _tour_times(tour, inst) is None
    assert minimal_schedule(tour, inst) is None
    assert lp_schedule(tour, inst) is None
    prefix = _Prefix(inst)
    assert all(prefix.push(stop) for stop in tour[:3])
    assert prefix.times == [1.0, 2.0, 3.0]
    assert not prefix.push(tour[3])
    assert prefix.stops == tour[:3] and prefix.times == [1.0, 2.0, 3.0]
    # the three orders without a nested ride, in the search's step order
    assert [rec[:2] for rec in _stop_orders(inst)[frozenset({1, 2})]] == [
        (((1, P), (2, P), (1, D), (2, D)), (1.0, 2.0, 2.5, 3.0)),
        (((1, P), (1, D), (2, P), (2, D)), (1.0, 2.5, 3.0, 4.0)),
        (((2, P), (2, D), (1, P), (1, D)), (2.0, 3.0, 5.0, 6.5)),
    ]


def test_prefix_walk_matches_a_fresh_prefix_after_every_step():
    # a seeded walk of pushes, refused pushes and pops: after each step
    # the prefix holds the stops and times a fresh prefix fed the same
    # stops builds, a refused push leaves it as it was, and a pop leaves
    # the times from before the push
    steps = raising = refused = 0
    for q, n, seed in itertools.product((3, 6), (4, 5, 6), range(6)):
        inst = generate_synthetic(GeneratorConfig(n=n, capacity=q, seed=seed,
                                                  area_side=3.0))
        rng = random.Random(seed)
        prefix = _Prefix(inst)
        history = []
        for _ in range(200):
            stops, times = list(prefix.stops), list(prefix.times)
            onboard = {i for i, kind in stops if kind == P}
            onboard -= {i for i, kind in stops if kind == D}
            candidates = [(i, P) for i in range(1, n + 1) if (i, P) not in stops]
            candidates += [(i, D) for i in sorted(onboard)]
            if stops and (not candidates or rng.random() < 0.3):
                prefix.pop()
                assert prefix.times == history.pop()
            elif prefix.push(rng.choice(candidates)):
                history.append(times)
                raising += prefix.times[:-1] != times
            else:
                refused += 1
                assert prefix.stops == stops and prefix.times == times
            fresh = _Prefix(inst)
            assert all(map(fresh.push, prefix.stops))
            assert fresh.stops == prefix.stops and fresh.times == prefix.times
            steps += 1
    assert steps == 7200 and raising and refused


def test_oracle_runs_the_stop_order_search_once_per_instance(monkeypatch):
    runs = []
    search = solve_module._search_stop_orders
    monkeypatch.setattr(solve_module, "_search_stop_orders",
                        lambda inst: runs.append(inst) or search(inst))
    inst = generate_synthetic(GeneratorConfig(n=4, capacity=3, seed=7))
    totals = [oracle_solve(inst, ObjectiveSpec(variant=name)).objective.total
              for name in ("cost", "excess", "max_excess", "cost_excess",
                           "cost_max_excess")]
    assert max_acceptance(inst) == 4
    assert len(runs) == 1
    # each call hands out its own outer dict, so a caller may pop from it
    first, second = _stop_orders(inst), _stop_orders(inst)
    assert first == second and first is not second
    first.clear()
    assert _stop_orders(inst) == second and len(runs) == 1
    # an equal instance object searches again, with the same results
    again = generate_synthetic(GeneratorConfig(n=4, capacity=3, seed=7))
    assert [oracle_solve(again, ObjectiveSpec(variant=name)).objective.total
            for name in ("cost", "excess", "max_excess", "cost_excess",
                         "cost_max_excess")] == totals
    assert len(runs) == 2


def test_stop_orders_are_the_lp_feasible_orders(gen_instances, pooling_instance,
                                               stacked_instance):
    # the one search records for every block exactly the stop orders an
    # LP over the same bounds finds feasible, each once, with its times
    insts = [pooling_instance, stacked_instance, *gen_instances,
             *(inst for inst in criterion3_instances() if inst.n <= 4)]
    checked = 0
    for inst in insts:
        orders = _stop_orders(inst)
        for k in range(1, inst.n + 1):
            for block in itertools.combinations(range(1, inst.n + 1), k):
                expected = dict(lp_tours(block, inst))
                listed = orders.pop(frozenset(block), [])
                found = dict(rec[:2] for rec in listed)
                for tour, times, cost, excess in listed:
                    assert cost == _tour_cost(tour, inst)
                    assert excess == tuple(
                        _schedule((tour,), (times,), inst).excess.values())
                assert len(found) == len(listed), (inst.name, block)
                assert found.keys() == expected.keys(), (inst.name, block)
                for tour, times in found.items():
                    assert np.allclose(times, expected[tour], atol=1e-6)
                checked += len(found)
        assert not orders, inst.name
    assert checked >= 281


@pytest.mark.parametrize("tour", [
    [(1, D), (1, P)],
    [(1, P), (1, P), (1, D), (1, D)],
    [(1, P)],
    [(1, P), (2, P), (1, D), (2, D)],   # capacity 1
])
def test_minimal_schedule_rejects_bad_structure(tour):
    inst = line_instance(
        "bad", positions=(0.0, 1.0, 2.0, 11.0, 12.0),
        specs=[
            {"pickup": (0, 50), "dropoff": (0, 50), "max_ride": 20},
            {"pickup": (0, 50), "dropoff": (0, 50), "max_ride": 20},
        ],
        fleet_size=1, capacity=1, depot_window=(0.0, 100.0))
    with pytest.raises(DataError):
        minimal_schedule(tour, inst)


@pytest.mark.parametrize("tour", [
    [(1, D), (1, P)],
    [(1, P), (1, P), (1, D), (1, D)],
    [(1, P), (1, D), (1, D)],
    [(1, P)],
    [(1, P), (2, P), (1, D), (2, D)],
    [(0, P), (0, D)],
    [(1, P), (1, "banana")],
], ids=["order", "twice", "dropped twice", "dangling", "capacity",
        "unknown request", "unknown kind"])
def test_minimal_schedule_refuses_the_validators_first_fault(tour):
    # one statement of the stop rules: minimal_schedule raises with the
    # detail of the first fault the validator reports for the tour
    inst = line_instance(
        "bad", positions=(0.0, 1.0, 2.0, 11.0, 12.0),
        specs=[
            {"pickup": (0, 50), "dropoff": (0, 50), "max_ride": 20},
            {"pickup": (0, 50), "dropoff": (0, 50), "max_ride": 20},
        ],
        fleet_size=1, capacity=1, depot_window=(0.0, 100.0))
    sol = Solution(tours=(tuple(tour),),
                   schedule=Schedule(times=((),), excess={}, makespans=()),
                   accepted=frozenset({1, 2}), objective=None)
    first = next(v for v in validate_solution(inst, sol).violations
                 if v.tour == 0)
    with pytest.raises(DataError) as exc:
        minimal_schedule(tour, inst)
    assert str(exc.value) == first.detail


def test_integral_float_request_ids_read_as_their_integers():
    # a plan built in Python may say 1.0 for request 1: every stop's data
    # comes from the stop table, which finds the request for either, so
    # both plans get one report and one schedule
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    sol = oracle_solve(inst)
    first = sol.tours[0]
    for tours in (sol.tours, tuple(t[::-1] for t in sol.tours), (first, first),
                  (first,)):
        floats = tuple(tuple((float(rid), kind) for rid, kind in tour)
                       for tour in tours)
        report = validate_solution(inst, replace(sol, tours=floats))
        assert report == validate_solution(inst, replace(sol, tours=tours))
        assert report.ok == (tours is sol.tours)
    for tour in sol.tours:
        floats = [(float(rid), kind) for rid, kind in tour]
        assert minimal_schedule(floats, inst) == minimal_schedule(tour, inst)
    # a non-integral id names no request
    half = ((1.5, P), (1.5, D))
    report = validate_solution(inst, replace(sol, tours=(*sol.tours, half)))
    assert any(v.kind == "coverage" and v.detail == "stop names unknown request 1.5"
               for v in report.violations)
    with pytest.raises(DataError, match="unknown request 1.5"):
        minimal_schedule(half, inst)
    # a timed tour of a non-numeric id is reported too, its id listed after
    # the numbers
    text = (("x", P), ("x", D))
    report = validate_solution(inst, replace(
        sol, tours=(*sol.tours, text),
        schedule=replace(sol.schedule, times=(*sol.times, (20.0, 30.0)))))
    t = len(sol.tours)    # the fleet has no vehicle for the extra tour
    assert [(v.kind, v.tour, v.stop) for v in report.violations] == [
        ("fleet", None, None), ("coverage", None, None), ("coverage", t, 0),
        ("coverage", t, 1)]
    assert report.violations[1].detail == (
        "tours serve [1, 2, 3, 'x'], accepted claims [1, 2, 3]")


def test_a_stop_whose_id_cannot_be_hashed_is_an_unknown_stop():
    # ([1], "pickup") names no request, as Instance.location says; the
    # validator reports it and minimal_schedule refuses it, neither raises
    # TypeError
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    sol = oracle_solve(inst)
    with pytest.raises(DataError, match=r"unknown request"):
        inst.location([1], P)
    for t, tour in enumerate(sol.tours):
        for k in range(len(tour)):
            bad = (*tour[:k], ([1], P), *tour[k + 1:])
            tours = (*sol.tours[:t], bad, *sol.tours[t + 1:])
            report = validate_solution(inst, replace(sol, tours=tours))
            assert not report.ok
            assert ("coverage", t, k) in [(v.kind, v.tour, v.stop)
                                          for v in report.violations]
            with pytest.raises(DataError, match=r"unknown request \[1\]"):
                minimal_schedule(bad, inst)
    # an unhashable kind is an unknown kind
    tour = sol.tours[0]
    bad = ((tour[0][0], [P]), *tour[1:])
    report = validate_solution(inst, replace(sol, tours=(bad, *sol.tours[1:])))
    assert ("pairing", 0, 0) in [(v.kind, v.tour, v.stop) for v in report.violations]
    with pytest.raises(DataError, match="unknown kind"):
        minimal_schedule(bad, inst)


# ---------------------------------------------------------------------------
# exact oracle vs an independent brute force
# ---------------------------------------------------------------------------

def brute_reference(inst, objective):
    """Best total over labeled vehicle assignments, orders via LP schedules.

    Every subset of requests is tried under ``request_cost_excess``, the
    objective that prices denial; every request is served under the rest.
    """
    obj = objective.resolve(inst.n)
    ids = [r.id for r in inst.requests]
    cache = {}

    def tours_for(block):
        key = frozenset(block)
        if key not in cache:
            cache[key] = lp_tours(block, inst)
        return cache[key]

    def walk_cost(perm):
        cost = 0.0
        prev = DEPOT_LOCATION
        for rid, kind in perm:
            loc = inst.location(rid, kind)
            cost += inst.metric.cost(prev, loc)
            prev = loc
        return cost + inst.metric.cost(prev, DEPOT_LOCATION)

    best = None
    if obj.variant == "request_cost_excess":
        subsets = []
        for k in range(len(ids) + 1):
            subsets.extend(itertools.combinations(ids, k))
    else:
        subsets = [tuple(ids)]
    for accepted in subsets:
        denied = len(ids) - len(accepted)
        for assign in itertools.product(range(inst.fleet_size),
                                        repeat=len(accepted)):
            blocks = {}
            for rid, veh in zip(accepted, assign):
                blocks.setdefault(veh, []).append(rid)
            options = [tours_for(tuple(b)) for b in blocks.values()]
            if any(not opt for opt in options):
                continue
            for chosen in itertools.product(*options):
                cost = sum(walk_cost(perm) for perm, _ in chosen)
                exc = []
                for perm, times in chosen:
                    for (rid, kind), t in zip(perm, times):
                        if kind == D:
                            e = inst.request(rid).dropoff_window[0]
                            exc.append(max(0.0, t - e))
                f_e = sum(exc)
                f_emax = max(exc, default=0.0)
                if obj.variant == "cost":
                    total = cost
                elif obj.variant == "excess":
                    total = f_e
                elif obj.variant == "max_excess":
                    total = f_emax
                elif obj.variant == "cost_excess":
                    total = cost + obj.alpha * f_e
                elif obj.variant == "cost_max_excess":
                    total = cost + obj.beta * f_emax
                else:
                    total = cost + obj.alpha * f_e + obj.gamma * denied
                if best is None or total < best:
                    best = total
    return best


FULL_SERVICE_OBJECTIVES = ["cost", "excess", "max_excess", "cost_excess",
                           "cost_max_excess"]


@pytest.mark.parametrize("variant", FULL_SERVICE_OBJECTIVES)
def test_oracle_matches_brute_force(gen_instances, pooling_instance,
                                    stacked_instance, variant):
    obj = ObjectiveSpec(variant=variant)
    for inst in (gen_instances[0], gen_instances[1], pooling_instance,
                 stacked_instance):
        sol = oracle_solve(inst, obj)
        expected = brute_reference(inst, obj)
        assert sol.objective.total == pytest.approx(expected, abs=1e-6), inst.name
        assert validate_solution(inst, sol).ok


@pytest.mark.parametrize("gamma", [0.01, 1000.0])
def test_oracle_denial_matches_brute_force(gen_instances, gamma):
    inst = gen_instances[0]
    obj = ObjectiveSpec(variant="request_cost_excess", gamma=gamma)
    sol = oracle_solve(inst, obj)
    expected = brute_reference(inst, obj)
    assert sol.objective.total == pytest.approx(expected, abs=1e-6)


def test_oracle_is_deterministic(gen_instances):
    inst = gen_instances[1]
    a = oracle_solve(inst, ObjectiveSpec(variant="cost"))
    b = oracle_solve(inst, ObjectiveSpec(variant="cost"))
    assert a.tours == b.tours
    assert a.times == b.times
    assert a.objective == b.objective


def _conflicting_instance():
    # both pickups close at 12, but they are 50 minutes apart
    return line_instance(
        "conflict", positions=(0.0, 1.0, 51.0, 2.0, 52.0),
        specs=[
            {"pickup": (10, 12), "dropoff": (0, 200), "max_ride": 10},
            {"pickup": (10, 12), "dropoff": (0, 200), "max_ride": 10},
        ],
        fleet_size=1, capacity=2, depot_window=(0.0, 400.0))


# sha-256 of the oracle's plan under all six objectives, and of
# max_acceptance, for each criterion-3 instance: a rewrite of the
# enumeration must choose every plan as before.  Times and objective
# components enter with nine decimals, so that the digest does not hang
# on the last bit of math.hypot, which may differ between Python versions
ORACLE_DIGEST = "b022009fd65564dbd00ff2cb4a505eed23311a43d7272f02990ebd2be594fa94"
SIX_OBJECTIVES = (*FULL_SERVICE_OBJECTIVES, "request_cost_excess")


def test_oracle_plans_stay_identical():
    digest = hashlib.sha256()
    for inst in criterion3_instances():
        for name in SIX_OBJECTIVES:
            sol = oracle_solve(inst, ObjectiveSpec(variant=name))
            value = sol.objective
            plan = (sol.tours, [[f"{t:.9f}" for t in ts] for ts in sol.times],
                    sorted(sol.accepted), value.denied,
                    [f"{v:.9f}" for v in (value.total, value.cost, value.excess,
                                          value.max_excess)])
            digest.update(repr(plan).encode() + b"\0")
        digest.update(repr(max_acceptance(inst)).encode() + b"\0")
    assert digest.hexdigest() == ORACLE_DIGEST


def test_oracle_infeasible():
    inst = _conflicting_instance()
    with pytest.raises(InfeasibleError):
        oracle_solve(inst, ObjectiveSpec(variant="cost"))


def test_max_acceptance():
    inst = _conflicting_instance()
    assert max_acceptance(inst) == 1
    sol = oracle_solve(inst, ObjectiveSpec(variant="request_cost_excess",
                                           gamma=1e6))
    assert len(sol.accepted) == 1
    assert sol.objective.denied == 1


def test_max_acceptance_stops_at_the_first_plan_that_serves_everyone(monkeypatch):
    # no plan can accept more than all n, so none is drawn after that
    plans, drawn = solve_module._plans, []

    def counted(*args):
        for plan in plans(*args):
            drawn.append(len(plan[0]))
            yield plan

    monkeypatch.setattr(solve_module, "_plans", counted)
    for inst in criterion3_instances():
        drawn.clear()
        assert max_acceptance(inst) == inst.n
        assert drawn.index(inst.n) == len(drawn) - 1


def test_max_acceptance_is_zero_when_no_request_can_be_served():
    # the only pickup lies 50 from the depot and closes at 10
    inst = line_instance(
        "unreachable", positions=(0.0, 50.0, 51.0),
        specs=[{"pickup": (0, 10), "dropoff": (0, 200), "max_ride": 10}],
        fleet_size=1, capacity=1, depot_window=(0.0, 300.0))
    assert max_acceptance(inst) == 0
    sol = oracle_solve(inst, ObjectiveSpec(variant="request_cost_excess"))
    assert sol.tours == () and sol.accepted == frozenset()
    assert sol.objective.denied == 1


def test_oracle_denies_only_when_the_objective_prices_it():
    # one of the two conflicting requests must go: only rce may drop it
    inst = _conflicting_instance()
    with pytest.raises(InfeasibleError):
        oracle_solve(inst, ObjectiveSpec(variant="cost_excess"))
    sol = oracle_solve(inst, ObjectiveSpec(variant="request_cost_excess"))
    assert sol.objective.denied == 1
    assert validate_solution(inst, sol).kinds() == {"coverage"}
    assert validate_solution(
        inst, sol, objective=ObjectiveSpec(variant="request_cost_excess")).ok


def test_oracle_limit_guard(gen_instances):
    with pytest.raises(DataError, match="limited"):
        oracle_solve(gen_instances[0], limit=1)
    with pytest.raises(DataError, match="limited"):
        max_acceptance(gen_instances[0], limit=1)


# ---------------------------------------------------------------------------
# decoding solver assignments
# ---------------------------------------------------------------------------

TOUR_A = ["(0,0,0)", "(1+,0,0)", "(2+,1,0)", "(1-,2,0)", "(2-,0,0)", "(0,0,0)"]
TOUR_B = ["(0,0,0)", "(3+,0,0)", "(3-,0,0)", "(0,0,0)"]
TIMES_A = (10.0, 20.0, 30.0, 40.0)
TIMES_B = (5.0, 10.0)


def _maps(graph):
    cap = graph.inst.capacity
    node_of = {node.label(cap): v for v, node in enumerate(graph.nodes)}
    arc_of = {}
    for a, (v, w) in enumerate(zip(graph.arcs.tail, graph.arcs.head)):
        arc_of[(graph.nodes[v].label(cap), graph.nodes[w].label(cap))] = a
    return node_of, arc_of


def _assignment(model, walks_with_times, p_on=None):
    graph = model.graph
    node_of, arc_of = _maps(graph)
    values = {var.name: 0.0 for var in model.vars}
    for walk, times in walks_with_times:
        for tail, head in zip(walk, walk[1:]):
            values[f"x_{arc_of[(tail, head)]}"] = 1.0
        for label, t in zip(walk[1:-1], times):
            values[f"B_{node_of[label]}"] = t
    for rid in (p_on or []):
        values[f"p_{rid}"] = 1.0
    return values


@pytest.fixture(scope="module")
def pooling_model(pooling_instance):
    graph = build_event_graph(pooling_instance)
    return build_model(graph, "model2", ObjectiveSpec(variant="cost"))


def test_import_solution_round_trip(pooling_instance, pooling_model):
    values = _assignment(pooling_model, [(TOUR_A, TIMES_A), (TOUR_B, TIMES_B)])
    sol = import_solution(pooling_model, values)
    assert sol.tours == (((1, P), (2, P), (1, D), (2, D)), ((3, P), (3, D)))
    # re-timed to the minimal schedules, not the assignment's B values
    root2 = math.sqrt(2)
    assert sol.times[0] == pytest.approx((1.0, 2 + root2, 4 + root2, 5 + 2 * root2))
    assert sol.times[1] == pytest.approx((2.0, 4.0))
    assert sol.times == tuple(minimal_schedule(tour, pooling_instance).times[0]
                              for tour in sol.tours)
    assert sol.accepted == frozenset({1, 2, 3})
    assert validate_solution(pooling_instance, sol).ok
    # objective recomputed from the decoded tours
    # tour A: depot-(1,0)-(0,1)-(1,1)-(0,2)-depot; tour B: depot-(2,0)-(2,1)-depot
    expected_cost = (1 + math.sqrt(2) + 1 + math.sqrt(2) + 2) \
        + (2 + 1 + math.sqrt(5))
    assert sol.objective.cost == pytest.approx(expected_cost)
    assert sol.objective.total == pytest.approx(expected_cost)
    # the assignment's times are at or above the re-timed ones
    assert sol.raw_time_gap == 0.0
    # a time below its re-timed value can only be solver tolerance, and
    # the largest such shortfall is reported (tour B starts at 2)
    early = _assignment(pooling_model, [(TOUR_A, (1.0 - 2e-7, *TIMES_A[1:])),
                                        (TOUR_B, (2.0 - 5e-7, 4.0))])
    assert import_solution(pooling_model, early).raw_time_gap == \
        pytest.approx(5e-7, abs=1e-12)
    binaries = {name: v for name, v in values.items() if not name.startswith("B_")}
    again = import_solution(pooling_model, binaries)
    assert again == sol and again.raw_time_gap is None


def test_import_missing_variable(pooling_model):
    values = _assignment(pooling_model, [(TOUR_A, TIMES_A), (TOUR_B, TIMES_B)])
    del values["x_0"]
    with pytest.raises(SolutionError, match="misses"):
        import_solution(pooling_model, values)


def test_import_fractional_binary(pooling_model):
    values = _assignment(pooling_model, [(TOUR_A, TIMES_A), (TOUR_B, TIMES_B)])
    values["x_0"] = 0.4
    with pytest.raises(SolutionError, match="fractional"):
        import_solution(pooling_model, values)


def test_import_binary_out_of_range(pooling_model):
    values = _assignment(pooling_model, [(TOUR_A, TIMES_A), (TOUR_B, TIMES_B)])
    values["x_0"] = 2.0
    with pytest.raises(SolutionError, match="x_0 is out of range: 2.0"):
        import_solution(pooling_model, values)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_import_non_finite_binary(pooling_model, value):
    values = _assignment(pooling_model, [(TOUR_A, TIMES_A), (TOUR_B, TIMES_B)])
    values["x_0"] = value
    with pytest.raises(SolutionError, match="x_0 has non-finite value"):
        import_solution(pooling_model, values)


@pytest.mark.parametrize("objective, name, value", [
    ("cost", "x_0", "abc"), ("cost", "x_0", None), ("cost", "x_0", True),
    ("excess", "d_1", "abc"), ("excess", "d_1", math.nan),
    ("cost", "(1+,0,0)", math.nan), ("cost", "(1+,0,0)", -math.inf),
], ids=["binary-text", "binary-none", "binary-bool", "objective-text",
        "objective-nan", "time-nan", "time-minus-inf"])
def test_import_refuses_values_that_are_not_finite_numbers(
        pooling_instance, objective, name, value):
    # a binary, an objective column or a decoded state's time (B_ of the
    # state labelled ``name``) that is not a finite real number is refused
    # by name, not turned into a crash, a NaN total or a NaN time gap
    model = build_model(build_event_graph(pooling_instance), "model2",
                        ObjectiveSpec(variant=objective))
    values = _assignment(model, [(TOUR_A, TIMES_A), (TOUR_B, TIMES_B)])
    if name.startswith("("):
        name = f"B_{_maps(model.graph)[0][name]}"
    values[name] = value
    with pytest.raises(SolutionError, match=rf"variable {name} has non-"):
        import_solution(model, values)


def test_import_dangling_walk(pooling_model):
    values = _assignment(pooling_model, [(TOUR_B[:2], TIMES_B[:1])])
    with pytest.raises(SolutionError, match="expected 1"):
        import_solution(pooling_model, values)


def test_import_isolated_cycle(pooling_model):
    cycle = ["(1-,0,0)", "(2+,0,0)", "(2-,0,0)", "(1+,0,0)", "(1-,0,0)"]
    values = _assignment(pooling_model, [(TOUR_B, TIMES_B)])
    node_of, arc_of = _maps(pooling_model.graph)
    for tail, head in zip(cycle, cycle[1:]):
        values[f"x_{arc_of[(tail, head)]}"] = 1.0
    with pytest.raises(SolutionError, match="anchored"):
        import_solution(pooling_model, values)


def test_import_walk_into_a_cycle(pooling_model):
    # from the depot into a cycle that never returns: the walk comes back
    # to (1+,0,0), whose one selected out-arc it has used, so it stops
    walk = ["(0,0,0)", "(1+,0,0)", "(1-,0,0)", "(2+,0,0)", "(2-,0,0)",
            "(1+,0,0)"]
    values = _assignment(pooling_model, [(walk, ())])
    with pytest.raises(SolutionError, match="expected 1"):
        import_solution(pooling_model, values)


def test_import_double_service(pooling_model):
    second = ["(0,0,0)", "(2+,0,0)", "(1+,2,0)", "(1-,2,0)", "(2-,0,0)", "(0,0,0)"]
    first = ["(0,0,0)", "(1+,0,0)", "(1-,0,0)", "(0,0,0)"]
    values = _assignment(pooling_model, [
        (first, (5.0, 10.0)),
        (second, (20.0, 30.0, 40.0, 50.0)),
    ])
    with pytest.raises(SolutionError, match="served 2 times"):
        import_solution(pooling_model, values)
    # one walk picks request 1 up twice: the served-once check keeps such
    # a tour from the schedule step, which times each dropoff's ride from
    # the one pickup of its request
    again = ["(0,0,0)", "(1+,0,0)", "(1-,0,0)", "(2+,0,0)", "(1+,2,0)",
             "(1-,2,0)", "(2-,0,0)", "(0,0,0)"]
    values = _assignment(pooling_model, [
        (again, (5.0, 10.0, 20.0, 30.0, 40.0, 50.0)),
        (TOUR_B, TIMES_B),
    ])
    with pytest.raises(SolutionError, match="request 1 is served 2 times"):
        import_solution(pooling_model, values)


def test_import_acceptance_disagreement(pooling_instance):
    graph = build_event_graph(pooling_instance)
    model = build_model(graph, "model2",
                        ObjectiveSpec(variant="request_cost_excess"))
    values = _assignment(model, [(TOUR_A, TIMES_A), (TOUR_B, TIMES_B)],
                         p_on=[1, 2])   # request 3 served but not accepted
    with pytest.raises(SolutionError, match="disagree"):
        import_solution(model, values)


def test_import_retimes_solver_tolerance(pooling_instance, pooling_model):
    # request 3 dropped off 1.5e-6 before service plus travel allow: the
    # solver's tolerance, beyond the validator's 1e-6
    values = _assignment(pooling_model, [(TOUR_A, TIMES_A),
                                         (TOUR_B, (5.0, 7.0 - 1.5e-6))])
    sol = import_solution(pooling_model, values)
    assert validate_solution(pooling_instance, sol).ok


def test_import_rejects_unschedulable_tour(pooling_instance):
    # request 1's pickup closes at 4.  The fragments 3+ 3- and 1+ 1- each
    # have a schedule alone (1+ at 1), and each arc of depot, 3+, 3-, 1+,
    # 1-, depot passes the arc rule (3-'s window opens at 0, plus service 1
    # plus travel sqrt 2 is below 4), so the tour survives pruning, but
    # chained 3- cannot start before 4, nor 1+ before 5 + sqrt 2
    r1, r2, r3 = pooling_instance.requests
    inst = replace(pooling_instance, requests=(
        replace(r1, pickup_window=(0.0, 4.0)), r2, r3))
    model = build_model(build_event_graph(inst), "model2",
                        ObjectiveSpec(variant="cost"))
    tour = ["(0,0,0)", "(3+,0,0)", "(3-,0,0)", "(1+,0,0)", "(1-,0,0)",
            "(0,0,0)"]
    values = _assignment(model, [(tour, (2.0, 4.0, 6.5, 8.0))])
    with pytest.raises(SolutionError, match="no feasible schedule"):
        import_solution(model, values)


def test_import_objective_mismatch_warns(pooling_instance):
    graph = build_event_graph(pooling_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="excess"))
    values = _assignment(model, [(TOUR_A, TIMES_A), (TOUR_B, TIMES_B)])
    values["d_1"] = 99.0
    with pytest.warns(UserWarning, match="deviates"):
        import_solution(model, values)
    # an assignment without the objective's variables decodes silently
    for rid in (1, 2, 3):
        del values[f"d_{rid}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = import_solution(model, values)
    # re-timed dropoffs at 4 + sqrt 2, 5 + 2 sqrt 2 and 4
    assert sol.objective.excess == pytest.approx(13.0 + 3.0 * math.sqrt(2))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _solution(tours, times):
    sched = Schedule(times=tuple(tuple(t) for t in times), excess={},
                     makespans=())
    served = frozenset(rid for tour in tours for rid, kind in tour
                       if kind == P)
    return Solution(tours=tuple(tuple(t) for t in tours), schedule=sched,
                    accepted=served, objective=None)


def _validate(inst, sol):
    """The single-kind checks below serve some requests only, on purpose."""
    return validate_solution(
        inst, sol, objective=ObjectiveSpec(variant="request_cost_excess"))


def test_validate_ok(pooling_instance):
    sol = _solution(
        [[(1, P), (2, P), (1, D), (2, D)], [(3, P), (3, D)]],
        [TIMES_A, TIMES_B])
    report = validate_solution(pooling_instance, sol)
    assert report.ok and report.kinds() == set()


def test_validate_capacity(pooling_instance):
    sol = _solution([[(3, P), (1, P), (3, D), (1, D)]],
                    [(5.0, 8.0, 20.0, 30.0)])
    report = _validate(pooling_instance, sol)
    assert report.kinds() == {"capacity"}
    assert report.violations[0].magnitude == pytest.approx(1.0)


def test_validate_pairing_dangling(pooling_instance):
    report = _validate(pooling_instance, _solution([[(3, P)]], [(5.0,)]))
    assert report.kinds() == {"pairing"}


def test_validate_pairing_across_tours(pooling_instance):
    sol = _solution([[(3, P), (3, D)], [(3, P), (3, D)]],
                    [(5.0, 10.0), (50.0, 55.0)])
    report = _validate(pooling_instance, sol)
    assert report.kinds() == {"pairing"}


def test_validate_precedence_order(pooling_instance):
    report = validate_solution(
        pooling_instance, _solution([[(3, D), (3, P)]], [(5.0, 10.0)]))
    assert "precedence" in report.kinds()


def test_validate_precedence_separation(pooling_instance):
    report = _validate(
        pooling_instance, _solution([[(3, P), (3, D)]], [(5.0, 6.0)]))
    assert report.kinds() == {"precedence"}
    assert report.violations[0].magnitude == pytest.approx(1.0)


def test_validate_window(pooling_instance):
    report = _validate(
        pooling_instance, _solution([[(3, P), (3, D)]], [(95.0, 101.0)]))
    assert report.kinds() == {"window"}


def test_validate_ride_time(pooling_instance):
    report = _validate(
        pooling_instance, _solution([[(3, P), (3, D)]], [(5.0, 40.0)]))
    assert report.kinds() == {"ride_time"}
    assert report.violations[0].magnitude == pytest.approx(4.0)


def test_validate_duration(pooling_instance):
    sol = _solution([[(3, P), (3, D)]], [(5.0, 12.0)])
    late_open = replace(pooling_instance, depot_window=(10.0, 200.0))
    report = _validate(late_open, sol)
    assert report.kinds() == {"duration"}
    early_close = replace(pooling_instance, depot_window=(0.0, 14.0))
    report = _validate(early_close, sol)
    assert report.kinds() == {"duration"}


def test_validate_fleet(pooling_instance):
    sol = _solution(
        [[(1, P), (1, D)], [(2, P), (2, D)], [(3, P), (3, D)]],
        [(10.0, 20.0), (10.0, 20.0), (5.0, 10.0)])
    report = validate_solution(pooling_instance, sol)
    assert report.kinds() == {"fleet"}


def test_validate_tolerance(pooling_instance):
    sol = _solution([[(3, P), (3, D)]], [(95.0, 100.0 + 5e-7)])
    assert _validate(pooling_instance, sol).ok
    sol = _solution([[(3, P), (3, D)]], [(95.0, 100.0 + 1e-4)])
    report = _validate(pooling_instance, sol)
    assert report.kinds() == {"window"}
    assert report.violations[0].magnitude == pytest.approx(1e-4)


def test_validate_length_mismatch(pooling_instance):
    sol = _solution([[(3, P), (3, D)]], [(5.0,)])
    report = validate_solution(pooling_instance, sol)
    assert "pairing" in report.kinds()


def test_validate_coverage_unknown_request(pooling_instance):
    # request 3 relabelled as 0
    sol = _solution([[(1, P), (2, P), (1, D), (2, D)], [(0, P), (0, D)]],
                    [TIMES_A, TIMES_B])
    report = _validate(pooling_instance, sol)
    assert report.kinds() == {"coverage"}
    assert [v.stop for v in report.violations] == [0, 1]


def test_validate_pairing_unknown_stop_kind():
    # an oracle plan whose dropoffs carry a kind that is no stop kind
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    sol = oracle_solve(inst)
    tours = tuple(tuple((rid, "banana" if kind == D else kind)
                        for rid, kind in tour) for tour in sol.tours)
    report = validate_solution(inst, replace(sol, tours=tours))
    assert report.kinds() == {"pairing"}
    assert [(v.tour, v.stop) for v in report.violations] == [
        (t, k) for t, tour in enumerate(tours)
        for k, (_, kind) in enumerate(tour) if kind == "banana"]


def test_validate_non_finite_numbers():
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    sol = oracle_solve(inst)
    nan_times = tuple(tuple(math.nan for _ in ts) for ts in sol.times)
    report = validate_solution(inst, replace(
        sol, schedule=replace(sol.schedule, times=nan_times), objective=None))
    assert report.kinds() == {"window"}
    assert [(v.tour, v.stop) for v in report.violations] == [
        (t, k) for t, tour in enumerate(sol.tours) for k in range(len(tour))]
    for name in ("cost", "excess", "max_excess"):
        claimed = replace(sol, objective=replace(sol.objective, **{name: math.nan}))
        assert validate_solution(inst, claimed).kinds() == {"objective"}


@pytest.mark.parametrize("rows", [slice(None, -1), slice(None, 0)],
                         ids=["last row", "every row"])
def test_validate_needs_one_schedule_row_per_tour(rows):
    # a tour without a row of times is not left unchecked
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    sol = oracle_solve(inst)
    assert validate_solution(inst, sol).ok
    short = replace(sol, schedule=replace(sol.schedule, times=sol.times[rows]))
    report = validate_solution(inst, short)
    assert [(v.kind, v.tour, v.stop) for v in report.violations] == [
        ("pairing", None, None)]
    assert report.violations[0].detail == (
        f"schedule has {len(short.times)} rows for {len(sol.tours)} tours")


def test_validate_coverage_accepted_not_served(pooling_instance):
    sol = Solution(tours=(), schedule=Schedule(times=(), excess={},
                                               makespans=()),
                   accepted=frozenset({1, 2, 3}), objective=None)
    report = validate_solution(pooling_instance, sol)
    assert report.kinds() == {"coverage"}
    assert report.violations[0].magnitude == 3.0


def test_validate_coverage_needs_denial_to_skip_requests():
    # a plan that serves nobody is valid only when denial is allowed
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    empty = Solution(tours=(), schedule=Schedule(times=(), excess={},
                                                 makespans=()),
                     accepted=frozenset(), objective=None)
    for objective in (None, ObjectiveSpec(variant="cost")):
        report = validate_solution(inst, empty, objective=objective)
        assert report.kinds() == {"coverage"}
        assert report.violations[0].magnitude == 3.0
    assert validate_solution(
        inst, empty, objective=ObjectiveSpec(variant="request_cost_excess")).ok


@pytest.mark.parametrize("field", ["f_c", "f_e", "f_emax", "f_n"])
def test_validate_objective_components(gen_instances, field):
    inst = gen_instances[1]
    doc = json.loads(solution_to_json(
        oracle_solve(inst, ObjectiveSpec(variant="cost_excess"))))
    assert validate_solution(inst, solution_from_json(json.dumps(doc), inst)).ok
    # a drift within the relative tolerance is no violation
    doc["objective"][field] *= 1 + 1e-7
    assert validate_solution(inst, solution_from_json(json.dumps(doc), inst)).ok
    doc["objective"][field] += 1
    report = validate_solution(inst, solution_from_json(json.dumps(doc), inst))
    assert report.kinds() == {"objective"}
    assert report.violations[0].magnitude == pytest.approx(1.0, rel=1e-4)


@pytest.mark.parametrize("shift", [100.0, math.nan], ids=["plus_100", "nan"])
def test_validate_objective_total(shift):
    # the total depends on the weights, so only a given objective checks it
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    obj = ObjectiveSpec(variant="cost_excess")
    sol = oracle_solve(inst, obj)
    assert validate_solution(inst, sol, objective=obj).ok
    bad = replace(sol, objective=replace(sol.objective,
                                         total=sol.objective.total + shift))
    assert validate_solution(inst, bad).ok
    report = validate_solution(inst, bad, objective=obj)
    assert report.kinds() == {"objective"}
    assert "claimed total" in report.violations[0].detail


# ---------------------------------------------------------------------------
# solution JSON
# ---------------------------------------------------------------------------

def test_solution_json_round_trip(gen_instances):
    inst = gen_instances[1]
    sol = oracle_solve(inst, ObjectiveSpec(variant="cost_excess"))
    text = solution_to_json(sol)
    again = solution_from_json(text, inst)
    assert again.tours == sol.tours
    assert again.times == sol.times
    assert again.schedule.excess == sol.schedule.excess
    assert again.schedule.makespans == sol.schedule.makespans
    assert again.accepted == sol.accepted
    assert again.objective.total == pytest.approx(sol.objective.total)
    doc = json.loads(text)
    assert doc["objective"]["f_c"] == pytest.approx(sol.objective.cost)


def test_solution_json_errors(gen_instances):
    from darpkit import ParseError
    with pytest.raises(ParseError, match="JSON"):
        solution_from_json("[", gen_instances[0])
    with pytest.raises(ParseError, match="field"):
        solution_from_json("{}", gen_instances[0])


@pytest.mark.parametrize("field, value", [
    ("tours", "none"), ("accepted", 5), ("objective", []),
])
def test_solution_json_names_the_mistyped_field(field, value):
    from darpkit import ParseError
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    doc = json.loads(solution_to_json(oracle_solve(inst)))
    doc[field] = value
    with pytest.raises(ParseError, match=f"field in '{field}': "):
        solution_from_json(json.dumps(doc), inst)


@pytest.mark.parametrize("doc", ["[]", "5", '"x"'])
def test_solution_json_must_be_an_object(doc):
    from darpkit import ParseError
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    with pytest.raises(ParseError, match="solution JSON is not a JSON object"):
        solution_from_json(doc, inst)


def test_solution_json_non_numeric_request(gen_instances):
    from darpkit import ParseError
    inst = gen_instances[0]
    doc = json.loads(solution_to_json(oracle_solve(inst)))
    doc["tours"][0][0]["request"] = "a"
    with pytest.raises(ParseError, match="field"):
        solution_from_json(json.dumps(doc), inst)


@pytest.mark.parametrize("where, value", [
    ("request", 3.5), ("request", "3"), ("request", True),
    ("accepted", [1.5, 2, 3]), ("accepted", ["3", 1, 2]),
    ("accepted", [True, 2, 3]), ("accepted", [1, 2, 3, 3]),
])
def test_solution_json_reads_request_ids_as_integers(where, value):
    from darpkit import ParseError
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    sol = oracle_solve(inst)
    doc = json.loads(solution_to_json(sol))
    assert doc["accepted"] == [1, 2, 3]
    # integral floats read as the integers they are
    stops = [stop for tour in doc["tours"] for stop in tour]
    for stop in stops:
        stop["request"] = float(stop["request"])
    same = solution_from_json(json.dumps(doc), inst)
    assert same.tours == sol.tours
    assert all(type(rid) is int for tour in same.tours for rid, _ in tour)
    if where == "request":
        next(stop for stop in stops if stop["request"] == 3)["request"] = value
    else:
        doc["accepted"] = value
    with pytest.raises(ParseError, match="request id"):
        solution_from_json(json.dumps(doc), inst)


@pytest.mark.parametrize("value", [0.9, True, "1"])
def test_solution_json_reads_the_denial_count_as_an_integer(value):
    from darpkit import ParseError
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    doc = json.loads(solution_to_json(oracle_solve(inst)))
    assert doc["objective"]["f_n"] == 0
    # an integral float reads as the integer it is
    doc["objective"]["f_n"] = 1.0
    denied = solution_from_json(json.dumps(doc), inst).objective.denied
    assert denied == 1 and type(denied) is int
    # a fraction, a bool or text is refused, not truncated or converted
    doc["objective"]["f_n"] = value
    with pytest.raises(ParseError, match="f_n must be an integer"):
        solution_from_json(json.dumps(doc), inst)


@pytest.mark.parametrize("field, value", [
    ("time", "15.0"), ("time", True), ("total", "1"), ("f_c", False),
    ("f_e", None), ("f_emax", [0.0]),
])
def test_solution_json_reads_real_numbers_strictly(field, value):
    from darpkit import ParseError
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    doc = json.loads(solution_to_json(oracle_solve(inst)))
    if field == "time":
        doc["tours"][0][0]["time"] = value
        field = "stop time"
    else:
        doc["objective"][field] = value
    with pytest.raises(ParseError, match=f"{field} must be a number"):
        solution_from_json(json.dumps(doc), inst)


@pytest.mark.parametrize("field", ["time", "f_c"])
def test_solution_json_refuses_non_finite_numbers(field):
    from darpkit import ParseError
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    doc = json.loads(solution_to_json(oracle_solve(inst)))
    if field == "time":
        for tour in doc["tours"]:
            for stop in tour:
                stop["time"] = math.nan
    else:
        doc["objective"][field] = math.nan
    with pytest.raises(ParseError, match="non-finite"):
        solution_from_json(json.dumps(doc), inst)


def test_solution_json_rejects_an_unknown_stop_kind():
    from darpkit import ParseError
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    text = solution_to_json(oracle_solve(inst)).replace('"dropoff"', '"banana"')
    with pytest.raises(ParseError, match="unknown kind 'banana'"):
        solution_from_json(text, inst)
