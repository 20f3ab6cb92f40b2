"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``criterion N [...]: PASS/FAIL`` verdict line
and asserts it, so a plain ``pytest -v`` run doubles as the checklist.
The heavyweight shared fixture (50 solved instances) is built once per
module and reused by criteria 3, 4, 6 and 7.
"""

import itertools
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

from darpkit import (
    OUTBOUND, GeneratorConfig, ObjectiveSpec, Schedule, Solution,
    arc_count_closed_form, build_event_graph, build_model, evaluate_objective,
    generate_synthetic, import_solution, max_acceptance,
    node_count_closed_form, oracle_solve, parse_cordeau, parse_mps, solve_mip,
    tighten_time_windows, validate_solution, write_mps,
)
from darpkit.event_graph import DROPOFF, PICKUP

from helpers import brute_state_space, criterion3_instances, outbound_evens
from test_event_graph import (
    EXPECTED_POOLING_ARCS, EXPECTED_POOLING_NODES, _arc_triples,
)

P, D = PICKUP, DROPOFF

FIVE_OBJECTIVES = ("cost", "excess", "max_excess", "cost_excess",
                   "cost_max_excess")
VARIANTS = ("model2", "model3")
TOL = 1e-6


def _verdict(num: int, slug: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {num} [{slug}]: {tag}{suffix}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: brute-force state counts equal the closed forms
# ---------------------------------------------------------------------------

def test_criterion_1_graph_counts_match_closed_forms():
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, 11):
        loads = {i: 1 for i in range(1, n + 1)}
        for q in (1, 2, 3):
            states, transitions = brute_state_space(loads, q)
            want = (node_count_closed_form(n, q), arc_count_closed_form(n, q))
            got = (len(states), len(transitions))
            if got != want:
                mismatches.append((n, q, got, want))
    elapsed = time.perf_counter() - t0
    detail = f"30 cases in {elapsed:.2f}s"
    if mismatches:
        detail += f", mismatches {mismatches[:3]}"
    _verdict(1, "graph-counts-closed-form",
             not mismatches and elapsed < 10.0, detail)


# ---------------------------------------------------------------------------
# criterion 2: the worked three-request example reconstructs exactly
# ---------------------------------------------------------------------------

def test_criterion_2_reference_graph_reconstruction(pooling_instance):
    graph = build_event_graph(pooling_instance)
    labels = {node.label(pooling_instance.capacity) for node in graph.nodes}
    arcs = _arc_triples(graph)
    ok = (graph.node_count == 11 and graph.arc_count == 23
          and labels == EXPECTED_POOLING_NODES
          and arcs == EXPECTED_POOLING_ARCS)
    _verdict(2, "reference-graph-reconstruction", ok,
             f"{graph.node_count} nodes, {graph.arc_count} arcs, "
             f"element-wise arc match {arcs == EXPECTED_POOLING_ARCS}")


# ---------------------------------------------------------------------------
# shared fixture for criteria 3, 4, 6, 7
# ---------------------------------------------------------------------------

@dataclass
class SolvedInstance:
    inst: object
    oracle: dict = field(default_factory=dict)       # objective -> Solution
    reported: dict = field(default_factory=dict)     # (variant, objective) -> solver float
    exact: dict = field(default_factory=dict)        # (variant, objective) -> re-timed total
    decoded: dict = field(default_factory=dict)      # (variant, objective) -> Solution


@pytest.fixture(scope="module")
def suite():
    """50 feasible generated instances, solved by oracle and both MILPs."""
    instances = criterion3_instances()
    assert len(instances) == 50
    records = []
    for inst in instances:
        graph = build_event_graph(inst)
        rec = SolvedInstance(inst=inst)
        for name in FIVE_OBJECTIVES:
            obj = ObjectiveSpec(variant=name)
            rec.oracle[name] = oracle_solve(inst, obj)
            for variant in VARIANTS:
                model = build_model(graph, variant, obj)
                result = solve_mip(parse_mps(write_mps(model)))
                assert result.status == "optimal", (inst.name, variant, name)
                decoded = import_solution(model, result.assignment)
                rec.reported[(variant, name)] = result.objective
                rec.decoded[(variant, name)] = decoded
                rec.exact[(variant, name)] = decoded.objective.total
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# criterion 3: exhaustive oracle and exported-MPS MILP agree
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_matches_milp(suite):
    worst = 0.0
    worst_reported = 0.0
    bad = []
    for rec in suite:
        for name in FIVE_OBJECTIVES:
            target = rec.oracle[name].objective.total
            for variant in VARIANTS:
                err = abs(rec.exact[(variant, name)] - target)
                worst = max(worst, err)
                if err > TOL:
                    bad.append((rec.inst.name, variant, name, err))
                # the solver's floating report carries its own tolerance
                reported_err = abs(rec.reported[(variant, name)] - target)
                worst_reported = max(worst_reported, reported_err)
                if reported_err > 5e-5:
                    bad.append((rec.inst.name, variant, name,
                                "reported", reported_err))
    _verdict(3, "oracle-equals-milp", not bad,
             f"50 instances x {len(VARIANTS)} variants x "
             f"{len(FIVE_OBJECTIVES)} objectives, max |delta| {worst:.2e}, "
             f"solver-reported within {worst_reported:.2e}"
             + (f", failures {bad[:3]}" if bad else ""))


def test_oracle_matches_milp_with_outbound_requests():
    # the even requests of each instance made outbound, so that model3's
    # window rows relax by the width of the dropoff window
    bad = []
    outbound = 0
    for inst in map(outbound_evens, criterion3_instances()):
        outbound += sum(r.direction == OUTBOUND for r in inst.requests)
        graph = build_event_graph(inst)
        for name in FIVE_OBJECTIVES:
            obj = ObjectiveSpec(variant=name)
            target = oracle_solve(inst, obj).objective.total
            for variant in VARIANTS:
                model = build_model(graph, variant, obj)
                result = solve_mip(parse_mps(write_mps(model)))
                assert result.status == "optimal", (inst.name, variant, name)
                total = import_solution(model, result.assignment).objective.total
                if abs(total - target) > TOL:
                    bad.append((inst.name, variant, name, total - target))
    assert outbound == 90
    assert not bad, bad[:3]


def test_evaluate_objective_matches_oracle_exactly(suite):
    # the oracle and the scorer share one cost sum and one excess builder
    differ = [(rec.inst.name, name) for rec in suite for name in FIVE_OBJECTIVES
              if evaluate_objective(rec.inst, rec.oracle[name],
                                    ObjectiveSpec(variant=name))
              != rec.oracle[name].objective]
    assert not differ, differ[:3]


def test_oracle_and_imported_plans_validate(suite):
    # every plan carries its objective, which the validator compares
    bad = [(rec.inst.name, key) for rec in suite
           for key, sol in [*rec.oracle.items(), *rec.decoded.items()]
           if not validate_solution(rec.inst, sol).ok]
    assert not bad, bad[:3]


# ---------------------------------------------------------------------------
# criterion 4: the big-M and activation-window formulations agree
# ---------------------------------------------------------------------------

def test_criterion_4_model2_matches_model3(suite):
    worst = 0.0
    bad = []
    for rec in suite:
        for name in FIVE_OBJECTIVES:
            a = rec.exact[("model2", name)]
            b = rec.exact[("model3", name)]
            err = abs(a - b)
            worst = max(worst, err)
            if err > TOL:
                bad.append((rec.inst.name, name, err))
    _verdict(4, "model2-equals-model3", not bad,
             f"250 optima compared, max |delta| {worst:.2e}"
             + (f", failures {bad[:3]}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 5: published benchmark costs (needs the instance files)
# ---------------------------------------------------------------------------

BENCHMARK_COSTS = {
    "a2-16": 294.2,
    "b2-16": 309.4,
    "b2-20": 332.6,
    "b3-18": 301.6,
    "b4-16": 297.0,
}


def test_criterion_5_benchmark_costs():
    root = Path(os.environ.get("DARPKIT_BENCHMARK_DIR",
                               Path(__file__).parent / "data" / "benchmarks"))
    paths = {}
    for name in BENCHMARK_COSTS:
        for cand in (root / name, root / f"{name}.txt"):
            if cand.exists():
                paths[name] = cand
                break
    if len(paths) < len(BENCHMARK_COSTS):
        missing = sorted(set(BENCHMARK_COSTS) - set(paths))
        print(f"criterion 5 [benchmark-costs]: SKIP (missing {missing})")
        pytest.skip(
            "benchmark instance files not bundled; place "
            f"{', '.join(missing)} under {root} or set DARPKIT_BENCHMARK_DIR")
    bad = []
    for name, path in sorted(paths.items()):
        inst = tighten_time_windows(parse_cordeau(path.read_text(), name=name))
        graph = build_event_graph(inst)
        model = build_model(graph, "model3", ObjectiveSpec(variant="cost"))
        result = solve_mip(parse_mps(write_mps(model)), time_limit=1800.0)
        want = BENCHMARK_COSTS[name]
        if result.status != "optimal" or abs(result.objective - want) > 0.05:
            bad.append((name, result.status, result.objective, want))
    _verdict(5, "benchmark-costs", not bad,
             f"{len(paths)} instances within 0.05"
             + (f", failures {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 6: validator accepts real optima and catches every mutation kind
# ---------------------------------------------------------------------------

BASE_TOURS = (((1, P), (2, P), (1, D), (2, D)), ((3, P), (3, D)))
BASE_TIMES = ((10.0, 20.0, 30.0, 40.0), (5.0, 10.0))


def _sol(tours, times):
    sched = Schedule(times=tuple(tuple(t) for t in times), excess={},
                     makespans=())
    served = frozenset(r for tour in tours for r, kind in tour if kind == P)
    return Solution(tours=tuple(tuple(t) for t in tours), schedule=sched,
                    accepted=served, objective=None)


def _mutations(inst):
    base_a, base_b = BASE_TOURS
    # overload: all three requests pooled on one vehicle (seats 1+1+3)
    yield "capacity", inst, _sol(
        [[(1, P), (2, P), (3, P), (3, D), (1, D), (2, D)]],
        [(10.0, 20.0, 24.0, 26.0, 28.0, 31.0)])
    # lost final dropoff
    yield "pairing", inst, _sol([base_a[:-1], base_b],
                                [BASE_TIMES[0][:-1], BASE_TIMES[1]])
    # pickup and dropoff swapped
    yield "precedence", inst, _sol([base_a, (base_b[1], base_b[0])],
                                   [BASE_TIMES[0], BASE_TIMES[1]])
    # second tour shifted past the dropoff window's close
    yield "window", inst, _sol([base_a, base_b],
                               [BASE_TIMES[0], (95.0, 101.0)])
    # second tour stretched past the ride limit
    yield "ride_time", inst, _sol([base_a, base_b],
                                  [BASE_TIMES[0], (5.0, 40.0)])
    # depot closes before the first tour returns
    yield "duration", replace(inst, depot_window=(0.0, 14.0)), \
        _sol(BASE_TOURS, BASE_TIMES)
    # one vehicle fewer than the tours used
    yield "fleet", replace(inst, fleet_size=1), _sol(BASE_TOURS, BASE_TIMES)


def test_criterion_6_validator_soundness(suite, pooling_instance):
    checked = 0
    clean_failures = []
    for rec in suite:
        for name in FIVE_OBJECTIVES:
            if checked >= 100:
                break
            if not validate_solution(rec.inst, rec.oracle[name]).ok:
                clean_failures.append((rec.inst.name, name))
            checked += 1
    assert validate_solution(pooling_instance,
                             _sol(BASE_TOURS, BASE_TIMES)).ok
    missed = []
    for kind, inst, sol in _mutations(pooling_instance):
        report = validate_solution(inst, sol)
        if report.ok or kind not in report.kinds():
            missed.append(kind)
    ok = checked == 100 and not clean_failures and not missed
    _verdict(6, "validator-soundness", ok,
             f"{checked} optima validated, 7 mutation kinds detected"
             + (f", clean failures {clean_failures[:3]}" if clean_failures else "")
             + (f", missed kinds {missed}" if missed else ""))


# ---------------------------------------------------------------------------
# criterion 7: single-metric optima bound the blended optimum's components
# ---------------------------------------------------------------------------

def test_criterion_7_weighted_sum_component_bounds(suite):
    bad = []
    for rec in suite:
        blend = rec.oracle["cost_excess"].objective
        cost_slack = rec.oracle["cost"].objective.cost - blend.cost
        excess_slack = rec.oracle["excess"].objective.excess - blend.excess
        if cost_slack > 1e-9 or excess_slack > 1e-9:
            bad.append((rec.inst.name, cost_slack, excess_slack))
    _verdict(7, "weighted-sum-component-bounds", not bad,
             f"{len(suite)} instances, slack tolerance 1e-9"
             + (f", failures {bad[:3]}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 8: acceptance never drops as the denial penalty grows
# ---------------------------------------------------------------------------

def test_criterion_8_denial_monotone_in_gamma():
    gammas = (0.01, 1.0, 60.0, 1e6)
    sizes = itertools.cycle((2, 3, 4))
    caps = itertools.cycle((3, 6))
    bad = []
    for i in range(20):
        inst = generate_synthetic(GeneratorConfig(
            n=next(sizes), capacity=next(caps), seed=500 + i))
        counts = []
        for gamma in gammas:
            sol = oracle_solve(
                inst, ObjectiveSpec(variant="request_cost_excess", gamma=gamma))
            counts.append(len(sol.accepted))
        if any(a > b for a, b in zip(counts, counts[1:])):
            bad.append((inst.name, "not monotone", counts))
        if counts[-1] != max_acceptance(inst):
            bad.append((inst.name, "below max acceptance", counts[-1]))
    _verdict(8, "denial-monotone-in-gamma", not bad,
             "20 instances, gamma sweep 0.01/1/60/1e6"
             + (f", failures {bad[:3]}" if bad else ""))
