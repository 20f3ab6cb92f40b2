import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, sparse

from darpkit import (
    OBJECTIVES, DataError, GeneratorConfig, ObjectiveSpec, ObjectiveValue,
    Schedule, Solution, TravelMetric, build_event_graph, build_model,
    combine_components,
    compatible_pairs, evaluate_objective, generate_synthetic, import_solution,
    instance_sha256, oracle_solve, parse_mps, read_mapping, solve_mip,
    variable_mapping, write_lp, write_mapping, write_mps,
)
from darpkit.event_graph import (
    DROPOFF, LEAVE_DEPOT, PICKUP, PICKUP_DROPOFF, RETURN_DEPOT, EventNode,
)
from darpkit.model import MilpModel, Row, _assemble
from darpkit.solve import _stop_orders

from helpers import criterion3_instances, digest_models, line_instance, model_rows


@pytest.fixture(scope="module")
def single_request_instance():
    # depot 0, pickup at 1, dropoff at 4 on a line
    return line_instance(
        "single", positions=(0.0, 1.0, 4.0),
        specs=[{"pickup": (10, 30), "dropoff": (20, 100), "max_ride": 40, "s": 2}],
        fleet_size=1, capacity=1, depot_window=(0.0, 200.0))


# ---------------------------------------------------------------------------
# objective spec
# ---------------------------------------------------------------------------

def test_objective_defaults_resolve():
    obj = ObjectiveSpec(variant="request_cost_excess").resolve(10)
    assert obj.alpha == 3.0
    assert obj.beta == 6.0
    assert obj.gamma == 60.0
    custom = ObjectiveSpec(variant="cost_excess", alpha=1.5).resolve(10)
    assert custom.alpha == 1.5


def test_objective_validation():
    with pytest.raises(DataError, match="unknown objective"):
        ObjectiveSpec(variant="profit")
    with pytest.raises(DataError, match="positive"):
        ObjectiveSpec(variant="cost_excess", alpha=0.0).resolve(3)
    with pytest.raises(DataError, match="positive"):
        ObjectiveSpec(variant="request_cost_excess", gamma=-1.0).resolve(3)
    # weights of unused components are not checked
    ObjectiveSpec(variant="cost", alpha=-5.0).resolve(3)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, "abc", True])
def test_objective_weights_must_be_finite_numbers(weight):
    # checked when the spec is built, in every slot, used or not
    for slot in ("alpha", "beta", "gamma"):
        with pytest.raises(DataError, match=f"weight {slot} must be a finite"):
            ObjectiveSpec(variant="cost", **{slot: weight})


def test_combine_components():
    obj = ObjectiveSpec(variant="cost_max_excess", beta=2.0).resolve(4)
    assert combine_components(obj, 10.0, 99.0, 3.0, 0) == 16.0
    rce = ObjectiveSpec(variant="request_cost_excess", alpha=2.0, gamma=7.0).resolve(4)
    assert combine_components(rce, 10.0, 3.0, 1.0, 2) == 10.0 + 6.0 + 14.0


# ---------------------------------------------------------------------------
# big-M coefficients, read off the rows that carry them
# ---------------------------------------------------------------------------

def _link_m(graph, a):
    """Arc a's big-M: l_tail - e_head + s_tail + t, floored at 0."""
    inst, arcs = graph.inst, graph.arcs
    tail, head = graph.locations[arcs.tail[a]], graph.locations[arcs.head[a]]
    return max(0.0, inst.windows[tail][1] - inst.windows[head][0]
               + inst.service[tail] + inst.metric.time(tail, head))


def _ride_m(req):
    """Request ``req``'s ride-row big-M in model2: l_i- - e_i+ - L_i - s_i,
    floored at 0."""
    return max(0.0, req.dropoff_window[1] - req.pickup_window[0]
               - req.max_ride - req.s)


def _arc_rows(model):
    """{arc: (rhs, the row's coefficient on the arc's x)} over the travel
    rows ``tt_<arc>``."""
    out = {}
    for name, (_, rhs, coef) in model_rows(model).items():
        family, _, a = name.partition("_")
        if family == "tt":
            out[int(a)] = (rhs, coef[f"x_{a}"])
    return out


def _ride_coefs(model):
    """{ride row name: (rhs, the row's x coefficients)}."""
    return {name: (rhs, [c for col, c in coef.items() if col.startswith("x_")])
            for name, (_, rhs, coef) in model_rows(model).items()
            if name.startswith("ride_")}


def test_big_m_values(single_request_instance):
    model = build_model(build_event_graph(single_request_instance), "model2",
                        ObjectiveSpec(variant="cost"))
    rows = _arc_rows(model)
    link = {cls: rows[a][1] for a, cls in enumerate(model.graph.arc_classes)}
    # pickup tail closes at 30, dropoff head opens at 20, travel 3
    assert link[PICKUP_DROPOFF] == pytest.approx(30.0 - 20.0 + 2.0 + 3.0)
    # depot tail closes at 200, pickup head opens at 10, travel 1
    assert link[LEAVE_DEPOT] == pytest.approx(200.0 - 10.0 + 0.0 + 1.0)
    # dropoff tail closes at 100, depot head opens at 0, travel 4
    assert link[RETURN_DEPOT] == pytest.approx(100.0 - 0.0 + 2.0 + 4.0)
    # dropoff window end 100, pickup start 10, ride limit 40, service 2
    ride = _ride_coefs(model)
    assert len(ride) == 2 and all(coefs for _, coefs in ride.values())
    assert all(c == pytest.approx(48.0) for _, coefs in ride.values() for c in coefs)


def test_big_m_ride_example():
    inst = line_instance(
        "bigm", positions=(0.0, 1.0, 4.0),
        specs=[{"pickup": (10, 30), "dropoff": (20, 100), "max_ride": 40, "s": 3}],
        fleet_size=1, capacity=1, depot_window=(0.0, 200.0))
    model = build_model(build_event_graph(inst), "model2")
    coefs = [c for _, cs in _ride_coefs(model).values() for c in cs]
    assert coefs and all(c == pytest.approx(47.0) for c in coefs)


def test_big_m_floors_at_zero():
    inst = line_instance(
        "slack", positions=(0.0, 1.0, 4.0),
        specs=[{"pickup": (0, 10), "dropoff": (0, 20), "max_ride": 40, "s": 0}],
        fleet_size=1, capacity=1, depot_window=(0.0, 200.0))
    model = build_model(build_event_graph(inst), "model2")
    # M_1 = 0: the ride rows carry no x term and no M on their right side
    ride = _ride_coefs(model)
    assert len(ride) == 2
    assert sorted(rhs for rhs, _ in ride.values()) == [0.0, 40.0]
    assert all(coefs == [] for _, coefs in ride.values())
    rows = _arc_rows(model)
    assert len(rows) == model.graph.arc_count
    assert all(coef >= 0.0 for _, coef in rows.values())


@pytest.mark.parametrize("variant", ["model2", "model3"])
def test_rows_carry_the_exact_big_m(gen_instances, variant):
    for inst in gen_instances:
        complete = build_event_graph(inst)
        for model in (_assemble(complete, variant, None),
                      build_model(complete, variant)):
            graph = model.graph
            rows = _arc_rows(model)
            # one travel row per arc, depot legs included
            assert sorted(rows) == list(range(graph.arc_count))
            for a, (_, coef) in rows.items():
                assert coef == _link_m(graph, a)
            ride = _ride_coefs(model)
            for req in inst.requests:
                mi = _ride_m(req) if variant == "model2" else 0.0
                for v in (*graph.pickup_nodes[req.id], *graph.dropoff_nodes[req.id]):
                    rhs, coefs = ride[f"ride_{req.id}_{v}"]
                    assert coefs == ([mi] * len(graph.in_arcs[v]) if mi else [])
                    pickup = graph.nodes[v].kind == PICKUP
                    assert rhs == mi + (req.max_ride + req.s if pickup else 0.0)


def _priced(inst):
    """``inst`` with a cost matrix of its own, 1.5 times travel time plus
    0.25 between distinct locations: no function of the coordinates."""
    m = 2 * inst.n + 1
    time = tuple(tuple(inst.metric.time(a, b) for b in range(m)) for a in range(m))
    cost = tuple(tuple(1.5 * t + (0.25 if a != b else 0.0) for b, t in enumerate(row))
                 for a, row in enumerate(time))
    return replace(inst, metric=TravelMetric(cost_matrix=cost, time_matrix=time))


def test_arc_terms_read_the_metric(gen_instances):
    # each arc's objective coefficient is its cost and its travel or depot
    # row reads its time, both at its end states' locations
    for inst in map(_priced, gen_instances):
        metric, service = inst.metric, inst.service
        e0, l0 = inst.depot_window
        complete = build_event_graph(inst)
        for model in (_assemble(complete, "model2", None),
                      build_model(complete, "model3")):
            graph = model.graph
            locs = graph.locations
            ends = [(locs[v], locs[w]) for v, w in zip(graph.arcs.tail, graph.arcs.head)]
            assert {model.vars[idx].name: c for idx, c in model.obj_terms} == {
                f"x_{a}": metric.cost(*end) for a, end in enumerate(ends)}
            rows = _arc_rows(model)
            assert sorted(rows) == list(range(graph.arc_count))
            # the depot window stands in for the depot's time: e0 for a
            # tail at the depot, l0 for a head there
            for a, (rhs, _) in rows.items():
                tail, head = ends[a]
                t, mm = metric.time(tail, head), _link_m(graph, a)
                want = mm - service[tail] - t
                if tail == 0:
                    want -= e0
                if head == 0:
                    want += l0
                assert rhs == want


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def _census_by_inspection(model):
    vars_by_kind = {}
    for var in model.vars:
        vars_by_kind[var.kind] = vars_by_kind.get(var.kind, 0) + 1
    rows_by_prefix = {}
    for name in model.row_names:
        prefix = name.split("_")[0]
        rows_by_prefix[prefix] = rows_by_prefix.get(prefix, 0) + 1
    return vars_by_kind, rows_by_prefix


@pytest.mark.parametrize("variant", ["model2", "model3"])
def test_census_matches_contents(gen_instances, variant):
    prefix_map = {"flow": "flow", "serve": "serve", "fleet": "fleet",
                  "tt": "travel_link", "ride": "ride_time",
                  "wlo": "window_activation", "wup": "window_activation",
                  "ex": "excess", "dmx": "excess_max"}
    for inst in gen_instances[:4]:
        graph = build_event_graph(inst)
        model = build_model(graph, variant, ObjectiveSpec(variant="cost_max_excess"))
        vars_by_kind, rows_by_prefix = _census_by_inspection(model)
        for kind, count in model.census["variables"].items():
            assert vars_by_kind.get(kind, 0) == count, (inst.name, kind)
        grouped = {}
        for prefix, count in rows_by_prefix.items():
            grouped[prefix_map[prefix]] = grouped.get(prefix_map[prefix], 0) + count
        for label, count in model.census["rows"].items():
            assert grouped.get(label, 0) == count, (inst.name, label)


@pytest.mark.parametrize("variant", ["model2", "model3"])
def test_rows_view_matches_the_entry_table(gen_instances, monkeypatch, variant):
    # the view that the benchmark reads gives back every row as it was
    # added: its name, sense, right-hand side and terms in order
    added = []
    add_row = MilpModel.add_row

    def recording(self, family, name, sense, rhs, terms):
        added.append(Row(name, sense, rhs, list(terms)))
        add_row(self, family, name, sense, rhs, terms)

    monkeypatch.setattr(MilpModel, "add_row", recording)
    for inst in gen_instances[:3]:
        for objective in ("cost_max_excess", "request_cost_excess"):
            added.clear()
            model = build_model(build_event_graph(inst), variant,
                                ObjectiveSpec(variant=objective))
            assert model.rows == added
            assert len(model.rows) == len(model.row_names)
            assert sum(len(row.terms) for row in model.rows) == len(model.entry_coef)
            assert model.entry_row == sorted(model.entry_row)
            assert model.rows is not model.rows


@pytest.mark.parametrize("variant", ["model2", "model3"])
def test_every_column_is_in_a_row_or_the_objective(criterion3_suite, variant):
    # a column that no row and no objective term reads is dead weight in
    # every export; the depot's time column was one
    for inst in criterion3_suite:
        graph = build_event_graph(inst, pruned=True)
        for objective in OBJECTIVES:
            model = build_model(graph, variant, ObjectiveSpec(variant=objective))
            unread = set(range(len(model.vars))).difference(
                model.entry_col, (idx for idx, _ in model.obj_terms))
            assert not unread, (inst.name, objective,
                                [model.vars[j].name for j in sorted(unread)])


def test_model_sizes_follow_graph(gen_instances):
    # the model is sized by the pruned graph it was built over
    inst = gen_instances[1]
    model = build_model(build_event_graph(inst), "model2",
                        ObjectiveSpec(variant="cost"))
    graph = model.graph
    assert graph.pruned
    census = model.census
    assert census["variables"]["x"] == graph.arc_count
    assert census["variables"]["B"] == graph.node_count - 1   # no depot time
    assert census["variables"]["p"] == 0
    assert census["variables"]["d"] == 0
    assert census["rows"]["flow"] == graph.node_count
    assert census["rows"]["serve"] == inst.n
    assert census["rows"]["fleet"] == 1
    assert census["rows"]["travel_link"] == graph.arc_count
    active = sum(len(graph.pickup_nodes[i]) + len(graph.dropoff_nodes[i])
                 for i in range(1, inst.n + 1))
    assert census["variables"]["z"] == inst.n
    assert census["rows"]["ride_time"] == active
    assert census["rows"]["window_activation"] == 0
    model3 = build_model(graph, "model3", ObjectiveSpec(variant="cost"))
    assert model3.graph is graph
    assert model3.census["variables"]["z"] == inst.n
    assert model3.census["rows"]["ride_time"] == active
    assert model3.census["rows"]["window_activation"] == active


def test_unknown_variant(pooling_instance):
    graph = build_event_graph(pooling_instance)
    with pytest.raises(DataError, match="variant"):
        build_model(graph, "model9", ObjectiveSpec())


def test_time_bounds_model2(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="cost"))
    for var in model.vars:
        if var.kind != "B":
            continue
        node = graph.nodes[var.ref]
        if node.kind == PICKUP:
            assert (var.lb, var.ub) == (10.0, 30.0)
        else:
            assert node.kind == DROPOFF and (var.lb, var.ub) == (20.0, 100.0)


def test_time_bounds_model3(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model3", ObjectiveSpec(variant="cost"))
    for var in model.vars:
        if var.kind != "B":
            continue
        node = graph.nodes[var.ref]
        if node.kind == PICKUP:
            assert (var.lb, var.ub) == (0.0, 30.0)
        else:
            assert node.kind == DROPOFF and (var.lb, var.ub) == (20.0, math.inf)


def _ride_rows(model):
    """The hub rows keyed by state node: (sense, rhs, variable name ->
    coefficient)."""
    return {int(name.split("_")[2]): row for name, row in model_rows(model).items()
            if name.startswith("ride_")}


def test_ride_rows_model2_couple_activation(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="cost"))
    v = graph.pickup_nodes[1][0]
    w = graph.dropoff_nodes[1][0]
    mi = _ride_m(single_request_instance.request(1))
    assert mi == pytest.approx(48.0)
    rows = _ride_rows(model)
    assert sorted(rows) == sorted((v, w))
    # dropoff: B_w + M * in(w) - z_1 <= M
    sense, rhs, coef = rows[w]
    assert sense == "L" and rhs == pytest.approx(mi)
    assert coef.pop(f"B_{w}") == 1.0 and coef.pop("z_1") == -1.0
    assert set(coef) == {f"x_{a}" for a in graph.in_arcs[w]}
    assert all(c == pytest.approx(mi) for c in coef.values())
    # pickup: z_1 - B_v + M * in(v) <= M + L + s
    sense, rhs, coef = rows[v]
    assert sense == "L" and rhs == pytest.approx(mi + 40.0 + 2.0)
    assert coef.pop("z_1") == 1.0 and coef.pop(f"B_{v}") == -1.0
    assert set(coef) == {f"x_{a}" for a in graph.in_arcs[v]}
    assert all(c == pytest.approx(mi) for c in coef.values())
    z = [var for var in model.vars if var.kind == "z"]
    assert [(var.name, var.ref, var.lb, var.ub, var.integer) for var in z] == [
        ("z_1", 1, -math.inf, math.inf, False)]


def test_ride_rows_model3_are_plain(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model3", ObjectiveSpec(variant="cost"))
    v = graph.pickup_nodes[1][0]
    w = graph.dropoff_nodes[1][0]
    rows = _ride_rows(model)
    assert sorted(rows) == sorted((v, w))
    assert rows[w] == ("L", 0.0, {f"B_{w}": 1.0, "z_1": -1.0})  # B_w - z_1 <= 0
    sense, rhs, coef = rows[v]           # z_1 - B_v <= L + s
    assert sense == "L" and rhs == pytest.approx(42.0)
    assert coef == {"z_1": 1.0, f"B_{v}": -1.0}
    every = model_rows(model)
    wlo = [row for name, row in every.items() if name.startswith("wlo_")]
    wup = [row for name, row in every.items() if name.startswith("wup_")]
    assert len(wlo) == 1 and len(wup) == 1
    # window width 20 relaxes the pickup lower bound when inactive
    assert wlo[0][:2] == ("G", pytest.approx(10.0 + 20.0))
    assert wup[0][:2] == ("L", pytest.approx(10.0 + 40.0 + 2.0))


def _pairwise_ride_rows(model):
    """The quadratic family the hub rows project: one row per pickup
    state v and dropoff state w of a request,
    B_w - B_v + M_i * (in(v) + in(w)) <= L_i + s_i + 2 M_i (M_i = 0 in model3)."""
    graph = model.graph
    col = {var.name: j for j, var in enumerate(model.vars)}
    rows = []
    for req in graph.inst.requests:
        mi = _ride_m(req) if model.variant == "model2" else 0.0
        for v in graph.pickup_nodes[req.id]:
            for w in graph.dropoff_nodes[req.id]:
                terms = [(col[f"B_{w}"], 1.0), (col[f"B_{v}"], -1.0)]
                terms += [(col[f"x_{a}"], mi)
                          for a in list(graph.in_arcs[v]) + list(graph.in_arcs[w])]
                rows.append(("L", req.max_ride + req.s + 2.0 * mi, terms))
    return rows


def _lp_relaxation(model, drop=None, extra=()):
    """Status and optimum of the LP relaxation over the model's columns:
    the entry table, with the rows whose name starts with ``drop`` left
    free, plus the ``extra`` rows (sense, rhs, terms)."""
    ri, ci, data = (list(model.entry_row), list(model.entry_col),
                    list(model.entry_coef))
    rows = [("N" if drop and name.startswith(drop) else sense, rhs)
            for name, sense, rhs in zip(model.row_names, model.senses, model.rhs)]
    for sense, rhs, terms in extra:
        for j, coef in terms:
            ri.append(len(rows))
            ci.append(j)
            data.append(coef)
        rows.append((sense, rhs))
    lo = [rhs if sense in "EG" else -math.inf for sense, rhs in rows]
    hi = [rhs if sense in "EL" else math.inf for sense, rhs in rows]
    matrix = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), len(model.vars)))
    c = np.zeros(len(model.vars))
    for j, coef in model.obj_terms:
        c[j] += coef
    res = optimize.milp(
        c, constraints=optimize.LinearConstraint(matrix, lo, hi),
        bounds=optimize.Bounds([var.lb for var in model.vars],
                               [var.ub for var in model.vars]))
    return res.status, (None if res.fun is None else res.fun + model.obj_constant)


@pytest.fixture(scope="module")
def criterion3_suite():
    return criterion3_instances()


@pytest.mark.parametrize("variant", ["model2", "model3"])
def test_hub_rows_keep_the_pairwise_lp_relaxation(criterion3_suite, variant):
    # the hub form is the exact projection of the pairwise rows, so the
    # LP bound (the paper's model2-vs-model3 comparison) must not move;
    # the z columns are left in no row of the pairwise form
    for inst in criterion3_suite:
        graph = build_event_graph(inst)
        for name in ("cost", "cost_excess"):
            model = build_model(graph, variant, ObjectiveSpec(variant=name))
            hub = _lp_relaxation(model)
            pairwise = _lp_relaxation(model, drop="ride_",
                                      extra=_pairwise_ride_rows(model))
            assert hub[0] == pairwise[0] == 0, (inst.name, name, hub, pairwise)
            assert abs(hub[1] - pairwise[1]) <= 1e-9, (inst.name, name, hub, pairwise)


def test_ride_rows_stay_linear_on_the_export_shape():
    # the export benchmark's instance: n=15, q=3, seed 401; the pairwise
    # family alone had 168 540 rows here over the complete graph
    inst = generate_synthetic(GeneratorConfig(n=15, capacity=3, seed=401))
    model = build_model(build_event_graph(inst), "model3",
                        ObjectiveSpec(variant="cost"))
    graph = model.graph
    states = sum(len(graph.pickup_nodes[i]) + len(graph.dropoff_nodes[i])
                 for i in range(1, inst.n + 1))
    assert model.census["rows"]["ride_time"] == states
    assert model.census["variables"]["z"] == inst.n
    assert graph.arc_count < 1_000
    assert len(model.row_names) < 2_000


# ---------------------------------------------------------------------------
# the pruned event graph under every model
# ---------------------------------------------------------------------------

def _state_path(tour):
    """The event states a stop order passes through, depot excluded."""
    onboard = set()
    path = []
    for rid, kind in tour:
        onboard.discard(rid)
        path.append(EventNode(kind, rid, tuple(sorted(onboard, reverse=True))))
        if kind == PICKUP:
            onboard.add(rid)
    return path


def test_pair_rule_keeps_every_feasible_stop_order(criterion3_suite):
    # every stop order the oracle may use, for any block of requests, is a
    # depot-anchored path of the pruned graph
    checked = 0
    for inst in criterion3_suite:
        graph = build_model(build_event_graph(inst), "model3").graph
        node_id = {node: v for v, node in enumerate(graph.nodes)}
        arcs = set(zip(graph.arcs.tail, graph.arcs.head))
        for orders in _stop_orders(inst).values():
            for tour, _ in (rec[:2] for rec in orders):
                ids = [0] + [node_id[node] for node in _state_path(tour)] + [0]
                assert set(zip(ids, ids[1:])) <= arcs, (inst.name, tour)
                checked += 1
    assert checked >= 620


@pytest.mark.parametrize("variant", ["model2", "model3"])
def test_pruning_never_lowers_the_lp_bound(criterion3_suite, variant):
    for inst in criterion3_suite:
        full = build_event_graph(inst)
        for name in ("cost", "cost_excess"):
            obj = ObjectiveSpec(variant=name)
            bounds = []
            for model in (build_model(full, variant, obj),
                          _assemble(full, variant, obj)):
                bounds.append(_lp_relaxation(model))
            (status, pruned), (status_full, complete) = bounds
            assert status == status_full == 0, (inst.name, name, bounds)
            assert pruned >= complete - 1e-9, (inst.name, name, bounds)


def test_pruning_is_idempotent(gen_instances):
    inst = gen_instances[3]
    complete = build_event_graph(inst)
    model = build_model(complete, "model2")
    graph = model.graph
    assert graph.pruned and graph.compatible == compatible_pairs(inst)
    again = build_model(graph, "model3", ObjectiveSpec(variant="excess"))
    assert again.graph is graph
    # a complete graph builds its pruned graph once, for every model on it
    reused = build_model(complete, "model2")
    assert reused.graph is graph
    fresh = build_event_graph(inst, pruned=True)
    assert (fresh.nodes, fresh.arcs) == (graph.nodes, graph.arcs)
    assert write_mps(build_model(fresh, "model2")) == write_mps(model)
    assert write_mps(reused) == write_mps(model)


def test_the_builder_owns_its_pair_set(gen_instances):
    for inst in gen_instances:
        assert build_event_graph(inst, pruned=True).compatible == compatible_pairs(inst)
        assert build_event_graph(inst).compatible is None
    # a pair set cannot be handed in, not even positionally
    with pytest.raises(TypeError):
        build_event_graph(gen_instances[0], compatible_pairs(gen_instances[0]))


@pytest.mark.parametrize("seed, optimum", [(3, 19.404), (5, 19.612)])
def test_pruned_graph_keeps_the_optimum(seed, optimum):
    # one compatible pair; pruning with no pair at all would cut the
    # optimal plan and report a worse "optimum"
    inst = generate_synthetic(GeneratorConfig(n=4, capacity=3, seed=seed,
                                              fleet_size=2))
    oracle = oracle_solve(inst).objective.total
    assert oracle == pytest.approx(optimum, abs=1e-3)
    graph = build_event_graph(inst, pruned=True)
    assert len(graph.compatible) == 1
    result = solve_mip(parse_mps(write_mps(build_model(graph, "model3"))))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(oracle, abs=1e-6)


def test_travel_link_rows(single_request_instance):
    # worked example: depot 0 at 0 with window [0, 200], pickup at 1
    # with window [10, 30], dropoff at 4 with window [20, 100], service 2.
    # Each arc's row is B_tail - B_head + M x <= M - s_tail - t, with the
    # depot window's start in place of B_tail and its end in place of B_head
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="cost"))
    # states: 0 the depot, 1 the pickup, 2 the dropoff
    assert list(zip(model.graph.arcs.tail, model.graph.arcs.head)) == [
        (0, 1), (1, 2), (2, 0)]
    rows = model_rows(model)
    assert {name: row for name, row in rows.items() if name.startswith("tt_")} == {
        # M = 200 - 10 + 0 + 1: -B_1 + 191 x_0 <= 191 - 0 - 1 - 0
        "tt_0": ("L", 190.0, {"B_1": -1.0, "x_0": 191.0}),
        # M = 30 - 20 + 2 + 3: B_1 - B_2 + 15 x_1 <= 15 - 2 - 3
        "tt_1": ("L", 10.0, {"B_1": 1.0, "B_2": -1.0, "x_1": 15.0}),
        # M = 100 - 0 + 2 + 4: B_2 + 106 x_2 <= 106 - 2 - 4 + 200
        "tt_2": ("L", 300.0, {"B_2": 1.0, "x_2": 106.0}),
    }


def test_objective_terms_and_constant(pooling_instance):
    graph = build_event_graph(pooling_instance)
    model = build_model(graph, "model2",
                        ObjectiveSpec(variant="request_cost_excess"))
    assert model.obj_constant == pytest.approx(60.0 * 3)
    values = {var.name: 0.0 for var in model.vars}
    assert model.objective_value(values) == pytest.approx(180.0)
    for r in (1, 2, 3):
        values[f"p_{r}"] = 1.0
    assert model.objective_value(values) == pytest.approx(0.0)
    cost_model = build_model(graph, "model2", ObjectiveSpec(variant="cost"))
    values = {var.name: 1.0 for var in cost_model.vars}
    locs = graph.locations
    total_cost = sum(pooling_instance.metric.cost(locs[v], locs[w])
                     for v, w in zip(graph.arcs.tail, graph.arcs.head))
    assert cost_model.objective_value(values) == pytest.approx(total_cost)


# ---------------------------------------------------------------------------
# objective evaluation on solutions
# ---------------------------------------------------------------------------

def _stacked_solution(times):
    tour = ((1, PICKUP), (2, PICKUP), (2, DROPOFF), (1, DROPOFF))
    schedule = Schedule(times=(tuple(times),), excess={}, makespans=(0.0,))
    return Solution(tours=(tour,), schedule=schedule,
                    accepted=frozenset({1, 2}), objective=None)


def test_evaluate_objective(stacked_instance):
    sol = _stacked_solution((25.0, 30.0, 41.0, 51.0))
    value = evaluate_objective(stacked_instance, sol,
                               ObjectiveSpec(variant="cost_excess"))
    assert value.cost == pytest.approx(5 + 2 + 10 + 10 + 27)
    assert value.excess == pytest.approx(2.0)    # both dropoffs one late
    assert value.max_excess == pytest.approx(1.0)
    assert value.denied == 0
    assert value.total == pytest.approx(value.cost + 3.0 * 2.0)
    as_json = value.as_json_dict()
    assert as_json["f_c"] == value.cost and as_json["f_n"] == 0


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def test_mps_structure(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="cost"))
    text = write_mps(model)
    lines = text.splitlines()
    assert lines[0].startswith("NAME")
    assert "single.model2.cost" in lines[0]
    assert lines[-1] == "ENDATA"
    assert text.count("'INTORG'") == 1
    assert text.count("'INTEND'") == 1
    assert text.count(" BV BND") == graph.arc_count
    assert "RHS  COST" not in text     # no objective constant here
    assert write_mps(model) == text    # deterministic


def test_mps_round_trip(single_request_instance):
    graph = build_event_graph(single_request_instance)
    for variant, objective in (("model2", "cost"), ("model3", "cost_excess")):
        model = build_model(graph, variant, ObjectiveSpec(variant=objective))
        mip = parse_mps(write_mps(model))
        assert mip.name == model.name
        assert mip.col_names == [var.name for var in model.vars]
        assert mip.row_names == model.row_names
        for k, (sense, rhs) in enumerate(zip(model.senses, model.rhs)):
            # E is (rhs, rhs), L (-inf, rhs) and G (rhs, inf)
            lower = -math.inf if sense == "L" else pytest.approx(rhs)
            upper = math.inf if sense == "G" else pytest.approx(rhs)
            assert (mip.row_lower[k], mip.row_upper[k]) == (lower, upper)
        for j, var in enumerate(model.vars):
            assert mip.integrality[j] == (1 if var.integer else 0)
            if not var.integer:
                assert mip.lower[j] == var.lb
                assert mip.upper[j] == var.ub
        dense = mip.matrix.toarray()
        entries = list(zip(model.entry_row, model.entry_col))
        assert len(set(entries)) == len(entries)
        assert list(dense[model.entry_row, model.entry_col]) == pytest.approx(
            model.entry_coef)
        assert (dense != 0).sum() == len(entries)


def test_mps_objective_constant_round_trip(pooling_instance):
    graph = build_event_graph(pooling_instance)
    model = build_model(graph, "model3",
                        ObjectiveSpec(variant="request_cost_excess"))
    mip = parse_mps(write_mps(model))
    assert mip.obj_constant == pytest.approx(180.0)
    values = {name: 0.0 for name in mip.col_names}
    assert model.objective_value(values) == pytest.approx(180.0)


def test_writers_declare_the_hub_variables_free(single_request_instance):
    graph = build_event_graph(single_request_instance)
    for variant in ("model2", "model3"):
        model = build_model(graph, variant, ObjectiveSpec(variant="cost"))
        mps = write_mps(model)
        assert " FR BND  z_1\n" in mps
        mip = parse_mps(mps)
        j = mip.col_names.index("z_1")
        assert (mip.lower[j], mip.upper[j]) == (-math.inf, math.inf)
        assert mip.integrality[j] == 0
        lp = write_lp(model)
        bounds = lp[lp.index("Bounds"):lp.index("Binaries")]
        assert " z_1 free\n" in bounds and "inf" not in bounds


def test_lp_structure(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model3", ObjectiveSpec(variant="cost"))
    text = write_lp(model)
    assert text.splitlines()[0].startswith("\\")
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text
    for name in model.row_names:
        assert f" {name}: " in text
    assert write_lp(model) == text


def test_export_and_import_read_no_rows_view(pooling_instance, monkeypatch):
    # the model keeps its rows only in the entry table: no Row and no
    # per-row term list, and the writers and the import never build one
    def refuse(self):
        raise AssertionError("the rows view was read")

    monkeypatch.setattr(MilpModel, "rows", property(refuse))
    graph = build_event_graph(pooling_instance)
    for variant in ("model2", "model3"):
        model = build_model(graph, variant,
                            ObjectiveSpec(variant="request_cost_excess"))
        text = write_mps(model)
        write_lp(model)
        write_mapping(model)
        result = solve_mip(parse_mps(text))
        sol = import_solution(model, result.assignment)
        assert sol.objective.total == pytest.approx(result.objective, abs=1e-6)
        held = [value for value in vars(model).values() if isinstance(value, list)]
        assert not any(isinstance(item, (Row, list)) for value in held
                       for item in value)


# one digest over the MPS, LP and sidecar text of every model below, taken
# from the writers as they formatted every value with f"{v:.12g}" on its
# own; change it only with a change that is meant to change the exports
EXPORT_DIGEST = "2ebf658a6efb8c30069d07fe891fb82a7c6369c5c3a871d399c27f9e0cf7975c"


def test_exports_stay_byte_identical():
    digest = hashlib.sha256()
    for model in digest_models():
        for text in (write_mps(model), write_lp(model), write_mapping(model)):
            digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == EXPORT_DIGEST


def test_writers_format_zeros_tiny_huge_and_repeated_values(single_request_instance):
    # 0.0 and -0.0 are one dict key but print as "0" and "-0": a writer
    # that formats each distinct value once must not mix them up
    graph = build_event_graph(single_request_instance)
    model = MilpModel(graph, "model3", ObjectiveSpec().resolve(1))
    big = 123456.789012345678
    x0 = model.add_var("x", 0, 0.0, 1.0)
    x1 = model.add_var("x", 1, 0.0, 1.0)
    b0 = model.add_var("B", 0, -0.0, 1e12)
    b1 = model.add_var("B", 1, 1e-13, math.inf)
    z1 = model.add_var("z", 1, -math.inf, math.inf)
    d1 = model.add_var("d", 1, 0.0, math.inf)
    d2 = model.add_var("d", 2, -0.0, math.inf)
    assert (d1, d2) == (5, 6)   # neither is named by a term
    model.add_row("flow", "r1", "L", -0.0, [(x0, 0.0), (x1, -0.0), (b0, 1e12)])
    model.add_row("flow", "r2", "G", 1e-13, [(b1, 1e-13), (x0, big), (z1, -1.0)])
    model.add_row("flow", "r3", "E", 0.0,
                  [(x1, big), (b0, -big), (x0, 1.0), (b1, -0.0)])
    model.add_row("flow", "r4", "L", 1e12, [])
    model.obj_terms = [(x0, big), (x1, -0.0), (b1, 0.0), (z1, -big)]
    model.obj_constant = 1e-13
    assert write_mps(model) == (
        "NAME          single.model3.cost\nROWS\n N  COST\n L  r1\n G  r2\n"
        " E  r3\n L  r4\nCOLUMNS\n    M0  'MARKER'  'INTORG'\n"
        "    x_0  COST  123456.789012  r1  0\n    x_0  r2  123456.789012  r3  1\n"
        "    x_1  COST  -0  r1  -0\n    x_1  r3  123456.789012\n"
        "    M1  'MARKER'  'INTEND'\n    B_0  r1  1e+12  r3  -123456.789012\n"
        "    B_1  COST  0  r2  1e-13\n    B_1  r3  -0\n"
        "    z_1  COST  -123456.789012  r2  -1\n    d_1  COST  0\n"
        "    d_2  COST  0\nRHS\n    RHS  COST  -1e-13\n    RHS  r2  1e-13\n"
        "    RHS  r4  1e+12\nBOUNDS\n BV BND  x_0\n BV BND  x_1\n"
        " UP BND  B_0  1e+12\n LO BND  B_1  1e-13\n FR BND  z_1\nENDATA\n")
    assert write_lp(model) == (
        "\\ single.model3.cost\nMinimize\n"
        " obj: 123456.789012 x_0 + 0 x_1 + 0 B_1 - 123456.789012 z_1 + 1e-13\n"
        "Subject To\n r1: 0 x_0 + 0 x_1 + 1e+12 B_0 <= -0\n"
        " r2: 1e-13 B_1 + 123456.789012 x_0 - 1 z_1 >= 1e-13\n"
        " r3: 123456.789012 x_1 - 123456.789012 B_0 + 1 x_0 + 0 B_1 = 0\n"
        " r4: 0 <= 1e+12\nBounds\n -0 <= B_0 <= 1e+12\n B_1 >= 1e-13\n"
        " z_1 free\n d_1 >= 0\n d_2 >= -0\nBinaries\n x_0 x_1\nEnd\n")


def test_variable_mapping(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="cost_excess"))
    doc = variable_mapping(model)
    assert doc == {
        "model": model.name,
        "instance": "single",
        "instance_sha256": instance_sha256(single_request_instance),
        "graph": "pruned-fragments",
        "columns": len(model.vars),
        "variant": "model2",
        "objective": {"variant": "cost_excess", "alpha": 3.0, "beta": 0.6,
                      "gamma": 60.0},
    }
    assert write_mapping(model) == write_mapping(model)


@pytest.mark.parametrize("variant", ["model2", "model3"])
def test_column_names_describe_the_columns(gen_instances, variant):
    # the naming rule that lets the sidecar leave the columns out
    for inst in gen_instances[:3]:
        for objective in OBJECTIVES:
            model = build_model(build_event_graph(inst), variant,
                                ObjectiveSpec(variant=objective))
            names = [var.name for var in model.vars]
            assert len(set(names)) == len(names)
            size = {"x": model.graph.arc_count, "B": model.graph.node_count}
            for var in model.vars:
                if var.kind == "dmax":
                    assert (var.name, var.ref) == ("dmax", -1)
                    continue
                assert var.name == f"{var.kind}_{var.ref}"
                if var.kind in size:
                    assert 0 <= var.ref < size[var.kind]
                else:
                    assert 1 <= var.ref <= inst.n


@pytest.mark.parametrize("objective", ["cost", "request_cost_excess"])
def test_read_mapping_rebuilds_the_model(gen_instances, objective):
    inst = gen_instances[0]
    model = build_model(build_event_graph(inst), "model3",
                        ObjectiveSpec(variant=objective, alpha=2.5))
    again = read_mapping(write_mapping(model), inst)
    assert (again.variant, again.objective) == (model.variant, model.objective)
    assert write_mps(again) == write_mps(model)
    # only the objective that prices denial has acceptance columns
    assert again.census["variables"]["p"] == (
        inst.n if objective == "request_cost_excess" else 0)


# the sidecar of synth-q3-n2-s0's model3 under cost as written while the
# depot state had a time column B_0: one column more than the model has
OLD_SIDECAR = """{
  "columns": 14,
  "graph": "pruned-fragments",
  "instance": "synth-q3-n2-s0",
  "instance_sha256": "4b6106848556a435d6657614d8799bca845d81b866691376a6691a3337ad62da",
  "model": "synth-q3-n2-s0.model3.cost",
  "objective": {"alpha": 3.0, "beta": 1.2, "gamma": 60.0, "variant": "cost"},
  "variant": "model3"
}"""


def test_read_mapping_refuses_a_sidecar_with_the_depot_time_column():
    inst = generate_synthetic(GeneratorConfig(n=2, capacity=3, seed=0))
    with pytest.raises(DataError, match="lists 14 columns, the model has 13"):
        read_mapping(OLD_SIDECAR, inst)


def test_read_mapping_refuses_another_instance(gen_instances):
    model = build_model(build_event_graph(gen_instances[0]), "model2")
    with pytest.raises(DataError, match="this instance's pruned graph"):
        read_mapping(write_mapping(model), gen_instances[1])
