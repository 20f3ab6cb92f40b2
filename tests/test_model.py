import math

import numpy as np
import pytest
from scipy import optimize, sparse

from darpkit import (
    DataError, GeneratorConfig, ObjectiveSpec, ObjectiveValue, Schedule,
    Solution, build_event_graph, build_model, combine_components,
    compatible_pairs, compute_big_m, evaluate_objective, generate_synthetic,
    instance_sha256, parse_mps, read_mapping, variable_mapping, write_lp,
    write_mapping, write_mps,
)
from darpkit.event_graph import (
    DROPOFF, DROPOFF_DROPOFF, DROPOFF_PICKUP, LEAVE_DEPOT, PICKUP,
    PICKUP_DROPOFF, PICKUP_PICKUP, RETURN_DEPOT, EventNode,
)
from darpkit.model import _assemble
from darpkit.solve import _feasible_orderings, _subsets

from helpers import criterion3_instances, line_instance


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
# big-M coefficients
# ---------------------------------------------------------------------------

def test_big_m_values(single_request_instance):
    graph = build_event_graph(single_request_instance)
    m = compute_big_m(graph)
    # dropoff window end 100, pickup start 10, ride limit 40, service 2
    assert m.ride[1] == pytest.approx(48.0)
    by_cls = {arc.cls: a for a, arc in enumerate(graph.arcs)}
    # pickup tail closes at 30, dropoff head opens at 20, travel 3
    assert m.link[by_cls[PICKUP_DROPOFF]] == pytest.approx(30.0 - 20.0 + 2.0 + 3.0)
    # depot tail closes at 200, pickup head opens at 10, travel 1
    assert m.link[by_cls[LEAVE_DEPOT]] == pytest.approx(200.0 - 10.0 + 0.0 + 1.0)
    # dropoff tail closes at 100, depot head opens at 0, travel 4
    assert m.link[by_cls[RETURN_DEPOT]] == pytest.approx(100.0 - 0.0 + 2.0 + 4.0)


def test_big_m_ride_example():
    inst = line_instance(
        "bigm", positions=(0.0, 1.0, 4.0),
        specs=[{"pickup": (10, 30), "dropoff": (20, 100), "max_ride": 40, "s": 3}],
        fleet_size=1, capacity=1, depot_window=(0.0, 200.0))
    m = compute_big_m(build_event_graph(inst))
    assert m.ride[1] == pytest.approx(47.0)


def test_big_m_floors_at_zero():
    inst = line_instance(
        "slack", positions=(0.0, 1.0, 4.0),
        specs=[{"pickup": (0, 10), "dropoff": (0, 20), "max_ride": 40, "s": 0}],
        fleet_size=1, capacity=1, depot_window=(0.0, 200.0))
    m = compute_big_m(build_event_graph(inst))
    assert m.ride[1] == 0.0
    assert all(v >= 0.0 for v in m.link.values())


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def _census_by_inspection(model):
    vars_by_kind = {}
    for var in model.vars:
        vars_by_kind[var.kind] = vars_by_kind.get(var.kind, 0) + 1
    rows_by_prefix = {}
    for row in model.rows:
        prefix = row.name.split("_")[0]
        rows_by_prefix[prefix] = rows_by_prefix.get(prefix, 0) + 1
    return vars_by_kind, rows_by_prefix


@pytest.mark.parametrize("variant", ["model2", "model3"])
def test_census_matches_contents(gen_instances, variant):
    prefix_map = {"flow": "flow", "serve": "serve", "fleet": "fleet",
                  "tt": "travel_link", "dep": "depot_depart",
                  "ret": "depot_return", "ride": "ride_time",
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


def test_model_sizes_follow_graph(gen_instances):
    # the model is sized by the pruned graph it was built over
    inst = gen_instances[1]
    model = build_model(build_event_graph(inst), "model2",
                        ObjectiveSpec(variant="cost"))
    graph = model.graph
    assert graph.pruned
    census = model.census
    assert census["variables"]["x"] == graph.arc_count
    assert census["variables"]["B"] == graph.node_count
    assert census["variables"]["p"] == 0
    assert census["variables"]["d"] == 0
    assert census["rows"]["flow"] == graph.node_count
    assert census["rows"]["serve"] == inst.n
    assert census["rows"]["fleet"] == 1
    travel = sum(graph.class_counts[c] for c in
                 (PICKUP_DROPOFF, PICKUP_PICKUP, DROPOFF_PICKUP, DROPOFF_DROPOFF))
    assert census["rows"]["travel_link"] == travel
    assert census["rows"]["depot_depart"] == graph.class_counts[LEAVE_DEPOT]
    assert census["rows"]["depot_return"] == graph.class_counts[RETURN_DEPOT]
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
        elif node.kind == DROPOFF:
            assert (var.lb, var.ub) == (20.0, 100.0)
        else:
            assert (var.lb, var.ub) == (0.0, 200.0)


def test_time_bounds_model3(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model3", ObjectiveSpec(variant="cost"))
    for var in model.vars:
        if var.kind != "B":
            continue
        node = graph.nodes[var.ref]
        if node.kind == PICKUP:
            assert (var.lb, var.ub) == (0.0, 30.0)
        elif node.kind == DROPOFF:
            assert var.lb == 20.0 and var.ub == math.inf
        else:
            assert (var.lb, var.ub) == (0.0, 200.0)


def _ride_rows(model):
    """The hub rows keyed by state node: (row, variable name -> coefficient)."""
    rows = {}
    for row in model.rows:
        if row.name.startswith("ride_"):
            node = int(row.name.split("_")[2])
            rows[node] = (row, {model.vars[idx].name: c for idx, c in row.terms})
    return rows


def test_ride_rows_model2_couple_activation(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="cost"))
    v = graph.pickup_nodes[1][0]
    w = graph.dropoff_nodes[1][0]
    mi = model.big_m.ride[1]
    assert mi == pytest.approx(48.0)
    rows = _ride_rows(model)
    assert sorted(rows) == sorted((v, w))
    # dropoff: B_w + M * in(w) - z_1 <= M
    row, coef = rows[w]
    assert row.sense == "L" and row.rhs == pytest.approx(mi)
    assert coef.pop(f"B_{w}") == 1.0 and coef.pop("z_1") == -1.0
    assert set(coef) == {f"x_{a}" for a in graph.in_arcs[w]}
    assert all(c == pytest.approx(mi) for c in coef.values())
    # pickup: z_1 - B_v + M * in(v) <= M + L + s
    row, coef = rows[v]
    assert row.sense == "L" and row.rhs == pytest.approx(mi + 40.0 + 2.0)
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
    row, coef = rows[w]                  # B_w - z_1 <= 0
    assert row.sense == "L" and row.rhs == 0.0
    assert coef == {f"B_{w}": 1.0, "z_1": -1.0}
    row, coef = rows[v]                  # z_1 - B_v <= L + s
    assert row.sense == "L" and row.rhs == pytest.approx(42.0)
    assert coef == {"z_1": 1.0, f"B_{v}": -1.0}
    wlo = [r for r in model.rows if r.name.startswith("wlo_")]
    wup = [r for r in model.rows if r.name.startswith("wup_")]
    assert len(wlo) == 1 and len(wup) == 1
    # window width 20 relaxes the pickup lower bound when inactive
    assert wlo[0].sense == "G" and wlo[0].rhs == pytest.approx(10.0 + 20.0)
    assert wup[0].sense == "L" and wup[0].rhs == pytest.approx(10.0 + 40.0 + 2.0)


def _pairwise_ride_rows(model):
    """The quadratic family the hub rows project: one row per pickup
    state v and dropoff state w of a request,
    B_w - B_v + M_i * (in(v) + in(w)) <= L_i + s_i + 2 M_i (M_i = 0 in model3)."""
    graph = model.graph
    col = {var.name: j for j, var in enumerate(model.vars)}
    rows = []
    for req in graph.inst.requests:
        mi = model.big_m.ride[req.id] if model.variant == "model2" else 0.0
        for v in graph.pickup_nodes[req.id]:
            for w in graph.dropoff_nodes[req.id]:
                terms = [(col[f"B_{w}"], 1.0), (col[f"B_{v}"], -1.0)]
                terms += [(col[f"x_{a}"], mi)
                          for a in list(graph.in_arcs[v]) + list(graph.in_arcs[w])]
                rows.append(("L", req.max_ride + req.s + 2.0 * mi, terms))
    return rows


def _lp_relaxation(model, rows):
    """Status and optimum of the LP relaxation over the model's columns."""
    data, ri, ci, lo, hi = [], [], [], [], []
    for k, (sense, rhs, terms) in enumerate(rows):
        for j, coef in terms:
            ri.append(k)
            ci.append(j)
            data.append(coef)
        lo.append(rhs if sense in "EG" else -math.inf)
        hi.append(rhs if sense in "EL" else math.inf)
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
            rows = [(row.sense, row.rhs, row.terms) for row in model.rows]
            hub = _lp_relaxation(model, rows)
            others = [r for r, row in zip(rows, model.rows)
                      if not row.name.startswith("ride_")]
            pairwise = _lp_relaxation(model, others + _pairwise_ride_rows(model))
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
    assert len(model.rows) < 2_000


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
        arcs = {(arc.tail, arc.head) for arc in graph.arcs}
        for block in filter(None, _subsets(range(1, inst.n + 1))):
            for tour, _ in _feasible_orderings(block, inst):
                ids = [0] + [node_id[node] for node in _state_path(tour)] + [0]
                assert set(zip(ids, ids[1:])) <= arcs, (inst.name, tour)
                checked += 1
    assert checked >= len(criterion3_suite)    # 620 stop orders


@pytest.mark.parametrize("variant", ["model2", "model3"])
def test_pruning_never_lowers_the_lp_bound(criterion3_suite, variant):
    for inst in criterion3_suite:
        full = build_event_graph(inst)
        for name in ("cost", "cost_excess"):
            obj = ObjectiveSpec(variant=name)
            bounds = []
            for model in (build_model(full, variant, obj),
                          _assemble(full, variant, obj)):
                rows = [(row.sense, row.rhs, row.terms) for row in model.rows]
                bounds.append(_lp_relaxation(model, rows))
            (status, pruned), (status_full, complete) = bounds
            assert status == status_full == 0, (inst.name, name, bounds)
            assert pruned >= complete - 1e-9, (inst.name, name, bounds)


def test_pruning_is_idempotent(gen_instances):
    inst = gen_instances[3]
    model = build_model(build_event_graph(inst), "model2")
    graph = model.graph
    assert graph.pruned and graph.compatible == compatible_pairs(inst)
    again = build_model(graph, "model3", ObjectiveSpec(variant="excess"))
    assert again.graph is graph
    fresh = build_event_graph(inst, compatible_pairs(inst))
    assert (fresh.nodes, fresh.arcs) == (graph.nodes, graph.arcs)
    assert write_mps(build_model(fresh, "model2")) == write_mps(model)


def test_travel_link_rows(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="cost"))
    for a, arc in enumerate(graph.arcs):
        if arc.cls != PICKUP_DROPOFF:
            continue
        row = next(r for r in model.rows if r.name == f"tt_{a}")
        mm = model.big_m.link[a]
        assert row.rhs == pytest.approx(mm - 2.0 - arc.time)
        coef = {model.vars[idx].name: c for idx, c in row.terms}
        assert coef[f"x_{a}"] == pytest.approx(mm)


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
    total_cost = sum(arc.cost for arc in graph.arcs)
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
        assert mip.row_names == [row.name for row in model.rows]
        assert [s for s in mip.row_sense] == [row.sense for row in model.rows]
        for k, row in enumerate(model.rows):
            assert mip.rhs[k] == pytest.approx(row.rhs)
        for j, var in enumerate(model.vars):
            assert mip.integrality[j] == (1 if var.integer else 0)
            if not var.integer:
                assert mip.lower[j] == var.lb
                assert mip.upper[j] == var.ub
        dense = mip.matrix.toarray()
        for k, row in enumerate(model.rows):
            for idx, coef in row.terms:
                assert dense[k, idx] == pytest.approx(coef)
            assert (dense[k] != 0).sum() == len(row.terms)


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
        assert variable_mapping(model)["variables"]["z_1"] == {
            "kind": "z", "request": 1}


def test_lp_structure(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model3", ObjectiveSpec(variant="cost"))
    text = write_lp(model)
    assert text.splitlines()[0].startswith("\\")
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text
    for row in model.rows:
        assert f" {row.name}: " in text
    assert write_lp(model) == text


def test_variable_mapping(single_request_instance):
    graph = build_event_graph(single_request_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="cost_excess"))
    doc = variable_mapping(model)
    assert doc["variant"] == "model2"
    assert doc["instance"] == "single"
    assert doc["objective"]["variant"] == "cost_excess"
    assert doc["objective"]["alpha"] == 3.0
    assert "allow_denial" not in doc
    assert len(doc["variables"]) == len(model.vars)
    assert doc["variables"]["x_0"]["kind"] == "x"
    assert "arc" in doc["variables"]["x_0"]
    assert doc["variables"]["d_1"] == {"kind": "d", "request": 1}
    assert "node" in doc["variables"]["B_0"]
    assert write_mapping(model) == write_mapping(model)


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


def test_read_mapping_refuses_another_instance(gen_instances):
    model = build_model(build_event_graph(gen_instances[0]), "model2")
    with pytest.raises(DataError, match="this instance's pruned graph"):
        read_mapping(write_mapping(model), gen_instances[1])
