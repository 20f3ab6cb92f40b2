import gc
import math

import pytest

from darpkit import (
    DataError, EventArc, GeneratorConfig, arc_count_closed_form, build_event_graph,
    compatible_pairs, generate_synthetic, graph_stats, node_count_closed_form,
    parse_cordeau, to_dot,
)
from darpkit.event_graph import (
    CLASS_NAMES, DEPOT, DROPOFF, DROPOFF_DROPOFF, DROPOFF_PICKUP, LEAVE_DEPOT,
    PICKUP, PICKUP_DROPOFF, PICKUP_PICKUP, RETURN_DEPOT,
)

from helpers import brute_state_space, line_instance, ring_instance

EXPECTED_POOLING_NODES = {
    "(0,0,0)",
    "(1+,0,0)", "(1+,2,0)", "(2+,0,0)", "(2+,1,0)", "(3+,0,0)",
    "(1-,0,0)", "(1-,2,0)", "(2-,0,0)", "(2-,1,0)", "(3-,0,0)",
}

EXPECTED_POOLING_ARCS = {
    # vehicle leaves the depot empty
    ("(0,0,0)", "(1+,0,0)", "leave_depot"),
    ("(0,0,0)", "(2+,0,0)", "leave_depot"),
    ("(0,0,0)", "(3+,0,0)", "leave_depot"),
    # empty vehicle returns
    ("(1-,0,0)", "(0,0,0)", "return_depot"),
    ("(2-,0,0)", "(0,0,0)", "return_depot"),
    ("(3-,0,0)", "(0,0,0)", "return_depot"),
    # pickup followed by a dropoff of anyone on board
    ("(1+,0,0)", "(1-,0,0)", "pickup_dropoff"),
    ("(1+,2,0)", "(1-,2,0)", "pickup_dropoff"),
    ("(1+,2,0)", "(2-,1,0)", "pickup_dropoff"),
    ("(2+,0,0)", "(2-,0,0)", "pickup_dropoff"),
    ("(2+,1,0)", "(2-,1,0)", "pickup_dropoff"),
    ("(2+,1,0)", "(1-,2,0)", "pickup_dropoff"),
    ("(3+,0,0)", "(3-,0,0)", "pickup_dropoff"),
    # pickup followed by a pickup, capacity permitting
    ("(1+,0,0)", "(2+,1,0)", "pickup_pickup"),
    ("(2+,0,0)", "(1+,2,0)", "pickup_pickup"),
    # dropoff followed by a pickup with the same residual load
    ("(1-,0,0)", "(2+,0,0)", "dropoff_pickup"),
    ("(1-,0,0)", "(3+,0,0)", "dropoff_pickup"),
    ("(2-,0,0)", "(1+,0,0)", "dropoff_pickup"),
    ("(2-,0,0)", "(3+,0,0)", "dropoff_pickup"),
    ("(3-,0,0)", "(1+,0,0)", "dropoff_pickup"),
    ("(3-,0,0)", "(2+,0,0)", "dropoff_pickup"),
    # dropoff followed by a dropoff of the remaining rider
    ("(1-,2,0)", "(2-,0,0)", "dropoff_dropoff"),
    ("(2-,1,0)", "(1-,0,0)", "dropoff_dropoff"),
}


def _arc_triples(graph):
    cap = graph.inst.capacity
    return {
        (graph.nodes[a.tail].label(cap), graph.nodes[a.head].label(cap),
         CLASS_NAMES[a.cls])
        for a in graph.arcs
    }


def test_pooling_graph_matches_reference(pooling_instance):
    graph = build_event_graph(pooling_instance)
    assert graph.node_count == 11
    assert graph.arc_count == 23
    labels = {node.label(3) for node in graph.nodes}
    assert labels == EXPECTED_POOLING_NODES
    assert _arc_triples(graph) == EXPECTED_POOLING_ARCS
    assert graph.class_counts == {PICKUP_DROPOFF: 7, PICKUP_PICKUP: 2,
                                  DROPOFF_PICKUP: 6, DROPOFF_DROPOFF: 2,
                                  RETURN_DEPOT: 3, LEAVE_DEPOT: 3}


def test_pooling_graph_same_for_heavier_small_pair(pooling_instance):
    # loads 1,2,3 admit exactly the same states as 1,1,3 under capacity 3
    from dataclasses import replace
    reqs = list(pooling_instance.requests)
    reqs[1] = replace(reqs[1], q=2)
    heavier = replace(pooling_instance, requests=tuple(reqs))
    graph = build_event_graph(heavier)
    assert _arc_triples(graph) == EXPECTED_POOLING_ARCS


def test_node_order_is_deterministic(pooling_instance):
    g1 = build_event_graph(pooling_instance)
    g2 = build_event_graph(pooling_instance)
    assert [n.label(3) for n in g1.nodes] == [n.label(3) for n in g2.nodes]
    assert g1.arcs == g2.arcs
    assert g1.nodes[0].kind == DEPOT and g1.depot_node == 0


def test_arc_costs_match_metric(pooling_instance):
    graph = build_event_graph(pooling_instance)
    metric = pooling_instance.metric
    for arc in graph.arcs:
        a = graph.locations[arc.tail]
        b = graph.locations[arc.head]
        assert arc.cost == pytest.approx(metric.cost(a, b))
        assert arc.time == pytest.approx(metric.time(a, b))


def test_adjacency_is_consistent(gen_instances):
    for inst in gen_instances:
        graph = build_event_graph(inst)
        for v in range(graph.node_count):
            for a in graph.out_arcs[v]:
                assert graph.arcs[a].tail == v
            for a in graph.in_arcs[v]:
                assert graph.arcs[a].head == v
        assert sum(len(x) for x in graph.out_arcs) == graph.arc_count
        total = sum(graph.class_counts.values())
        assert total == graph.arc_count


def test_arc_table_indexes_like_a_sequence(gen_instances):
    for inst in gen_instances:
        arcs = build_event_graph(inst).arcs
        columns = (arcs.tail, arcs.head, arcs.cls, arcs.cost, arcs.time)
        m = len(arcs)
        for a in (0, m // 2, m - 1, -1, -m):
            assert arcs[a] == EventArc(*(col[a] for col in columns))
            assert type(arcs[a]) is EventArc
        assert arcs[-1] == arcs[m - 1] and arcs[-m] == arcs[0]
        for a in (m, -m - 1):
            with pytest.raises(IndexError):
                arcs[a]
        assert list(arcs) == [arcs[a] for a in range(m)]


def test_arc_tables_compare_by_columns(gen_instances):
    inst = gen_instances[3]
    pairs = compatible_pairs(inst)
    complete, pruned = build_event_graph(inst), build_event_graph(inst, pairs)
    assert complete.arcs == build_event_graph(inst).arcs
    assert pruned.arcs == build_event_graph(inst, pairs).arcs
    assert complete.arcs != pruned.arcs
    changed = build_event_graph(inst).arcs
    changed.time[-1] += 1.0
    assert complete.arcs != changed


def test_adjacency_is_built_on_first_use(gen_instances):
    for inst in gen_instances:
        for graph in (build_event_graph(inst),
                      build_event_graph(inst, compatible_pairs(inst))):
            assert not {"in_arcs", "out_arcs"} & set(vars(graph))
            arcs = graph.arcs
            states = range(graph.node_count)
            assert graph.in_arcs == [
                [a for a, w in enumerate(arcs.head) if w == v] for v in states]
            assert graph.out_arcs == [
                [a for a, u in enumerate(arcs.tail) if u == v] for v in states]
            assert graph.in_arcs is graph.in_arcs
            assert graph.class_counts == {c: list(arcs.cls).count(c)
                                          for c in CLASS_NAMES}


def test_arcs_add_no_objects_for_the_collector():
    # a graph holds about one collector-tracked object per state (its
    # EventNode), none per arc
    inst = generate_synthetic(GeneratorConfig(n=10, capacity=3, seed=401))
    gc.collect()
    before = len(gc.get_objects())
    graph = build_event_graph(inst)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert graph.arc_count > 2 * graph.node_count
    assert grown <= 2 * graph.node_count, (grown, graph.node_count)


def test_requires_tightened_instance(tiny_cordeau_text):
    inst = parse_cordeau(tiny_cordeau_text)
    with pytest.raises(DataError, match="tighten"):
        build_event_graph(inst)


def test_counts_match_brute_force_unit_loads():
    for n in range(1, 7):
        for cap in range(1, 5):
            inst = ring_instance(n, cap)
            graph = build_event_graph(inst)
            loads = {r.id: r.q for r in inst.requests}
            states, transitions = brute_state_space(loads, cap)
            assert graph.node_count == len(states), (n, cap)
            assert graph.arc_count == len(transitions), (n, cap)
            assert graph.node_count == node_count_closed_form(n, cap)
            assert graph.arc_count == arc_count_closed_form(n, cap)


def test_counts_match_brute_force_mixed_loads():
    for seed in (0, 1, 2):
        inst = generate_synthetic(GeneratorConfig(n=4, capacity=6, seed=seed))
        graph = build_event_graph(inst)
        loads = {r.id: r.q for r in inst.requests}
        states, transitions = brute_state_space(loads, 6)
        assert graph.node_count == len(states)
        assert graph.arc_count == len(transitions)


# arc class by (tail kind, head kind), as the module docstring names them
_CLASS_OF_KINDS = {
    (DEPOT, PICKUP): LEAVE_DEPOT, (DROPOFF, DEPOT): RETURN_DEPOT,
    (PICKUP, DROPOFF): PICKUP_DROPOFF, (PICKUP, PICKUP): PICKUP_PICKUP,
    (DROPOFF, PICKUP): DROPOFF_PICKUP, (DROPOFF, DROPOFF): DROPOFF_DROPOFF,
}


def _assert_matches_brute_force(inst):
    graph = build_event_graph(inst)
    loads = {r.id: r.q for r in inst.requests}
    states, transitions = brute_state_space(loads, inst.capacity)
    built = [(node.kind, node.request, frozenset(node.others))
             for node in graph.nodes]
    assert len(set(built)) == len(built) and set(built) == states
    triples = [(built[a.tail], built[a.head], a.cls) for a in graph.arcs]
    expected = [(u, v, _CLASS_OF_KINDS[u[0], v[0]]) for u, v in transitions]
    assert len(set(triples)) == len(triples)
    assert set(triples) == set(expected)


def test_states_and_arcs_match_brute_force_exactly():
    # not just the counts: every state, and every arc with its class
    for n in range(1, 7):
        for cap in range(1, 5):
            _assert_matches_brute_force(ring_instance(n, cap))
    for seed in (0, 1, 2):
        _assert_matches_brute_force(
            generate_synthetic(GeneratorConfig(n=4, capacity=6, seed=seed)))


def test_ids_follow_the_order_contract(gen_instances):
    for inst in gen_instances:
        for graph in (build_event_graph(inst),
                      build_event_graph(inst, compatible_pairs(inst))):
            keys = [(graph.locations[v], node.others)
                    for v, node in enumerate(graph.nodes)][1:]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            pairs = [(a.tail, a.head) for a in graph.arcs]
            assert all(a < b for a, b in zip(pairs, pairs[1:]))
            # each tail's arcs form one contiguous id range
            for out in filter(None, graph.out_arcs):
                assert out == list(range(out[0], out[0] + len(out)))


def test_structural_rules_hold(gen_instances):
    for inst in gen_instances:
        graph = build_event_graph(inst)
        loads = {r.id: r.q for r in inst.requests}
        for arc in graph.arcs:
            tail = graph.nodes[arc.tail]
            head = graph.nodes[arc.head]
            if arc.cls == LEAVE_DEPOT:
                assert tail.kind == DEPOT
                assert head.kind == PICKUP and head.others == ()
            elif arc.cls == RETURN_DEPOT:
                assert tail.kind == DROPOFF and tail.others == ()
                assert head.kind == DEPOT
            else:
                onboard = set(tail.others)
                if tail.kind == PICKUP:
                    onboard.add(tail.request)
                if head.kind == PICKUP:
                    assert head.request not in onboard
                    assert set(head.others) == onboard
                    assert sum(loads[j] for j in onboard) + loads[head.request] \
                        <= inst.capacity
                else:
                    assert head.request in onboard
                    assert set(head.others) == onboard - {head.request}
            # the onboard seat total never exceeds the capacity
            seats = loads.get(head.request, 0) + sum(loads[j] for j in head.others)
            assert seats <= inst.capacity


def test_closed_form_known_values():
    assert node_count_closed_form(3, 2) == 19
    assert arc_count_closed_form(3, 2) == 45
    assert node_count_closed_form(16, 3) == 3873
    assert node_count_closed_form(1, 1) == 3
    assert arc_count_closed_form(1, 1) == 3
    with pytest.raises(DataError):
        node_count_closed_form(0, 3)
    with pytest.raises(DataError):
        arc_count_closed_form(3, 0)


def test_benchmark_size_graph_counts():
    # the classic 16-request capacity-3 benchmark shape
    inst = ring_instance(16, 3)
    graph = build_event_graph(inst)
    assert graph.node_count == 3873 == node_count_closed_form(16, 3)
    assert graph.arc_count == arc_count_closed_form(16, 3)


def test_graph_stats(pooling_instance, gen_instances):
    stats = graph_stats(build_event_graph(gen_instances[0]))
    assert stats["nodes"] == stats["closed_form"]["nodes"]
    assert stats["arcs"] == stats["closed_form"]["arcs"]
    assert set(stats["arc_classes"]) == set(CLASS_NAMES.values())
    # mixed loads carry no closed form
    stats2 = graph_stats(build_event_graph(pooling_instance))
    assert "closed_form" not in stats2
    assert stats2["nodes"] == 11 and stats2["arcs"] == 23


def test_to_dot(pooling_instance):
    text = to_dot(build_event_graph(pooling_instance))
    assert text.startswith("digraph")
    assert text.count(" -> ") == 23
    assert '"(1+,2,0)"' in text
    assert "doublecircle" in text


# ---------------------------------------------------------------------------
# the pruned graph
# ---------------------------------------------------------------------------

def _staggered(pickup2, dropoff2=(40, 50)):
    """Two requests on a line, s = 0; request 2's windows vary."""
    return line_instance(
        "staggered", positions=(0.0, 1.0, 2.0, 3.0, 4.0),
        specs=[
            {"pickup": (0, 10), "dropoff": (20, 30), "max_ride": 40},
            {"pickup": pickup2, "dropoff": dropoff2, "max_ride": 40},
        ],
        fleet_size=1, capacity=2, depot_window=(0.0, 100.0))


def test_pruning_rules_on_a_worked_example():
    # 1 and 2 can ride together only as 1+ 2+ 1- 2-.  The arc rule cuts
    # 2+ -> 1+ (15 + 1 > 10), 2- -> 1- (40 + 1 > 30), 1- -> 2+ (20 + 1 > 18)
    # and 2- -> 1+; then (1+,2) has no in-arc and (2-,1) no out-arc
    inst = _staggered((15, 18))
    pairs = compatible_pairs(inst)
    assert pairs == frozenset({(1, 2)})
    graph = build_event_graph(inst, pairs)
    assert graph.pruned and graph.compatible == pairs
    assert [node.label(2) for node in graph.nodes] == [
        "(0,0)", "(1+,0)", "(2+,0)", "(2+,1)", "(1-,0)", "(1-,2)", "(2-,0)"]
    assert _arc_triples(graph) == {
        ("(0,0)", "(1+,0)", "leave_depot"),
        ("(0,0)", "(2+,0)", "leave_depot"),
        ("(1+,0)", "(1-,0)", "pickup_dropoff"),
        ("(1+,0)", "(2+,1)", "pickup_pickup"),
        ("(2+,0)", "(2-,0)", "pickup_dropoff"),
        ("(2+,1)", "(1-,2)", "pickup_dropoff"),
        ("(1-,2)", "(2-,0)", "dropoff_dropoff"),
        ("(1-,0)", "(0,0)", "return_depot"),
        ("(2-,0)", "(0,0)", "return_depot"),
    }
    # request 2 picked up after 1's dropoff window closed: no shared state
    apart = _staggered((60, 70), (80, 90))
    assert compatible_pairs(apart) == frozenset()
    labels = {node.label(2) for node in build_event_graph(apart, frozenset()).nodes}
    assert labels == {"(0,0)", "(1+,0)", "(2+,0)", "(1-,0)", "(2-,0)"}


def test_pruned_graph_is_an_ordered_subgraph(gen_instances):
    for inst in gen_instances:
        full = build_event_graph(inst)
        pairs = compatible_pairs(inst)
        pruned = build_event_graph(inst, pairs)
        assert not full.pruned and pruned.pruned
        # ids: the full graph's order restricted to the survivors
        full_id = {node: v for v, node in enumerate(full.nodes)}
        ids = [full_id[node] for node in pruned.nodes]
        assert ids == sorted(ids) and ids[0] == 0
        full_arcs = {(a.tail, a.head): a for a in full.arcs}
        keys = [(ids[a.tail], ids[a.head]) for a in pruned.arcs]
        assert keys == sorted(keys)
        for arc, key in zip(pruned.arcs, keys):
            assert full_arcs[key].cls == arc.cls
            assert (full_arcs[key].cost, full_arcs[key].time) == (arc.cost, arc.time)
            # arc rule
            tail, head = pruned.locations[arc.tail], pruned.locations[arc.head]
            assert (inst.windows[tail][0] + inst.service[tail] + arc.time
                    <= inst.windows[head][1] + 1e-9)
        for v, node in enumerate(pruned.nodes):
            # pair rule: the onboard set is a clique of compatible pairs
            onboard = sorted({node.request, *node.others} - {0})
            for k, i in enumerate(onboard):
                assert all((i, j) in pairs for j in onboard[k + 1:])
            # no dead state survives
            if v:
                assert pruned.in_arcs[v] and pruned.out_arcs[v]
        again = build_event_graph(inst, pairs)
        assert again.nodes == pruned.nodes and again.arcs == pruned.arcs


def test_graph_stats_of_a_pruned_graph(gen_instances):
    inst = gen_instances[0]
    stats = graph_stats(build_event_graph(inst, compatible_pairs(inst)))
    # the closed forms describe the complete graph only
    assert "closed_form" not in stats
