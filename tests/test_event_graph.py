import gc
import hashlib
import itertools
import math
import random
from dataclasses import replace

import pytest

from darpkit import (
    OUTBOUND, DataError, GeneratorConfig, arc_count_closed_form,
    build_event_graph, compatible_pairs, event_graph, generate_synthetic,
    graph_stats, node_count_closed_form, parse_cordeau, to_dot,
)
from darpkit.event_graph import (
    CLASS_NAMES, DEPOT, DROPOFF, DROPOFF_DROPOFF, DROPOFF_PICKUP, LEAVE_DEPOT,
    PICKUP, PICKUP_DROPOFF, PICKUP_PICKUP, RETURN_DEPOT, _onboard_sets,
)

from darpkit.schedule import _Prefix, _tour_times

from helpers import (
    brute_state_space, compatible_pairs_reference, criterion3_instances,
    line_instance, outbound_evens, pair_and_arc_graph, ring_instance,
)

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
    cap, arcs = graph.inst.capacity, graph.arcs
    return {
        (graph.nodes[v].label(cap), graph.nodes[w].label(cap), CLASS_NAMES[cls])
        for v, w, cls in zip(arcs.tail, arcs.head, graph.arc_classes)
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


def test_adjacency_is_consistent(gen_instances):
    for inst in gen_instances:
        graph = build_event_graph(inst)
        for v in range(graph.node_count):
            for a in graph.out_arcs[v]:
                assert graph.arcs.tail[a] == v
            for a in graph.in_arcs[v]:
                assert graph.arcs.head[a] == v
        assert sum(len(x) for x in graph.out_arcs) == graph.arc_count
        total = sum(graph.class_counts.values())
        assert total == graph.arc_count


def test_every_public_name_resolves():
    import darpkit
    assert len(set(darpkit.__all__)) == len(darpkit.__all__)
    for name in darpkit.__all__:
        assert hasattr(darpkit, name), name
    namespace = {}
    exec("from darpkit import *", namespace)
    assert set(darpkit.__all__) <= set(namespace)


def test_arc_tables_compare_by_columns(gen_instances):
    inst = gen_instances[3]
    complete = build_event_graph(inst)
    pruned = build_event_graph(inst, pruned=True)
    assert complete.arcs == build_event_graph(inst).arcs
    assert pruned.arcs == build_event_graph(inst, pruned=True).arcs
    assert complete.arcs != pruned.arcs
    changed = build_event_graph(inst).arcs
    changed.head[-1] += 1
    assert complete.arcs != changed


def test_arc_table_keeps_no_travel_data(gen_instances):
    # two state ids per arc: travel costs and times stay in the metric,
    # and the class follows from the end states
    for inst in gen_instances:
        for graph in (build_event_graph(inst), build_event_graph(inst, pruned=True)):
            columns = [getattr(graph.arcs, c) for c in graph.arcs.__slots__]
            assert sum(c.itemsize * len(c) for c in columns) <= 16 * graph.arc_count


def test_adjacency_is_built_on_first_use(gen_instances):
    for inst in gen_instances:
        for graph in (build_event_graph(inst),
                      build_event_graph(inst, pruned=True)):
            assert not ({"pickup_nodes", "dropoff_nodes", "in_arcs", "out_arcs",
                         "arc_classes", "class_counts"} & set(vars(graph)))
            arcs = graph.arcs
            # the class is not stored: it follows from the end states' kinds
            assert arcs.__slots__ == ("tail", "head")
            states = range(graph.node_count)
            for name, kind in (("pickup_nodes", PICKUP), ("dropoff_nodes", DROPOFF)):
                assert getattr(graph, name) == {
                    i: [v for v in states if graph.nodes[v].kind == kind
                        and graph.nodes[v].request == i]
                    for i in range(1, inst.n + 1)}
                assert getattr(graph, name) is getattr(graph, name)
            assert graph.in_arcs == [
                [a for a, w in enumerate(arcs.head) if w == v] for v in states]
            assert graph.out_arcs == [
                [a for a, u in enumerate(arcs.tail) if u == v] for v in states]
            assert graph.in_arcs is graph.in_arcs
            kinds = [node.kind for node in graph.nodes]
            assert graph.arc_classes.tolist() == [
                _CLASS_OF_KINDS[kinds[v], kinds[w]]
                for v, w in zip(arcs.tail, arcs.head)]
            assert "arc_classes" in vars(graph)
            assert graph.class_counts == {c: list(graph.arc_classes).count(c)
                                          for c in CLASS_NAMES}
            assert "class_counts" in vars(graph)


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


def test_onboard_sets_match_brute_force():
    # mixed loads under capacity 6 and a partial mate relation: every set
    # of pairwise mates that fits comes once, in increasing order
    rng = random.Random(29)
    for trial in range(40):
        n = rng.randint(1, 10)
        loads = {i: rng.randint(1, 6) for i in range(1, n + 1)}
        pairs = {(i, j) for i, j in itertools.combinations(loads, 2)
                 if rng.random() < 0.6}
        mates = {i: {j for j in loads if (i, j) in pairs or (j, i) in pairs}
                 for i in loads}
        found = _onboard_sets(loads, 6, mates)
        expected = {
            onboard for size in range(1, n + 1)
            for onboard in itertools.combinations(sorted(loads, reverse=True), size)
            if sum(loads[i] for i in onboard) <= 6
            and all(j in mates[i] for i, j in itertools.combinations(onboard, 2))}
        assert len(found) == len(set(found)), trial
        assert set(found) == expected, trial
        assert found == sorted(found), trial


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
    arcs = graph.arcs
    triples = [(built[v], built[w], cls)
               for v, w, cls in zip(arcs.tail, arcs.head, graph.arc_classes)]
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
                      build_event_graph(inst, pruned=True)):
            keys = [(graph.locations[v], node.others)
                    for v, node in enumerate(graph.nodes)][1:]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            pairs = list(zip(graph.arcs.tail, graph.arcs.head))
            assert all(a < b for a, b in zip(pairs, pairs[1:]))
            # each tail's arcs form one contiguous id range
            for out in filter(None, graph.out_arcs):
                assert out == list(range(out[0], out[0] + len(out)))


def test_structural_rules_hold(gen_instances):
    for inst in gen_instances:
        graph = build_event_graph(inst)
        loads = {r.id: r.q for r in inst.requests}
        arcs = graph.arcs
        for v, w, cls in zip(arcs.tail, arcs.head, graph.arc_classes):
            tail = graph.nodes[v]
            head = graph.nodes[w]
            if cls == LEAVE_DEPOT:
                assert tail.kind == DEPOT
                assert head.kind == PICKUP and head.others == ()
            elif cls == RETURN_DEPOT:
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
    graph = build_event_graph(inst, pruned=True)
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
    labels = {node.label(2) for node in build_event_graph(apart, pruned=True).nodes}
    assert labels == {"(0,0)", "(1+,0)", "(2+,0)", "(1-,0)", "(2-,0)"}


def test_fragment_rule_on_a_worked_example(monkeypatch):
    # on a line, 1+ at 0, 2+ at 1, 1- at 2, 2- at 3, with wide windows and
    # ride limits of 2.5: of the four tours that carry both, only
    # 1+ 2+ 1- 2- keeps each ride at 2 (the others ride one request 4).
    # So (1, 2) is a compatible pair and every arc meets the arc rule, but
    # the states (1+,2) and (2-,1) lie on no feasible fragment
    wide = {"pickup": (0, 100), "dropoff": (0, 100), "max_ride": 2.5}
    inst = line_instance("one-order", positions=(0.0, 0.0, 1.0, 2.0, 3.0),
                         specs=[wide, wide], fleet_size=1, capacity=2,
                         depot_window=(0.0, 100.0))
    assert compatible_pairs(inst) == frozenset({(1, 2)})
    plain = pair_and_arc_graph(inst, monkeypatch)
    complete = build_event_graph(inst)
    assert (plain.nodes, plain.arcs) == (complete.nodes, complete.arcs)
    graph = build_event_graph(inst, pruned=True)
    # 1+ 1-, 2+ 2- and 1+ 2+ 1- 2-
    assert graph.fragments == 3 and complete.fragments is None
    labels = {node.label(2) for node in graph.nodes}
    assert {node.label(2) for node in plain.nodes} - labels == {"(1+,2)", "(2-,1)"}
    assert _arc_triples(plain) - _arc_triples(graph) == {
        ("(2+,0)", "(1+,2)", "pickup_pickup"),
        ("(1+,2)", "(1-,2)", "pickup_dropoff"),
        ("(1+,2)", "(2-,1)", "pickup_dropoff"),
        ("(2+,1)", "(2-,1)", "pickup_dropoff"),
        ("(2-,1)", "(1-,0)", "dropoff_dropoff"),
    }
    assert _arc_triples(graph) <= _arc_triples(plain)
    # a pickup after an emptying dropoff joins two feasible fragments
    assert ("(1-,0)", "(2+,0)", "dropoff_pickup") in _arc_triples(graph)


def _fragment_count(n, capacity):
    """Stop orders of unit-load requests that start with a pickup into an
    empty vehicle, carry each request once and end when it empties."""
    def orders(onboard, carried):
        found = 0
        if len(onboard) < capacity:
            for i in set(range(1, n + 1)) - carried:
                found += orders(onboard | {i}, carried | {i})
        for i in onboard:
            found += orders(onboard - {i}, carried) if len(onboard) > 1 else 1
        return found

    return sum(orders({i}, {i}) for i in range(1, n + 1))


def test_fragment_walk_carries_each_request_once():
    # after 1+ 2+ 1- 3+ 3-, the arc (3-,2) -> (1+,2) leads back to request
    # 1: the walk skips it, since a fragment picks each request up once.
    # With windows this wide every such stop order is a feasible fragment
    wide = {"pickup": (0, 100), "dropoff": (0, 100), "max_ride": 100}
    inst = line_instance("loose", positions=range(7), specs=[wide] * 3,
                         fleet_size=1, capacity=2, depot_window=(0.0, 100.0))
    graph = build_event_graph(inst, pruned=True)
    complete = build_event_graph(inst)
    assert (graph.nodes, graph.arcs) == (complete.nodes, complete.arcs)
    assert _fragment_count(2, 2) == 6
    assert graph.fragments == _fragment_count(3, 2) == 39


def test_fragment_walk_stops_at_its_budget(monkeypatch):
    # with windows this loose, six requests close a million fragments:
    # the walk gives up and the rule keeps every arc of the pair and arc
    # rules, which stays exact
    for n in (7, 16):
        inst = ring_instance(n, 3)
        graph = build_event_graph(inst, pruned=True)
        assert graph.fragments is None
        plain = pair_and_arc_graph(inst, monkeypatch)
        assert (graph.nodes, graph.arcs) == (plain.nodes, plain.arcs)
    # four of those requests take 3 812 pushes and close 1 468 fragments
    inst = ring_instance(4, 3)
    monkeypatch.setattr(event_graph, "FRAGMENT_WALK_BUDGET", 3812)
    assert build_event_graph(inst, pruned=True).fragments == 1468
    monkeypatch.setattr(event_graph, "FRAGMENT_WALK_BUDGET", 3811)
    graph = build_event_graph(inst, pruned=True)
    plain = pair_and_arc_graph(inst, monkeypatch)
    assert graph.fragments is None
    assert (graph.nodes, graph.arcs) == (plain.nodes, plain.arcs)


def test_compatible_pairs_match_the_four_tour_reference(gen_instances):
    mixed = [ring_instance(6, 3, loads={1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 1}),
             ring_instance(5, 6, loads={1: 4, 2: 2, 3: 3, 4: 6, 5: 1})]
    instances = [*gen_instances, *criterion3_instances(), *mixed]
    instances += [outbound_evens(inst) for inst in instances]
    assert any(inst.requests[1].direction == OUTBOUND for inst in instances)
    for inst in instances:
        assert compatible_pairs(inst) == compatible_pairs_reference(inst), inst.name


def _loose(**spec):
    """A request spec with wide windows unless given."""
    return {"pickup": (0, 100), "dropoff": (0, 200), "max_ride": 100, **spec}


def test_compatible_pair_found_only_in_the_second_pickup_order():
    # 1 is picked up at 20 at the earliest, 2 by 5 at the latest: only
    # the tours that pick up 2 first fit
    inst = line_instance(
        "second-first", positions=(0.0, 1.0, 2.0, 3.0, 4.0),
        specs=[_loose(pickup=(20, 25)), _loose(pickup=(0, 5))],
        fleet_size=1, capacity=2, depot_window=(0.0, 300.0))
    drops = ((1, 2), (2, 1))
    for first, second in ((1, 2), (2, 1)):
        fits = [_tour_times(((first, PICKUP), (second, PICKUP),
                             (c, DROPOFF), (d, DROPOFF)), inst) is not None
                for c, d in drops]
        assert fits == ([False, False] if first == 1 else [True, True])
    assert compatible_pairs(inst) == compatible_pairs_reference(inst) == {(1, 2)}


def test_unreachable_first_pickup_pairs_with_nobody():
    # 1's pickup lies 50 from the depot and closes at 10: it misses its
    # window alone, so no tour carries it; 2 and 3 still pair
    inst = line_instance(
        "unreachable", positions=(0.0, 50.0, 1.0, 2.0, 51.0, 3.0, 4.0),
        specs=[_loose(pickup=(0, 10)), _loose(), _loose()],
        fleet_size=1, capacity=3, depot_window=(0.0, 300.0))
    assert not _Prefix(inst).push((1, PICKUP))
    assert compatible_pairs(inst) == compatible_pairs_reference(inst) == {(2, 3)}


def test_pair_over_capacity_is_refused():
    # seats 2 + 2 exceed the capacity 3 however loose the windows are
    inst = line_instance(
        "seats", positions=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        specs=[_loose(q=2), _loose(q=2), _loose(q=1)],
        fleet_size=1, capacity=3, depot_window=(0.0, 300.0))
    assert compatible_pairs(inst) == compatible_pairs_reference(inst) == {(1, 3), (2, 3)}


def _meets_arc_rule(inst, tail, head):
    """The arc rule on two locations, e + s + t <= l within 1e-9."""
    return (inst.windows[tail][0] + inst.service[tail]
            + inst.metric.time(tail, head) <= inst.windows[head][1] + 1e-9)


def test_pruned_graph_is_an_ordered_subgraph(gen_instances):
    instances = [*gen_instances, *map(outbound_evens, gen_instances)]
    for inst in instances:
        full = build_event_graph(inst)
        pairs = compatible_pairs(inst)
        pruned = build_event_graph(inst, pruned=True)
        assert not full.pruned and pruned.pruned
        # ids: the full graph's order restricted to the survivors
        full_id = {node: v for v, node in enumerate(full.nodes)}
        ids = [full_id[node] for node in pruned.nodes]
        assert ids == sorted(ids) and ids[0] == 0
        assert [full.locations[v] for v in ids] == list(pruned.locations)
        fa, pa = full.arcs, pruned.arcs
        full_arcs = dict(zip(zip(fa.tail, fa.head), full.arc_classes))
        keys = [(ids[v], ids[w]) for v, w in zip(pa.tail, pa.head)]
        assert keys == sorted(keys)
        for cls, key in zip(pruned.arc_classes, keys):
            assert full_arcs[key] == cls
        # complete: the pruned arcs are exactly the full graph's arcs
        # between survivors that meet the arc rule
        kept = set(ids)
        assert keys == [
            (v, w) for v, w in zip(fa.tail, fa.head)
            if v in kept and w in kept
            and _meets_arc_rule(inst, full.locations[v], full.locations[w])]
        for v, node in enumerate(pruned.nodes):
            # pair rule: the onboard set is a clique of compatible pairs
            onboard = sorted({node.request, *node.others} - {0})
            for k, i in enumerate(onboard):
                assert all((i, j) in pairs for j in onboard[k + 1:])
            # no dead state survives
            if v:
                assert pruned.in_arcs[v] and pruned.out_arcs[v]
        again = build_event_graph(inst, pruned=True)
        assert again.nodes == pruned.nodes and again.arcs == pruned.arcs


def test_graph_stats_of_a_pruned_graph(gen_instances):
    inst = gen_instances[0]
    stats = graph_stats(build_event_graph(inst, pruned=True))
    # the closed forms describe the complete graph only
    assert "closed_form" not in stats


# sha-256 of the complete and pruned graphs of the instances below: a
# builder rewrite must keep every node, location, arc and compatible pair.
# The columns enter as lists, since the item size of array("l") depends on
# the platform
GRAPH_DIGEST = "9802640b66ff7f541d2dcb5e6c7dca7316323bd3a7326bda4b5844355c9c6777"


def test_graphs_stay_identical():
    insts = [*criterion3_instances()[::5],
             *(generate_synthetic(GeneratorConfig(n=15, capacity=3, seed=seed))
               for seed in (1, 2)),
             *(generate_synthetic(
                 GeneratorConfig(n=7, capacity=3, seed=seed, area_side=3.0))
               for seed in range(4))]
    digest = hashlib.sha256()
    for inst in insts:
        for pruned in (False, True):
            graph = build_event_graph(inst, pruned=pruned)
            arcs = graph.arcs
            for part in (graph.nodes, graph.locations, arcs.tail.tolist(),
                         arcs.head.tolist(), graph.arc_classes.tolist(),
                         sorted(graph.compatible) if pruned else None):
                digest.update(repr(part).encode() + b"\0")
    assert digest.hexdigest() == GRAPH_DIGEST
