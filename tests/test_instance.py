import hashlib
import json
import math
import random
import re
import tracemalloc
from dataclasses import replace

import pytest

from darpkit import (
    DataError, FLEET_SIZES, GeneratorConfig, INBOUND, OUTBOUND, Instance,
    ParseError, Request, TravelMetric, cli, generate_synthetic, instance_from_json,
    instance_to_json, parse_cordeau, tighten_time_windows,
)
from darpkit.instance import DROPOFF, PICKUP

from helpers import criterion3_instances, line_instance, line_metric


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_euclidean_metric_cost_and_time():
    m = TravelMetric(coords={0: (0.0, 0.0), 1: (3.0, 4.0)}, time_factor=4.0)
    assert m.cost(0, 1) == pytest.approx(5.0)
    assert m.time(0, 1) == pytest.approx(20.0)
    assert m.cost(1, 1) == 0.0


def test_metric_unknown_location():
    m = TravelMetric(coords={0: (0.0, 0.0)})
    with pytest.raises(DataError):
        m.cost(0, 7)
    m2 = line_metric((0.0, 1.0))
    with pytest.raises(DataError):
        m2.time(0, 5)


@pytest.mark.parametrize("metric", [
    line_metric((0.0, 1.0, 5.0)),
    TravelMetric(coords={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (5.0, 0.0)}),
], ids=["matrix", "coords"])
@pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_metric_rejects_ids_outside_the_table(metric, a, b):
    with pytest.raises(DataError, match="unknown location"):
        metric.cost(a, b)
    with pytest.raises(DataError, match="unknown location"):
        metric.time(a, b)


@pytest.mark.parametrize("metric", [
    line_metric((0.0, 1.0, 5.0)),
    TravelMetric(coords={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (5.0, 0.0)},
                 time_factor=4.0),
], ids=["matrix", "coords"])
def test_metric_rows_hold_the_pairwise_values(metric):
    for rows in (metric.cost_rows, metric.time_rows):
        assert type(rows) is tuple and len(rows) == metric.size == 3
        assert all(type(row) is tuple and len(row) == 3 for row in rows)
    for a in range(metric.size):
        assert metric.cost_rows[a] == tuple(metric.cost(a, b) for b in range(3))
        assert metric.time_rows[a] == tuple(metric.time(a, b) for b in range(3))
        assert metric.time_rows[a] == tuple(metric.time_factor * c
                                            for c in metric.cost_rows[a])


@pytest.mark.parametrize("factor", [4.0, 0.5])
def test_matrix_metric_refuses_a_time_factor(factor):
    mat = line_metric((0.0, 1.0)).cost_matrix
    # a matrix carries its times, so another factor would be stored unused
    with pytest.raises(DataError, match="time_factor must be 1"):
        TravelMetric(cost_matrix=mat, time_matrix=mat, time_factor=factor)
    metric = TravelMetric(cost_matrix=mat, time_matrix=mat, time_factor=1)
    assert metric.time(0, 1) == 1.0


def test_metric_rejects_coordinates_that_skip_an_id():
    with pytest.raises(DataError, match="0..m-1"):
        TravelMetric(coords={0: (0.0, 0.0), 2: (1.0, 0.0)})
    with pytest.raises(DataError, match="0..m-1"):
        TravelMetric(coords={1: (0.0, 0.0), 2: (1.0, 0.0)})


def test_coordinate_table_matches_the_scalar_formula():
    inst = generate_synthetic(GeneratorConfig(n=6, capacity=3, seed=4))
    metric = inst.metric
    for a, (xa, ya) in metric.coords.items():
        for b, (xb, yb) in metric.coords.items():
            cost = math.hypot(xa - xb, ya - yb)
            assert metric.cost(a, b) == cost
            assert metric.time(a, b) == metric.time_factor * cost


def _first_triangle_violation(mat):
    """The loop the vectorised triangle check replaced, as a reference."""
    m = len(mat)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if mat[i][k] > mat[i][j] + mat[j][k] + 1e-9:
                    return (i, j, k)
    return None


@pytest.mark.parametrize("seed", range(8))
def test_triangle_check_names_the_first_violation(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 7)
    mat = tuple(tuple(0.0 if i == j else float(rng.randint(1, 9)) for j in range(m))
                for i in range(m))
    first = _first_triangle_violation(mat)
    if first is None:
        TravelMetric(cost_matrix=mat, time_matrix=mat)
        return
    with pytest.raises(DataError, match="triangle") as exc:
        TravelMetric(cost_matrix=mat, time_matrix=mat)
    assert str(exc.value).endswith(f"on {first}")


def test_triangle_check_memory_grows_with_the_square_of_the_size():
    import numpy  # noqa: F401  (loaded before tracing, as the check loads it)

    rng = random.Random(5)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(150)]
    mat = tuple(tuple(math.hypot(xa - xb, ya - yb) for xb, yb in pts)
                for xa, ya in pts)
    tracemalloc.start()
    try:
        TravelMetric(cost_matrix=mat, time_matrix=mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an m^3 temporary would take 150^3 * 9 bytes, about 30 MB
    assert peak < 5_000_000


def test_metric_matrices_must_match_in_size():
    with pytest.raises(DataError, match="differ in size"):
        TravelMetric(cost_matrix=((0.0, 1.0), (1.0, 0.0)), time_matrix=((0.0,),))


def test_metric_needs_exactly_one_source():
    with pytest.raises(DataError):
        TravelMetric()
    with pytest.raises(DataError):
        TravelMetric(coords={0: (0, 0)}, cost_matrix=((0.0,),), time_matrix=((0.0,),))
    with pytest.raises(DataError):
        TravelMetric(cost_matrix=((0.0,),))  # time matrix missing


def test_matrix_metric_validation():
    with pytest.raises(DataError, match="square"):
        TravelMetric(cost_matrix=((0.0, 1.0), (1.0,)),
                     time_matrix=((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(DataError, match="negative"):
        TravelMetric(cost_matrix=((0.0, -1.0), (1.0, 0.0)),
                     time_matrix=((0.0, 1.0), (1.0, 0.0)))
    bad = ((0.0, 2.0, 10.0), (2.0, 0.0, 3.0), (10.0, 3.0, 0.0))
    ok = ((0.0, 2.0, 5.0), (2.0, 0.0, 3.0), (5.0, 3.0, 0.0))
    with pytest.raises(DataError, match="triangle"):
        TravelMetric(cost_matrix=bad, time_matrix=ok)
    TravelMetric(cost_matrix=ok, time_matrix=ok)  # no raise


NAN, INF = math.nan, math.inf
UNIT = ((0.0, 1.0), (1.0, 0.0))


@pytest.mark.parametrize("build, message", [
    (lambda: TravelMetric(coords={0: (0.0, 0.0)}, time_factor=NAN), "time_factor"),
    (lambda: TravelMetric(coords={0: (0.0, 0.0)}, time_factor=INF), "time_factor"),
    (lambda: TravelMetric(coords={0: (0.0, 0.0), 1: (NAN, 1.0)}),
     "coordinate for location 1"),
    (lambda: TravelMetric(coords={0: (0.0, 0.0), 1: (1.0, -INF)}),
     "coordinate for location 1"),
    (lambda: TravelMetric(cost_matrix=((0.0, NAN), (1.0, 0.0)), time_matrix=UNIT),
     r"non-finite cost entry at \(0, 1\)"),
    (lambda: TravelMetric(cost_matrix=UNIT, time_matrix=((0.0, 1.0), (INF, 0.0))),
     r"non-finite time entry at \(1, 0\)"),
], ids=["nan time_factor", "inf time_factor", "nan coordinate",
        "inf coordinate", "nan cost", "inf time"])
def test_metric_rejects_non_finite_values(build, message):
    with pytest.raises(DataError, match=message):
        build()


# ---------------------------------------------------------------------------
# request / instance validation
# ---------------------------------------------------------------------------

def _request(**overrides):
    base = dict(id=1, q=1, s=1.0,
                pickup_window=(0.0, 10.0), dropoff_window=(0.0, 10.0),
                max_ride=5.0)
    base.update(overrides)
    return Request(**base)


@pytest.mark.parametrize("bad", [
    {"q": 0},
    {"s": -1.0},
    {"max_ride": 0.0},
    {"pickup_window": (5.0, 1.0)},
    {"dropoff_window": (5.0, 1.0)},
    {"direction": "sideways"},
])
def test_request_validation(bad):
    with pytest.raises(DataError):
        _request(**bad)


@pytest.mark.parametrize("bad", [
    {"pickup_window": (NAN, 10.0)},
    {"pickup_window": (0.0, INF)},
    {"dropoff_window": (0.0, NAN)},
    {"dropoff_window": (-INF, 10.0)},
    {"max_ride": NAN},
    {"max_ride": INF},
    {"s": NAN},
    {"s": INF},
])
def test_request_rejects_non_finite_values(bad):
    with pytest.raises(DataError, match="non-finite"):
        _request(**bad)


def _one_request_instance(**overrides):
    base = dict(name="a", requests=(_request(),), fleet_size=1, capacity=2,
                depot_window=(0.0, 100.0), metric=line_metric((0.0, 1.0, 2.0)))
    base.update(overrides)
    return Instance(**base)


@pytest.mark.parametrize("build, field", [
    (lambda: _request(id=1.0), "request id"),
    (lambda: _request(id=True), "request id"),
    (lambda: _request(q=1.5), "seat demand q"),
    (lambda: _request(q=True), "seat demand q"),
    (lambda: _one_request_instance(fleet_size=2.5), "fleet_size"),
    (lambda: _one_request_instance(fleet_size=True), "fleet_size"),
    (lambda: _one_request_instance(capacity=2.0), "capacity"),
    (lambda: GeneratorConfig(n=3.0, capacity=3, seed=0), "n"),
    (lambda: GeneratorConfig(n=True, capacity=3, seed=0), "n"),
    (lambda: GeneratorConfig(n=3, capacity=3.0, seed=0), "capacity"),
    (lambda: GeneratorConfig(n=3, capacity=3, seed=0, fleet_size=2.5), "fleet_size"),
    (lambda: GeneratorConfig(n=3, capacity=3, seed="1"), "seed"),
    (lambda: GeneratorConfig(n=3, capacity=3, seed=True), "seed"),
    (lambda: GeneratorConfig(n=3, capacity=3, seed=1.0), "seed"),
], ids=["id-float", "id-bool", "q-float", "q-bool", "fleet-float", "fleet-bool",
        "capacity-float", "gen-n-float", "gen-n-bool", "gen-capacity-float",
        "gen-fleet-float", "gen-seed-text", "gen-seed-bool", "gen-seed-float"])
def test_integer_fields_refuse_other_types(build, field):
    # a float or a bool where an int belongs is refused when the object
    # is made, not later in a build or on reading the exported JSON back
    with pytest.raises(DataError, match=rf"{field} must be an integer"):
        build()


@pytest.mark.parametrize("rid", [0, -1, 2])
def test_request_lookup_rejects_unknown_ids(rid):
    inst = Instance(name="a", requests=(_request(),), fleet_size=1,
                    capacity=2, depot_window=(0.0, 100.0),
                    metric=line_metric((0.0, 1.0, 2.0)))
    with pytest.raises(DataError, match="unknown request"):
        inst.request(rid)


def test_instance_validation():
    metric = line_metric((0.0, 1.0, 2.0))
    req = _request()
    ok = Instance(name="a", requests=(req,), fleet_size=1, capacity=2,
                  depot_window=(0.0, 100.0), metric=metric)
    assert ok.n == 1 and ok.horizon == 100.0
    assert ok.request(1) is req
    with pytest.raises(DataError, match="fleet"):
        Instance(name="a", requests=(req,), fleet_size=0, capacity=2,
                 depot_window=(0.0, 100.0), metric=metric)
    with pytest.raises(DataError, match="capacity"):
        Instance(name="a", requests=(_request(q=3),), fleet_size=1, capacity=2,
                 depot_window=(0.0, 100.0), metric=metric)
    with pytest.raises(DataError, match="ids"):
        Instance(name="a", requests=(_request(id=2),), fleet_size=1, capacity=2,
                 depot_window=(0.0, 100.0), metric=metric)


def test_instance_needs_a_request():
    # as parse_cordeau and GeneratorConfig already refuse n = 0
    with pytest.raises(DataError, match="at least one request"):
        Instance(name="a", requests=(), fleet_size=1, capacity=2,
                 depot_window=(0.0, 100.0), metric=line_metric((0.0, 1.0, 2.0)))
    doc = json.loads(instance_to_json(generate_synthetic(
        GeneratorConfig(n=2, capacity=3, seed=0))))
    doc["requests"] = []
    with pytest.raises(DataError, match="at least one request"):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize("window", [(NAN, 100.0), (0.0, INF)])
def test_instance_rejects_a_non_finite_depot_window(window):
    with pytest.raises(DataError, match="non-finite depot window"):
        Instance(name="a", requests=(_request(),), fleet_size=1, capacity=2,
                 depot_window=window,
                 metric=line_metric((0.0, 1.0, 2.0)))


@pytest.mark.parametrize("metric", [
    line_metric((0.0, 1.0)),
    TravelMetric(coords={0: (0.0, 0.0), 1: (1.0, 0.0)}),
], ids=["matrix", "coords"])
def test_instance_rejects_a_metric_short_of_its_locations(metric):
    # one request needs locations 0, 1 and 2; the metric stops at 1
    with pytest.raises(DataError, match=r"metric covers locations 0\.\.1"):
        Instance(name="a", requests=(_request(),), fleet_size=1, capacity=2,
                 depot_window=(0.0, 100.0), metric=metric)


def test_instance_json_rejects_a_short_metric():
    doc = json.loads(instance_to_json(
        generate_synthetic(GeneratorConfig(n=2, capacity=3, seed=1))))
    del doc["metric"]["coords"]["4"]
    with pytest.raises(DataError, match="metric covers locations 0..3"):
        instance_from_json(json.dumps(doc))


def test_instance_json_rejects_a_moved_depot():
    inst = line_instance(
        "moved", positions=(0.0, 1.0, 3.0),
        specs=[{"pickup": (0, 10), "dropoff": (0, 20), "max_ride": 9}],
        fleet_size=1, capacity=1, depot_window=(0.0, 100.0))
    doc = json.loads(instance_to_json(inst))
    doc["depot"]["location"] = -1
    with pytest.raises(DataError, match="depot must be location 0"):
        instance_from_json(json.dumps(doc))


def _refused_by_the_cli(doc, tmp_path, capsys):
    """The command-line error line for an instance document, which must
    make ``darpkit graph`` exit 2."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _field(doc, where):
    """(node, key) of the field at path ``where`` of a JSON document."""
    node = doc
    for key in where[:-1]:
        node = node[key]
    return node, where[-1]


SCHEME = "locations must follow the 0/1..n/n+1..2n scheme"


@pytest.mark.parametrize("moves, message", [
    ([(("depot", "location"), -1)], "depot must be location 0, got -1"),
    ([(("depot", "location"), 1)], "depot must be location 0, got 1"),
    ([(("depot", "location"), 2)], "depot must be location 0, got 2"),
    ([(("requests", 0, "pickup", "location"), 2)], f"request 1: {SCHEME}"),
    ([(("requests", 2, "dropoff", "location"), 5)], f"request 3: {SCHEME}"),
    ([(("requests", 1, "pickup", "location"), 5),
      (("requests", 1, "dropoff", "location"), 2)], f"request 2: {SCHEME}"),
    ([(("requests", 0, "pickup", "location"), 2),
      (("requests", 1, "pickup", "location"), 1)], f"request 1: {SCHEME}"),
], ids=["depot=-1", "depot=1", "depot=2", "pickup-shifted", "dropoff-shifted",
        "pickup-dropoff-swapped", "pickups-swapped"])
def test_instance_json_refuses_locations_off_the_scheme(moves, message, tmp_path,
                                                        capsys):
    doc = json.loads(instance_to_json(
        generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))))
    for where, value in moves:
        node, key = _field(doc, where)
        node[key] = value
    with pytest.raises(DataError, match=re.escape(message)):
        instance_from_json(json.dumps(doc))
    assert message in _refused_by_the_cli(doc, tmp_path, capsys)


@pytest.mark.parametrize("where, value", [
    (("fleet_size",), 2.9), (("fleet_size",), "2"),
    (("capacity",), 3.5), (("capacity",), True),
    (("requests", 0, "q"), 1.5), (("requests", 0, "id"), 1.7),
    (("requests", 0, "q"), False), (("depot", "location"), 0.5),
    (("requests", 1, "pickup", "location"), 2.0000001),
    (("requests", 1, "dropoff", "location"), "5"),
])
def test_instance_json_reads_integers_strictly(where, value, tmp_path, capsys):
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    doc = json.loads(instance_to_json(inst))
    node, key = _field(doc, where)
    # an integral float reads as the integer it is
    node[key] = float(node[key])
    same = instance_from_json(json.dumps(doc))
    assert same == inst
    assert type(same.fleet_size) is int and type(same.capacity) is int
    assert all(type(r.id) is int and type(r.q) is int for r in same.requests)
    node[key] = value
    with pytest.raises(ParseError, match="must be an integer"):
        instance_from_json(json.dumps(doc))
    assert "must be an integer" in _refused_by_the_cli(doc, tmp_path, capsys)


@pytest.mark.parametrize("where, value", [
    (("metric", "time_factor"), "4"), (("requests", 0, "s"), True),
    (("requests", 0, "max_ride"), "9.5"), (("metric", "coords", "1", 0), "1.0"),
    (("requests", 1, "pickup", "l"), False), (("requests", 2, "dropoff", "e"), "0"),
    (("depot", "e"), None), (("depot", "l"), [150.0]),
])
def test_instance_json_reads_real_numbers_strictly(where, value, tmp_path, capsys):
    inst = generate_synthetic(GeneratorConfig(n=3, capacity=3, seed=1))
    doc = json.loads(instance_to_json(inst))
    node, key = _field(doc, where)
    # an int reads as the float it is
    if float(node[key]).is_integer():
        node[key] = int(node[key])
        assert instance_from_json(json.dumps(doc)) == inst
    node[key] = value
    with pytest.raises(ParseError, match="must be a number"):
        instance_from_json(json.dumps(doc))
    assert "must be a number" in _refused_by_the_cli(doc, tmp_path, capsys)


@pytest.mark.parametrize("matrix, value", [("cost", "5"), ("time", True)])
def test_instance_json_reads_matrix_entries_strictly(stacked_instance, matrix, value):
    doc = json.loads(instance_to_json(stacked_instance))
    doc["metric"][matrix][0][1] = value
    with pytest.raises(ParseError, match=f"{matrix} entry must be a number"):
        instance_from_json(json.dumps(doc))


def test_instance_stop_tables(stacked_instance):
    inst = stacked_instance
    assert inst.windows[0] == inst.depot_window and inst.service[0] == 0.0
    for r in inst.requests:
        pickup, dropoff = inst.location(r.id, PICKUP), inst.location(r.id, DROPOFF)
        assert (pickup, dropoff) == (r.id, inst.n + r.id)
        assert inst.windows[pickup] == r.pickup_window
        assert inst.windows[dropoff] == r.dropoff_window
        assert inst.service[pickup] == inst.service[dropoff] == r.s
    assert len(inst.windows) == len(inst.service) == 2 * inst.n + 1
    with pytest.raises(DataError, match="unknown request"):
        inst.location(inst.n + 1, PICKUP)
    # the stop table: location, window, ride limit L_i + s_i and request
    assert len(inst.stop_table) == 2 * inst.n
    for r in inst.requests:
        for kind, limit in ((PICKUP, None), (DROPOFF, r.max_ride + r.s)):
            loc = inst.location(r.id, kind)
            assert inst.stop_table[r.id, kind] == (loc, *inst.windows[loc], limit, r)
    # an id reads as the number it equals; any other stop names no location
    assert inst.location(1.0, PICKUP) == 1 and inst.location(1.0, DROPOFF) == inst.n + 1
    for rid, kind in ((1, "x"), (1, "depot"), ("1", PICKUP), (1.5, DROPOFF), ([1], PICKUP)):
        with pytest.raises(DataError, match=re.escape(repr((rid, kind)))):
            inst.location(rid, kind)
    # the table follows the requests it was built from, and takes no part in
    # equality or repr
    first = inst.requests[0]
    moved = replace(first, pickup_window=tuple(t + 1.0 for t in first.pickup_window))
    other = replace(inst, requests=(moved, *inst.requests[1:]))
    assert other.stop_table[1, PICKUP][1:3] == moved.pickup_window != first.pickup_window
    assert other.stop_table[1, PICKUP][4] is moved
    assert inst == replace(inst) and inst != other
    assert "stop_table" not in repr(inst)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_parse_cordeau_basic(tiny_cordeau_text):
    inst = parse_cordeau(tiny_cordeau_text, name="tiny")
    assert inst.name == "tiny"
    assert inst.n == 2
    assert inst.fleet_size == 2
    assert inst.capacity == 3
    assert inst.depot_window == (0.0, 480.0)  # zero depot row widens to horizon
    r1, r2 = inst.requests
    assert r1.pickup_window == (100.0, 115.0)
    assert r1.q == 1 and r1.s == 3.0 and r1.max_ride == 30.0
    assert r2.dropoff_window == (200.0, 215.0)
    assert r1.direction is None
    assert inst.metric.coords[4] == (0.5, 4.0)
    assert inst.metric.time_factor == 1.0


def test_parse_cordeau_header_count_layouts(tiny_cordeau_text):
    lines = tiny_cordeau_text.strip().splitlines()
    # header may count all rows instead of only the request rows
    with_total = "\n".join(["2 5 480 3 30"] + lines[1:])
    assert parse_cordeau(with_total).n == 2
    # trailing depot copy, header counts all rows
    trailing = "\n".join(["2 6 480 3 30"] + lines[1:] + ["5 0.0 0.0 0 0 0 480"])
    assert parse_cordeau(trailing).n == 2
    # trailing depot copy, header counts request rows only
    trailing2 = "\n".join(["2 4 480 3 30"] + lines[1:] + ["5 0.0 0.0 0 0 0 480"])
    assert parse_cordeau(trailing2).n == 2


def test_parse_cordeau_explicit_depot_window(tiny_cordeau_text):
    text = tiny_cordeau_text.replace("0 0.0 0.0 0 0 0 480", "0 0.0 0.0 0 0 10 300")
    inst = parse_cordeau(text)
    assert inst.depot_window == (10.0, 300.0)


@pytest.mark.parametrize("mangle, message", [
    (lambda ls: [], "empty"),
    (lambda ls: ["2 4 480 3"] + ls[1:], "header"),
    (lambda ls: ["x 4 480 3 30"] + ls[1:], "non-numeric"),
    (lambda ls: ls[:3], "do not match"),
    (lambda ls: ls[:2] + ["9 -1.0 3.0 3 1 0 480"] + ls[3:], "carries id"),
    (lambda ls: ls[:4] + ["3 2.0 -1.0 3 -2 0 480"] + ls[5:], "load mismatch"),
    (lambda ls: ls[:4] + ["3 2.0 -1.0 5 -1 0 480"] + ls[5:], "service duration mismatch"),
    (lambda ls: ls[:1] + ["0 0.0 0.0 0 0 0 480 9"] + ls[2:], "7 fields"),
    (lambda ls: ls[:2] + ["1 1.0 2.0 3 0 100 115"] + ls[3:], "positive"),
    (lambda ls: ["inf 4 480 3 30"] + ls[1:], "integer"),
    (lambda ls: ["2 nan 480 3 30"] + ls[1:], "integer"),
    # a header alone declares n = -1, which Instance's own check never sees
    (lambda ls: ["2 0 480 3 30"], "at least one request"),
])
def test_parse_cordeau_errors(tiny_cordeau_text, mangle, message):
    lines = tiny_cordeau_text.strip().splitlines()
    with pytest.raises(ParseError, match=message):
        parse_cordeau("\n".join(mangle(lines)))


def test_parse_cordeau_demand_over_capacity(tiny_cordeau_text):
    text = tiny_cordeau_text.replace("1 1.0 2.0 3 1 100 115",
                                     "1 1.0 2.0 3 5 100 115")
    text = text.replace("3 2.0 -1.0 3 -1 0 480", "3 2.0 -1.0 3 -5 0 480")
    with pytest.raises(ParseError, match="capacity"):
        parse_cordeau(text)


# ---------------------------------------------------------------------------
# time-window tightening
# ---------------------------------------------------------------------------

def test_tighten_inbound_and_outbound(tiny_cordeau_text):
    inst = tighten_time_windows(parse_cordeau(tiny_cordeau_text))
    r1, r2 = inst.requests
    t1 = math.sqrt(10.0)   # pickup 1 at (1,2), dropoff at (2,-1)
    t2 = math.sqrt(3.25)   # pickup 2 at (-1,3), dropoff at (0.5,4)
    assert r1.direction == INBOUND
    assert r1.dropoff_window == pytest.approx((100.0 + 3.0 + t1, 115.0 + 3.0 + 30.0))
    assert inst.metric.time(1, 3) == pytest.approx(t1)
    assert r2.direction == OUTBOUND
    assert r2.pickup_window == pytest.approx((200.0 - 30.0 - 3.0, 215.0 - t2 - 3.0))
    assert inst.metric.time(2, 4) == pytest.approx(t2)


def test_tighten_tie_prefers_inbound():
    inst = line_instance(
        "tie", positions=(0.0, 1.0, 6.0),
        specs=[{"pickup": (10, 20), "dropoff": (30, 40), "max_ride": 9,
                "direction": None}],
        fleet_size=1, capacity=1, depot_window=(0.0, 100.0))
    out = tighten_time_windows(inst)
    assert out.requests[0].direction == INBOUND
    # dropoff derived from the pickup window, not kept
    assert out.requests[0].dropoff_window == (15.0, 29.0)


def test_tighten_keeps_preset_direction():
    # a preset outbound request is not reclassified even though its
    # pickup window is the narrower one
    inst = line_instance(
        "preset", positions=(0.0, 1.0, 6.0),
        specs=[{"pickup": (10, 20), "dropoff": (30, 80), "max_ride": 9,
                "s": 1, "direction": OUTBOUND}],
        fleet_size=1, capacity=1, depot_window=(0.0, 100.0))
    out = tighten_time_windows(inst)
    r = out.requests[0]
    assert r.direction == OUTBOUND
    assert r.pickup_window == (30.0 - 9.0 - 1.0, 80.0 - 5.0 - 1.0)
    assert r.dropoff_window == (30.0, 80.0)


def test_tighten_is_idempotent(tiny_cordeau_text):
    once = tighten_time_windows(parse_cordeau(tiny_cordeau_text))
    assert tighten_time_windows(once) == once


def test_tighten_clips_to_depot_window():
    inst = line_instance(
        "clip", positions=(0.0, 1.0, 6.0),
        specs=[{"pickup": (90, 99), "dropoff": (0, 100), "max_ride": 20,
                "direction": None}],
        fleet_size=1, capacity=1, depot_window=(0.0, 100.0))
    out = tighten_time_windows(inst)
    # unclipped dropoff end would be 99 + 20 = 119
    assert out.requests[0].dropoff_window == (95.0, 100.0)


def test_tighten_rejects_unclassifiable():
    inst = line_instance(
        "wide", positions=(0.0, 1.0, 6.0),
        specs=[{"pickup": (0, 100), "dropoff": (0, 100), "max_ride": 9,
                "direction": None}],
        fleet_size=1, capacity=1, depot_window=(0.0, 100.0))
    with pytest.raises(DataError, match="classify"):
        tighten_time_windows(inst)


def test_tighten_rejects_empty_after_clip():
    inst = line_instance(
        "late", positions=(0.0, 1.0, 6.0),
        specs=[{"pickup": (300, 310), "dropoff": (0, 1000), "max_ride": 9,
                "direction": None}],
        fleet_size=1, capacity=1, depot_window=(0.0, 150.0))
    with pytest.raises(DataError, match="empty"):
        tighten_time_windows(inst)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generator_is_deterministic():
    cfg = GeneratorConfig(n=4, capacity=3, seed=42)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert a == b
    assert instance_to_json(a) == instance_to_json(b)
    c = generate_synthetic(GeneratorConfig(n=4, capacity=3, seed=43))
    assert instance_to_json(c) != instance_to_json(a)


def test_generator_unit_loads_for_small_capacity():
    inst = generate_synthetic(GeneratorConfig(n=6, capacity=3, seed=0))
    assert inst.name == "synth-q3-n6-s0"
    assert all(r.q == 1 and r.s == 1.0 for r in inst.requests)


def test_generator_mixed_loads_for_large_capacity():
    inst = generate_synthetic(GeneratorConfig(n=30, capacity=6, seed=0))
    qs = {r.q for r in inst.requests}
    assert qs <= set(range(1, 7))
    assert len(qs) > 1
    assert all(r.s == float(r.q) for r in inst.requests)


def test_generator_windows_and_rides():
    inst = generate_synthetic(GeneratorConfig(n=10, capacity=3, seed=9))
    for r in inst.requests:
        assert r.direction == INBOUND
        e, l = r.pickup_window
        assert 15.0 <= e <= 60.0
        assert (e - 15.0) % 5.0 == 0.0
        assert l - e == 15.0
        direct = inst.metric.time(r.id, inst.n + r.id)
        assert r.max_ride == pytest.approx(1.5 * direct)
        # derived dropoff window, no clipping at the horizon
        assert r.dropoff_window[0] == pytest.approx(e + r.s + direct)
        assert r.dropoff_window[1] == pytest.approx(l + r.s + r.max_ride)
        assert r.dropoff_window[1] < inst.horizon
    assert inst.depot_window == (0.0, 150.0)
    assert inst.metric.coords[0] == (2.5, 2.5)


def test_generator_fleet_sizes():
    assert generate_synthetic(GeneratorConfig(n=20, capacity=3, seed=1)).fleet_size == 9
    assert generate_synthetic(GeneratorConfig(n=25, capacity=6, seed=1)).fleet_size == 15
    # sizes without a table entry fall back to half the requests
    assert generate_synthetic(GeneratorConfig(n=7, capacity=3, seed=1)).fleet_size == 4
    assert generate_synthetic(
        GeneratorConfig(n=20, capacity=3, seed=1, fleet_size=2)).fleet_size == 2
    assert (3, 10) in FLEET_SIZES and FLEET_SIZES[(6, 40)] == 20


@pytest.mark.parametrize("bad", [
    {"n": 0}, {"capacity": 4}, {"area_side": 0.0}, {"fleet_size": 0},
])
def test_generator_config_validation(bad):
    base = dict(n=3, capacity=3, seed=1)
    base.update(bad)
    with pytest.raises(DataError):
        GeneratorConfig(**base)


@pytest.mark.parametrize("side", [math.nan, math.inf, "5", None, True])
def test_generator_refuses_a_non_finite_area(side):
    # a non-finite side never yields two distinct points, so generating
    # would not end; text, None and a bool are no side at all
    with pytest.raises(DataError, match="area_side"):
        GeneratorConfig(n=3, capacity=3, seed=1, area_side=side)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

# SHA-256 over the JSON text of the 50 criterion-3 instances and the n=15
# q=3 instances of seeds 1 and 2; every artifact's binding to its
# instance (``instance_sha256``) rests on this text
INSTANCE_JSON_DIGEST = "c143da143f2f530e0631ee1c06611ff20a3b6bd6d79bb43bebd41a14fe845736"


def test_instance_json_stays_byte_identical():
    insts = [*criterion3_instances(),
             *(generate_synthetic(GeneratorConfig(n=15, capacity=3, seed=seed))
               for seed in (1, 2))]
    digest = hashlib.sha256()
    for inst in insts:
        digest.update(instance_to_json(inst).encode() + b"\0")
    assert digest.hexdigest() == INSTANCE_JSON_DIGEST


def test_instance_json_round_trip_generated():
    inst = generate_synthetic(GeneratorConfig(n=5, capacity=6, seed=3))
    again = instance_from_json(instance_to_json(inst))
    assert again == inst


def test_instance_json_round_trip_matrix(stacked_instance):
    again = instance_from_json(instance_to_json(stacked_instance))
    assert again == stacked_instance


def test_instance_json_round_trip_untightened(tiny_cordeau_text):
    inst = parse_cordeau(tiny_cordeau_text)
    again = instance_from_json(instance_to_json(inst))
    assert again == inst
    assert again.requests[0].direction is None


def test_instance_json_errors():
    with pytest.raises(ParseError, match="JSON"):
        instance_from_json("{nope")
    doc = json.loads(instance_to_json(
        generate_synthetic(GeneratorConfig(n=2, capacity=3, seed=1))))
    del doc["requests"][0]["pickup"]
    with pytest.raises(ParseError, match="field"):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize("field", ["e", "l"])
def test_instance_json_refuses_a_nan_window(field):
    doc = json.loads(instance_to_json(
        generate_synthetic(GeneratorConfig(n=2, capacity=3, seed=1))))
    doc["requests"][1]["pickup"][field] = NAN
    text = json.dumps(doc)
    assert "NaN" in text
    with pytest.raises(DataError, match="request 2: non-finite"):
        instance_from_json(text)


@pytest.mark.parametrize("name", ["", "two\nlines", "tab\there", "nul\x00"])
def test_instance_refuses_a_name_that_breaks_the_exports(name):
    # the MPS and LP writers put the name on their first line, and an
    # empty name makes the default outputs hidden files
    inst = generate_synthetic(GeneratorConfig(n=2, capacity=3, seed=1))
    fields = dict(requests=inst.requests, fleet_size=inst.fleet_size,
                  capacity=inst.capacity, depot_window=inst.depot_window,
                  metric=inst.metric)
    for bad in (name, name.encode()):
        with pytest.raises(DataError, match="instance name must be printable text"):
            Instance(name=bad, **fields)
    doc = json.loads(instance_to_json(inst))
    for bad in (name, None, 7):
        doc["name"] = bad
        with pytest.raises(DataError, match="instance name"):
            instance_from_json(json.dumps(doc))
    # spaces stay: the text reader names an instance after its file stem
    assert Instance(name="a2 16 copy", **fields).name == "a2 16 copy"


def _set_first_coordinate(doc, value):
    doc["metric"]["coords"]["1"] = value


def _set_first_demand(doc, value):
    doc["requests"][0]["q"] = value


@pytest.mark.parametrize("mangle", [
    lambda doc: _set_first_coordinate(doc, ["east", 1.0]),
    lambda doc: _set_first_coordinate(doc, [1.0]),
    lambda doc: _set_first_demand(doc, "x"),
], ids=["non-numeric coordinate", "one-element pair", "non-numeric q"])
def test_instance_json_mistyped_values(mangle):
    doc = json.loads(instance_to_json(
        generate_synthetic(GeneratorConfig(n=2, capacity=3, seed=1))))
    mangle(doc)
    with pytest.raises(ParseError, match="field"):
        instance_from_json(json.dumps(doc))
