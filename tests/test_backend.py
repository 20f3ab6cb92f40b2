import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from darpkit import (
    DataError, GeneratorConfig, MilpResult, ObjectiveSpec, ParseError,
    build_event_graph, build_model, generate_synthetic, oracle_solve, parse_mps,
    read_assignment, solve_mip, write_assignment, write_mps,
)
from darpkit.backend import highs_options

from helpers import capture_milp, digest_models

MIN_MPS = """\
* hand-written fixture, not produced by the exporter
NAME          tinymin
ROWS
 N  COST
 L  cap
 G  floor
 E  link
COLUMNS
    MARKER                 'MARKER'                 'INTORG'
    a         COST           2.0   cap            1.0
    a         link           1.0
    MARKER                 'MARKER'                 'INTEND'
    b         COST           3.0   cap            1.0
    b         link           1.0
    c         COST           1.0   floor          1.0
RHS
    RHS       cap            2.0   link           1.0
    RHS       COST          -7.5
    RHS       floor          0.5
BOUNDS
 UP BND       a              1.0
 UP BND       b              1.0
 UP BND       c              4.0
ENDATA
"""

KNAP_MPS = """\
NAME knap
OBJSENSE
    MAX
ROWS
 N  profit
 L  weight
COLUMNS
    MARKER    'MARKER'  'INTORG'
    x         profit         3.0   weight         1.0
    y         profit         2.0   weight         1.0
    z         profit         1.0   weight         1.0
    MARKER    'MARKER'  'INTEND'
RHS
    RHS       weight         2.0
BOUNDS
 BV BND       x
 BV BND       y
 BV BND       z
ENDATA
"""


def test_parse_mps_structure():
    mip = parse_mps(MIN_MPS)
    assert mip.name == "tinymin"
    assert mip.minimize
    assert mip.col_names == ["a", "b", "c"]
    assert list(mip.integrality) == [1, 0, 0]
    assert list(mip.lower) == [0.0, 0.0, 0.0]
    assert list(mip.upper) == [1.0, 1.0, 4.0]
    assert list(mip.obj) == [2.0, 3.0, 1.0]
    assert mip.obj_constant == 7.5
    assert mip.row_names == ["cap", "floor", "link"]
    # L is (-inf, rhs), G (rhs, inf) and E (rhs, rhs)
    assert list(mip.row_lower) == [-math.inf, 0.5, 1.0]
    assert list(mip.row_upper) == [2.0, math.inf, 1.0]
    dense = mip.matrix.toarray()
    assert dense.tolist() == [[1.0, 1.0, 0.0],
                              [0.0, 0.0, 1.0],
                              [1.0, 1.0, 0.0]]


def test_parse_mps_builds_the_matrix_column_by_column():
    # column b's entries come in two places, and (b, cap) twice: they add
    # up into one column; c's explicit zero on cap stays an entry
    text = MIN_MPS.replace(
        "    b         COST           3.0   cap            1.0",
        "    b         COST           3.0   cap            0.25\n"
        "    c         cap            0.0\n"
        "    b         cap            0.75")
    mip, ref = parse_mps(text), parse_mps(MIN_MPS)
    assert mip.col_names == ref.col_names
    assert mip.matrix.format == "csc" and mip.matrix.has_sorted_indices
    assert mip.matrix.toarray().tolist() == ref.matrix.toarray().tolist()
    assert mip.matrix.nnz == ref.matrix.nnz + 1


def test_parse_mps_objsense_and_bv():
    mip = parse_mps(KNAP_MPS)
    assert not mip.minimize
    assert list(mip.integrality) == [1, 1, 1]
    assert list(mip.upper) == [1.0, 1.0, 1.0]
    assert mip.obj_constant == 0.0


def test_parse_mps_reads_every_objsense_word():
    # one rule for both spellings: the word on its own line below the
    # header, or on the header line itself
    for word, minimize in [("MAX", False), ("MAXIMIZE", False), ("max", False),
                           ("MIN", True), ("MINIMIZE", True)]:
        for sense in (f"OBJSENSE\n    {word}\n", f"OBJSENSE    {word}\n"):
            mip = parse_mps(KNAP_MPS.replace("OBJSENSE\n    MAX\n", sense))
            assert mip.minimize == minimize, sense
            assert solve_mip(mip).objective == (0.0 if minimize else 5.0), sense


def test_parse_mps_bound_types():
    text = """\
NAME bounds
ROWS
 N  obj
 G  r
COLUMNS
    u         obj            1.0   r              1.0
    v         obj            1.0   r              1.0
    w         obj            1.0   r              1.0
    f         obj            1.0   r              1.0
    g         obj            1.0   r              1.0
    h         obj            1.0   r              1.0
    k         obj            1.0   r              1.0
RHS
BOUNDS
 LO BND       u             -3.0
 UP BND       u              8.0
 FX BND       v              2.5
 FR BND       w
 MI BND       f
 PL BND       g
 UP BND       h             -2.0
 UI BND       k              6.0
ENDATA
"""
    mip = parse_mps(text)
    got = {name: (lo, up) for name, lo, up in
           zip(mip.col_names, mip.lower, mip.upper)}
    assert got["u"] == (-3.0, 8.0)
    assert got["v"] == (2.5, 2.5)
    assert got["w"] == (-math.inf, math.inf)
    assert got["f"] == (-math.inf, math.inf)
    assert got["g"] == (0.0, math.inf)
    # a bare negative upper bound opens the lower side
    assert got["h"] == (-math.inf, -2.0)
    assert got["k"] == (0.0, 6.0)
    assert mip.integrality[mip.col_names.index("k")] == 1
    assert mip.integrality[mip.col_names.index("u")] == 0


@pytest.mark.parametrize("breakage, message", [
    ((" L  cap", " X  cap"), "unknown row sense"),
    (("    a         link           1.0", "    a         nope           1.0"),
     "unknown row"),
    (("    RHS       floor          0.5", "    RHS       nope           0.5"),
     "RHS references"),
    (("    a         link           1.0", "    a         link"),
     "malformed MPS line 11"),
    (("    RHS       COST          -7.5", "    RHS       COST"),
     "malformed MPS line 18"),
    ((" UP BND       c              4.0", " XX BND       c              4.0"),
     "unknown bound type"),
    ((" UP BND       c              4.0", " UP BND       zz             4.0"),
     "unknown column"),
    ((" UP BND       c              4.0", " LO BND       c"),
     "needs a value"),
    ((" N  COST", " E  COST"), "no objective row"),
    (("    a         link           1.0", "    a         link           one"),
     "malformed MPS line 11"),
    (("    RHS       floor          0.5", "    RHS       floor          half"),
     "malformed MPS line 19"),
    (("BOUNDS\n", "RANGES\n    RNG       cap            wide\nBOUNDS\n"),
     "malformed MPS line 21"),
    ((" UP BND       c              4.0", " UP BND       c              four"),
     "malformed MPS line 23"),
    ((" UP BND       c              4.0", " UP BND"), "malformed MPS line 23"),
    ((" N  COST", " N"), "malformed MPS line 4"),
    ((" G  floor", " L  cap"), "row 'cap' declared twice, MPS line 6"),
    (("BOUNDS\n", "RANGES\n    RNG       nosuchrow      1.0\nBOUNDS\n"),
     "RANGES references unknown row nosuchrow"),
    (("BOUNDS\n", "RANGES\n    RNG       COST           1.0\nBOUNDS\n"),
     "RANGES references unknown row COST"),
    (("    a         link           1.0", "    a         link           nan"),
     "malformed MPS line 11"),
    (("    b         COST           3.0", "    b         COST           -inf"),
     "malformed MPS line 13"),
    (("    RHS       floor          0.5", "    RHS       floor          inf"),
     "malformed MPS line 19"),
    (("    RHS       COST          -7.5", "    RHS       COST           NaN"),
     "malformed MPS line 18"),
    (("BOUNDS\n", "RANGES\n    RNG       cap            inf\nBOUNDS\n"),
     "malformed MPS line 21"),
    ((" UP BND       c              4.0", " UP BND       c              nan"),
     "malformed MPS line 23"),
    # a section outside the supported set is refused, not skipped
    (("ENDATA\n", "SOS\n S1 SOS       s1             1\n"
                  "    s1        a              1.0\nENDATA\n"),
     "unknown MPS section 'SOS', MPS line 24"),
    (("ENDATA\n", "QUADOBJ\n    a         a              2.0\nENDATA\n"),
     "unknown MPS section 'QUADOBJ'"),
    (("ROWS\n", "OBJNAME\n    COST\nROWS\n"), "unknown MPS section 'OBJNAME'"),
    (("BOUNDS\n", "RANGE\n    RNG       cap            1.0\nBOUNDS\n"),
     "unknown MPS section 'RANGE'"),
    (("ROWS\n", "OBJSENSE\n    MAXIMUM\nROWS\n"),
     "unknown objective sense 'MAXIMUM', MPS line 4"),
    ((MIN_MPS[MIN_MPS.index("COLUMNS\n") + 8:MIN_MPS.index("RHS\n")], ""),
     "declares no columns"),
    # a data line under a header that takes none is refused, not skipped
    (("NAME          tinymin\n", "NAME          tinymin\n    junk  here  1.0\n"),
     "MPS data under NAME, which takes none, MPS line 3"),
    # every refusal of a COLUMNS, RHS or RANGES line names the line
    (("    a         link           1.0", "    a         nope           1.0"),
     "COLUMNS references unknown row nope, MPS line 11"),
    (("    RHS       floor          0.5", "    RHS       nope           0.5"),
     "RHS references unknown row nope, MPS line 19"),
    (("BOUNDS\n", "RANGES\n    RNG       nosuchrow      1.0\nBOUNDS\n"),
     "RANGES references unknown row nosuchrow, MPS line 21"),
    (("BOUNDS\n", "RANGES\n    RNG       cap\nBOUNDS\n"),
     "malformed MPS line 21"),
    # a MARKER tag other than INTORG or INTEND, a third field on a ROWS
    # line and a fifth on a BOUNDS line are refused, not misread
    (("'INTORG'", "'INTORGX'"), "unknown MARKER tag 'INTORGX', MPS line 9"),
    ((" L  cap", " L  cap  extra"), "malformed MPS line 5"),
    ((" UP BND       c              4.0", " UP BND       c              4.0  5.0"),
     "malformed MPS line 23"),
    # every refusal of a BOUNDS line names the line too; a BOUNDS line must
    # follow the COLUMNS line that declares its column
    ((" UP BND       c              4.0", " XX BND       c              4.0"),
     "unknown bound type 'XX', MPS line 23"),
    ((" UP BND       c              4.0", " UP BND       zz             4.0"),
     "BOUNDS references unknown column zz, MPS line 23"),
    ((" UP BND       c              4.0", " LO BND       c"),
     "bound LO for c needs a value, MPS line 23"),
    (("COLUMNS\n", "BOUNDS\n UP BND       a              1.0\nCOLUMNS\n"),
     "MPS file declares no columns, MPS line 9"),
    (("    c         COST", "BOUNDS\n UP BND       c              4.0\n"
                            "COLUMNS\n    c         COST"),
     "BOUNDS references unknown column c, MPS line 16"),
])
def test_parse_mps_errors(breakage, message):
    old, new = breakage
    assert old in MIN_MPS
    with pytest.raises(ParseError, match=message):
        parse_mps(MIN_MPS.replace(old, new))


# one digest over every ParsedMip field parsed from the MPS text of each
# model of the export digest (tests/test_model.py); names, sense and
# constant go in as repr, arrays as float64 or int64 bytes, so scipy's
# choice of index dtype does not move it
PARSE_DIGEST = "b337cebb41924cba25d2c072cc0992d18c1bb3405b7d205e9fc6b27c6f58424c"


def test_parses_stay_identical():
    digest = hashlib.sha256()
    for model in digest_models():
        mip = parse_mps(write_mps(model))
        for value in (mip.name, mip.minimize, mip.col_names, mip.obj_constant,
                      mip.row_names):
            digest.update(repr(value).encode() + b"\0")
        for values in (mip.integrality, mip.lower, mip.upper, mip.obj,
                       mip.row_lower, mip.row_upper, mip.matrix.data):
            digest.update(np.asarray(values, dtype=np.float64).tobytes())
        for values in (mip.matrix.indices, mip.matrix.indptr, mip.matrix.shape):
            digest.update(np.asarray(values, dtype=np.int64).tobytes())
    assert digest.hexdigest() == PARSE_DIGEST


def test_parse_mps_bounds_may_be_infinite():
    mip = parse_mps(MIN_MPS.replace(" UP BND       c              4.0",
                                    " UP BND       c              inf\n"
                                    " LO BND       b             -inf"))
    assert list(mip.lower) == [0.0, -math.inf, 0.0]
    assert list(mip.upper) == [1.0, 1.0, math.inf]


def test_parse_mps_drops_free_rows():
    # an N row after the first is a free row: its entries are read and
    # dropped, so the file parses to the same matrix as without it
    text = (MIN_MPS.replace(" L  cap", " N  FREE\n L  cap")
            .replace("    c         COST           1.0   floor          1.0",
                     "    c         COST           1.0   FREE           5.0\n"
                     "    c         floor          1.0")
            .replace("    RHS       floor          0.5",
                     "    RHS       floor          0.5   FREE           9.0"))
    mip, ref = parse_mps(text), parse_mps(MIN_MPS)
    assert mip.row_names == ref.row_names and mip.col_names == ref.col_names
    assert list(mip.obj) == list(ref.obj)
    assert mip.obj_constant == ref.obj_constant
    assert list(mip.row_lower) == list(ref.row_lower)
    assert list(mip.row_upper) == list(ref.row_upper)
    assert mip.matrix.toarray().tolist() == ref.matrix.toarray().tolist()
    assert solve_mip(parse_mps(text)).objective == pytest.approx(10.0)


@pytest.mark.parametrize("old, new, message", [
    ("BOUNDS\n", "RANGES\n    RNG       FREE           1.0\nBOUNDS\n",
     "RANGES references unknown row FREE"),
    (" L  cap", " N  FREE\n L  cap", "row 'FREE' declared twice"),
], ids=["ranges", "declared twice"])
def test_parse_mps_free_row_errors(old, new, message):
    text = MIN_MPS.replace(" L  cap", " N  FREE\n L  cap").replace(old, new)
    with pytest.raises(ParseError, match=message):
        parse_mps(text)


def test_parse_mps_data_before_section():
    with pytest.raises(ParseError, match="before any section"):
        parse_mps("    a  COST  1.0\nROWS\n N  COST\nENDATA\n")


def test_solve_min_fixture():
    result = solve_mip(parse_mps(MIN_MPS))
    assert result.status == "optimal"
    # a=1 beats b=1 on cost, c sits at its floor, constant 7.5 added
    assert result.objective == pytest.approx(10.0)
    assert result.assignment["a"] == pytest.approx(1.0)
    assert result.assignment["b"] == pytest.approx(0.0)
    assert result.assignment["c"] == pytest.approx(0.5)


def test_solve_maximization():
    result = solve_mip(parse_mps(KNAP_MPS))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(5.0)
    assert result.assignment["x"] == pytest.approx(1.0)
    assert result.assignment["z"] == pytest.approx(0.0)
    # the dual bound is reported in the file's own sense
    assert result.mip_dual_bound == pytest.approx(5.0)


def test_solve_ranges():
    text = """\
NAME ranged
ROWS
 N  obj
 L  lid
 E  pin
COLUMNS
    x         obj            1.0   lid            1.0
    y         obj            1.0   pin            1.0
RHS
    RHS       lid           10.0   pin            3.0
RANGES
    RNG       lid            4.0   pin            1.5
BOUNDS
 UP BND       x            100.0
 UP BND       y            100.0
ENDATA
"""
    result = solve_mip(parse_mps(text))
    assert result.status == "optimal"
    # lid becomes 6 <= x <= 10, pin becomes 3 <= y <= 4.5
    assert result.objective == pytest.approx(9.0)
    assert result.assignment["x"] == pytest.approx(6.0)
    assert result.assignment["y"] == pytest.approx(3.0)


RANGED_MPS = """\
NAME ranged
OBJSENSE    {objsense}
ROWS
 N  obj
 {sense}  r
COLUMNS
    x         obj            1.0   r              1.0
RHS
    RHS       r             10.0
RANGES
    RNG       r             {r}
BOUNDS
 UP BND       x            100.0
ENDATA
"""


@pytest.mark.parametrize("sense, r, sides", [
    ("L", 4.0, (6.0, 10.0)), ("L", -4.0, (6.0, 10.0)),
    ("G", 4.0, (10.0, 14.0)), ("G", -4.0, (10.0, 14.0)),
    ("E", 4.0, (10.0, 14.0)), ("E", -4.0, (6.0, 10.0)),
])
def test_parse_mps_range_sides(sense, r, sides):
    # a range R opens an L row downwards and a G row upwards by |R|, and
    # widens an E row by R: upwards for R >= 0, downwards for R < 0
    for objsense, side in (("MIN", sides[0]), ("MAX", sides[1])):
        mip = parse_mps(RANGED_MPS.format(objsense=objsense, sense=sense, r=r))
        assert (mip.row_lower.tolist(), mip.row_upper.tolist()) == (
            [sides[0]], [sides[1]])
        # the solver reads the sides: x sits on the one the sense pushes to
        assert solve_mip(mip).objective == pytest.approx(side)


def test_solve_infeasible():
    text = MIN_MPS.replace("    RHS       floor          0.5",
                           "    RHS       floor          9.5")
    result = solve_mip(parse_mps(text))   # c <= 4 cannot reach 9.5
    assert result.status == "infeasible"
    assert result.objective is None
    assert result.assignment == {}
    assert (result.mip_gap, result.mip_node_count,
            result.mip_dual_bound) == (None, None, None)


def test_solve_time_limit_status():
    inst = generate_synthetic(GeneratorConfig(n=10, capacity=3, seed=1))
    model = build_model(build_event_graph(inst), "model3")
    result = solve_mip(parse_mps(write_mps(model)), time_limit=0)
    assert result.status == "time_limit"
    assert result.objective is None


def test_solve_unbounded():
    text = """\
NAME open
ROWS
 N  obj
 G  r
COLUMNS
    x         obj           -1.0   r              1.0
RHS
ENDATA
"""
    assert solve_mip(parse_mps(text)).status == "unbounded"


def test_solve_model_export_matches_oracle(pooling_instance):
    graph = build_event_graph(pooling_instance)
    model = build_model(graph, "model2", ObjectiveSpec(variant="cost"))
    result = solve_mip(parse_mps(write_mps(model)))
    exact = oracle_solve(pooling_instance, ObjectiveSpec(variant="cost"))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(exact.objective.total, abs=1e-6)
    assert result.mip_node_count >= 0
    assert result.mip_gap == 0
    assert result.mip_dual_bound == pytest.approx(result.objective, abs=1e-9)


def test_assignment_round_trip():
    # positional: the solver statistics after these three are optional
    result = MilpResult("optimal", -8.25,
                        {"x_1": 1.0, "B_2": 17.25, "neg": -3e-7})
    text = write_assignment(result)
    assert text.splitlines()[0] == "# objective -8.25"
    values = read_assignment(text)
    assert values == {"x_1": 1.0, "B_2": 17.25, "neg": -3e-7}


def test_assignment_read_comments_and_blanks():
    values = read_assignment("\n# header\nx 1.5   # trailing note\n\ny 2\n")
    assert values == {"x": 1.5, "y": 2.0}


def test_assignment_read_errors():
    with pytest.raises(ParseError, match="must be 'name value'"):
        read_assignment("x 1.0 extra\n")
    with pytest.raises(ParseError, match="non-numeric"):
        read_assignment("x one\n")


def test_assignment_read_refuses_a_repeated_name():
    # the last line used to win, so the plan disagreed with the first line
    with pytest.raises(ParseError, match="lines 1 and 3 both set x_0"):
        read_assignment("x_0 1\nx_1 0.5\nx_0 0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_assignment_read_refuses_non_finite_values(value):
    with pytest.raises(ParseError, match="line 2 has a non-finite value"):
        read_assignment(f"x_1 1.0\nx_0 {value}\n")


def test_write_assignment_requires_solution():
    result = MilpResult(status="infeasible", objective=None, assignment={})
    with pytest.raises(DataError, match="no assignment"):
        write_assignment(result)


@pytest.mark.parametrize("time_limit, mip_gap",
                         [(None, 0.0), (7.5, 0.25), (math.inf, 0.0)])
def test_solve_runs_highs_without_feasibility_jump(monkeypatch, time_limit,
                                                   mip_gap):
    calls = capture_milp(monkeypatch)
    result = solve_mip(parse_mps(MIN_MPS), time_limit=time_limit,
                       mip_gap=mip_gap)
    assert result.status == "optimal"
    expected = {"mip_rel_gap": mip_gap,
                "mip_heuristic_run_feasibility_jump": False}
    if time_limit not in (None, math.inf):
        expected["time_limit"] = time_limit
    assert calls == [expected]
    assert highs_options(time_limit, mip_gap) == expected


def test_solve_without_feasibility_jump_warns_nothing():
    # n=5, q=3, seed 0 needs a branch-and-bound node under model3 `cost`
    inst = generate_synthetic(GeneratorConfig(n=5, capacity=3, seed=0))
    cost = ObjectiveSpec(variant="cost")
    mip = parse_mps(write_mps(build_model(build_event_graph(inst), "model3",
                                          cost)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_mip(mip)
    assert result.status == "optimal"
    assert result.mip_node_count >= 1
    assert result.objective == pytest.approx(
        oracle_solve(inst, cost).objective.total, abs=1e-6)


@pytest.mark.parametrize("category", [RuntimeWarning, optimize.OptimizeWarning])
def test_solve_passes_other_warnings_on(monkeypatch, category):
    # only warnings that name the feasibility-jump option are silenced
    capture_milp(monkeypatch, [
        ("Unrecognized options detected: "
         "{'mip_heuristic_run_feasibility_jump': False}", category),
        ("something else went wrong", category)])
    with pytest.warns(category) as record:
        assert solve_mip(parse_mps(MIN_MPS)).status == "optimal"
    assert [str(w.message) for w in record] == ["something else went wrong"]
