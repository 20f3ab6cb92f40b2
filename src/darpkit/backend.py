"""Solve exported MPS files with scipy's branch-and-cut backend.

This is deliberately a separate route from the model builder: the MPS
text is re-parsed from scratch into matrix form and handed to
``scipy.optimize.milp``, so solving an exported file exercises the same
path an external solver would.  Only the MPS subset produced by
:func:`darpkit.model.write_mps` plus common variations (OBJSENSE,
RANGES, free rows, MI/PL/FX/FR bounds) is supported; a section outside
it (SOS, QUADOBJ, OBJNAME, ...) is refused, not skipped.  The first
``N`` row is the objective; entries on any later ``N`` row (a free row)
are read and dropped.  The file is read in one pass, each line applied
where it is read: BOUNDS lines through one table of bound types, and
COLUMNS, RHS and RANGES lines through one entry reader.  Every refused
line is named by its number.  :class:`ParsedMip` carries each row's two
sides, not its MPS syntax, so :func:`solve_mip` interprets none.

numpy and scipy are imported inside :func:`parse_mps` (and scipy in
:func:`solve_mip`), so importing darpkit, and every command that solves
nothing, does not pay for loading them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DataError, ParseError

if TYPE_CHECKING:
    import numpy as np
    from scipy import sparse


@dataclass
class ParsedMip:
    """An MPS file in matrix form."""

    name: str
    minimize: bool
    col_names: list[str]
    integrality: np.ndarray      # 1 where integer
    lower: np.ndarray
    upper: np.ndarray
    obj: np.ndarray
    obj_constant: float
    row_names: list[str]
    row_lower: np.ndarray        # -inf where a row has no lower side
    row_upper: np.ndarray        # inf where a row has no upper side
    matrix: sparse.csc_array     # rows by columns, sorted row indices


# the sections parse_mps reads; any other header is refused
_SECTIONS = ("NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS",
             "ENDATA")
# OBJSENSE word -> minimize
_MINIMIZE = {"MIN": True, "MINIMIZE": True, "MAX": False, "MAXIMIZE": False}
# COLUMNS MARKER tag -> whether the columns after it are integer
_MARKERS = {"INTORG": True, "INTEND": False}
# BOUNDS type -> (lower, upper, integer): a side is None where the type
# leaves it, _VALUE where it takes the line's value, else the constant it
# is set to; integer is whether the type makes the column integer
_VALUE = "value"
_BOUNDS = {
    "LO": (_VALUE, None, False), "UP": (None, _VALUE, False),
    "FX": (_VALUE, _VALUE, False), "FR": (-math.inf, math.inf, False),
    "MI": (-math.inf, None, False), "PL": (None, math.inf, False),
    "BV": (0.0, 1.0, True), "LI": (_VALUE, None, True), "UI": (None, _VALUE, True),
}


def _entries(fields: list[str], rows: set[str] | dict[str, str]):
    """The (row, value) pairs of a COLUMNS, RHS or RANGES line, after its
    first field; ValueError for an odd entry count or a value that is not
    a finite number, KeyError for a row not in ``rows``."""
    if len(fields) % 2 == 0:
        raise ValueError("odd entry count")
    pairs = iter(fields[1:])
    for row, val in zip(pairs, pairs):
        val = float(val)
        if not math.isfinite(val):
            raise ValueError(val)
        if row not in rows:
            raise KeyError(row)
        yield row, val


def _row_sides(sense: str, b: float, r: float | None) -> tuple[float, float]:
    """A row's (lower, upper) sides from its sense, RHS ``b`` and RANGES
    entry ``r`` (None if none): E [b, b], L [-inf, b], G [b, inf]; ``r``
    opens L to [b - |r|, b], G to [b, b + |r|] and E by r, up or down."""
    if r is None:
        return -math.inf if sense == "L" else b, math.inf if sense == "G" else b
    if sense == "L" or (sense == "E" and r < 0):
        return b - abs(r), b
    return b, b + abs(r)


def parse_mps(text: str) -> ParsedMip:
    """Parse MPS text into matrix form, applying each line where it is read.

    Matrix, objective, RHS and RANGES values must be finite; a bound may be
    infinite but not NaN.  Bounds apply in file order, each after the
    COLUMNS line that declares its column.  Entries that repeat a (column,
    row) pair add up, a column split over several places merges into one,
    and explicit zeros are kept.  Row sides come from :func:`_row_sides`.
    The objective sense is MIN, MINIMIZE, MAX or MAXIMIZE, on the OBJSENSE
    header line or the line below it.  A file needs at least one column.
    """
    import numpy as np
    from scipy import sparse

    name = ""
    minimize = True
    obj_row: str | None = None
    declared: set[str] = set()    # every row, N rows too
    row_sense: dict[str, str] = {}    # E, L and G rows in declaration order
    col_names: list[str] = []
    col_index: dict[str, int] = {}
    # per column, one slot each from the COLUMNS line that first names it
    columns: list[dict[str, float]] = []    # row -> value
    obj: list[float] = []
    lower: list[float] = []
    upper: list[float] = []
    integer: list[bool] = []
    rhs: dict[str, float] = {}
    ranges: dict[str, float] = {}
    obj_rhs = 0.0

    section = None
    in_integer = False
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            fields = raw.split()
            if not fields or fields[0][0] == "*":
                continue
            if raw[0] not in " \t":
                section = fields.pop(0).upper()
                if section not in _SECTIONS:
                    raise ParseError(
                        f"unknown MPS section {section!r}, MPS line {lineno}")
                if section == "ENDATA":
                    break
                if section == "NAME" and fields:
                    name = fields[0]
                # OBJSENSE may carry its word on the header line itself
                if section != "OBJSENSE" or not fields:
                    continue
            if section == "OBJSENSE":
                sense = fields[0].upper()
                if sense not in _MINIMIZE:
                    raise ParseError(f"unknown objective sense {fields[0]!r}, "
                                     f"MPS line {lineno}")
                minimize = _MINIMIZE[sense]
            elif section == "ROWS":
                sense, row = fields    # ValueError unless two fields
                sense = sense.upper()
                if row in declared:
                    raise ParseError(
                        f"row {row!r} declared twice, MPS line {lineno}")
                declared.add(row)
                if sense == "N":
                    # the first N row is the objective, any later one free
                    obj_row = obj_row or row
                elif sense in ("E", "L", "G"):
                    row_sense[row] = sense
                else:
                    raise ParseError(
                        f"unknown row sense {sense!r}, MPS line {lineno}")
            elif section == "COLUMNS":
                if len(fields) >= 3 and fields[1].strip("'").upper() == "MARKER":
                    flag = fields[2].strip("'").upper()
                    if flag not in _MARKERS:
                        raise ParseError(
                            f"unknown MARKER tag {flag!r}, MPS line {lineno}")
                    in_integer = _MARKERS[flag]
                    continue
                col = fields[0]
                if col not in col_index:
                    col_index[col] = len(col_names)
                    col_names.append(col)
                    columns.append({})
                    obj.append(0.0)
                    lower.append(0.0)
                    upper.append(math.inf)
                    integer.append(False)
                j = col_index[col]
                entries = columns[j]
                integer[j] |= in_integer
                # entries on a free row are read and dropped
                for row, val in _entries(fields, declared):
                    if row == obj_row:
                        obj[j] += val
                    elif row in row_sense:
                        entries[row] = entries.get(row, 0.0) + val
            elif section == "RHS":
                for row, val in _entries(fields, declared):
                    if row == obj_row:
                        obj_rhs = val
                    elif row in row_sense:
                        rhs[row] = val
            elif section == "RANGES":
                for row, val in _entries(fields, row_sense):
                    ranges[row] = val
            elif section == "BOUNDS":
                if len(fields) > 4:
                    raise ValueError(raw)
                btype, col = fields[0].upper(), fields[2]
                val = float(fields[3]) if len(fields) > 3 else None
                if val is not None and math.isnan(val):
                    raise ValueError(fields[3])
                if col not in col_index:
                    raise ParseError(
                        (f"BOUNDS references unknown column {col}" if col_names
                         else "MPS file declares no columns")
                        + f", MPS line {lineno}")
                if btype not in _BOUNDS:
                    raise ParseError(f"unknown bound type {btype!r}, MPS line {lineno}")
                j = col_index[col]
                lo, hi, makes_integer = _BOUNDS[btype]
                if val is None and _VALUE in (lo, hi):
                    raise ParseError(
                        f"bound {btype} for {col} needs a value, MPS line {lineno}")
                for sides, side in ((lower, lo), (upper, hi)):
                    if side is not None:
                        sides[j] = val if side is _VALUE else side
                # classic MPS quirk: a bare negative upper bound opens the
                # lower side
                if btype == "UP" and val < 0 and lower[j] == 0.0:
                    lower[j] = -math.inf
                integer[j] |= makes_integer
            else:
                where = (f"under {section}, which takes none" if section
                         else "before any section header")
                raise ParseError(f"MPS data {where}, MPS line {lineno}: {raw.strip()!r}")
    except (IndexError, ValueError):
        # a missing field, or a non-numeric or non-finite value; the
        # ValueErrors raised above leave the line to this message
        raise ParseError(f"malformed MPS line {lineno}: {raw.strip()!r}") from None
    except KeyError as exc:
        # an entry's row, from _entries
        raise ParseError(f"{section} references unknown row {exc.args[0]}, "
                         f"MPS line {lineno}") from None
    if obj_row is None:
        raise ParseError("MPS file declares no objective row")
    if not col_names:
        raise ParseError("MPS file declares no columns")

    row_pos = {row: i for i, row in enumerate(row_sense)}.__getitem__
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for entries in columns:
        data += entries.values()
        indices += map(row_pos, entries)
        indptr.append(len(indices))
    matrix = sparse.csc_array(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int64),
         np.array(indptr, dtype=np.int64)),
        shape=(len(row_sense), len(col_names)))
    matrix.sort_indices()
    sides = [_row_sides(sense, rhs.get(row, 0.0), ranges.get(row))
             for row, sense in row_sense.items()]
    return ParsedMip(
        name=name, minimize=minimize, col_names=col_names,
        integrality=np.array(integer, dtype=float),
        lower=np.array(lower, dtype=float), upper=np.array(upper, dtype=float),
        obj=np.array(obj, dtype=float),
        obj_constant=-obj_rhs, row_names=list(row_sense),
        row_lower=np.array([lo for lo, _ in sides], dtype=float),
        row_upper=np.array([hi for _, hi in sides], dtype=float), matrix=matrix)


@dataclass
class MilpResult:
    """A solve's outcome and the solver's statistics.

    ``mip_gap`` is the relative gap, ``mip_node_count`` the number of
    branch-and-bound nodes and ``mip_dual_bound`` the best bound on the
    objective, in the file's own sense and constant; each is None when
    the solver reports none (no integer columns, or no solution).
    """

    status: str                  # optimal | time_limit | infeasible | unbounded | unknown
    objective: float | None
    assignment: dict[str, float]
    mip_gap: float | None = None
    mip_node_count: int | None = None
    mip_dual_bound: float | None = None


# scipy.optimize.milp status -> MilpResult.status
_STATUS = {0: "optimal", 1: "time_limit", 2: "infeasible", 3: "unbounded"}

# HiGHS option that switches its Feasibility Jump heuristic (Luteberget &
# Sartor 2023) on or off; scipy's ``milp`` passes it to HiGHS unchanged
_FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"


def highs_options(time_limit: float | None = None,
                  mip_gap: float = 0.0) -> dict:
    """The options :func:`solve_mip` hands to HiGHS for these arguments.

    Feasibility Jump, a primal heuristic HiGHS runs before the root LP,
    is always off: on this package's models presolve, the root LP and
    cuts close the search in a few nodes anyway, and the heuristic took
    most of a small model's solve (median 12 ms of an n=2..5 model's
    solve, 3 ms without it).  ``mip_rel_gap`` stays as given (0 by
    default), so every optimum is still proven.

    :func:`solve_mip` calls this with its own arguments unchanged, so a
    caller that rebuilds the dict from the same arguments (the
    ``solve-mps`` manifest does) gets the options the solve used.
    """
    options: dict = {"mip_rel_gap": mip_gap, _FEASIBILITY_JUMP: False}
    # an infinite limit is HiGHS's default, and would not be valid JSON
    # in a manifest
    if time_limit is not None and time_limit < math.inf:
        options["time_limit"] = time_limit
    return options


def solve_mip(mip: ParsedMip, time_limit: float | None = None,
              mip_gap: float = 0.0) -> MilpResult:
    """Run scipy's MILP solver (HiGHS) on a parsed file and map names back.

    HiGHS gets :func:`highs_options`, so Feasibility Jump is off.  scipy
    warns that the option is unrecognized (a HiGHS build without the
    heuristic does too, and ignores it); only warnings that name it are
    silenced, every other warning reaches the caller.
    """
    if time_limit is not None and not time_limit >= 0:
        raise DataError(f"time limit must be a number >= 0, got {time_limit!r}")
    if not 0 <= mip_gap < math.inf:
        raise DataError(f"MIP gap must be a finite number >= 0, got {mip_gap!r}")
    from scipy import optimize

    sign = 1.0 if mip.minimize else -1.0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=f".*{_FEASIBILITY_JUMP}")
        res = optimize.milp(
            c=sign * mip.obj,
            constraints=optimize.LinearConstraint(
                mip.matrix, mip.row_lower, mip.row_upper),
            integrality=mip.integrality,
            bounds=optimize.Bounds(mip.lower, mip.upper),
            options=highs_options(time_limit, mip_gap))
    status = _STATUS.get(res.status, "unknown")
    gap, nodes, bound = (res.get(key) for key in (
        "mip_gap", "mip_node_count", "mip_dual_bound"))
    stats = {
        "mip_gap": None if gap is None else float(gap),
        "mip_node_count": None if nodes is None else int(nodes),
        "mip_dual_bound": (None if bound is None
                           else sign * float(bound) + mip.obj_constant),
    }
    if res.x is None:
        return MilpResult(status=status, objective=None, assignment={}, **stats)
    values = dict(zip(mip.col_names, (float(v) for v in res.x)))
    objective = sign * float(res.fun) + mip.obj_constant
    return MilpResult(status=status, objective=objective, assignment=values,
                      **stats)


def write_assignment(result: MilpResult) -> str:
    """One ``name value`` line per variable, full float precision."""
    if result.objective is None:
        raise DataError(f"no assignment to write, solve ended {result.status}")
    lines = [f"# objective {result.objective!r}"]
    for name in sorted(result.assignment):
        lines.append(f"{name} {result.assignment[name]!r}")
    return "\n".join(lines) + "\n"


def read_assignment(text: str) -> dict[str, float]:
    """Parse ``name value`` lines, one line per name; '#' starts a comment."""
    values: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"assignment line {lineno} must be 'name value'")
        try:
            value = float(fields[1])
        except ValueError:
            raise ParseError(
                f"assignment line {lineno} has a non-numeric value") from None
        if not math.isfinite(value):
            raise ParseError(f"assignment line {lineno} has a non-finite value")
        if fields[0] in first_line:
            raise ParseError(f"assignment lines {first_line[fields[0]]} and "
                             f"{lineno} both set {fields[0]}")
        first_line[fields[0]] = lineno
        values[fields[0]] = value
    return values
