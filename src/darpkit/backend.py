"""Solve exported MPS files with scipy's branch-and-cut backend.

This is deliberately a separate route from the model builder: the MPS
text is re-parsed from scratch into matrix form and handed to
``scipy.optimize.milp``, so solving an exported file exercises the same
path an external solver would.  Only the MPS subset produced by
:func:`darpkit.model.write_mps` plus common variations (OBJSENSE,
RANGES, free rows, MI/PL/FX/FR bounds) is supported.  The first ``N``
row is the objective; entries on any later ``N`` row (a free row) are
read and dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, sparse

from .errors import DataError, ParseError


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
    row_sense: list[str]         # E | L | G
    rhs: np.ndarray
    ranges: dict[str, float]
    matrix: sparse.csr_matrix


def parse_mps(text: str) -> ParsedMip:
    """Parse MPS text into matrix form.

    Matrix, objective, RHS and RANGES values must be finite; a bound may be
    infinite but not NaN.
    """
    name = ""
    minimize = True
    obj_row: str | None = None
    free_rows: set[str] = set()
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    col_names: list[str] = []
    col_index: dict[str, int] = {}
    integer_cols: set[int] = set()
    entries: dict[tuple[int, str], float] = {}
    obj_coefs: dict[int, float] = {}
    rhs: dict[str, float] = {}
    ranges: dict[str, float] = {}
    bounds: list[tuple[str, str, float | None]] = []
    obj_rhs = 0.0

    section = None
    in_integer = False
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if not raw.strip() or raw.lstrip().startswith("*"):
                continue
            if raw[0] not in " \t":
                fields = raw.split()
                section = fields[0].upper()
                if section == "NAME" and len(fields) > 1:
                    name = fields[1]
                if section == "OBJSENSE" and len(fields) > 1:
                    minimize = fields[1].upper() != "MAX"
                continue
            fields = raw.split()
            if section == "OBJSENSE":
                minimize = fields[0].upper() != "MAX"
            elif section == "ROWS":
                sense, row = fields[0].upper(), fields[1]
                if row in row_sense or row in free_rows or row == obj_row:
                    raise ParseError(
                        f"row {row!r} declared twice, MPS line {lineno}")
                if sense == "N":
                    if obj_row is None:
                        obj_row = row
                    else:
                        free_rows.add(row)
                elif sense in ("E", "L", "G"):
                    row_sense[row] = sense
                    row_order.append(row)
                else:
                    raise ParseError(f"unknown row sense {sense!r}")
            elif section == "COLUMNS":
                if len(fields) >= 3 and fields[1].strip("'").upper() == "MARKER":
                    flag = fields[2].strip("'").upper()
                    in_integer = flag == "INTORG"
                    continue
                col = fields[0]
                if col not in col_index:
                    col_index[col] = len(col_names)
                    col_names.append(col)
                j = col_index[col]
                if in_integer:
                    integer_cols.add(j)
                pairs = fields[1:]
                if len(pairs) % 2:
                    raise ParseError(f"odd COLUMNS entry count for {col}")
                for pos in range(0, len(pairs), 2):
                    row, val = pairs[pos], float(pairs[pos + 1])
                    if not math.isfinite(val):
                        raise ValueError(val)
                    if row == obj_row:
                        obj_coefs[j] = obj_coefs.get(j, 0.0) + val
                    elif row in row_sense:
                        key = (j, row)
                        entries[key] = entries.get(key, 0.0) + val
                    elif row not in free_rows:
                        raise ParseError(f"COLUMNS references unknown row {row}")
            elif section == "RHS":
                pairs = fields[1:]
                if len(pairs) % 2:
                    raise ParseError("odd RHS entry count")
                for pos in range(0, len(pairs), 2):
                    row, val = pairs[pos], float(pairs[pos + 1])
                    if not math.isfinite(val):
                        raise ValueError(val)
                    if row == obj_row:
                        obj_rhs = val
                    elif row in row_sense:
                        rhs[row] = val
                    elif row not in free_rows:
                        raise ParseError(f"RHS references unknown row {row}")
            elif section == "RANGES":
                pairs = fields[1:]
                for pos in range(0, len(pairs), 2):
                    row, val = pairs[pos], float(pairs[pos + 1])
                    if not math.isfinite(val):
                        raise ValueError(val)
                    if row not in row_sense:
                        raise ParseError(f"RANGES references unknown row {row}")
                    ranges[row] = val
            elif section == "BOUNDS":
                btype = fields[0].upper()
                col = fields[2]
                val = float(fields[3]) if len(fields) > 3 else None
                if val is not None and math.isnan(val):
                    raise ValueError(fields[3])
                bounds.append((btype, col, val))
            elif section == "ENDATA":
                break
            elif section is None:
                raise ParseError("MPS data before any section header")
    except (IndexError, ValueError):
        # a missing field, or a non-numeric or non-finite value; the
        # ValueErrors raised above leave the line to this message
        raise ParseError(f"malformed MPS line {lineno}: {raw.strip()!r}") from None
    if obj_row is None:
        raise ParseError("MPS file declares no objective row")

    ncols = len(col_names)
    lower = np.zeros(ncols)
    upper = np.full(ncols, math.inf)
    integrality = np.zeros(ncols)
    for j in integer_cols:
        integrality[j] = 1
    for btype, col, val in bounds:
        if col not in col_index:
            raise ParseError(f"BOUNDS references unknown column {col}")
        j = col_index[col]
        if btype in ("LO", "UP", "FX", "LI", "UI") and val is None:
            raise ParseError(f"bound {btype} for {col} needs a value")
        if btype == "LO":
            lower[j] = val
        elif btype == "UP":
            upper[j] = val
            # classic MPS quirk: a bare negative upper bound opens the lower side
            if val is not None and val < 0 and lower[j] == 0.0:
                lower[j] = -math.inf
        elif btype == "FX":
            lower[j] = upper[j] = val
        elif btype == "FR":
            lower[j], upper[j] = -math.inf, math.inf
        elif btype == "MI":
            lower[j] = -math.inf
        elif btype == "PL":
            upper[j] = math.inf
        elif btype == "BV":
            lower[j], upper[j] = 0.0, 1.0
            integrality[j] = 1
        elif btype in ("LI", "UI"):
            (lower if btype == "LI" else upper)[j] = val
            integrality[j] = 1
        else:
            raise ParseError(f"unknown bound type {btype!r}")

    row_pos = {row: i for i, row in enumerate(row_order)}
    data, rows_ix, cols_ix = [], [], []
    for (j, row), val in entries.items():
        rows_ix.append(row_pos[row])
        cols_ix.append(j)
        data.append(val)
    matrix = sparse.csr_matrix(
        (data, (rows_ix, cols_ix)), shape=(len(row_order), ncols))
    obj = np.zeros(ncols)
    for j, val in obj_coefs.items():
        obj[j] = val
    return ParsedMip(
        name=name, minimize=minimize, col_names=col_names,
        integrality=integrality, lower=lower, upper=upper, obj=obj,
        obj_constant=-obj_rhs, row_names=list(row_order),
        row_sense=[row_sense[r] for r in row_order],
        rhs=np.array([rhs.get(r, 0.0) for r in row_order]),
        ranges=ranges, matrix=matrix)


@dataclass
class MilpResult:
    status: str                  # optimal | time_limit | infeasible | unbounded | unknown
    objective: float | None
    assignment: dict[str, float]


def solve_mip(mip: ParsedMip, time_limit: float | None = None,
              mip_gap: float = 0.0) -> MilpResult:
    """Run scipy's MILP solver on a parsed file and map names back."""
    lo = np.empty(len(mip.row_names))
    hi = np.empty(len(mip.row_names))
    for i, sense in enumerate(mip.row_sense):
        b = mip.rhs[i]
        if sense == "E":
            lo[i] = hi[i] = b
        elif sense == "L":
            lo[i], hi[i] = -math.inf, b
        else:
            lo[i], hi[i] = b, math.inf
        if mip.row_names[i] in mip.ranges:
            r = mip.ranges[mip.row_names[i]]
            if sense == "L":
                lo[i] = b - abs(r)
            elif sense == "G":
                hi[i] = b + abs(r)
            else:
                lo[i], hi[i] = (b, b + abs(r)) if r >= 0 else (b - abs(r), b)
    sign = 1.0 if mip.minimize else -1.0
    options: dict = {"mip_rel_gap": mip_gap}
    if time_limit is not None:
        options["time_limit"] = time_limit
    res = optimize.milp(
        c=sign * mip.obj,
        constraints=optimize.LinearConstraint(mip.matrix, lo, hi),
        integrality=mip.integrality,
        bounds=optimize.Bounds(mip.lower, mip.upper),
        options=options)
    if res.status == 0:
        status = "optimal"
    elif res.status == 1:
        status = "time_limit"
    elif res.status == 2:
        status = "infeasible"
    elif res.status == 3:
        status = "unbounded"
    else:
        status = "unknown"
    if res.x is None:
        return MilpResult(status=status, objective=None, assignment={})
    values = dict(zip(mip.col_names, (float(v) for v in res.x)))
    objective = sign * float(res.fun) + mip.obj_constant
    return MilpResult(status=status, objective=objective, assignment=values)


def solve_mps_text(text: str, time_limit: float | None = None,
                   mip_gap: float = 0.0) -> MilpResult:
    return solve_mip(parse_mps(text), time_limit=time_limit, mip_gap=mip_gap)


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
