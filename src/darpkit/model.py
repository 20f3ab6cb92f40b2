"""Solver-neutral mixed-integer models over the pruned event graph.

Arc activation variables select a set of depot-anchored closed walks
(one per used vehicle); flow conservation at every state node plus one
service row per request make them tours that serve each request exactly
once.  Service-start times live on the state nodes.  Two formulation
variants differ in how times and activation interact:

* ``model2``: every node's time is boxed by its location window, and
  the ride-time rows carry big-M terms that relax a row unless its node
  is active.
* ``model3``: times are boxed by activation-dependent window rows (an
  inactive pickup node is pushed to its window end, an inactive dropoff
  node may stay at its window start), which makes plain ride-time rows
  valid without big-M terms.

Ride time runs through one free hub variable ``z_i`` per request: every
dropoff node's time is at most ``z_i`` and ``z_i`` is at most every
pickup node's time plus ``L_i + s_i``.  This is the exact projection of
the pairwise rows ``B_w - B_v <= L_i + s_i`` over all pickup nodes v and
dropoff nodes w of the request (in model2, summing one row of each kind
gives back the pairwise big-M row), so the feasible times and the LP
relaxation are unchanged while the family has |V_i+| + |V_i-| rows per
request instead of |V_i+| * |V_i-|.

Both variants link consecutive times along each travel arc with big-M
rows, and tie tour starts and ends to the depot window through per-arc
rows on the depot connections, so the depot state has no time variable.

Every model is built over the pruned event graph (see
:mod:`darpkit.event_graph`): states and arcs that no feasible tour can
use never get a column or a row.  Pruning keeps every optimum, and
removed arcs no longer carry LP flow (the LP bound is checked never to
fall on the criterion-3 instances).

Objectives: routing cost, total dropoff excess, maximal dropoff excess,
and weighted combinations; only ``request_cost_excess`` prices denied
requests, so only it gets per-request acceptance variables.

A model is one sparse matrix (:class:`MilpModel`): row lists and a
(row, column, coefficient) entry table, which the MPS and LP writers read.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, replace
from operator import add

from .errors import DataError, ParseError
from .event_graph import (
    DROPOFF_DROPOFF, DROPOFF_PICKUP, LEAVE_DEPOT, PICKUP_DROPOFF,
    PICKUP_PICKUP, PRUNED_FORM, RETURN_DEPOT,
    EventGraph, build_event_graph,
)
from .instance import DEPOT, INBOUND, PICKUP, Instance, instance_sha256

MODEL2 = "model2"
MODEL3 = "model3"
VARIANTS = (MODEL2, MODEL3)

OBJECTIVES = (
    "cost",
    "excess",
    "max_excess",
    "cost_excess",
    "cost_max_excess",
    "request_cost_excess",
)

# objective variant -> weights of (routing cost, total excess, maximal
# excess, denied requests); a name stands for the ObjectiveSpec weight
# that fills the slot.  Every objective reading goes through this table.
_WEIGHTS = {
    "cost": (1.0, 0.0, 0.0, 0.0),
    "excess": (0.0, 1.0, 0.0, 0.0),
    "max_excess": (0.0, 0.0, 1.0, 0.0),
    "cost_excess": (1.0, "alpha", 0.0, 0.0),
    "cost_max_excess": (1.0, 0.0, "beta", 0.0),
    "request_cost_excess": (1.0, "alpha", 0.0, "gamma"),
}

_TRAVEL_CLASSES = (PICKUP_DROPOFF, PICKUP_PICKUP, DROPOFF_PICKUP, DROPOFF_DROPOFF)

# census keys: variable kinds and row families, in report order
_VAR_KINDS = ("x", "p", "B", "z", "d", "dmax")
_ROW_FAMILIES = ("flow", "serve", "fleet", "travel_link", "depot_depart",
                 "depot_return", "ride_time", "window_activation", "excess",
                 "excess_max")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Objective selection plus weights; unset weights get defaults.

    ``alpha`` weighs total excess against routing cost, ``beta`` the
    maximal excess (default grows with the instance, 3n/5) and ``gamma``
    the number of denied requests.  A weight is unset or a finite real
    number; whether it must be positive depends on the objective.
    """

    variant: str = "cost"
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.variant not in OBJECTIVES:
            raise DataError(f"unknown objective {self.variant!r}")
        for slot in ("alpha", "beta", "gamma"):
            w = getattr(self, slot)
            if w is not None and not (isinstance(w, numbers.Real)
                                      and not isinstance(w, bool)
                                      and math.isfinite(w)):
                raise DataError(
                    f"objective weight {slot} must be a finite number, got {w!r}")

    def resolve(self, n: int) -> "ObjectiveSpec":
        """Fill in default weights for an instance with n requests."""
        alpha = 3.0 if self.alpha is None else self.alpha
        beta = 3.0 * n / 5.0 if self.beta is None else self.beta
        gamma = 60.0 if self.gamma is None else self.gamma
        out = replace(self, alpha=alpha, beta=beta, gamma=gamma)
        for slot in _WEIGHTS[out.variant]:
            if isinstance(slot, str) and getattr(out, slot) <= 0:
                raise DataError(f"objective weight {slot} must be positive")
        return out

    def _weights(self) -> tuple[float, float, float, float]:
        """Weights of (cost, excess, max excess, denied); must be resolved."""
        return tuple(getattr(self, slot) if isinstance(slot, str) else slot
                     for slot in _WEIGHTS[self.variant])


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective total plus its components."""

    total: float
    cost: float
    excess: float
    max_excess: float
    denied: int

    def as_json_dict(self) -> dict:
        return {
            "total": self.total,
            "f_c": self.cost,
            "f_e": self.excess,
            "f_emax": self.max_excess,
            "f_n": self.denied,
        }


def combine_components(obj: ObjectiveSpec, cost: float, excess: float,
                       max_excess: float, denied: int) -> float:
    """Total objective value from its components (weights must be resolved)."""
    return sum(w * c for w, c in zip(obj._weights(),
                                     (cost, excess, max_excess, denied)) if w)


@dataclass(slots=True)
class Var:
    name: str
    kind: str          # x | p | B | z | d | dmax
    ref: int           # arc, request or node id; -1 for dmax
    lb: float
    ub: float
    integer: bool


# one row of the ``MilpModel.rows`` view; terms are [(var index, coefficient)]
Row = namedtuple("Row", "name sense rhs terms")


class MilpModel:
    """A fully assembled model in one sparse matrix form: columns ``vars``,
    row lists ``row_names``, ``senses`` (E, L or G) and ``rhs``, and the entry
    table ``entry_row``, ``entry_col``, ``entry_coef`` (parallel, row order)."""

    def __init__(self, graph: EventGraph, variant: str, objective: ObjectiveSpec):
        self.graph = graph
        self.variant = variant
        self.objective = objective
        self.name = f"{graph.inst.name}.{variant}.{objective.variant}"
        self.vars: list[Var] = []
        self.row_names, self.senses, self.rhs = [], [], []
        self.entry_row, self.entry_col, self.entry_coef = [], [], []
        self.obj_terms: list = []
        self.obj_constant = 0.0
        self.census: dict = {"variables": dict.fromkeys(_VAR_KINDS, 0),
                             "rows": dict.fromkeys(_ROW_FAMILIES, 0)}

    def add_var(self, kind, ref, lb, ub) -> int:
        """Append a column; its kind decides its name and integrality."""
        self.census["variables"][kind] += 1
        name = kind if kind == "dmax" else f"{kind}_{ref}"
        self.vars.append(Var(name, kind, ref, lb, ub, kind in ("x", "p")))
        return len(self.vars) - 1

    def add_row(self, family, name, sense, rhs, terms):
        self.census["rows"][family] += 1
        self.entry_row += [len(self.row_names)] * len(terms)
        self.entry_col += [idx for idx, _ in terms]
        self.entry_coef += [coef for _, coef in terms]
        self.row_names.append(name)
        self.senses.append(sense)
        self.rhs.append(rhs)

    @property
    def rows(self) -> list[Row]:
        """The rows with their terms, built from the entry table on access."""
        terms = [[] for _ in self.row_names]
        for k, idx, coef in zip(self.entry_row, self.entry_col, self.entry_coef):
            terms[k].append((idx, coef))
        return list(map(Row, self.row_names, self.senses, self.rhs, terms))

    def objective_value(self, values: dict[str, float]) -> float:
        """Evaluate the objective expression on a name -> value map."""
        total = self.obj_constant
        for idx, coef in self.obj_terms:
            total += coef * values[self.vars[idx].name]
        return total


def build_model(graph: EventGraph, variant: str,
                objective: ObjectiveSpec | None = None) -> MilpModel:
    """Assemble the chosen formulation over the pruned event graph.

    A pruned graph is used as given and a complete one through its
    ``pruned_graph``, which is built once per complete graph;
    ``model.graph`` is the pruned graph.  Pruning keeps every tour with a
    schedule, so it keeps every optimum.
    """
    return _assemble(graph.pruned_graph, variant, objective)


def _assemble(graph: EventGraph, variant: str,
              objective: ObjectiveSpec | None) -> MilpModel:
    """The formulation over exactly the given graph, pruned or not."""
    if variant not in VARIANTS:
        raise DataError(f"unknown model variant {variant!r}")
    inst = graph.inst
    n = inst.n
    obj = (objective or ObjectiveSpec()).resolve(n)
    w_cost, w_excess, w_max, w_denied = obj._weights()

    model = MilpModel(graph, variant, obj)

    # variables; integer block first so the MPS writer emits one marker pair
    x = [model.add_var("x", a, 0.0, 1.0) for a in range(graph.arc_count)]
    p = {}
    if w_denied:
        p = {r.id: model.add_var("p", r.id, 0.0, 1.0) for r in inst.requests}
    locs = graph.locations
    # times on the pickup and dropoff states; no row reads a depot time
    B = {}
    for v, node in enumerate(graph.nodes):
        if node.kind == DEPOT:
            continue
        e, l = inst.windows[locs[v]]
        if variant == MODEL2:
            lb, ub = e, l
        elif node.kind == PICKUP:
            lb, ub = 0.0, l
        else:
            lb, ub = e, math.inf
        B[v] = model.add_var("B", v, lb, ub)
    z = {r.id: model.add_var("z", r.id, -math.inf, math.inf)
         for r in inst.requests}
    d = {}
    dmax = None
    if w_excess or w_max:
        d = {r.id: model.add_var("d", r.id, 0.0, math.inf) for r in inst.requests}
    if w_max:
        dmax = model.add_var("dmax", -1, 0.0, math.inf)

    # flow conservation at every state node, depot included
    for v in range(graph.node_count):
        terms = [(x[a], 1.0) for a in graph.in_arcs[v]]
        terms += [(x[a], -1.0) for a in graph.out_arcs[v]]
        model.add_row("flow", f"flow_{v}", "E", 0.0, terms)

    # each request is served exactly once (or, if denial is priced, as
    # often as its acceptance variable says)
    for req in inst.requests:
        terms = [(x[a], 1.0)
                 for v in graph.pickup_nodes[req.id]
                 for a in graph.in_arcs[v]]
        if w_denied:
            model.add_row("serve", f"serve_{req.id}", "E", 0.0,
                          terms + [(p[req.id], -1.0)])
        else:
            model.add_row("serve", f"serve_{req.id}", "E", 1.0, terms)

    # at most |K| vehicles leave the depot
    model.add_row("fleet", "fleet", "L", float(inst.fleet_size),
                  [(x[a], 1.0) for a in graph.out_arcs[graph.depot_node]])

    # each arc's travel time, and its big-M, which relaxes its travel or
    # depot row below when the arc is unused: l_tail - e_head + s_tail + t,
    # its exact bound, floored at 0
    arcs = graph.arcs
    windows, service = inst.windows, inst.service
    time_rows = inst.metric.time_rows
    times = [time_rows[locs[v]][locs[w]] for v, w in zip(arcs.tail, arcs.head)]
    big_m = [max(0.0, windows[locs[v]][1] - windows[locs[w]][0]
                 + service[locs[v]] + t)
             for v, w, t in zip(arcs.tail, arcs.head, times)]

    # consecutive times along a used travel arc:  B_head >= B_tail + s + t
    for a, (v, w, cls, t, mm) in enumerate(
            zip(arcs.tail, arcs.head, arcs.cls, times, big_m)):
        if cls not in _TRAVEL_CLASSES:
            continue
        s_tail = service[locs[v]]
        model.add_row(
            "travel_link", f"tt_{a}", "L", mm - s_tail - t,
            [(B[v], 1.0), (B[w], -1.0), (x[a], mm)])

    # tours start no earlier than the depot opens and end before it closes
    e0, l0 = inst.depot_window
    for a, (v, w, cls, t, mm) in enumerate(
            zip(arcs.tail, arcs.head, arcs.cls, times, big_m)):
        if cls == LEAVE_DEPOT:
            model.add_row(
                "depot_depart", f"dep_{a}", "G", e0 + t - mm,
                [(B[w], 1.0), (x[a], -mm)])
        elif cls == RETURN_DEPOT:
            s_tail = service[locs[v]]
            model.add_row(
                "depot_return", f"ret_{a}", "L", l0 - s_tail - t + mm,
                [(B[v], 1.0), (x[a], mm)])

    # ride time through the hub z_i:  B_w <= z_i <= B_v + L_i + s_i for
    # every dropoff state w and pickup state v of request i; in model2 a
    # row relaxes by M_i = l_i- - e_i+ - L_i - s_i, floored at 0, unless its
    # state is active (a dropoff row and a pickup row together relax the
    # pairwise ride row by 2 M_i)
    for req in inst.requests:
        limit = req.max_ride + req.s
        mi = max(0.0, req.dropoff_window[1] - req.pickup_window[0]
                 - req.max_ride - req.s) if variant == MODEL2 else 0.0
        zi = z[req.id]
        for w in graph.dropoff_nodes[req.id]:
            terms = [(B[w], 1.0), (zi, -1.0)]
            terms += [(x[a], mi) for a in graph.in_arcs[w] if mi]
            model.add_row("ride_time", f"ride_{req.id}_{w}", "L", mi, terms)
        for v in graph.pickup_nodes[req.id]:
            terms = [(zi, 1.0), (B[v], -1.0)]
            terms += [(x[a], mi) for a in graph.in_arcs[v] if mi]
            model.add_row("ride_time", f"ride_{req.id}_{v}", "L", mi + limit, terms)

    # activation-dependent windows; the width of the user-specified
    # window relaxes the bound for inactive nodes
    if variant == MODEL3:
        for req in inst.requests:
            if req.direction == INBOUND:
                width = req.pickup_window[1] - req.pickup_window[0]
            else:
                width = req.dropoff_window[1] - req.dropoff_window[0]
            ep = req.pickup_window[0]
            for v in graph.pickup_nodes[req.id]:
                terms = [(B[v], 1.0)] + [(x[a], width) for a in graph.in_arcs[v]]
                model.add_row("window_activation", f"wlo_{v}", "G", ep + width, terms)
            cap = ep + req.max_ride + req.s
            for w in graph.dropoff_nodes[req.id]:
                terms = [(B[w], 1.0)] + [(x[a], -width) for a in graph.in_arcs[w]]
                model.add_row("window_activation", f"wup_{w}", "L", cap, terms)

    # dropoff excess per request, over every dropoff state of the request
    if w_excess or w_max:
        for req in inst.requests:
            ed = req.dropoff_window[0]
            for w in graph.dropoff_nodes[req.id]:
                model.add_row("excess", f"ex_{req.id}_{w}", "G", -ed,
                              [(d[req.id], 1.0), (B[w], -1.0)])
    if w_max:
        for req in inst.requests:
            model.add_row("excess_max", f"dmx_{req.id}", "G", 0.0,
                          [(dmax, 1.0), (d[req.id], -1.0)])

    # objective; zero-weight components contribute no terms
    terms = []
    if w_cost:
        cost_rows = inst.metric.cost_rows
        terms += [(x[a], w_cost * cost_rows[locs[v]][locs[w]])
                  for a, (v, w) in enumerate(zip(arcs.tail, arcs.head))]
    if w_excess:
        terms += [(d[req.id], w_excess) for req in inst.requests]
    if w_max:
        terms += [(dmax, w_max)]
    if w_denied:
        terms += [(p[req.id], -w_denied) for req in inst.requests]
        model.obj_constant = w_denied * n
    model.obj_terms = terms

    return model


# ---------------------------------------------------------------------------
# file writers
# ---------------------------------------------------------------------------

class _Formatted(dict):
    """``text(value)`` for each value, computed once per writer call.

    Zeros are formatted every time and never kept: 0.0 and -0.0 are one
    dict key, but ``f"{v:.12g}"`` writes them as ``0`` and ``-0``.
    """

    __slots__ = ("text",)

    def __init__(self, text):
        super().__init__()
        self.text = text

    def __missing__(self, value):
        out = self.text(value)
        if value:
            self[value] = out
        return out


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _lp_term(coef: float) -> str:
    """The sign and magnitude that precede a column name in an LP term."""
    return f"{'-' if coef < 0 else '+'} {abs(coef):.12g} "


def write_mps(model: MilpModel) -> str:
    """Serialize to MPS text, 12 significant digits, minimization sense.

    One pass over the entry table gathers each column's entries as ready
    ``  row  value`` strings, each distinct value formatted once; a
    column without entries is declared by a zero objective entry.
    """
    fmt = _Formatted(_fmt)
    columns: list[list[str]] = [[] for _ in model.vars]
    for idx, coef in model.obj_terms:
        columns[idx].append("  COST  " + fmt[coef])
    tags = [f"  {name}  " for name in model.row_names]
    for k, idx, coef in zip(model.entry_row, model.entry_col, model.entry_coef):
        columns[idx].append(tags[k] + fmt[coef])
    out = [f"NAME          {model.name}", "ROWS", " N  COST"]
    out += [f" {sense}  {name}" for sense, name in zip(model.senses, model.row_names)]
    out.append("COLUMNS")
    in_int = False
    marker = 0
    for var, entry in zip(model.vars, columns):
        if var.integer != in_int:
            tag = "INTORG" if var.integer else "INTEND"
            out.append(f"    M{marker}  'MARKER'  '{tag}'")
            marker += 1
            in_int = var.integer
        # two entries a line: pair even and odd entries, the last one
        # alone if their number is odd
        head = "    " + var.name
        if len(entry) <= 2:
            out.append(head + ("".join(entry) or "  COST  0"))
        else:
            odd = entry[1::2]
            if len(entry) % 2:
                odd.append("")
            out.append(head + ("\n" + head).join(map(add, entry[::2], odd)))
    if in_int:
        out.append(f"    M{marker}  'MARKER'  'INTEND'")
    out.append("RHS")
    if model.obj_constant:
        out.append(f"    RHS  COST  {fmt[-model.obj_constant]}")
    out += [f"    RHS  {name}  {fmt[rhs]}"
            for name, rhs in zip(model.row_names, model.rhs) if rhs]
    out.append("BOUNDS")
    for var in model.vars:
        if var.integer:
            out.append(f" BV BND  {var.name}")
            continue
        if var.lb == -math.inf and var.ub == math.inf:
            out.append(f" FR BND  {var.name}")
            continue
        if var.lb != 0.0:
            out.append(f" LO BND  {var.name}  {fmt[var.lb]}")
        if var.ub != math.inf:
            out.append(f" UP BND  {var.name}  {fmt[var.ub]}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def _lp_expr(parts: list[str]) -> str:
    """Join signed terms (``+ 1 x_0``) into an LP expression that does
    not start with a plus."""
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def write_lp(model: MilpModel) -> str:
    """Serialize to CPLEX-style LP text with the same content as the MPS.

    One pass over the entry table writes each row's terms, each distinct
    coefficient's signed text formatted once.  A column with LP's default
    bounds [0, inf) is declared under Bounds only when no term names it,
    so the file lists every column.
    """
    fmt = _Formatted(_fmt)
    term = _Formatted(_lp_term)
    names = [var.name for var in model.vars]
    out = [f"\\ {model.name}", "Minimize"]
    parts = [term[coef] + names[idx] for idx, coef in model.obj_terms]
    if model.obj_constant:
        parts.append(term[model.obj_constant][:-1])
    out.append(" obj: " + _lp_expr(parts))
    out.append("Subject To")
    rel = {"E": "=", "L": "<=", "G": ">="}
    exprs: list[list[str]] = [[] for _ in model.row_names]
    for k, idx, coef in zip(model.entry_row, model.entry_col, model.entry_coef):
        exprs[k].append(term[coef] + names[idx])
    for name, sense, rhs, parts in zip(model.row_names, model.senses, model.rhs, exprs):
        out.append(f" {name}: {_lp_expr(parts)} {rel[sense]} {fmt[rhs]}")
    out.append("Bounds")
    unnamed = {j for j, var in enumerate(model.vars) if not var.integer
               and var.lb == 0.0 and var.ub == math.inf}.difference(
                   model.entry_col, (idx for idx, _ in model.obj_terms))
    for j, var in enumerate(model.vars):
        if var.integer:
            continue
        if var.lb == -math.inf and var.ub == math.inf:
            out.append(f" {var.name} free")
        elif var.ub == math.inf:
            if var.lb != 0.0 or j in unnamed:
                out.append(f" {var.name} >= {fmt[var.lb]}")
        else:
            out.append(f" {fmt[var.lb]} <= {var.name} <= {fmt[var.ub]}")
    out.append("Binaries")
    binaries = [var.name for var in model.vars if var.integer]
    for pos in range(0, len(binaries), 8):
        out.append(" " + " ".join(binaries[pos:pos + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


def variable_mapping(model: MilpModel) -> dict:
    """The sidecar that binds an exported model to its instance.

    Column ids refer to one graph of one instance, so the sidecar records
    the instance's SHA-256, the graph form and the column count, which
    :func:`read_mapping` checks, and the variant and objective it rebuilds
    the model from.  The column names describe themselves: ``x_<arc>``,
    ``B_<state>``, ``p_<request>``, ``z_<request>``, ``d_<request>`` and
    ``dmax``.
    """
    return {
        "model": model.name,
        "instance": model.graph.inst.name,
        "instance_sha256": instance_sha256(model.graph.inst),
        "graph": PRUNED_FORM if model.graph.pruned else "full",
        "columns": len(model.vars),
        "variant": model.variant,
        "objective": {
            "variant": model.objective.variant,
            "alpha": model.objective.alpha,
            "beta": model.objective.beta,
            "gamma": model.objective.gamma,
        },
    }


def write_mapping(model: MilpModel) -> str:
    return json.dumps(variable_mapping(model), indent=2, sort_keys=True)


def read_mapping(text: str, inst: Instance) -> MilpModel:
    """The model a sidecar was written for, rebuilt over ``inst``; refused
    unless the sidecar names this instance, the graph form ``PRUNED_FORM``
    and the column count."""
    try:
        doc = json.loads(text)
        objective = ObjectiveSpec(
            variant=doc["objective"]["variant"],
            alpha=doc["objective"]["alpha"],
            beta=doc["objective"]["beta"],
            gamma=doc["objective"]["gamma"])
        variant = doc["variant"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"mapping sidecar: {exc}") from None
    if doc.get("instance_sha256") != instance_sha256(inst) or "graph" not in doc:
        raise DataError("mapping sidecar was not written for this instance's "
                        "pruned graph; export the model again")
    if doc["graph"] != PRUNED_FORM:
        raise DataError(f"mapping sidecar names the graph form {doc['graph']!r}, "
                        f"not {PRUNED_FORM!r}; export the model again")
    model = build_model(build_event_graph(inst, pruned=True), variant, objective)
    if doc.get("columns") != len(model.vars):
        raise DataError(f"mapping sidecar lists {doc.get('columns')} columns, the "
                        f"model has {len(model.vars)}; export the model again")
    return model
