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
rows on the depot connections (the single depot time variable carries
only its own window).

Every model is built over the pruned event graph (see
:mod:`darpkit.event_graph`): states and arcs that no feasible tour can
use never get a column or a row.  Pruning keeps every optimum, and
removed arcs no longer carry LP flow (the LP bound is checked never to
fall on the criterion-3 instances).

Objectives: routing cost, total dropoff excess, maximal dropoff excess,
and weighted combinations; only ``request_cost_excess`` prices denied
requests, so only it gets per-request acceptance variables.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

from .errors import DataError, ParseError
from .event_graph import (
    DROPOFF_DROPOFF, DROPOFF_PICKUP, LEAVE_DEPOT, PICKUP_DROPOFF,
    PICKUP_PICKUP, RETURN_DEPOT,
    EventGraph, build_event_graph,
)
from .instance import DEPOT, INBOUND, PICKUP, Instance, instance_sha256
from .schedule import compatible_pairs

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


@dataclass(frozen=True)
class BigM:
    """Big-M coefficients, each at its exact lower bound (floored at 0).

    ``ride[i]`` relaxes a model2 hub row of request i (a dropoff node's
    time below ``z_i``, or ``z_i`` within the ride limit of a pickup
    node's time) when its node is inactive; a dropoff row and a pickup row
    together relax the pairwise ride-time row by ``2 * ride[i]``.
    ``link[a]`` relaxes the travel-time row of arc a when the arc is not
    used.
    """

    ride: dict[int, float]
    link: dict[int, float]


def compute_big_m(graph: EventGraph) -> BigM:
    """Exact big-M values from windows, services and arc travel times."""
    inst = graph.inst
    ride = {}
    for req in inst.requests:
        ride[req.id] = max(
            0.0,
            req.dropoff_window[1] - req.pickup_window[0] - req.max_ride - req.s)
    link = {}
    arcs, locs = graph.arcs, graph.locations
    for a, (v, w, t) in enumerate(zip(arcs.tail, arcs.head, arcs.time)):
        tail, head = locs[v], locs[w]
        link[a] = max(0.0, inst.windows[tail][1] - inst.windows[head][0]
                      + inst.service[tail] + t)
    return BigM(ride=ride, link=link)


@dataclass
class Var:
    name: str
    kind: str          # x | p | B | z | d | dmax
    ref: int           # arc, request or node id; -1 for dmax
    lb: float
    ub: float
    integer: bool


@dataclass
class Row:
    name: str
    sense: str         # E | L | G
    rhs: float
    terms: list        # [(var index, coefficient)]


class MilpModel:
    """A fully assembled model: variables, rows, objective, bookkeeping."""

    def __init__(self, graph: EventGraph, variant: str, objective: ObjectiveSpec):
        self.graph = graph
        self.variant = variant
        self.objective = objective
        self.name = f"{graph.inst.name}.{variant}.{objective.variant}"
        self.vars: list[Var] = []
        self.rows: list[Row] = []
        self.obj_terms: list = []
        self.obj_constant = 0.0
        self.big_m: BigM | None = None
        self.census: dict = {"variables": dict.fromkeys(_VAR_KINDS, 0),
                             "rows": dict.fromkeys(_ROW_FAMILIES, 0)}

    def add_var(self, name, kind, ref, lb, ub, integer) -> int:
        self.census["variables"][kind] += 1
        self.vars.append(Var(name, kind, ref, lb, ub, integer))
        return len(self.vars) - 1

    def add_row(self, family, name, sense, rhs, terms):
        self.census["rows"][family] += 1
        self.rows.append(Row(name, sense, rhs, terms))

    def objective_value(self, values: dict[str, float]) -> float:
        """Evaluate the objective expression on a name -> value map."""
        total = self.obj_constant
        for idx, coef in self.obj_terms:
            total += coef * values[self.vars[idx].name]
        return total


def build_model(graph: EventGraph, variant: str,
                objective: ObjectiveSpec | None = None) -> MilpModel:
    """Assemble the chosen formulation over the pruned event graph.

    A pruned graph is used as given; for a complete one the pruned graph
    of its instance is built, and ``model.graph`` is that pruned graph.
    Pruning keeps every tour with a schedule, so it keeps every optimum.
    """
    if not graph.pruned:
        graph = build_event_graph(graph.inst, compatible_pairs(graph.inst))
    return _assemble(graph, variant, objective)


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
    m = compute_big_m(graph)
    model.big_m = m

    # variables; integer block first so the MPS writer emits one marker pair
    x = [model.add_var(f"x_{a}", "x", a, 0.0, 1.0, True)
         for a in range(graph.arc_count)]
    p = {}
    if w_denied:
        p = {r.id: model.add_var(f"p_{r.id}", "p", r.id, 0.0, 1.0, True)
             for r in inst.requests}
    locs = graph.locations
    B = []
    for v in range(graph.node_count):
        e, l = inst.windows[locs[v]]
        if variant == MODEL2 or graph.nodes[v].kind == DEPOT:
            lb, ub = e, l
        elif graph.nodes[v].kind == PICKUP:
            lb, ub = 0.0, l
        else:
            lb, ub = e, math.inf
        B.append(model.add_var(f"B_{v}", "B", v, lb, ub, False))
    z = {r.id: model.add_var(f"z_{r.id}", "z", r.id, -math.inf, math.inf, False)
         for r in inst.requests}
    d = {}
    dmax = None
    if w_excess or w_max:
        d = {r.id: model.add_var(f"d_{r.id}", "d", r.id, 0.0, math.inf, False)
             for r in inst.requests}
    if w_max:
        dmax = model.add_var("dmax", "dmax", -1, 0.0, math.inf, False)

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

    # consecutive times along a used travel arc:  B_head >= B_tail + s + t
    arcs = graph.arcs
    for a, (v, w, cls, t) in enumerate(
            zip(arcs.tail, arcs.head, arcs.cls, arcs.time)):
        if cls not in _TRAVEL_CLASSES:
            continue
        mm = m.link[a]
        s_tail = inst.service[locs[v]]
        model.add_row(
            "travel_link", f"tt_{a}", "L", mm - s_tail - t,
            [(B[v], 1.0), (B[w], -1.0), (x[a], mm)])

    # tours start no earlier than the depot opens and end before it closes
    e0, l0 = inst.depot_window
    for a, (v, w, cls, t) in enumerate(
            zip(arcs.tail, arcs.head, arcs.cls, arcs.time)):
        if cls == LEAVE_DEPOT:
            model.add_row(
                "depot_depart", f"dep_{a}", "G", e0 + t - m.link[a],
                [(B[w], 1.0), (x[a], -m.link[a])])
        elif cls == RETURN_DEPOT:
            s_tail = inst.service[locs[v]]
            model.add_row(
                "depot_return", f"ret_{a}", "L", l0 - s_tail - t + m.link[a],
                [(B[v], 1.0), (x[a], m.link[a])])

    # ride time through the hub z_i:  B_w <= z_i <= B_v + L_i + s_i for
    # every dropoff state w and pickup state v of request i; in model2 a
    # row relaxes by M_i unless its state is active
    for req in inst.requests:
        mi = m.ride[req.id] if variant == MODEL2 else 0.0
        limit = req.max_ride + req.s
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
        terms += [(x[a], w_cost * c) for a, c in enumerate(arcs.cost)]
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

def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _column_entries(model: MilpModel) -> list[list[tuple[str, float]]]:
    entries: list[list[tuple[str, float]]] = [[] for _ in model.vars]
    for idx, coef in model.obj_terms:
        entries[idx].append(("COST", coef))
    for row in model.rows:
        for idx, coef in row.terms:
            entries[idx].append((row.name, coef))
    for idx, entry in enumerate(entries):
        if not entry:
            # declare otherwise-unused columns via a zero objective entry
            entry.append(("COST", 0.0))
    return entries


def write_mps(model: MilpModel) -> str:
    """Serialize to MPS text, 12 significant digits, minimization sense."""
    out = [f"NAME          {model.name}", "ROWS", " N  COST"]
    for row in model.rows:
        out.append(f" {row.sense}  {row.name}")
    out.append("COLUMNS")
    entries = _column_entries(model)
    in_int = False
    marker = 0
    for var, entry in zip(model.vars, entries):
        if var.integer != in_int:
            tag = "INTORG" if var.integer else "INTEND"
            out.append(f"    M{marker}  'MARKER'  '{tag}'")
            marker += 1
            in_int = var.integer
        for pos in range(0, len(entry), 2):
            chunk = entry[pos:pos + 2]
            part = "    " + var.name
            for row_name, coef in chunk:
                part += f"  {row_name}  {_fmt(coef)}"
            out.append(part)
    if in_int:
        out.append(f"    M{marker}  'MARKER'  'INTEND'")
    out.append("RHS")
    if model.obj_constant:
        out.append(f"    RHS  COST  {_fmt(-model.obj_constant)}")
    for row in model.rows:
        if row.rhs:
            out.append(f"    RHS  {row.name}  {_fmt(row.rhs)}")
    out.append("BOUNDS")
    for var in model.vars:
        if var.integer:
            out.append(f" BV BND  {var.name}")
            continue
        if var.lb == -math.inf and var.ub == math.inf:
            out.append(f" FR BND  {var.name}")
            continue
        if var.lb != 0.0:
            out.append(f" LO BND  {var.name}  {_fmt(var.lb)}")
        if var.ub != math.inf:
            out.append(f" UP BND  {var.name}  {_fmt(var.ub)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def _lp_expr(terms: list[tuple[str, float]], constant: float = 0.0) -> str:
    parts = []
    for name, coef in terms:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(coef))} {name}")
    if constant:
        sign = "-" if constant < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(constant))}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def write_lp(model: MilpModel) -> str:
    """Serialize to CPLEX-style LP text with the same content as the MPS."""
    out = [f"\\ {model.name}", "Minimize"]
    named = [(model.vars[idx].name, coef) for idx, coef in model.obj_terms]
    out.append(" obj: " + _lp_expr(named, model.obj_constant))
    out.append("Subject To")
    rel = {"E": "=", "L": "<=", "G": ">="}
    for row in model.rows:
        named = [(model.vars[idx].name, coef) for idx, coef in row.terms]
        out.append(f" {row.name}: {_lp_expr(named)} {rel[row.sense]} {_fmt(row.rhs)}")
    out.append("Bounds")
    used = {model.vars[idx].name for idx, _ in model.obj_terms}
    for row in model.rows:
        used.update(model.vars[idx].name for idx, _ in row.terms)
    for var in model.vars:
        if var.integer:
            continue
        if var.lb == -math.inf and var.ub == math.inf:
            out.append(f" {var.name} free")
        elif var.ub == math.inf:
            if var.lb != 0.0 or var.name not in used:
                out.append(f" {var.name} >= {_fmt(var.lb)}")
        else:
            out.append(f" {_fmt(var.lb)} <= {var.name} <= {_fmt(var.ub)}")
    out.append("Binaries")
    names = [var.name for var in model.vars if var.integer]
    for pos in range(0, len(names), 8):
        out.append(" " + " ".join(names[pos:pos + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


def variable_mapping(model: MilpModel) -> dict:
    """Sidecar map from variable names to their graph/request meaning.

    Column ids refer to one graph of one instance, so the sidecar records
    the instance's SHA-256, the graph form and the column count;
    :func:`read_mapping` checks all three.
    """
    ref_key = {"x": "arc", "B": "node", "p": "request", "z": "request",
               "d": "request"}
    variables = {}
    for var in model.vars:
        entry: dict = {"kind": var.kind}
        if var.kind in ref_key:
            entry[ref_key[var.kind]] = var.ref
        variables[var.name] = entry
    return {
        "model": model.name,
        "instance": model.graph.inst.name,
        "instance_sha256": instance_sha256(model.graph.inst),
        "graph": "pruned" if model.graph.pruned else "full",
        "columns": len(model.vars),
        "variant": model.variant,
        "objective": {
            "variant": model.objective.variant,
            "alpha": model.objective.alpha,
            "beta": model.objective.beta,
            "gamma": model.objective.gamma,
        },
        "objective_constant": model.obj_constant,
        "variables": variables,
    }


def write_mapping(model: MilpModel) -> str:
    return json.dumps(variable_mapping(model), indent=2, sort_keys=True)


def read_mapping(text: str, inst: Instance) -> MilpModel:
    """The model a sidecar was written for, rebuilt over ``inst``; refused
    unless the sidecar names this instance's pruned graph and column count."""
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
    if (doc.get("instance_sha256"), doc.get("graph")) != (
            instance_sha256(inst), "pruned"):
        raise DataError("mapping sidecar was not written for this instance's "
                        "pruned graph; export the model again")
    model = build_model(build_event_graph(inst, compatible_pairs(inst)),
                        variant, objective)
    if doc.get("columns") != len(model.vars):
        raise DataError(f"mapping sidecar lists {doc.get('columns')} columns, the "
                        f"model has {len(model.vars)}; export the model again")
    return model
