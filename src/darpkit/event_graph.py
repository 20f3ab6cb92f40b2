"""Event-based graph over a dial-a-ride instance.

Instead of locations, nodes describe vehicle states: the most recent
pickup or dropoff event together with the set of other requests on
board.  A node is a capacity-length tuple whose first component is the
event (request id plus pickup/dropoff marker) and whose remaining
components list the other onboard requests in decreasing id order,
padded with zeros.  States whose seat total (the event's own request
counts for both event kinds, since a request being dropped off was
still on board on arrival) exceeds the capacity are not generated, so
capacity never needs explicit constraints downstream.

Arcs connect states that can follow each other directly and fall into
six classes: pickup followed by a dropoff, pickup followed by a pickup,
dropoff followed by a pickup, dropoff followed by a dropoff, return of
the empty vehicle to the depot, and departure of the empty vehicle to a
first pickup.  An arc's travel cost and time are those of its end states'
locations, read from the instance's metric where they are used.

With ``pruned=True`` the builder computes the instance's ride-compatible
request pairs (see :func:`darpkit.schedule.compatible_pairs`) and returns
the pruned graph instead, which keeps every tour that has a schedule:

* pair rule: a state exists only when its onboard set, the event's own
  request included, is a clique of compatible pairs;
* arc rule: an arc is dropped when ``e_tail + s_tail + t > l_head`` (beyond
  the schedule tolerance) on the location windows, depot legs included;
* dead states: every non-depot state without an in-arc or an out-arc is
  dropped, until none is left.

All three rest on the triangle inequality, which ``Instance`` enforces:
the stops of two requests taken out of a feasible tour form a feasible
tour, so requests that share a vehicle in any plan are compatible.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property
from itertools import compress, repeat
from operator import add, itemgetter, le
from typing import NamedTuple

from .errors import DataError
from .instance import DEPOT, DEPOT_LOCATION, DROPOFF, PICKUP, Instance
from .schedule import _TIME_EPS, compatible_pairs

PICKUP_DROPOFF = 1
PICKUP_PICKUP = 2
DROPOFF_PICKUP = 3
DROPOFF_DROPOFF = 4
RETURN_DEPOT = 5
LEAVE_DEPOT = 6

# arcs buffered in lists before they move to the typed columns
_CHUNK = 1 << 14

CLASS_NAMES = {
    PICKUP_DROPOFF: "pickup_dropoff",
    PICKUP_PICKUP: "pickup_pickup",
    DROPOFF_PICKUP: "dropoff_pickup",
    DROPOFF_DROPOFF: "dropoff_dropoff",
    RETURN_DEPOT: "return_depot",
    LEAVE_DEPOT: "leave_depot",
}


class EventNode(NamedTuple):
    """Vehicle state: last service event plus other requests on board.

    ``others`` lists the remaining onboard request ids in decreasing
    order without zero padding; :meth:`as_tuple` gives the padded form.
    A named tuple, so that a graph's many states are cheap to make.
    """

    kind: str
    request: int
    others: tuple[int, ...]

    def as_tuple(self, capacity: int) -> tuple:
        if self.kind == DEPOT:
            first = "0"
        else:
            first = f"{self.request}{'+' if self.kind == PICKUP else '-'}"
        padding = (0,) * (capacity - 1 - len(self.others))
        return (first, *self.others, *padding)

    def label(self, capacity: int) -> str:
        return "(" + ",".join(str(c) for c in self.as_tuple(capacity)) + ")"


class ArcTable:
    """The arcs of an event graph as three typed columns.

    ``tail``, ``head`` (state ids) and ``cls`` (arc class) are stdlib
    arrays, which the cyclic garbage collector does not track, so a large
    graph costs no collector work.
    """

    __slots__ = _COLUMNS = ("tail", "head", "cls")

    def __init__(self, tail=(), head=(), cls=()):
        self.tail = array("l", tail)
        self.head = array("l", head)
        self.cls = array("b", cls)

    def __len__(self) -> int:
        return len(self.tail)

    def __eq__(self, other):
        if not isinstance(other, ArcTable):
            return NotImplemented
        return all(getattr(self, c) == getattr(other, c) for c in self._COLUMNS)


class EventGraph:
    """An event graph: its states and its arc table.

    ``compatible`` is None for the complete graph, and the set of
    ride-compatible request pairs the graph was pruned with otherwise.
    ``pickup_nodes``, ``dropoff_nodes``, ``in_arcs``, ``out_arcs``,
    ``class_counts`` and a complete graph's ``pruned_graph`` are built on
    first use.
    """

    def __init__(self, inst: Instance, nodes, locations, arcs: ArcTable,
                 compatible: frozenset | None = None):
        self.inst = inst
        self.compatible = compatible
        self.nodes: tuple[EventNode, ...] = tuple(nodes)
        self.locations: tuple[int, ...] = tuple(locations)
        self.arcs = arcs
        self.depot_node = 0
        self._pruned_graph: EventGraph | None = None

    @cached_property
    def pickup_nodes(self) -> dict[int, list[int]]:
        """Ids of each request's pickup states, ascending."""
        return self._states_of(PICKUP)

    @cached_property
    def dropoff_nodes(self) -> dict[int, list[int]]:
        """Ids of each request's dropoff states, ascending."""
        return self._states_of(DROPOFF)

    def _states_of(self, kind: str) -> dict[int, list[int]]:
        states = {i: [] for i in range(1, self.inst.n + 1)}
        for v, node in enumerate(self.nodes):
            if node.kind == kind:
                states[node.request].append(v)
        return states

    @cached_property
    def in_arcs(self) -> list[list[int]]:
        """Ids of the arcs entering each state, ascending."""
        return self._adjacency(self.arcs.head)

    @cached_property
    def out_arcs(self) -> list[list[int]]:
        """Ids of the arcs leaving each state, ascending."""
        return self._adjacency(self.arcs.tail)

    @cached_property
    def class_counts(self) -> dict[int, int]:
        """Number of arcs of each class, counted from ``arcs.cls``."""
        return {c: self.arcs.cls.count(c) for c in CLASS_NAMES}

    def _adjacency(self, ends) -> list[list[int]]:
        lists = [[] for _ in self.nodes]
        for a, v in enumerate(ends):
            lists[v].append(a)
        return lists

    @property
    def pruned(self) -> bool:
        return self.compatible is not None

    @property
    def pruned_graph(self) -> EventGraph:
        """This graph when pruned, else the pruned graph of its instance."""
        # not a cached_property: a pruned graph that stored itself would
        # form a reference cycle, freed only by the cyclic collector
        if self.pruned:
            return self
        if self._pruned_graph is None:
            self._pruned_graph = build_event_graph(self.inst, pruned=True)
        return self._pruned_graph

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


def _co_rider_sets(others: list[int], loads: dict[int, int], budget: int,
                   mates: dict[int, set[int]]) -> list[tuple[int, ...]]:
    """All subsets of ``others`` with load sum <= budget whose members are
    pairwise mates, as decreasing tuples."""
    found = [()]
    chosen: list[int] = []

    def grow(start: int, slack: int):
        for pos in range(start, len(others)):
            j = others[pos]
            if loads[j] <= slack and mates[j].issuperset(chosen):
                chosen.append(j)
                found.append(tuple(chosen[::-1]))
                grow(pos + 1, slack - loads[j])
                chosen.pop()

    grow(0, budget)
    return found


def build_event_graph(inst: Instance, *, pruned: bool = False) -> EventGraph:
    """Build the event graph for a tightened instance.

    The graph is complete unless ``pruned``; then it is pruned by the
    pair rule over ``compatible_pairs(inst)``, the arc rule and the
    dead-state pass of the module docstring.

    Node order is deterministic: the depot first, then nodes sorted by
    (event location, onboard tuple); arcs are made in (tail, head) order.
    A pruned graph keeps that order over the surviving nodes and arcs.
    Rebuilding from an equal instance reproduces identical ids, which
    keeps exported model files and solution imports stable.

    A state's heads depend only on the set left on board after its
    event: the pickups of further requests that fit, then the dropoffs
    of everyone on board, and for an empty vehicle the depot first.  So
    each onboard set gets one head block (head ids and an
    ``itemgetter`` over the head locations), shared by the pickup
    states that leave that set on board and the dropoff states that
    leave it behind; a dropoff state skips its own request's pickup.
    Each state appends its block as one run to each column; in a pruned
    graph the arc rule reads the travel times from the metric's time row
    of the state's location.
    """
    for req in inst.requests:
        if req.direction is None:
            raise DataError("instance must be tightened before building the graph")
    n = inst.n
    cap = inst.capacity
    loads = {r.id: r.q for r in inst.requests}
    ids = sorted(loads)
    compatible = compatible_pairs(inst) if pruned else None
    if not pruned:
        mates = {i: set(ids) - {i} for i in ids}
    else:
        mates = {i: set() for i in ids}
        for i, j in compatible:
            mates[i].add(j)
            mates[j].add(i)

    co_riders = {
        i: _co_rider_sets(sorted(mates[i]), loads, cap - loads[i], mates)
        for i in ids
    }

    nodes = [EventNode(DEPOT, 0, ())]
    locations = [DEPOT_LOCATION]
    index = {}          # (location, others) -> state id
    # others -> (ids, locations) of the pickup states with them, ascending
    pick_after: dict[tuple, tuple[list, list]] = {}
    # rank[v]: the position of pickup state v in its pick_after group;
    # the dropoff states follow in the pickup states' order, so the
    # dropoff state with pickup state v's request and others is v + picks
    rank = [0]
    for loc in range(1, 2 * n + 1):
        kind, i = (PICKUP, loc) if loc <= n else (DROPOFF, loc - n)
        for others in sorted(co_riders[i]):
            index[loc, others] = len(nodes)
            if kind == PICKUP:
                heads, locs = pick_after.setdefault(others, ([], []))
                rank.append(len(heads))
                heads.append(len(nodes))
                locs.append(loc)
            nodes.append(EventNode(kind, i, others))
            locations.append(loc)
    picks = len(rank) - 1

    m = 2 * n + 1
    # the arc rule's two sides: e + s of each tail, l (plus the tolerance)
    # of each head
    ready = [inst.windows[a][0] + inst.service[a] for a in range(m)]
    late_row = [inst.windows[b][1] + _TIME_EPS for b in range(m)]
    # (pickup-state, dropoff-state) class lists by block shape (depot,
    # pickups, dropoffs), shared by every block of that shape
    shapes: dict[tuple, tuple[list, list]] = {}
    blocks: dict[tuple, tuple] = {}     # onboard -> head block

    def new_block(onboard):
        """Make and keep the head block after ``onboard``: (heads, getter,
        head lates if pruned, pickup-state classes, dropoff-state
        classes)."""
        # the block takes the pickup group over; no other block reads it
        p_heads, p_locs = pick_after.pop(onboard, ([], []))
        depot = 0 if onboard else 1
        # dropoffs by increasing request, each leaving the rest on board
        riders = range(len(onboard) - 1, -1, -1)
        heads = [0] * depot + p_heads
        heads += [index[n + onboard[p], onboard[:p] + onboard[p + 1:]]
                  for p in riders]
        locs = [DEPOT_LOCATION] * depot + p_locs + [n + onboard[p] for p in riders]
        shape = (depot, len(p_heads), len(onboard))
        classes = shapes.get(shape)
        if classes is None:
            k0, k1, k2 = shape
            classes = shapes[shape] = (
                [PICKUP_PICKUP] * k1 + [PICKUP_DROPOFF] * k2,
                [RETURN_DEPOT] * k0 + [DROPOFF_PICKUP] * k1
                + [DROPOFF_DROPOFF] * k2)
        get = _getter(locs)
        lates = get(late_row) if pruned else None
        blocks[onboard] = b = (heads, get, lates, *classes)
        return b

    arcs = ArcTable()
    columns = tuple(getattr(arcs, c) for c in ArcTable._COLUMNS)
    buffers = tail, head, cls = [], [], []
    time_rows = inst.metric.time_rows

    def flush():
        for column, buf in zip(columns, buffers):
            column.fromlist(buf)
            buf.clear()

    for v, lt in enumerate(locations):
        # heads in id order: the depot, pickup states, then dropoff states
        # by increasing request (pickup states precede dropoff states)
        if v > picks:
            # the depot once empty, dropoff -> pickup with the same
            # residual load except the pickup of the request just dropped
            # off, then dropoff -> dropoff of anyone still on board
            key = nodes[v].others
            heads, get, lates, _, classes = blocks.get(key) or new_block(key)
            # the depot leads the empty vehicle's block
            own = rank[v - picks] + (0 if key else 1)
        elif v:
            # pickup -> pickup of a further request, capacity permitting,
            # then pickup -> dropoff of anyone on board
            node = nodes[v]
            key = tuple(sorted((node.request, *node.others), reverse=True))
            heads, get, lates, classes, _ = blocks.get(key) or new_block(key)
            own = None
        else:
            heads, locs = pick_after[()]
            get, classes, own = _getter(locs), [LEAVE_DEPOT] * len(heads), None
            lates = get(late_row) if pruned else None
        count = len(heads)
        if pruned:
            # the arc rule, e_tail + s_tail + t <= l_head, and no arc back
            # to the state's own pickup
            fits = list(map(le, map(add, repeat(ready[lt]), get(time_rows[lt])),
                            lates))
            if own is not None:
                fits[own] = False
                own = None
            if not all(fits):
                count = fits.count(True)
                heads, classes = compress(heads, fits), compress(classes, fits)
        start = len(tail)
        tail += [v] * count
        head += heads
        cls += classes
        if own is not None:
            own += start
            del tail[own], head[own], cls[own]
        if start > _CHUNK:
            flush()
    flush()
    if pruned:
        nodes, locations, arcs = _without_dead_states(nodes, locations, arcs)
    return EventGraph(inst, nodes, locations, arcs, compatible)


def _getter(locs: list[int]):
    """``itemgetter(*locs)``, which returns a tuple also for one location."""
    if len(locs) > 1:
        return itemgetter(*locs)
    loc, = locs
    return lambda row: (row[loc],)


def _without_dead_states(nodes, locations, arcs: ArcTable):
    """Drop non-depot states without an in-arc or an out-arc until none is
    left; the survivors keep their order and are renumbered.  Returns the
    nodes, locations and arc table that remain."""
    columns = [arcs.tail, arcs.head, arcs.cls]
    alive = set(range(len(nodes)))
    while True:
        tail, head = columns[:2]
        dead = alive - set(tail).intersection(head)
        dead.discard(0)
        if not dead:
            break
        alive -= dead
        fits = [not (t or h) for t, h in zip(map(dead.__contains__, tail),
                                              map(dead.__contains__, head))]
        columns = [list(compress(column, fits)) for column in columns]
    if len(alive) == len(nodes):
        return nodes, locations, arcs
    keep = sorted(alive)
    new_id = dict(zip(keep, range(len(keep)))).__getitem__
    columns[:2] = [map(new_id, column) for column in columns[:2]]
    return ([nodes[v] for v in keep], [locations[v] for v in keep],
            ArcTable(*columns))


def node_count_closed_form(n: int, capacity: int) -> int:
    """Number of event nodes when every request demands one seat."""
    if n < 1 or capacity < 1:
        raise DataError("need n >= 1 and capacity >= 1")
    return 1 + 2 * n * sum(math.comb(n - 1, j) for j in range(capacity))


def arc_count_closed_form(n: int, capacity: int) -> int:
    """Number of event arcs when every request demands one seat."""
    if n < 1 or capacity < 1:
        raise DataError("need n >= 1 and capacity >= 1")
    q = capacity
    total = 2 * n
    total += n * sum(math.comb(n - 1, j) * (j + 1) for j in range(q))
    if n >= 2:
        total += 3 * n * (n - 1) * sum(math.comb(n - 2, j) for j in range(q - 1))
    prod = 1
    for k in range(q + 1):
        prod *= n - k
    total += max(prod, 0) // math.factorial(q - 1)
    return total


def graph_stats(g: EventGraph) -> dict:
    """Summary statistics; includes closed-form counts for unit loads."""
    stats = {
        "instance": g.inst.name,
        "requests": g.inst.n,
        "capacity": g.inst.capacity,
        "nodes": g.node_count,
        "arcs": g.arc_count,
        "arc_classes": {CLASS_NAMES[c]: g.class_counts[c] for c in sorted(CLASS_NAMES)},
    }
    if not g.pruned and all(r.q == 1 for r in g.inst.requests):
        stats["closed_form"] = {
            "nodes": node_count_closed_form(g.inst.n, g.inst.capacity),
            "arcs": arc_count_closed_form(g.inst.n, g.inst.capacity),
        }
    return stats


def to_dot(g: EventGraph) -> str:
    """Graphviz rendering with padded state labels and arc class names."""
    cap = g.inst.capacity
    lines = ["digraph events {", "  rankdir=LR;"]
    for v, node in enumerate(g.nodes):
        shape = "doublecircle" if node.kind == DEPOT else "ellipse"
        lines.append(f'  n{v} [label="{node.label(cap)}" shape={shape}];')
    for tail, head, cls in zip(g.arcs.tail, g.arcs.head, g.arcs.cls):
        lines.append(f'  n{tail} -> n{head} [label="{CLASS_NAMES[cls]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
