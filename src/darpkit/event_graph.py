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
the pruned graph instead, which keeps every tour that has a schedule.
Its states and arcs are enumerated as the complete graph's are, over
the compatible pairs in place of all pairs, and then filtered once:

* pair rule, inside the enumeration: a state exists only when its
  onboard set, the event's own request included, is a clique of
  compatible pairs;
* arc rule, one mask over the finished arc columns: an arc is dropped
  when ``e_tail + s_tail + t > l_head`` (beyond the schedule tolerance)
  on the location windows, depot legs included;
* dead states, after the mask: every non-depot state without an in-arc
  or an out-arc is dropped, until none is left.

All three rest on the triangle inequality, which ``Instance`` enforces:
the stops of two requests taken out of a feasible tour form a feasible
tour, so requests that share a vehicle in any plan are compatible.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property
from itertools import chain, compress, count, repeat
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


def _onboard_sets(loads: dict[int, int], capacity: int,
                  mates: dict[int, set[int]]) -> list[tuple[int, ...]]:
    """Every non-empty set of pairwise mates whose loads sum to at most
    ``capacity``, once each, as a decreasing tuple of request ids; the
    tuples come in increasing order."""
    found = []

    def grow(chosen: tuple, candidates: list[int], slack: int):
        # candidates: ascending, below the last chosen id and mates of all
        # chosen ones
        for pos, j in enumerate(candidates):
            rest = slack - loads[j]
            if rest >= 0:
                onboard = chosen + (j,)
                found.append(onboard)
                # loads are at least 1: no seat left, no larger set
                if pos and rest:
                    grow(onboard, list(filter(mates[j].__contains__,
                                              candidates[:pos])), rest)

    grow((), sorted(loads), capacity)
    return found


def build_event_graph(inst: Instance, *, pruned: bool = False) -> EventGraph:
    """Build the event graph for a tightened instance.

    The graph is complete unless ``pruned``; then the enumeration runs
    over the pairs of ``compatible_pairs(inst)`` (the pair rule of the
    module docstring), and the finished graph goes through the arc-rule
    mask and the dead-state pass.

    Node order is deterministic: the depot first, then nodes sorted by
    (event location, onboard tuple); arcs are made in (tail, head) order.
    A pruned graph keeps that order over the surviving nodes and arcs.
    Rebuilding from an equal instance reproduces identical ids, which
    keeps exported model files and solution imports stable.

    The onboard sets (pairwise mates whose seats fit) are enumerated
    once: each set gives each member its pickup and dropoff states with
    the rest on board, and is the set left on board after that pickup.
    A state's heads depend only on the set left on board after its
    event: the pickups of further requests that fit, then the dropoffs
    of everyone on board, and for an empty vehicle the depot first.  So
    each onboard set gets one head block, its head ids as an ``array``,
    shared by the pickup states that leave that set on board and the
    dropoff states that leave it behind, and each block shape one
    ``array`` of classes per tail kind.  A state extends each column
    with its block as one run, and a dropoff state then deletes its own
    request's pickup.  This one arc loop serves both graph forms.
    """
    for req in inst.requests:
        if req.direction is None:
            raise DataError("instance must be tightened before building the graph")
    n = inst.n
    loads = {r.id: r.q for r in inst.requests}
    compatible = compatible_pairs(inst) if pruned else None
    if not pruned:
        mates = {i: set(loads) - {i} for i in loads}
    else:
        mates = {i: set() for i in loads}
        for i, j in compatible:
            mates[i].add(j)
            mates[j].add(i)

    # each onboard set gives each member i the pickup state (i, others)
    # with the rest on board, and is the set on board after that pickup;
    # as the sets come in increasing order, so do each request's others
    states = {i: [] for i in loads}
    for onboard in _onboard_sets(loads, inst.capacity, mates):
        for p, i in enumerate(onboard):
            states[i].append((i, onboard[:p] + onboard[p + 1:], onboard))
    requests, others, after = zip(*chain.from_iterable(states.values()))
    picks = len(requests)
    nodes = [EventNode(DEPOT, 0, ())]
    # made in bulk: tuple.__new__ skips the named tuple's Python-level
    # constructor
    nodes += map(tuple.__new__, repeat(EventNode),
                 zip(repeat(PICKUP), requests, others))
    nodes += map(tuple.__new__, repeat(EventNode),
                 zip(repeat(DROPOFF), requests, others))
    locations = [DEPOT_LOCATION, *requests, *(n + i for i in requests)]

    # others -> ids of the pickup states with them, ascending
    pick_after: dict[tuple, list[int]] = {}
    # onboard set -> ids of the dropoff states of its members with the
    # rest on board, by increasing request; the dropoff states follow in
    # the pickup states' order, so the dropoff state with pickup state
    # v's request and others is v + picks
    dropoffs: dict[tuple, list[int]] = {}
    # own[k]: the position of pickup state k + 1 in the block after its
    # others, which its dropoff state skips
    own = []
    for v, rest, onboard in zip(count(1), others, after):
        group = pick_after.setdefault(rest, [])
        # the depot leads the empty vehicle's block
        own.append(len(group) + (0 if rest else 1))
        group.append(v)
        dropoffs.setdefault(onboard, []).append(v + picks)

    heads = array("l", pick_after[()])
    depot = (heads, array("b", [LEAVE_DEPOT]) * len(heads))
    # the blocks after each onboard set, for the pickup states that leave
    # it on board and the dropoff states that leave it behind: the depot
    # once empty, the pickups of further requests that fit, then the
    # dropoffs of everyone on board by increasing request
    pick_blocks, drop_blocks = {}, {}
    # (pickup-state, dropoff-state) classes by block shape (depot,
    # pickups, dropoffs), shared by every block of that shape
    shapes: dict[tuple, tuple[array, array]] = {}
    for key in ((), *dropoffs):
        empty = 0 if key else 1
        picked = pick_after.pop(key, [])
        dropped = dropoffs.pop(key, [])
        shape = (empty, len(picked), len(dropped))
        classes = shapes.get(shape)
        if classes is None:
            k0, k1, k2 = shape
            classes = shapes[shape] = (
                array("b", [PICKUP_PICKUP] * k1 + [PICKUP_DROPOFF] * k2),
                array("b", [RETURN_DEPOT] * k0 + [DROPOFF_PICKUP] * k1
                      + [DROPOFF_DROPOFF] * k2))
        heads = array("l", [0] * empty + picked + dropped)
        pick_blocks[key] = (heads, classes[0])
        drop_blocks[key] = (heads, classes[1])

    arcs = ArcTable()
    tail, head, cls = arcs.tail, arcs.head, arcs.cls
    run = array("l", [0])
    # heads in id order: the depot, pickup states, then dropoff states
    for v, (heads, classes), skip in zip(
            count(),
            chain([depot], map(pick_blocks.__getitem__, after),
                  map(drop_blocks.__getitem__, others)),
            chain(repeat(None, picks + 1), own)):
        start = len(head)
        head.extend(heads)
        cls.extend(classes)
        if skip is not None:
            # no arc back to the state's own pickup
            del head[start + skip], cls[start + skip]
        run[0] = v
        tail.extend(run * (len(head) - start))
    if pruned:
        nodes, locations, arcs = _without_dead_states(
            nodes, locations, arcs, _arc_rule(inst, locations, arcs))
    return EventGraph(inst, nodes, locations, arcs, compatible)


def _arc_rule(inst: Instance, locations, arcs: ArcTable) -> list[bool]:
    """Whether each arc meets the arc rule, ``e_tail + s_tail + t <=
    l_head`` (plus the schedule tolerance) on its end states' locations."""
    rows = inst.metric.time_rows
    ready = [early + s for (early, _), s in zip(inst.windows, inst.service)]
    late = [end + _TIME_EPS for _, end in inst.windows]
    loc = locations.__getitem__
    return [ready[a] + rows[a][b] <= late[b]
            for a, b in zip(map(loc, arcs.tail), map(loc, arcs.head))]


def _without_dead_states(nodes, locations, arcs: ArcTable, keep: list[bool]):
    """Keep the arcs that ``keep`` marks, then drop non-depot states
    without an in-arc or an out-arc, and their arcs, until none is left;
    the survivors keep their order and are renumbered.  Returns the
    nodes, locations and arc table that remain."""
    columns = [arcs.tail, arcs.head, arcs.cls]
    alive = set(range(len(nodes)))
    while True:
        columns = [list(compress(column, keep)) for column in columns]
        tail, head = columns[:2]
        dead = alive - set(tail).intersection(head)
        dead.discard(0)
        if not dead:
            break
        alive -= dead
        keep = [not (t or h) for t, h in zip(map(dead.__contains__, tail),
                                              map(dead.__contains__, head))]
    survivors = sorted(alive)
    new_id = dict(zip(survivors, count())).__getitem__
    columns[:2] = [map(new_id, column) for column in columns[:2]]
    return ([nodes[v] for v in survivors], [locations[v] for v in survivors],
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
