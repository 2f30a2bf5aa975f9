"""Derivation graph growth and scheduling.

Nodes are dimensions, hyperedges are rule instances discovered at the
witness, where each one holds.  The graph grows by forward closure
from the parameter dimensions in BFS rings: a ring admits the edges
sourced entirely in earlier rings, and each node is numbered when
first reached.  A goal the closure never reaches is pending.  Growth
alone decides the order of nodes: the schedule lists them by number,
each derived by its first in-edge in pool order from lower numbers.
The run's scene.SampleStream, the verdict's samples, validates the
edges of the schedule focused on the goals, and after a failure the
edges that number the nodes; the other admitted edges may hold only at
the witness, and no output shows them.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import dsl, scene as sc
from .record import Record
from .rules import Dim, Hyperedge, discover, length, validate_edges


class Node(Record):
    # index: parameters, then each node at first reach, pending goals last
    __slots__ = ("dim", "index", "is_param", "is_goal")

    def __init__(self, dim: Dim, index: int, is_param: bool = False,
                 is_goal: bool = False):
        s = self._set
        s[0](self, dim)
        s[1](self, index)
        s[2](self, is_param)
        s[3](self, is_goal)


class ScheduleStep(Record):
    __slots__ = ("dim", "edge")

    def __init__(self, dim: Dim, edge: Optional[Hyperedge]):
        s = self._set
        s[0](self, dim)
        s[1](self, edge)  # None for parameter seeds


class DerivationGraph:
    """`edges` were admitted at the witness, in pool order, and only
    grow_detailed's focused steps (and numbering edges) are validated;
    `pending` goals were never reached; nothing writes `reports` yet."""

    def __init__(self, nodes: dict[Dim, Node], edges: list[Hyperedge],
                 goals: tuple[Dim, ...], pending: tuple[Dim, ...],
                 reports: Optional[list[str]] = None,
                 focused: tuple[ScheduleStep, ...] = ()):
        self.nodes, self.edges, self.goals, self.pending = nodes, edges, goals, pending
        self.reports = [] if reports is None else reports
        self.focused = focused

    @property
    def param_dims(self) -> tuple[Dim, ...]:
        return tuple(n.dim for n in sorted(self.nodes.values(), key=lambda n: n.index)
                     if n.is_param)

    def in_edges(self, dim: Dim) -> list[Hyperedge]:
        return [e for e in self.edges if e.target == dim]


def goal_dims(model: dsl.HypothesisModel) -> tuple[Dim, ...]:
    """Claim dimensions in source order, left side before right."""
    eq = model.claim.payload
    return tuple(dict.fromkeys(length(t.p, t.q) for t in (*eq.lhs, *eq.rhs)))


def grow(pool: list[Hyperedge], params: tuple[Dim, ...],
         goals: tuple[Dim, ...], admit: Callable[[list], list],
         ) -> DerivationGraph:
    """Forward closure over `pool` from `params`, stopping once every
    goal is reached or a ring admits nothing.  Each ring hands `admit`
    the untried edges sourced entirely in earlier rings, in pool order,
    and admits what it returns; an edge it drops is never tried again.
    The graph lists the admitted edges in pool order.  A goal never
    reached is listed in `pending` and numbered last.

    Each untried edge keeps a count of its sources not yet reached,
    and each unreached dimension the edges waiting on it (Dowling and
    Gallier's linear-time closure), so a ring costs the edges its new
    nodes release rather than a scan of every untried edge."""
    goal_set = set(goals)
    nodes = {d: Node(dim=d, index=i, is_param=True, is_goal=d in goal_set)
             for i, d in enumerate(params)}
    known: set[Dim] = set(params)
    missing: list[int] = []  # per pool position: sources not yet reached
    waiting: dict[Dim, list[int]] = {}  # unreached dim -> positions
    ready: list[int] = []  # positions sourced entirely in known dims
    for pos, e in enumerate(pool):
        unknown = 0
        if e.target not in known:  # an edge onto a parameter is never tried
            for d in e.sources:
                if d not in known:
                    unknown += 1
                    waiting.setdefault(d, []).append(pos)
            if not unknown:
                ready.append(pos)
        missing.append(unknown)
    admitted: set[int] = set()  # edge ids
    while True:
        ring = admit([pool[pos] for pos in sorted(ready)])
        ready = []
        admitted.update(map(id, ring))
        for e in ring:
            if e.target not in known:
                # numbered after its sources: topo_order reads this
                nodes[e.target] = Node(dim=e.target, index=len(nodes),
                                       is_goal=e.target in goal_set)
                known.add(e.target)
                for pos in waiting.pop(e.target, ()):
                    missing[pos] -= 1
                    if not missing[pos]:
                        ready.append(pos)
        if not ring or goal_set <= known:
            break

    pending = tuple(g for g in goals if g not in known)
    for g in pending:
        nodes[g] = Node(dim=g, index=len(nodes), is_goal=True)
    return DerivationGraph(nodes=nodes,
                           edges=[e for e in pool if id(e) in admitted],
                           goals=goals, pending=pending)


def grow_detailed(figure: sc.Evaluation, stream: sc.SampleStream
                  ) -> DerivationGraph:
    """Grow the closure of the rules discovered at `figure`, an
    evaluation of `stream.scene` (a run's is `stream.witness[1]`),
    where each one holds, and validate the edges of its focused
    schedule at each sample of `stream`, the verdict's.  An edge that
    fails leaves the pool and the closure grows again: a
    counterexample-guided refinement.  A failure shows the figure has
    coincidences, so from then on growth also validates the first edge
    to reach each node, which numbers it, and on failure the next one.
    Each further round removes an edge, so the loop ends, and no edge
    is validated twice.  The graph comes back with the focused schedule
    it validated as `focused`."""
    scene_ = stream.scene
    discovered = discover(scene_, figure)
    params = tuple(length(*pair) for _, pair in scene_.param_dims)
    goals = goal_dims(scene_.model)
    # validation verdicts by edge id; `discovered` keeps every edge alive
    holds: dict[int, bool] = {}

    def check(edges: list[Hyperedge]) -> None:
        kept = {id(e) for e in validate_edges(edges, stream)}
        for e in edges:
            holds[id(e)] = id(e) in kept

    def numbering_checked() -> Callable[[list], list]:
        """An admit for one growth that validates the first edge of the
        ring to reach each new node, and on failure the next one."""
        known = set(params)  # as grow numbers them: the targets admitted

        def admit(ring: list[Hyperedge]) -> list[Hyperedge]:
            while True:
                first: dict[Dim, Hyperedge] = {}
                for e in ring:
                    if e.target not in known and holds.get(id(e), True):
                        first.setdefault(e.target, e)
                unchecked = [e for e in first.values() if id(e) not in holds]
                if not unchecked:
                    break
                check(unchecked)
            known.update(first)
            return [e for e in ring
                    if e.target in known and holds.get(id(e), True)]
        return admit

    pool, admit = discovered, list
    while True:
        g = grow(pool, params, goals, admit)
        g.focused = tuple(focus(g, topo_order(g)))
        fresh = [s.edge for s in g.focused
                 if s.edge is not None and id(s.edge) not in holds]
        if not fresh:
            return g
        check(fresh)
        if all(holds[id(e)] for e in fresh):
            return g
        pool = [e for e in discovered if holds.get(id(e), True)]
        admit = numbering_checked()


def topo_order(graph: DerivationGraph) -> list[ScheduleStep]:
    """Parameters first, in index order, then every other node that is
    not pending, in index order, each by its first admitted in-edge,
    in pool order, whose sources all have a smaller index.  Growth
    guarantees that edge: it numbers a node when first reached, after
    the sources of the edge that reached it.  A graph without it raises
    ValueError."""
    index = {d: n.index for d, n in graph.nodes.items()}
    chosen: dict[Dim, Hyperedge] = {}
    for e in graph.edges:
        if e.target not in chosen and all(index[s] < index[e.target]
                                          for s in e.sources):
            chosen[e.target] = e
    steps = [ScheduleStep(dim=d, edge=None) for d in graph.param_dims]
    for node in sorted(graph.nodes.values(), key=lambda n: n.index):
        if not node.is_param and node.dim not in graph.pending:
            if node.dim not in chosen:
                raise ValueError(f"{node.dim.display} has no in-edge from "
                                 f"lower-indexed nodes")
            steps.append(ScheduleStep(dim=node.dim, edge=chosen[node.dim]))
    return steps


def focus(graph: DerivationGraph, schedule: list[ScheduleStep]) -> list[ScheduleStep]:
    """Prune the schedule to the goals' ancestors along chosen edges."""
    need: set[Dim] = {g for g in graph.goals if g not in graph.pending}
    for step in reversed(schedule):
        if step.dim in need and step.edge is not None:
            need.update(step.edge.sources)
    return [s for s in schedule if s.dim in need]


# ---------------------------------------------------------------------------
# DOT rendering


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def to_dot(graph: DerivationGraph, schedule: list[ScheduleStep]) -> str:
    """Graphviz text of the scheduled nodes and edges, and the pending
    goals.  An edge with several sources meets them at a small junction
    vertex named after its target; parameter nodes are gray, unreachable
    goals are dashed."""
    order = {step.dim: i for i, step in enumerate(schedule)}
    lines = ["digraph derivation {", "  rankdir=LR;",
             '  node [shape=box, fontname="Helvetica"];']
    for node in sorted(graph.nodes.values(), key=lambda n: n.index):
        if node.dim not in order and node.dim not in graph.pending:
            continue
        attrs = []
        label = node.dim.display
        if node.dim in order:
            label = f"{order[node.dim] + 1}: {label}"
        attrs.append(f"label={_dot_quote(label)}")
        if node.is_param:
            attrs.append("style=filled, fillcolor=gray85")
        if node.dim in graph.pending:
            attrs.append("style=dashed, color=red")
        elif node.is_goal:
            attrs.append("peripheries=2")
        lines.append(f"  {_dot_quote(node.dim.display)} [{', '.join(attrs)}];")
    for e in (s.edge for s in schedule if s.edge is not None):
        tgt = _dot_quote(e.target.display)
        if len(e.sources) == 1:
            lines.append(f"  {_dot_quote(e.sources[0].display)} -> {tgt};")
        else:
            j = _dot_quote(f"j_{e.target.display}")
            lines.append(f"  {j} [shape=point, width=0.05];")
            for s in e.sources:
                lines.append(f"  {_dot_quote(s.display)} -> {j} "
                             f"[arrowhead=none];")
            lines.append(f"  {j} -> {tgt};")
    lines.append("}")
    return "\n".join(lines) + "\n"
