"""Derivation graph growth and scheduling.

Nodes are dimensions, hyperedges are validated rule instances.  The
graph grows by forward closure from the parameter dimensions; a goal
that closure never reaches is reported as pending.  Scheduling is a
Kahn-style topological sweep generalized to hyperedges: a node becomes
ready once any one of its in-edges has every source scheduled, nodes
pop in (admission index, name) order, and each popped node commits to
the smallest-labeled in-edge that is fully sourced at that moment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import dsl, scene as sc
from .rules import Dim, Hyperedge, discover, length, validate_edges


@dataclass(frozen=True)
class Node:
    dim: Dim
    index: int  # admission order; parameters first, then goals, then derived
    is_param: bool = False
    is_goal: bool = False


@dataclass(frozen=True)
class ScheduleStep:
    dim: Dim
    edge: Optional[Hyperedge]  # None for parameter seeds


@dataclass
class DerivationGraph:
    model: dsl.HypothesisModel
    nodes: dict[Dim, Node]
    edges: list[Hyperedge]  # admitted, in label order
    goals: tuple[Dim, ...]
    pending: tuple[Dim, ...]  # goals forward closure never reached
    reports: list[str] = field(default_factory=list)  # nothing writes one yet

    @property
    def param_dims(self) -> tuple[Dim, ...]:
        return tuple(n.dim for n in sorted(self.nodes.values(), key=lambda n: n.index)
                     if n.is_param)

    def in_edges(self, dim: Dim) -> list[Hyperedge]:
        return [e for e in self.edges if e.target == dim]


def goal_dims(model: dsl.HypothesisModel) -> tuple[Dim, ...]:
    """Claim dimensions in source order, left side before right."""
    out: list[Dim] = []
    for claim in model.claims:
        eq = claim.payload
        for term in (*eq.lhs, *eq.rhs):
            d = length(term.p, term.q)
            if d not in out:
                out.append(d)
    return tuple(out)


def grow_detailed(model: dsl.HypothesisModel, scene_: sc.Scene,
                  witness: sc.ParamAssignment, seed: int = 42,
                  rng_range: tuple[Fraction, Fraction] = sc.DEFAULT_RANGE,
                  ) -> DerivationGraph:
    """Forward closure from the parameters, kept even when a goal is
    unreachable so the partial graph can be inspected; a goal it never
    reaches is listed in `pending`.  An edge is validated, at samples
    drawn from `rng_range`, in the ring that first reaches it; one that
    fails is never tried again."""
    pool = discover(model, scene_, witness)

    params = tuple(length(*pair) for _, pair in scene_.param_dims)
    goals = goal_dims(model)
    goal_set = set(goals)
    nodes: dict[Dim, Node] = {}
    for d in params:
        nodes[d] = Node(dim=d, index=len(nodes), is_param=True,
                        is_goal=d in goal_set)

    param_set = set(params)
    known: set[Dim] = set(params)
    untried = [e for e in pool if e.target not in param_set]
    admitted: list[Hyperedge] = []
    while True:
        # strict BFS ring: only edges sourced entirely in earlier rings
        # fire now, so node indices reflect hop distance from the params
        reached: list[Hyperedge] = []
        rest: list[Hyperedge] = []
        for e in untried:
            (reached if known.issuperset(e.sources) else rest).append(e)
        untried = rest
        progress = False
        for e in validate_edges(reached, model, scene_, seed, rng_range):
            admitted.append(e)
            progress = True
            if e.target not in known:
                # index records first reach, so goal nodes sort by
                # when the closure actually derived them
                nodes[e.target] = Node(dim=e.target, index=len(nodes),
                                       is_goal=e.target in goal_set)
                known.add(e.target)
        if not progress or all(g in known for g in goals):
            break

    pending = tuple(g for g in goals if g not in known)
    for g in pending:
        if g not in nodes:
            nodes[g] = Node(dim=g, index=len(nodes), is_goal=True)
    return DerivationGraph(model=model, nodes=nodes, edges=admitted,
                           goals=goals, pending=pending)


def topo_order(graph: DerivationGraph) -> Optional[list[ScheduleStep]]:
    """Schedule every derivable node, or None when some goal the graph
    claims reachable cannot be covered.  Parameters come first in
    declaration order, then the hyperedge sweep described in the
    module docstring, kept linear by a count of unscheduled sources per
    edge and a heap of the ready nodes."""
    steps = [ScheduleStep(dim=d, edge=None) for d in graph.param_dims]
    scheduled = {s.dim for s in steps}

    in_edges: dict[Dim, list[tuple[int, Hyperedge]]] = {}
    waiting: dict[Dim, list[int]] = {}  # source -> edges that still need it
    missing: list[int] = []  # per edge, its sources not yet scheduled
    ready: list[tuple[int, str, Dim]] = []
    queued: set[Dim] = set()

    def reach(d: Dim) -> None:
        if d not in scheduled and d not in queued:
            queued.add(d)
            heapq.heappush(ready, (graph.nodes[d].index, d.display, d))

    for pos, e in enumerate(graph.edges):
        in_edges.setdefault(e.target, []).append((pos, e))
        unscheduled = [s for s in e.sources if s not in scheduled]
        for s in unscheduled:
            waiting.setdefault(s, []).append(pos)
        missing.append(len(unscheduled))
        if not unscheduled:
            reach(e.target)

    while ready:
        nxt = heapq.heappop(ready)[2]
        sourced = [e for pos, e in in_edges[nxt] if not missing[pos]]
        chosen = min(sourced, key=lambda e: e.group)
        steps.append(ScheduleStep(dim=nxt, edge=chosen))
        scheduled.add(nxt)
        for pos in waiting.get(nxt, ()):
            missing[pos] -= 1
            if not missing[pos]:
                reach(graph.edges[pos].target)
    if any(g not in scheduled for g in graph.goals if g not in graph.pending):
        return None
    return steps


def focus(graph: DerivationGraph, schedule: list[ScheduleStep]) -> list[ScheduleStep]:
    """Prune the schedule to the goals' ancestors along chosen edges."""
    need: set[Dim] = {g for g in graph.goals if g not in graph.pending}
    for step in reversed(schedule):
        if step.dim in need and step.edge is not None:
            need.update(step.edge.sources)
    return [s for s in schedule if s.dim in need]


def covers(schedule: list[ScheduleStep]) -> set[Dim]:
    return {s.dim for s in schedule}


def validate_schedule(graph: DerivationGraph,
                      schedule: list[ScheduleStep]) -> bool:
    """Every step's edge must be sourced by earlier steps, and every
    derivable goal must appear."""
    seen: set[Dim] = set()
    for step in schedule:
        if step.edge is not None:
            if step.edge.target != step.dim:
                return False
            if not all(s in seen for s in step.edge.sources):
                return False
        if step.dim in seen:
            return False
        seen.add(step.dim)
    return all(g in seen for g in graph.goals if g not in graph.pending)


# ---------------------------------------------------------------------------
# DOT rendering


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def to_dot(graph: DerivationGraph,
           schedule: Optional[list[ScheduleStep]] = None) -> str:
    """Graphviz text.  Hyperedges with several sources meet at a small
    junction vertex carrying the group label; parameter nodes are gray,
    unreachable goals are dashed."""
    order = {step.dim: i for i, step in enumerate(schedule or [])}
    keep = covers(schedule) if schedule is not None else set(graph.nodes)
    lines = ["digraph derivation {", "  rankdir=LR;",
             '  node [shape=box, fontname="Helvetica"];']
    for node in sorted(graph.nodes.values(), key=lambda n: n.index):
        if node.dim not in keep and node.dim not in graph.pending:
            continue
        attrs = []
        label = node.dim.display
        if schedule is not None and node.dim in order:
            label = f"{order[node.dim] + 1}: {label}"
        attrs.append(f"label={_dot_quote(label)}")
        if node.is_param:
            attrs.append("style=filled, fillcolor=gray85")
        if node.dim in graph.pending:
            attrs.append("style=dashed, color=red")
        elif node.is_goal:
            attrs.append("peripheries=2")
        lines.append(f"  {_dot_quote(node.dim.display)} [{', '.join(attrs)}];")
    chosen = None
    if schedule is not None:
        chosen = [s.edge for s in schedule if s.edge is not None]
    for e in (chosen if chosen is not None else graph.edges):
        if e.target not in keep or any(s not in keep for s in e.sources):
            continue
        tgt = _dot_quote(e.target.display)
        if len(e.sources) == 1:
            src = _dot_quote(e.sources[0].display)
            lines.append(f"  {src} -> {tgt} [label=\"{e.group}\"];")
        else:
            j = f"j{e.group}_{e.target.display}"
            lines.append(f"  {_dot_quote(j)} [shape=point, width=0.05, "
                         f"xlabel=\"{e.group}\"];")
            for s in e.sources:
                lines.append(f"  {_dot_quote(s.display)} -> {_dot_quote(j)} "
                             f"[arrowhead=none];")
            lines.append(f"  {_dot_quote(j)} -> {tgt};")
    lines.append("}")
    return "\n".join(lines) + "\n"
