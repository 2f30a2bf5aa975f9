"""Render a schedule and its verdict as a proof script, JSON, or DOT.

The text format mirrors a hand-written solution: the theorem and claim
up top, one "Given" line per parameter, one numbered "Find" line per
derivation step, and a closing check line that states the verdict.
All output is plain ASCII and deterministic for a fixed seed, so runs
can be compared byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from . import graph as gr
from . import scene as sc
from .exactnum import as_float
from .verify import Verdict, verdict_summary


def _term_text(term) -> str:
    # claim terms keep the author's point order, not the sorted form
    pair = f"{term.p}{term.q}"
    if term.coef == 1:
        return pair
    return f"{term.coef}*{pair}"


def claim_text(model) -> str:
    """The claim, rendered the way the input file spelled it."""
    eq = model.claim.payload
    lhs = " + ".join(_term_text(t) for t in eq.lhs)
    rhs = " + ".join(_term_text(t) for t in eq.rhs)
    return f"{lhs} = {rhs}"


def _header(model, theorem: Optional[str]) -> list[str]:
    return [f"Theorem: {theorem or 'theorem'}",
            f"Claim: {claim_text(model)}",
            ""]


def render_text(model, schedule, v: Verdict,
                theorem: Optional[str] = None) -> str:
    """Proof script; line count is len(schedule) plus four frame lines."""
    lines = _header(model, theorem)
    if schedule is None:
        lines.append(f"{v.status}: {v.reason}")
        return "\n".join(lines) + "\n"
    deriv = [s for s in schedule if s.edge is not None]
    width = len(str(len(deriv)))
    n = 0
    for step in schedule:
        if step.edge is None:
            lines.append(f"Given {step.dim.display} (parameter)")
            continue
        n += 1
        e = step.edge
        srcs = ", ".join(d.display for d in e.sources)
        lines.append(f"{n:>{width}}. Find {step.dim.display} "
                     f"(rule: {e.rule}, using {{{srcs}}}): {e.justification}")
    lines.append(f"Check whether {claim_text(model)} ... {v.status}")
    return "\n".join(lines) + "\n"


def render_json(model, schedule, v: Verdict,
                theorem: Optional[str] = None) -> str:
    """Stable-order JSON with theorem, status, steps, and sample summary."""
    steps = []
    for step in schedule or ():
        if step.edge is None:
            steps.append({"find": step.dim.display, "rule": "parameter",
                          "using": [],
                          "justification": "given as a parameter"})
        else:
            steps.append({"find": step.dim.display, "rule": step.edge.rule,
                          "using": [d.display for d in step.edge.sources],
                          "justification": step.edge.justification})
    summary = verdict_summary(v)
    out = {
        "theorem": theorem or "theorem",
        "claim": claim_text(model),
        "status": v.status,
        "reason": v.reason,
        "steps": steps,
        "samples": summary["samples"],
    }
    if "certificate" in summary:
        out["certificate"] = summary["certificate"]
    return json.dumps(out, indent=2) + "\n"


def render_dot(graph: gr.DerivationGraph, schedule) -> str:
    """Graphviz view of the derivation graph; see graph.to_dot."""
    return gr.to_dot(graph, schedule)


def _coord_text(value) -> str:
    if isinstance(value, (int, Fraction)):
        return str(value)
    return repr(as_float(value))


def render_scene(model, scene_: sc.Scene, assignment: sc.ParamAssignment,
                 theorem: Optional[str] = None) -> str:
    """Coordinates of every constructed point under one assignment."""
    ev = sc.evaluate(scene_, assignment)
    lines = _header(model, theorem)
    for name, value in assignment.items:
        lines.append(f"param {name} = {value}")
    points = ev.points
    for name in model.points:
        x, y = points[name]
        lines.append(f"point {name} = ({_coord_text(x)}, {_coord_text(y)})")
    return "\n".join(lines) + "\n"
