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


def _term_text(coef, term) -> str:
    # claim terms keep the author's point order, not the sorted form
    pair = f"{term.p}{term.q}"
    return pair if coef == 1 else f"{coef}*{pair}"


def _side_text(terms) -> str:
    """A claim side; a subtracted term as " - " and its magnitude."""
    first, *rest = terms
    return _term_text(first.coef, first) + "".join(
        (f" - {_term_text(-t.coef, t)}" if t.coef < 0
         else f" + {_term_text(t.coef, t)}") for t in rest)


def claim_text(model) -> str:
    """The claim, rendered the way the input file spelled it."""
    eq = model.claim.payload
    return f"{_side_text(eq.lhs)} = {_side_text(eq.rhs)}"


def _header(model, theorem: Optional[str]) -> list[str]:
    return [f"Theorem: {theorem or 'theorem'}",
            f"Claim: {claim_text(model)}",
            ""]


def render_text(model, v: Verdict, theorem: Optional[str] = None) -> str:
    """Proof script of the verdict's schedule; line count is
    len(v.schedule) plus four frame lines."""
    schedule = v.schedule
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


def render_json(model, v: Verdict, theorem: Optional[str] = None) -> str:
    """Stable-order JSON with theorem, status, the verdict's schedule as
    steps, and sample summary."""
    steps = []
    for step in v.schedule or ():
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


def render_scene(model, figure: tuple[sc.ParamAssignment, sc.Evaluation],
                 theorem: Optional[str] = None) -> str:
    """Coordinates of every constructed point of one figure, an
    (assignment, evaluation) pair as scene.sample_params returns it."""
    assignment, ev = figure
    lines = _header(model, theorem)
    for name, value in assignment.items:
        lines.append(f"param {name} = {value}")
    points = ev.points
    for name in model.points:
        x, y = points[name]
        lines.append(f"point {name} = ({_coord_text(x)}, {_coord_text(y)})")
    return "\n".join(lines) + "\n"
