"""Randomized verification of a derivation's claim.

The verdict reads the run's scene.SampleStream.  Growth validated
every edge of the focused schedule at the samples of that same stream
(rules.validate_edges), so every step has passed rules.residual at
every verdict sample, and the verdict checks only the claim, on oracle
values:

* PROVED       every sample meets the claim within VALIDATION_TOL;
* REFUTED      some sample misses the claim by at least REFUTE_MARGIN
               times VALIDATION_TOL;
* INCONCLUSIVE anything else (no schedule, or a miss too small to
               refute).

When every point the schedule reads has rational coordinates at every
sample, the run is exact rational arithmetic, so a passing claim has
residual exactly 0 and the agreement yields a Schwartz-Zippel identity
certificate (see _certificate).  A point with an irrational coordinate
at some sample (a circle cut, or a step along an irrational length)
makes the verdict numerically certified instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from . import scene as sc
from .dsl import MeetCircle
from .exactnum import Scalar, add, as_float, exact_eq, mul
from .graph import ScheduleStep, goal_dims
from .record import Record
from .rules import VALIDATION_TOL, Dim, apply_edge, length

STATUS_PROVED = "PROVED"
STATUS_REFUTED = "REFUTED"
STATUS_INCONCLUSIVE = "INCONCLUSIVE"

# a refutation must overshoot VALIDATION_TOL by this factor
REFUTE_MARGIN = 10.0


class SampleReport(Record):
    """Everything observed while checking one parameter assignment."""

    __slots__ = ("index", "seed", "assignment", "claim_residual", "exact",
                 "redraws")

    def __init__(self, index: int, seed: int, assignment: sc.ParamAssignment,
                 claim_residual: float, exact: bool = True, redraws: int = 0):
        s = self._set
        s[0](self, index)
        s[1](self, seed)
        s[2](self, assignment)
        s[3](self, claim_residual)
        s[4](self, exact)  # every point the steps read has rational coordinates here
        s[5](self, redraws)  # always 0, nothing is redrawn; perfbench/spans.py reads it


class Certificate(Record):
    """Identity-testing pedigree attached to a PROVED verdict.  `kind`
    is "exact-identity" or "numerically-certified"."""

    __slots__ = ("kind", "degree_bound", "sample_space", "points",
                 "log10_failure_bound", "certified", "note")


class Verdict(Record):
    __slots__ = ("status", "samples", "reason", "schedule", "certificate")
    _defaults = (None, None)


def execute_schedule(scene_: sc.Scene, schedule: list[ScheduleStep],
                     assignment: sc.ParamAssignment) -> dict[Dim, Scalar]:
    """Run the schedule under one assignment, without the oracle: the
    chained computation that validation's per-edge checks stand for.

    Parameter steps read their value from the assignment; every other
    step applies its chosen hyperedge recipe to already-computed source
    values.  Raises NumericFailure when a recipe cannot produce a value
    (division by zero, negative leg, no usable intersection root).
    """
    params = {length(p, q): name for name, (p, q) in scene_.param_dims}
    by_name = dict(assignment.items)
    values: dict[Dim, Scalar] = {}
    for step in schedule:
        if step.edge is None:
            values[step.dim] = by_name[params[step.dim]]
        else:
            values[step.dim] = apply_edge(step.edge, values)
    return values


def _claim_side(terms, ev: sc.Evaluation) -> Scalar:
    total: Scalar = Fraction(0)
    for term in terms:
        value = sc.dim_value(ev, length(term.p, term.q))
        total = add(total, mul(term.coef, value))
    return total


def _claim_residual(lhs: Scalar, rhs: Scalar) -> float:
    """Disagreement of the claim sides, relative to the smaller side.

    Normalizing by the smaller side makes "lhs is half of rhs" read as
    residual 1, not 1/2; exactly equal exact values give exactly 0.0.
    """
    if exact_eq(lhs, rhs):
        return 0.0
    fl, fr = as_float(lhs), as_float(rhs)
    scale = min(abs(fl), abs(fr)) or max(abs(fl), abs(fr))
    if scale == 0.0:
        return 0.0
    return abs(fl - fr) / scale


def _claim_check(model, ev: sc.Evaluation) -> float:
    """The claim's residual, on the oracle's values."""
    eq = model.claim.payload
    if _equal_on_squares(eq.lhs, eq.rhs, ev):
        return 0.0
    return _claim_residual(_claim_side(eq.lhs, ev), _claim_side(eq.rhs, ev))


def _equal_on_squares(lhs, rhs, ev: sc.Evaluation) -> bool:
    """Are the sides c1*len(P,Q) and c2*len(R,S), c1, c2 > 0, equal
    exact values, decided on the integers of their squares?  Where both
    lengths are exact and positive, the Scalar sides are exact, and
    exact_eq finds them equal exactly when c1^2 s1 = c2^2 s2.  False
    means "not decided here"."""
    if len(lhs) != 1 or len(rhs) != 1:
        return False
    (a,), (b,) = lhs, rhs
    if a.coef <= 0 or b.coef <= 0:
        return False
    sa = sc.dim_square(ev, length(a.p, a.q))
    sb = sc.dim_square(ev, length(b.p, b.q))
    if not (sa and sb):
        return False
    an, ad = a.coef.as_integer_ratio()
    bn, bd = b.coef.as_integer_ratio()
    return an * an * sa[0] * bd * bd * sb[1] == bn * bn * sb[0] * ad * ad * sa[1]


def _check_samples(model, steps, stream: sc.SampleStream
                   ) -> list[SampleReport]:
    """Check the claim at each sample of the run's stream, noting
    whether the points the steps read are rational there."""
    read = set().union(*(_dim_points(step.dim) for step in steps))
    return [SampleReport(index=i, seed=s_seed, assignment=assignment,
                         claim_residual=_claim_check(model, ev),
                         exact=all(ev.hom[p] for p in read))
            for i, (s_seed, assignment, ev) in enumerate(stream)]


# ---------------------------------------------------------------------------
# identity-testing certificate

# squared node values are rational functions of the parameters; these
# table entries bound max(deg num, deg den) through each recipe kind
_DEG_MAX = {"copy", "add", "sub", "pyth_hyp", "pyth_leg", "dist4"}
_DEG_SUM = {"mul", "div", "solve2", "lc"}


def _degree_bound(model, schedule: list[ScheduleStep]) -> int:
    deg: dict[Dim, int] = {}
    for step in schedule:
        if step.edge is None:
            deg[step.dim] = 2  # squared parameter length
            continue
        srcs = [deg[s] for s in step.edge.sources]
        op = step.edge.recipe[0]
        if op in _DEG_SUM:
            deg[step.dim] = sum(srcs)
        else:
            assert op in _DEG_MAX, f"unknown recipe op {op!r}"
            deg[step.dim] = max(srcs)
    # clearing denominators of a sum of terms multiplies degrees at worst
    return sum(deg[d] for d in goal_dims(model) if d in deg)


def _dim_points(dim: Dim) -> set[str]:
    if dim.kind == "length":
        return set(dim.points)
    if dim.kind == "composite":
        return set(dim.far) | set(dim.near)
    return _dim_points(dim.num) | _dim_points(dim.den)


def _certificate(model, schedule, exact: bool, stream: sc.SampleStream
                 ) -> Certificate:
    """The certificate of a PROVED verdict over the samples of
    `stream`; `exact` says every point the schedule reads was rational
    at each.

    The bound rests on the sampler: each parameter is drawn uniformly
    from the same set S of |S| = scene.sample_space values, so any one
    value comes up with probability p = 1/|S| per slot, independently
    of the other slots and samples.  A nonzero polynomial of degree d
    in the parameters then vanishes at one sample with probability at
    most d/|S| (Schwartz-Zippel), and at all of them with at most
    (d/|S|)^samples; `certified` is the condition d < |S| that makes
    this bound informative.

    Left open: `_degree_bound` reads the schedule, so it bounds the
    claim only if every step is an identity, and it takes add and sub
    as the max of their operands' degrees, which clearing radicals from
    a sum can exceed; and a draw the figure rejects is drawn again, so
    the samples are uniform over the constructible part of S^n only,
    which conditions the rest.
    """
    degree = _degree_bound(model, schedule)
    space = sc.sample_space(stream.rng_range)
    if not exact:
        cut = any(isinstance(s.payload, MeetCircle) for s in model.constructions)
        return Certificate(
            kind="numerically-certified", degree_bound=degree,
            sample_space=space, points=stream.count,
            log10_failure_bound=None, certified=False,
            note=(f"irrational {'circle intersections' if cut else 'coordinates'} "
                  f"present; agreement is numerical, not an exact identity test"))
    log10_bound = None
    if 0 < degree < space:
        log10_bound = stream.count * (math.log10(degree) - math.log10(space))
    note = (f"exact agreement at {stream.count} rational points; "
            f"squared-claim degree bound {degree}, per-slot sample space "
            f"{space}; Schwartz-Zippel failure bound "
            f"(degree/space)^samples under uniform slot sampling")
    return Certificate(kind="exact-identity", degree_bound=degree,
                       sample_space=space, points=stream.count,
                       log10_failure_bound=log10_bound,
                       certified=degree < space, note=note)


# ---------------------------------------------------------------------------
# the verdict


def verdict(model, schedule: Optional[list[ScheduleStep]],
            stream: sc.SampleStream) -> Verdict:
    """Judge the claim of a validated schedule on the oracle at each
    sample of the run's stream, the samples validation replayed the
    schedule's edges at.

    Degenerate models propagate DegenerateModel from the sampler."""
    if schedule is None:
        return Verdict(status=STATUS_INCONCLUSIVE, samples=(),
                       reason="no derivation schedule")
    reports = _check_samples(model, schedule, stream)
    failure = _failure(reports)
    if failure is None:
        cert = _certificate(model, schedule, all(r.exact for r in reports),
                            stream)
        if cert.kind == "exact-identity":
            reason = (f"claim holds exactly at {stream.count} rational "
                      f"samples")
        else:
            reason = (f"claim holds within {VALIDATION_TOL:g} at "
                      f"{stream.count} samples (numerically certified)")
        return Verdict(status=STATUS_PROVED, samples=tuple(reports),
                       reason=reason, schedule=tuple(schedule),
                       certificate=cert)
    status, reason = failure
    return Verdict(status=status, samples=tuple(reports), reason=reason,
                   schedule=tuple(schedule))


def _failure(reports: list[SampleReport]) -> Optional[tuple[str, str]]:
    """REFUTED or INCONCLUSIVE, with the reason, when some sample
    misses the claim; None when every sample meets it."""
    bad = [r for r in reports if r.claim_residual > VALIDATION_TOL]
    if not bad:
        return None
    worst = max(bad, key=lambda r: r.claim_residual)
    if worst.claim_residual >= REFUTE_MARGIN * VALIDATION_TOL:
        return STATUS_REFUTED, (
            f"claim fails with relative residual "
            f"{worst.claim_residual:.6g} at sample {worst.index} "
            f"(threshold {REFUTE_MARGIN * VALIDATION_TOL:g})")
    return STATUS_INCONCLUSIVE, (
        f"claim residual {bad[0].claim_residual:.6g} at sample "
        f"{bad[0].index} exceeds tolerance without reaching the "
        f"refutation margin")


def degenerate_verdict(err: sc.DegenerateModel) -> Verdict:
    """The INCONCLUSIVE verdict of a figure the sampler cannot draw."""
    return Verdict(status=STATUS_INCONCLUSIVE, samples=(),
                   reason=f"degenerate hypotheses: {err}")


def oracle_verdict(model, stream: sc.SampleStream) -> Verdict:
    """Judge the claim from coordinates alone, with no derivation.

    Reads the samples verdict would and evaluates the claim sides
    straight from the figure, so a claim can be tested even when no
    schedule exists.
    """
    reports = _check_samples(model, (), stream)
    failure = _failure(reports)
    if failure is None:
        return Verdict(status=STATUS_PROVED, samples=tuple(reports),
                       reason=(f"claim holds at {stream.count} coordinate "
                               f"samples (oracle only, no derivation)"))
    status, reason = failure
    return Verdict(status=status, samples=tuple(reports), reason=reason)


def verdict_summary(v: Verdict) -> dict:
    """Plain-data digest of a verdict, for serialization."""
    out: dict = {"status": v.status, "reason": v.reason}
    if v.samples:
        out["samples"] = {
            "count": len(v.samples),
            "max_claim_residual": max(r.claim_residual for r in v.samples),
        }
    else:
        out["samples"] = {"count": 0}
    if v.schedule is not None:
        out["schedule"] = [s.dim.display for s in v.schedule]
    if v.certificate is not None:
        c = v.certificate
        out["certificate"] = {
            "kind": c.kind, "degree_bound": c.degree_bound,
            "sample_space": c.sample_space, "points": c.points,
            "log10_failure_bound": c.log10_failure_bound,
            "certified": c.certified, "note": c.note,
        }
    return out
