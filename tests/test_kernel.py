"""The integer kernel of `scene` against the generic Scalar primitives.

A construction step whose inputs are all rational points, stored as
(x, y, w) triples, runs on integer numerators and returns a triple; any
other step runs on the Scalar arithmetic of `exactnum`.  The reference
below is the all-Scalar form of every step the kernel serves.  Patched
into `scene`, with the triple step patched out so that no point is
stored as a triple, it evaluates each figure as if the kernel did not
exist, and every point, line, distance, sampled assignment and failure
must come out the same in value and in type.
"""

import itertools
import math
import random
import struct
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gthm import dsl, rules, scene as sc
from gthm.exactnum import Rad, add, as_float, div, mul, sqrt_scalar, sub

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

SEEDS = range(30)


# ---------------------------------------------------------------------------
# the reference: every kernel step on Scalar arithmetic alone


def _scale(v):
    return max(abs(as_float(v[0])), abs(as_float(v[1])), 1.0)


def ref_coincident(a, b):
    scale = max(_scale(a), _scale(b))
    return (sc.near_zero(sub(a[0], b[0]), scale)
            and sc.near_zero(sub(a[1], b[1]), scale))


def ref_points_collinear(a, b, c):
    u, v = sc.vsub(b, a), sc.vsub(c, a)
    return sc.near_zero(sc.cross(u, v), _scale(u) * _scale(v))


def ref_strictly_between(a, m, b):
    u, v = sc.vsub(m, a), sc.vsub(b, a)
    t_den = sc.sq_norm(v)
    if sc.near_zero(t_den, 1.0):
        return False
    t = as_float(sc.dot(u, v)) / as_float(t_den)
    return sc.PRED_TOL < t < 1 - sc.PRED_TOL


def ref_perpendicular(u, v):
    return sc.near_zero(sc.dot(u, v), _scale(u) * _scale(v))


def ref_lines_parallel(l1, l2):
    return sc.near_zero(sc.cross(l1.direction, l2.direction),
                        _scale(l1.direction) * _scale(l2.direction))


def ref_on_line(p, l):
    u = sc.vsub(p, l.anchor)
    return sc.near_zero(sc.cross(u, l.direction),
                        max(_scale(u), 1.0) * _scale(l.direction))


def ref_distance(a, b):
    return sqrt_scalar(sc.sq_norm(sc.vsub(a, b)))


def ref_through_direction(p, q):
    if ref_coincident(p, q):
        return None
    return sc.vsub(q, p)


def ref_on_segment(p, q, d):
    seg = sc.vsub(q, p)
    length = sqrt_scalar(sc.sq_norm(seg))
    if sc.near_zero(length, 1.0):
        raise sc.DegenerateLine("zero-length segment")
    if not sc.scalar_positive(d) or not sc.scalar_positive(sub(length, d)):
        raise sc.GeometryError("on_segment displacement must fall strictly inside")
    return sc.vadd(p, sc.vscale(div(d, length), seg))


def ref_offset_perp(p, l, d):
    if sc.near_zero(d, 1.0):
        raise sc.GeometryError("offset_perp displacement is zero")
    dx, dy = l.direction
    length = sqrt_scalar(sc.sq_norm(l.direction))
    if sc.near_zero(length, 1.0):
        raise sc.DegenerateLine("zero-direction line")
    normal = (sub(Fraction(0), dy), dx)
    return sc.vadd(p, sc.vscale(div(d, length), normal))


def ref_intersect_lines(l1, l2):
    denom = sc.cross(l1.direction, l2.direction)
    if sc.near_zero(denom, _scale(l1.direction) * _scale(l2.direction)):
        raise sc.ParallelLines("lines are parallel under this assignment")
    offset = sc.vsub(l2.anchor, l1.anchor)
    t = div(sc.cross(offset, l2.direction), denom)
    return sc.vadd(l1.anchor, sc.vscale(t, l1.direction))


def ref_line_circle_meet(l, center, radius, pick):
    d = l.direction
    rel = sc.vsub(l.anchor, center)
    qa = sc.sq_norm(d)
    qb = mul(Fraction(2), sc.dot(d, rel))
    qc = sub(sc.sq_norm(rel), mul(radius, radius))
    disc = sub(mul(qb, qb), mul(mul(Fraction(4), qa), qc))
    if as_float(disc) < 0:
        raise sc.NoIntersection("the line misses the circle")
    root = sqrt_scalar(disc)
    two_a = mul(Fraction(2), qa)
    t1 = div(sub(sub(Fraction(0), qb), root), two_a)
    t2 = div(add(sub(Fraction(0), qb), root), two_a)
    if as_float(t1) > as_float(t2):
        t1, t2 = t2, t1
    t = sc._pick_root(l, t1, t2, pick)
    return sc.vadd(l.anchor, sc.vscale(t, d))


def ref_line_param(l, p):
    return div(sc.dot(sc.vsub(p, l.anchor), l.direction), sc.sq_norm(l.direction))


def ref_foot_of_perpendicular(p, l):
    if sc.near_zero(sc.sq_norm(l.direction), 1.0):
        raise sc.DegenerateLine("line with zero direction")
    t = ref_line_param(l, p)
    return sc.vadd(l.anchor, sc.vscale(t, l.direction))


REFERENCE = {
    "coincident": ref_coincident,
    "points_collinear": ref_points_collinear,
    "perpendicular": ref_perpendicular,
    "strictly_between": ref_strictly_between,
    "lines_parallel": ref_lines_parallel,
    "on_line": ref_on_line,
    "distance": ref_distance,
    "through_direction": ref_through_direction,
    "on_segment": ref_on_segment,
    "offset_perp": ref_offset_perp,
    "intersect_lines": ref_intersect_lines,
    "line_circle_meet": ref_line_circle_meet,
    "_line_param": ref_line_param,
    "foot_of_perpendicular": ref_foot_of_perpendicular,
}


def coords_only(ev, name, value):
    """Evaluation.add_point without the triple: the point is stored as
    coordinates alone, so no kernel step ever finds its inputs rational."""
    ev.hom[name] = None
    ev._coords[name] = sc._coord(value) if len(value) == 3 else value


def run_reference(monkeypatch, fn, *args):
    """fn(*args) with every kernel step replaced by its reference."""
    with monkeypatch.context() as m:
        m.setattr(sc.Evaluation, "add_point", coords_only)
        for name, ref in REFERENCE.items():
            m.setattr(sc, name, ref)
        return outcome(fn, *args)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (sc.GeometryError, sc.DegenerateModel, ZeroDivisionError) as err:
        return ("raised", type(err), str(err))


# ---------------------------------------------------------------------------
# equality in value and in type


def same(x, y) -> bool:
    if type(x) is not type(y):
        return False
    if isinstance(x, float):  # bit for bit: -0.0 is not 0.0
        return struct.pack("<d", x) == struct.pack("<d", y)
    if isinstance(x, Rad):
        return same(x.radicand, y.radicand)
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(same(a, b) for a, b in zip(x, y))
    if isinstance(x, dict):
        return list(x) == list(y) and all(same(x[k], y[k]) for k in x)
    if isinstance(x, sc.Line):
        return same(x.anchor, y.anchor) and same(x.direction, y.direction)
    if isinstance(x, sc.Evaluation):
        return (same(x.points, y.points) and same(x.named_lines, y.named_lines)
                and same(x.lines, y.lines))
    if isinstance(x, sc.ParamAssignment):
        return same(x.items, y.items)
    return x == y


# ---------------------------------------------------------------------------
# the figures: the shipped fixtures and every generated family member


def _scene(text):
    return sc.build_scene(dsl.validate(dsl.parse(text)))


# raw draws of these fail in each way a kernel step decides: E leaves
# its segment when y >= x, the circle about B misses the axis when
# y < z, and E and H coincide when y = z.  T is offset from a slanted
# line of rational length, V is the foot on a vertical line.
_STRESS = """\
param x
param y
param z
point O = origin
point A = baseline(O, x)
line base = through(O, A)
point E = on_segment(O, A, y)
point H = baseline(O, z)
point B = offset_perp(E, base, z)
point U = offset_perp(A, base, 4*x/3)
point T = offset_perp(E, through(O, U), y)
point V = foot(A, through(E, B))
point K = meet_circle(base, B, y, second)
point P = {last}
claim len(O,A) = len(O,A)
"""
STRESS = {"stress-foot": _STRESS.format(last="foot(B, through(E, H))"),
          "stress-segment": _STRESS.format(last="on_segment(E, H, 1/2)")}

# steps that leave the kernel mid-chain: a segment or direction whose
# length is irrational at most draws.  oblique2 puts on_segment on the
# oblique OB; here offset_perp runs off the oblique line OB, and the
# foot after it reads the float point it made.
OBLIQUE_OFFSET = """\
param x
param y
param z
point O = origin
point A = baseline(O, x)
line base = through(O, A)
point B = offset_perp(A, base, y)
point E = offset_perp(A, through(O, B), z)
point F = foot(E, base)
point G = foot(B, through(O, E))
claim len(O,F) = len(O,F)
"""


def figure_texts():
    out = {path.stem: path.read_text()
           for path in sorted((ROOT / "fixtures").glob("*.gthm"))}
    out.update(STRESS)
    out["oblique2"] = (ROOT / "tests" / "oblique2.gthm").read_text()
    out["oblique-offset"] = OBLIQUE_OFFSET
    for family, (_, _, pool) in gen.FAMILIES.items():
        for k in range(len(pool) + 1):
            out[f"{family}+{k}"] = gen.family_member(
                family, k, True, random.Random(0), nested=True)
    return out


FIGURES = figure_texts()


def raw_assignment(scene_, rng):
    """Parameters from a few small values, so draws that coincide,
    run parallel or fall outside a segment are common."""
    return sc.ParamAssignment(tuple(
        (name, rng.choice((Fraction(1), Fraction(2), Fraction(3),
                           Fraction(1, 2), Fraction(3, 2))))
        for name in scene_.model.params))


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_kernel_matches_scalar_reference(monkeypatch, name):
    text = FIGURES[name]
    kinds = set()
    for seed in SEEDS:
        # a fresh scene on each side, so neither reads the other's memo
        got = outcome(sc.sample_params, _scene(text), seed)
        want = run_reference(monkeypatch, sc.sample_params, _scene(text), seed)
        assert same(got, want), (name, seed, got, want)
        if isinstance(got, tuple):
            continue  # degenerate.gthm: same DegenerateModel message
        scene_ = _scene(text)
        ev = sc._evaluate(scene_, got)
        ref = run_reference(monkeypatch, sc._evaluate, scene_, got)
        assert same(ev, ref), (name, seed)
        # a triple is stored exactly for the points with rational coordinates
        assert {n for n, h in ev.hom.items() if h} == {
            n for n, p in ev.points.items() if all(type(c) is Fraction for c in p)}
        # lengths and their squares, read off the triples; a dimension
        # measures its points in sorted order
        for p, q in itertools.combinations(sorted(ev.points), 2):
            want = ref_distance(ev.points[p], ev.points[q])
            assert same(sc._length(ev, (p, q)), want)
            sq = sc.dim_square(ev, rules.length(p, q))
            if type(want) is Rad:
                assert Fraction(*sq) == want.radicand
            elif type(want) is Fraction and want > 0:
                assert Fraction(*sq) == want * want
            else:
                assert sq == ()
        kinds |= {type(c) for point in ev.points.values() for c in point}
        # a raw draw, degenerate or not, fails with the same message
        a = raw_assignment(scene_, random.Random(seed))
        got = outcome(sc._evaluate, scene_, a)
        want = run_reference(monkeypatch, sc._evaluate, scene_, a)
        assert same(got, want), (name, seed, got, want)
    if name != "degenerate":
        assert Fraction in kinds
    if name in ("imo2012", "oblique2", "oblique-offset") or name.startswith("right_triangle"):
        assert float in kinds  # circle cuts and irrational lengths leave the kernel


def test_raw_draws_reach_every_failure(monkeypatch):
    """The raw draws of the test above meet each failure the kernel
    decides: parallel lines, coincident points, a missed circle and a
    displacement outside its segment."""
    seen = set()
    for name, text in FIGURES.items():
        scene_ = _scene(text)
        for seed in SEEDS:
            got = outcome(sc._evaluate, scene_,
                          raw_assignment(scene_, random.Random(seed)))
            if isinstance(got, tuple):
                seen.add(got[1])
    assert {sc.ParallelLines, sc.DegenerateLine, sc.NoIntersection,
            sc.GeometryError} <= seen


@pytest.mark.parametrize("name", ["parallelogram", "imo2012",
                                  "parallelogram+9", "right_triangle+6"])
def test_discovery_predicates_match_reference(monkeypatch, name):
    scene_ = _scene(FIGURES[name])
    for seed in (42, 1):
        ev = sc.evaluate(scene_, sc.sample_params(scene_, seed))
        pts = list(ev.points.values())
        lines = list(ev.lines)

        def predicates():
            out = [sc.coincident(p, q) for p, q in itertools.combinations(pts, 2)]
            for a, b, c in itertools.combinations(pts, 3):
                out.append(sc.points_collinear(a, b, c))
                out += [sc.strictly_between(a, b, c), sc.strictly_between(b, a, c),
                        sc.strictly_between(a, c, b)]
                for corner, p, r in ((a, b, c), (b, a, c), (c, a, b)):
                    out.append(sc.perpendicular(sc.vsub(p, corner),
                                                sc.vsub(r, corner)))
            out += [sc.on_line(p, line) for p in pts for line in lines]
            out += [sc.lines_parallel(l1, l2)
                    for l1, l2 in itertools.combinations(lines, 2)]
            return out

        got = predicates()
        assert got == run_reference(monkeypatch, predicates)
        assert any(got) and not all(got)


def test_reference_is_what_runs_when_patched(monkeypatch):
    """Guard on the harness: patched, evaluation calls the reference."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(sc.Evaluation, "add_point", coords_only)
        for fname, ref in REFERENCE.items():
            m.setattr(sc, fname, lambda *a, _ref=ref, _n=fname:
                      calls.append(_n) or _ref(*a))
        scene_ = _scene(FIGURES["imo2012"])
        ev = sc._evaluate(scene_, sc.sample_params(scene_, 42))
        sc.dim_value(ev, rules.length("K", "M"))
    assert not any(ev.hom.values())
    assert {"through_direction", "on_segment", "offset_perp",
            "intersect_lines", "line_circle_meet", "_line_param",
            "foot_of_perpendicular", "distance"} <= set(calls)


def test_kernel_builds_canonical_fractions():
    """Exact values built from unreduced integers are in lowest terms."""
    axis = sc.Line((Fraction(0), Fraction(0)), (Fraction(6), Fraction(0)))
    foot = sc.foot_of_perpendicular((Fraction(9, 4), Fraction(7, 3)), axis)
    assert foot == (Fraction(9, 4), Fraction(0))
    assert foot[0].denominator == 4 and foot[1].denominator == 1
    d = sc.distance((Fraction(0), Fraction(0)), (Fraction(3, 2), Fraction(2)))
    assert type(d) is Fraction and d == Fraction(5, 2)
    r = sc.distance((Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(1, 3)))
    assert type(r) is Rad and r.radicand == Fraction(2, 9)
    assert math.isclose(float(r), math.sqrt(2) / 3)
