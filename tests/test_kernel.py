"""The kernels of `scene` against the generic Scalar primitives.

A construction step whose inputs are all rational points, stored as
(x, y, w) triples, runs on integer numerators and returns a triple; a
foot, meet or line that reads a float point and no Rad, and the
irrational roots of a circle cut on a rational line, run on the float
kernel; any other step runs on the Scalar arithmetic of `exactnum`.  The reference below is the all-Scalar form of every step
the integer kernel serves.  Patched into `scene`, with the triple step
and the float kernel patched out, it evaluates each figure as if
neither kernel existed, and every point, line, distance, sampled
assignment and failure must come out the same in value and in type.
The float kernel is checked the same way against the Scalar path it
stands for: with it patched out, every float comes out the same bit
for bit.
"""

import itertools
import math
import random
import struct
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gthm import dsl, rules, scene as sc, verify as vf
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
    t = sc._pick_root(t1, t2, pick, lambda p: as_float(sc._line_param(l, p)))
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


def without_float_kernel(m):
    """Patch the float kernel out: no point or line reads as a float
    pair, and a circle cut leaves its roots to the Scalar path."""
    m.setattr(sc, "_fpair", lambda c: None)
    m.setattr(sc, "_flt_cut", lambda *args: None)


def run_reference(monkeypatch, fn, *args):
    """fn(*args) with every kernel step replaced by its reference."""
    with monkeypatch.context() as m:
        m.setattr(sc.Evaluation, "add_point", coords_only)
        without_float_kernel(m)
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


def _stream(text, seed):
    """A stream of a fresh scene, whose samples are drawn when read."""
    return sc.SampleStream(_scene(text), seed, sc.DEFAULT_RANGE,
                           rules.VALIDATION_SAMPLES)


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
        if got[0] == "raised":
            continue  # degenerate.gthm: same DegenerateModel message
        scene_ = _scene(text)
        ev = sc.evaluate(scene_, got[0])
        ref = run_reference(monkeypatch, sc.evaluate, scene_, got[0])
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
        got = outcome(sc.evaluate, scene_, a)
        want = run_reference(monkeypatch, sc.evaluate, scene_, a)
        assert same(got, want), (name, seed, got, want)
    if name != "degenerate":
        assert Fraction in kinds
    if name in ("imo2012", "oblique2", "oblique-offset") or name.startswith("right_triangle"):
        assert float in kinds  # circle cuts and irrational lengths leave the kernel


@pytest.mark.parametrize("name,kind", [("parallelogram", Fraction),
                                       ("imo2012", float), ("oblique2", Rad)])
def test_sample_params_returns_the_figure_a_fresh_evaluate_builds(name, kind):
    """The evaluation sample_params hands back with its assignment is
    the figure evaluate builds afresh from that assignment: every
    point, line and triple the same in value and type, bit for bit."""
    kinds = set()
    for seed in (42, 1, 2, 3):
        a, ev = sc.sample_params(_scene(FIGURES[name]), seed)
        fresh = sc.evaluate(_scene(FIGURES[name]), a)
        assert fresh is not ev
        assert same(ev, fresh), (name, seed)
        assert ev.hom == fresh.hom
        kinds |= {type(c) for point in ev.points.values() for c in point}
    assert kind in kinds


def test_raw_draws_reach_every_failure(monkeypatch):
    """The raw draws of the test above meet each failure the kernel
    decides: parallel lines, coincident points, a missed circle and a
    displacement outside its segment."""
    seen = set()
    for name, text in FIGURES.items():
        scene_ = _scene(text)
        for seed in SEEDS:
            got = outcome(sc.evaluate, scene_,
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
        _, ev = sc.sample_params(scene_, seed)
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
        without_float_kernel(m)
        for fname, ref in REFERENCE.items():
            m.setattr(sc, fname, lambda *a, _ref=ref, _n=fname:
                      calls.append(_n) or _ref(*a))
        scene_ = _scene(FIGURES["imo2012"])
        _, ev = sc.sample_params(scene_, 42)
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


# ---------------------------------------------------------------------------
# the float kernel against the Scalar path it stands for


def scalar_only(monkeypatch, fn, *args):
    """fn(*args) with the float kernel patched out and the integer
    kernel kept: every step that reads a float point runs on `exactnum`."""
    with monkeypatch.context() as m:
        without_float_kernel(m)
        return outcome(fn, *args)


# every pick, on rational and on float pick points: F and S are the
# first and second cuts of the axis by the circle about B, G picks the
# cut nearest the float point F, H the one inside a rational segment
# and W the one inside a segment with a float end, G's foot M.  The
# feet and meets read float points and lines through them.
PICKS = """\
param x
param y
param z
point O = origin
point A = baseline(O, x)
line base = through(O, A)
point B = offset_perp(A, base, y)
point F = meet_circle(base, B, z, first)
point S = meet_circle(base, B, z, second)
point G = meet_circle(through(O,B), A, z, nearest(F))
point H = meet_circle(through(O,B), A, z, within_segment(O,B))
point K = meet_circle(base, B, z, nearest(O))
point M = foot(G, base)
point W = meet_circle(through(O,B), A, z, within_segment(M,B))
point N = meet(through(F,B), through(G,A))
point P = meet(through(S,G), base)
point Q = foot(O, through(F,G))
point R = foot(H, through(B) parallel(through(G,S)))
point U = meet(through(F) parallel(base), through(B,A))
claim len(O,A) = len(O,A)
"""


# FG is vertical and EB is when x = y: a meet of float lines that the
# raw draws make parallel.  L lies left of O, so its y is -0.0 when
# z^2 > x^2 + y^2, and so is its foot's.  J has no power of two as its
# denominator, so the exact differences and cross products that the
# feet and meets on J round once differ from their float forms.
FLOAT_SIGNS = """\
param x
param y
param z
point O = origin
point A = baseline(O, x)
line base = through(O, A)
point B = offset_perp(A, base, y)
point E = baseline(O, y)
point F = meet_circle(base, B, z, second)
point G = offset_perp(F, base, y)
point V = meet(through(F,G), through(E,B))
point L = meet_circle(base, B, z, first)
point Z = foot(L, base)
point J = foot(A, through(O,B))
point Y = foot(J, through(A,F))
point T = meet(through(J,B), through(A,G))
point I = meet(through(G) parallel(through(A,J)), through(O,B))
claim len(O,A) = len(O,A)
"""


def float_figures():
    out = {"picks": PICKS, "float-signs": FLOAT_SIGNS}
    out.update((name, text) for name, text in FIGURES.items()
               if "meet_circle" in text)
    # triage members, whose points are drawn from the pool by the seed
    for family, (_, _, pool) in gen.FAMILIES.items():
        for k in range(len(pool) + 1):
            text = gen.family_member(family, k, True, random.Random(k))
            if "meet_circle" in text:
                out[f"{family}~{k}"] = text
    return out


FLOAT_FIGURES = float_figures()


def claim_bits(v):
    return [struct.pack("<d", r.claim_residual) for r in v.samples]


@pytest.mark.parametrize("name", sorted(FLOAT_FIGURES))
def test_float_kernel_matches_scalar_path(monkeypatch, name):
    text = FLOAT_FIGURES[name]
    for seed in SEEDS:
        got = outcome(sc.sample_params, _scene(text), seed)
        want = scalar_only(monkeypatch, sc.sample_params, _scene(text), seed)
        assert same(got, want), (name, seed, got, want)
        if got[0] == "raised":
            continue
        scene_ = _scene(text)
        ev = sc.evaluate(scene_, got[0])
        assert same(ev, scalar_only(monkeypatch, sc.evaluate, scene_, got[0])), (name, seed)
        a = raw_assignment(scene_, random.Random(seed))
        got = outcome(sc.evaluate, scene_, a)
        want = scalar_only(monkeypatch, sc.evaluate, scene_, a)
        assert same(got, want), (name, seed, got, want)
    for seed in (1, 42):
        got = vf.oracle_verdict(_stream(text, seed))
        want = scalar_only(monkeypatch, vf.oracle_verdict, _stream(text, seed))
        assert claim_bits(got) == claim_bits(want)


def test_float_kernel_takes_every_step(monkeypatch):
    """Guard on the comparison above: the float kernel builds points for
    every step kind and pick on those figures, and both kinds of raw
    draw failure it decides occur there."""
    made, failed = set(), set()
    for fname in ("_flt_direction", "_flt_foot", "_flt_meet", "_flt_cut"):
        real = getattr(sc, fname)

        def spy(*args, _real=real, _n=fname):
            result = _real(*args)
            if result is not None:
                made.add(_n if _n != "_flt_cut" else args[-1][0])
            return result
        monkeypatch.setattr(sc, fname, spy)
    for text in FLOAT_FIGURES.values():
        scene_ = _scene(text)
        for seed in SEEDS:
            got = outcome(sc.evaluate, scene_,
                          raw_assignment(scene_, random.Random(seed)))
            if isinstance(got, tuple):
                failed.add(got[1])
    assert made == {"_flt_direction", "_flt_foot", "_flt_meet", "first",
                    "second", "within_segment", "nearest"}
    assert {sc.NoIntersection, sc.AmbiguousPick, sc.ParallelLines} <= failed


def _as_coord(k):
    return sc._coord(k) if len(k) == 3 else k


def _random_input(rng, scale):
    """A triple with a small odd denominator or a pair of floats, of
    magnitude up to `scale`; a third of the coordinates are zero, so
    that -0.0 products and exact-zero additions occur."""
    def num():
        return 0 if rng.random() < 1 / 3 else rng.randint(-scale, scale)
    if rng.random() < 0.5:
        w = rng.choice((1, 3, 7, 2 ** 20 * 5))
        return sc._reduced(num() * w // 3, num() * w // 7 or num(), w)
    return (num() * rng.random(), -0.0 if rng.random() < 0.1 else num() * rng.random())


def _near(rng, k, rel):
    """A float point within `rel` of the point k, relative to its size."""
    x, y = sc._floats(k)
    s = max(abs(x), abs(y), 1.0)
    return (x + s * rel * rng.choice((-1, 1, 0.5)), y + s * rel * rng.choice((-1, 1)))


@pytest.mark.parametrize("scale", [10, 10 ** 9])
def test_float_steps_match_scalar_primitives(scale):
    """Each float-kernel step on random triples and float pairs, small
    and large, near-coincident and near-parallel, against the Scalar
    primitive on the same coordinates, bit for bit."""
    rng = random.Random(scale)
    for _ in range(3000):
        p, a, b = (_random_input(rng, scale) for _ in range(3))
        u, v = _random_input(rng, scale), _random_input(rng, scale)
        if rng.random() < 0.3:
            v = _near(rng, u, rng.choice((1e-8, 1e-10, 1e-12)))
        if rng.random() < 0.3:
            b = _near(rng, a, rng.choice((1e-8, 1e-10, 1e-12)))
        if rng.random() < 0.1:  # |u|^2 about PRED_TOL
            u = (rng.random() * 6e-5, rng.choice((0.0, -0.0, 1e-5)))
        kinds = {len(k) for k in (p, a, u)}
        line = sc.Line(_as_coord(a), _as_coord(u))
        if 2 in {len(a), len(b)}:
            assert same(outcome(sc._flt_direction, a, b),
                        outcome(sc.through_direction, _as_coord(a), _as_coord(b)))
        if 2 in kinds:
            want = outcome(sc.foot_of_perpendicular, _as_coord(p), line)
            assert same(outcome(sc._flt_foot, p, a, u), want), (p, a, u)
        if u[0] or u[1]:
            assert same(sc._flt_param(a, u, p),
                        as_float(sc._line_param(line, _as_coord(p))))
        if 2 in {len(a), len(u), len(b), len(v)}:
            want = outcome(sc.intersect_lines, line,
                           sc.Line(_as_coord(b), _as_coord(v)))
            assert same(outcome(sc._flt_meet, a, u, b, v), want), (a, u, b, v)


def test_float_cut_matches_scalar_cut():
    """_flt_cut against _circle_cut on the same quadratic, for every
    pick, on rational lines and centers of random size and on radii
    that miss, touch and cut; the float kernel leaves a cut with qb = 0
    or an exact root to the Scalar path."""
    rng = random.Random(5)
    deferred = cut = 0
    for _ in range(3000):
        a, u, c = (sc._reduced(rng.randint(-9, 9), rng.randint(-9, 9),
                               rng.choice((1, 2, 3, 7))) for _ in range(3))
        if not (u[0] or u[1]):
            continue
        rr = Fraction(rng.randint(0, 200), rng.choice((1, 4, 9, 5)))
        qa, qb, disc = sc._hom_circle_quadratic(a, u, c, rr)
        picks = [("first",), ("second",)]
        for _ in range(2):
            p, q = _random_input(rng, 9), _random_input(rng, 9)
            picks += [("within_segment", p, q), ("nearest", p)]
        line = sc.Line(sc._coord(a), sc._coord(u))
        for pick in picks:
            got = outcome(sc._flt_cut, a, u, qa, qb, disc, pick)
            want = outcome(sc._circle_cut, line, Fraction(*qa), Fraction(*qb),
                           Fraction(*disc), (pick[0], *map(_as_coord, pick[1:])))
            if got is None:  # qb = 0 or an exact root
                deferred += 1
                assert not qb[0] or type(sqrt_scalar(Fraction(*disc))) is Fraction
                continue
            cut += not isinstance(got, tuple) or got[0] != "raised"
            assert same(got, want), (a, u, c, rr, pick)
    assert deferred and cut
