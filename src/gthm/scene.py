"""Coordinate oracle: numeric evaluation of a hypothesis model.

A Scene fixes the evaluation plan for a validated model.  Given a
parameter assignment it computes coordinates for every point, keeping
exact rationals wherever the construction never needs an irrational
length or a line-circle intersection, and it can evaluate any dimension
expression directly from coordinates.  Everything downstream (rule
discovery, schedule execution, the verdict) checks itself against this
module.

Each construction step and distance chooses its arithmetic from what it
reads, on one of three paths:

* the integer kernel.  A rational point is stored once, as the reduced
  integer triple (x, y, w) with value (x/w, y/w), and a line through
  rational points keeps its anchor and direction the same way.  A step
  whose inputs are all triples runs on integer numerators over a common
  denominator, with exact integer zero tests for degeneracy, and
  returns a triple, so a chain of rational steps never builds a
  Fraction.
* the float kernel.  A foot, meet or line through points that reads a
  float point or line, and no Rad, runs on floats: x/w read straight
  from a triple, sub-results that are exact on rational inputs
  computed on integers and rounded once, and every other operation in
  the order and with the exact-zero shortcuts of `exactnum`.  A circle
  cut whose line, center and squared radius are rational solves its
  quadratic on integers and, unless a root is exact, picks its root
  here, reading its pick points as triples or float pairs.
* the Scalar path.  Any other step, one that reads a Rad or needs an
  irrational segment length, runs on the Scalar arithmetic of
  `exactnum`; its result is stored as a triple again when it is
  rational.

Fraction coordinates are built, once per point, only when something
reads them.  All three paths give the same value of the same type, bit
for bit for a float, and fail with the same error, so the kernels
change no sample, no rejection and no output byte.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional
from weakref import WeakKeyDictionary

from . import dsl
from .exactnum import (Rad, Scalar, add, as_float, div, is_exact, mul, square,
                       sqrt_scalar, sub)
from .record import Record

Coord = tuple[Scalar, Scalar]
# (x, y, w): the rational point or vector (x/w, y/w), w > 0, gcd 1
Hom = tuple[int, int, int]

PRED_TOL = 1e-9  # relative tolerance for float-valued geometric predicates

# parameters are drawn from [lo, hi] unless a run asks for another range
DEFAULT_RANGE = (Fraction(1), Fraction(10))


class GeometryError(Exception):
    """A construction step failed under the current assignment."""


class ParallelLines(GeometryError):
    pass


class NoIntersection(GeometryError):
    pass


class AmbiguousPick(GeometryError):
    pass


class DegenerateLine(GeometryError):
    pass


class DivisionByZero(GeometryError):
    pass


class DegenerateModel(Exception):
    """Sampling could not find a non-degenerate assignment."""


class ParamAssignment(Record):
    __slots__ = ("items",)  # (name, value) per parameter, in model order

    def __init__(self, items: tuple[tuple[str, Fraction], ...]):
        self._set[0](self, items)

    @property
    def values(self) -> dict[str, Fraction]:
        return dict(self.items)


class Line:
    """The line through `anchor` along `direction`.

    A line the kernel builds keeps a rational anchor or direction as its
    triple (`ha`, `hd`) and builds its Fraction coordinates when they
    are first read; a line built from coordinates has no triples.
    Lines are equal when their anchors and directions are."""

    __slots__ = ("ha", "hd", "_anchor", "_direction")

    def __init__(self, anchor: Optional[Coord], direction: Optional[Coord],
                 ha: Optional[Hom] = None, hd: Optional[Hom] = None) -> None:
        self._anchor, self._direction, self.ha, self.hd = anchor, direction, ha, hd

    @property
    def anchor(self) -> Coord:
        if self._anchor is None:
            self._anchor = _coord(self.ha)
        return self._anchor

    @property
    def direction(self) -> Coord:
        if self._direction is None:
            self._direction = _coord(self.hd)
        return self._direction

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Line) and self.anchor == other.anchor
                and self.direction == other.direction)

    def __repr__(self) -> str:
        return f"Line(anchor={self.anchor!r}, direction={self.direction!r})"


class Scene:
    """Immutable after build; evaluation never mutates it."""

    def __init__(self, model: dsl.HypothesisModel,
                 param_dims: tuple[tuple[str, tuple[str, str]], ...]):
        self.model = model
        self.plan = model.constructions  # evaluated in file order
        self.param_dims = param_dims


class Evaluation:
    """Points and carrier lines under one assignment.

    Each point with rational coordinates is stored once, as its triple
    in `hom`; `hom` holds None for a point with a Rad or float
    coordinate, and `kernel` reads a point as a triple or a pair of
    floats.  Fraction coordinates are built, once per point, when
    something reads them: a Scalar-path step through `coord`, anyone
    else through `points`.  A point written into `points` directly, as
    a hand-made figure is, has no triple and is read on the Scalar
    path.  Evaluation records every line it meets; the
    deduplicated `carriers` are built only when read.  Dimension values
    are memoized here by `dim_value`, and their squares by `dim_square`,
    so each is computed once per evaluation."""

    def __init__(self) -> None:
        self.hom: dict[str, Optional[Hom]] = {}
        self._coords: dict[str, Optional[Coord]] = {}  # None until read
        self.named_lines: dict[str, Line] = {}
        self.lines: list[Line] = []  # in encounter order
        self.values: dict = {}  # dim or point pair -> value, by dim_value
        self.squares: dict = {}  # dim or point pair -> square, by dim_square

    def add_point(self, name: str, value) -> None:
        """Store a point the kernel built, a triple, or one the Scalar
        path built, a Coord; a rational Coord gets its triple too."""
        if len(value) == 3:
            self.hom[name] = value
            self._coords[name] = None
        else:
            self.hom[name] = _hom(value) if _rational(value) else None
            self._coords[name] = value

    def kernel(self, name: str):
        """The point as the kernels read it: its triple, its pair of
        floats, or None when a coordinate is a Rad or only one is a
        float."""
        h = self.hom[name]
        return h if h else _fpair(self._coords[name])

    def coord(self, name: str) -> Coord:
        c = self._coords[name]
        if c is None:
            c = self._coords[name] = _coord(self.hom[name])
        return c

    @property
    def points(self) -> dict[str, Coord]:
        """Every point's coordinates, in plan order, built on first read
        for the points stored as triples."""
        for name in self._coords:
            self.coord(name)
        return self._coords

    @property
    def carriers(self) -> list[Line]:
        """The distinct carrier lines in encounter order; of lines with
        one carrier, the first met stands for it."""
        out: list[Line] = []
        for line in self.lines:
            if not any(_same_carrier(have, line) for have in out):
                out.append(line)
        return out


# ---------------------------------------------------------------------------
# the integer kernel
#
# A step whose inputs are all triples runs on integers: degeneracy is
# an exact zero test on an integer, and the step returns its point as
# a reduced triple.  Fractions are canonical, so the coordinates built
# from it equal the Scalar path's in value and type.


def _rational(p: Coord) -> bool:
    return type(p[0]) is Fraction and type(p[1]) is Fraction


def _hom(p: Coord) -> Hom:
    """The triple of a rational p."""
    xn, xd = p[0].as_integer_ratio()
    yn, yd = p[1].as_integer_ratio()
    if xd == yd:
        return xn, yn, xd
    w = xd * yd // math.gcd(xd, yd)
    return xn * (w // xd), yn * (w // yd), w


def _coord(h: Hom) -> Coord:
    x, y, w = h
    return Fraction(x, w), Fraction(y, w)


def _reduced(x: int, y: int, w: int) -> Hom:
    """(x/w, y/w), w != 0, as a triple."""
    if w < 0:
        x, y, w = -x, -y, -w
    g = math.gcd(x, y, w)
    if g == 1:
        return x, y, w
    return x // g, y // g, w // g


def _hom_sub(p: Hom, q: Hom) -> tuple[int, int, int]:
    """p - q as (x, y, w), w > 0, not reduced."""
    px, py, pw = p
    qx, qy, qw = q
    if pw == qw:
        return px - qx, py - qy, pw
    return px * qw - qx * pw, py * qw - qy * pw, pw * qw


def _along(a: Hom, num: int, den: int, ux: int, uy: int) -> Hom:
    """The point a + (num/den) (ux, uy), den != 0."""
    ax, ay, aw = a
    w = aw * den
    return _reduced(ax * den + num * ux * aw, ay * den + num * uy * aw, w)


def _hom_direction(p: Hom, q: Hom) -> Optional[Hom]:
    """q - p; None when the points coincide."""
    x, y, w = _hom_sub(q, p)
    if not x and not y:
        return None
    return _reduced(x, y, w)


def _hom_on_segment(p: Hom, q: Hom, d: Fraction) -> Optional[Hom]:
    """on_segment when |pq| is rational; None when it is not."""
    sx, sy, sw = _hom_sub(q, p)
    s = sx * sx + sy * sy
    r = math.isqrt(s)  # |pq| = r/sw when rational
    if r * r != s:
        return None
    if not r:
        raise DegenerateLine("zero-length segment")
    dn, dd = d.as_integer_ratio()
    if dn <= 0 or r * dd - dn * sw <= 0:
        raise GeometryError("on_segment displacement must fall strictly inside")
    # p + (d/|pq|) (q - p), where d/|pq| = dn sw / (dd r)
    return _along(p, dn, dd * r, sx, sy)


def _hom_offset_perp(p: Hom, u: Hom, d: Fraction) -> Optional[Hom]:
    """offset_perp along a line of direction u when |u| is rational;
    None when it is not."""
    dn, dd = d.as_integer_ratio()
    if not dn:
        raise GeometryError("offset_perp displacement is zero")
    ux, uy, uw = u
    s = ux * ux + uy * uy
    r = math.isqrt(s)  # |u| = r/uw when rational
    if r * r != s:
        return None
    if not r:
        raise DegenerateLine("zero-direction line")
    # p + (d/|u|) (-uy, ux)/uw, where d/|u| = dn uw / (dd r)
    return _along(p, dn, dd * r, -uy, ux)


def _hom_meet(a: Hom, u: Hom, b: Hom, v: Hom) -> Hom:
    """intersect_lines of the lines a + t u and b + s v."""
    ux, uy, _ = u
    vx, vy, _ = v
    den = ux * vy - uy * vx
    if not den:
        raise ParallelLines("lines are parallel under this assignment")
    ox, oy, ow = _hom_sub(b, a)
    # a + t u with t = cross(b - a, v) / cross(u, v)
    return _along(a, ox * vy - oy * vx, ow * den, ux, uy)


def _hom_foot(p: Hom, a: Hom, u: Hom) -> Hom:
    """foot_of_perpendicular of p on the line a + t u."""
    ux, uy, _ = u
    s = ux * ux + uy * uy
    if not s:
        raise DegenerateLine("line with zero direction")
    wx, wy, ww = _hom_sub(p, a)
    # a + t u with t = dot(p - a, u) / |u|^2
    return _along(a, wx * ux + wy * uy, ww * s, ux, uy)


def _hom_circle_quadratic(a: Hom, u: Hom, c: Hom, rr: Fraction
                          ) -> tuple[tuple[int, int], ...]:
    """(qa, qb, disc) of |a + t u - c|^2 = rr in t, each as an integer
    pair (n, d), d > 0, meaning n/d."""
    dx, dy, dw = u
    rx, ry, rw = _hom_sub(a, c)
    dd = dx * dx + dy * dy
    dr = dx * rx + dy * ry
    cr = dx * ry - dy * rx
    rn, rd = rr.as_integer_ratio()
    # qb^2 - 4 qa qc = 4 (dd rw^2 rr - cr^2) / (dw rw)^2, since
    # dr^2 - dd (rx^2 + ry^2) = -cr^2
    m = dw * rw
    return ((dd, dw * dw), (2 * dr, m),
            (4 * (dd * rw * rw * rn - cr * cr * rd), m * m * rd))


# ---------------------------------------------------------------------------
# the float kernel
#
# A step that reads a float point or line, and no Rad, runs on floats
# read straight from its inputs: a triple (x, y, w) gives x/w, the same
# correctly rounded float as float(Fraction(x, w)), and a float point is
# its pair of floats.  Each step computes exactly what the Scalar path
# does on the same values: a sub-result that `exactnum` keeps exact,
# because it reads rational inputs alone, is computed on integers and
# rounded once; every other operation is the float operation `exactnum`
# falls back to, in its order; and adding an exact zero returns the
# other operand unchanged, as `exactnum.add` does, so a -0.0 survives.
# Degeneracy is judged on the same value at the same scale, and fails
# with the same error.


def _fpair(c: Coord) -> Optional[tuple[float, float]]:
    """c when it is a pair of floats, else None."""
    return c if type(c[0]) is float and type(c[1]) is float else None


def _floats(v) -> tuple[float, float]:
    """A triple or a float pair as floats."""
    if len(v) == 3:
        x, y, w = v
        return x / w, y / w
    return v


def _fdiff(p, q) -> tuple[float, float]:
    """p - q as floats: rounded once from the exact difference of two
    triples, else the float difference."""
    if len(p) == 3 and len(q) == 3:
        x, y, w = _hom_sub(p, q)
        return x / w, y / w
    px, py = _floats(p)
    qx, qy = _floats(q)
    return px - qx, py - qy


def _fadd(a, x: float, y: float) -> tuple[float, float]:
    """a + (x, y); an exact zero coordinate of a leaves the float as
    it is."""
    if len(a) == 3:
        ax, ay, aw = a
        return (ax / aw + x if ax else x), (ay / aw + y if ay else y)
    return a[0] + x, a[1] + y


def _flt_direction(p, q) -> Optional[tuple[float, float]]:
    """through_direction(p, q); None when the points coincide."""
    px, py = _floats(p)
    qx, qy = _floats(q)
    dx, dy = qx - px, qy - py
    tol = PRED_TOL * max(abs(px), abs(py), abs(qx), abs(qy), 1.0)
    if abs(dx) <= tol and abs(dy) <= tol:
        return None
    return dx, dy


def _flt_param(a, u, p) -> float:
    """as_float(_line_param) on the line a + t u: dot(p - a, u) / |u|^2,
    with |u|^2 rounded once from the integers of a triple."""
    if len(u) == 3:
        ux, uy, uw = u
        if len(a) == 3 and len(p) == 3:
            wx, wy, ww = _hom_sub(p, a)
            return ((wx * ux + wy * uy) * uw) / (ww * (ux * ux + uy * uy))
        s = (ux * ux + uy * uy) / (uw * uw)
        ux, uy = ux / uw, uy / uw
    else:
        ux, uy = u
        s = ux * ux + uy * uy
    wx, wy = _fdiff(p, a)
    return (wx * ux + wy * uy) / s


def _flt_foot(p, a, u) -> tuple[float, float]:
    """foot_of_perpendicular of p on the line a + t u."""
    if len(u) == 3:
        if not (u[0] or u[1]):
            raise DegenerateLine("line with zero direction")
    elif abs(u[0] * u[0] + u[1] * u[1]) <= PRED_TOL:
        raise DegenerateLine("line with zero direction")
    t = _flt_param(a, u, p)
    ux, uy = _floats(u)
    return _fadd(a, t * ux, t * uy)


def _flt_meet(a, u, b, v) -> tuple[float, float]:
    """intersect_lines of the lines a + t u and b + s v."""
    ux, uy = _floats(u)
    vx, vy = _floats(v)
    if len(u) == 3 and len(v) == 3:
        den = u[0] * v[1] - u[1] * v[0]
        if not den:
            raise ParallelLines("lines are parallel under this assignment")
        den /= u[2] * v[2]
    else:
        den = ux * vy - uy * vx
        scale = max(abs(ux), abs(uy), 1.0) * max(abs(vx), abs(vy), 1.0)
        if abs(den) <= PRED_TOL * scale:
            raise ParallelLines("lines are parallel under this assignment")
    # t = cross(b - a, v) / cross(u, v)
    if len(a) == 3 and len(b) == 3 and len(v) == 3:
        ox, oy, ow = _hom_sub(b, a)
        num = (ox * v[1] - oy * v[0]) / (ow * v[2])
    else:
        ox, oy = _fdiff(b, a)
        num = ox * vy - oy * vx
    t = num / den
    return _fadd(a, t * ux, t * uy)


def _flt_cut(a: Hom, u: Hom, qa: tuple[int, int], qb: tuple[int, int],
             disc: tuple[int, int], pick) -> Optional[tuple[float, float]]:
    """_circle_cut on the line a + t u with the quadratic of
    _hom_circle_quadratic, when both roots are floats: None when the
    discriminant is zero or a rational square, or qb is zero, where a
    root is exact and the Scalar path takes the cut."""
    n, d = disc
    fdisc = n / d
    if fdisc < 0:
        raise NoIntersection("the line misses the circle")
    # n/d is a rational square exactly when n d is an integer square
    k = n * d
    if n <= 0 or not qb[0] or math.isqrt(k) ** 2 == k:
        return None
    root = math.sqrt(fdisc)
    nqb = -qb[0] / qb[1]
    two_a = (2 * qa[0]) / qa[1]
    t1 = (nqb - root) / two_a
    t2 = (nqb + root) / two_a
    if t1 > t2:
        t1, t2 = t2, t1
    t = _pick_root(t1, t2, pick, lambda p: _flt_param(a, u, p))
    ux, uy = _floats(u)
    return _fadd(a, t * ux, t * uy)


# ---------------------------------------------------------------------------
# scalar/vector helpers shared with rule discovery


def near_zero(value: Scalar, scale: Scalar) -> bool:
    """Is value zero, exactly when exact, else relative to scale."""
    if is_exact(value):
        # an irrational radical is never zero
        return type(value) is Fraction and value == 0
    s = abs(as_float(scale))
    return abs(as_float(value)) <= PRED_TOL * max(s, 1.0)


def _near_zero_across(value: Scalar, u: Coord, v: Coord) -> bool:
    """near_zero of a product of u and v, relative to both vectors'
    float scales; the scales are computed only for an inexact value."""
    if is_exact(value):
        return near_zero(value, 1.0)
    return near_zero(value, _vec_scale(u) * _vec_scale(v))


def scalar_positive(value: Scalar) -> bool:
    if is_exact(value):
        return value > 0 if type(value) is Fraction else as_float(value) > 0
    return as_float(value) > 0


def vsub(a: Coord, b: Coord) -> Coord:
    return (sub(a[0], b[0]), sub(a[1], b[1]))


def vadd(a: Coord, b: Coord) -> Coord:
    return (add(a[0], b[0]), add(a[1], b[1]))


def vscale(t: Scalar, v: Coord) -> Coord:
    return (mul(t, v[0]), mul(t, v[1]))


def dot(a: Coord, b: Coord) -> Scalar:
    return add(mul(a[0], b[0]), mul(a[1], b[1]))


def cross(a: Coord, b: Coord) -> Scalar:
    return sub(mul(a[0], b[1]), mul(a[1], b[0]))


def sq_norm(v: Coord) -> Scalar:
    return add(mul(v[0], v[0]), mul(v[1], v[1]))


def distance(a: Coord, b: Coord) -> Scalar:
    return sqrt_scalar(sq_norm(vsub(a, b)))


def exact_difference(ev: Evaluation, p: str, q: str
                     ) -> Optional[tuple[int, int, int]]:
    """Point q - point p as integers (x, y, w), w > 0, when both its
    components are Fractions; None when one is a Rad or a float.  Either
    order of p and q gives Fractions or neither, so the answer is
    symmetric up to sign."""
    hp, hq = ev.hom.get(p), ev.hom.get(q)
    if hp and hq:
        return _hom_sub(hq, hp)
    v = vsub(ev.coord(q), ev.coord(p))
    return _hom(v) if _rational(v) else None


def _vec_scale(v: Coord) -> Scalar:
    return max(abs(as_float(v[0])), abs(as_float(v[1])), 1.0)


# A float dot or cross product of two vectors differs from the one the
# predicates compute on the same Scalars by a few units in the last
# place of the vectors' scales, far below this share of them; past it,
# the product is nonzero however the predicate computes it.
SCREEN_TOL = 1e-6


def screen(v: Coord) -> tuple[float, float, float]:
    """v's components as floats and its scale, for the `surely_not_*`
    tests that spare a Scalar predicate call."""
    x, y = as_float(v[0]), as_float(v[1])
    return x, y, max(abs(x), abs(y), 1.0)


def surely_not_perpendicular(u: tuple[float, float, float],
                             v: tuple[float, float, float]) -> bool:
    """perpendicular() of the screened vectors is False."""
    return abs(u[0] * v[0] + u[1] * v[1]) > SCREEN_TOL * u[2] * v[2]


def surely_not_parallel(u: tuple[float, float, float],
                        v: tuple[float, float, float]) -> bool:
    """points_collinear() of a, a + u, a + v (u, v screened) is False."""
    return abs(u[0] * v[1] - u[1] * v[0]) > SCREEN_TOL * u[2] * v[2]


def points_collinear(a: Coord, b: Coord, c: Coord) -> bool:
    if _rational(a) and _rational(b) and _rational(c):
        ha = _hom(a)
        ux, uy, _ = _hom_sub(_hom(b), ha)
        vx, vy, _ = _hom_sub(_hom(c), ha)
        return ux * vy == uy * vx
    u, v = vsub(b, a), vsub(c, a)
    return _near_zero_across(cross(u, v), u, v)


def strictly_between(a: Coord, m: Coord, b: Coord) -> bool:
    """m strictly inside segment ab; assumes collinearity was checked."""
    if _rational(a) and _rational(m) and _rational(b):
        ha = _hom(a)
        ux, uy, uw = _hom_sub(_hom(m), ha)
        vx, vy, vw = _hom_sub(_hom(b), ha)
        t_den = vx * vx + vy * vy
        if t_den == 0:
            return False
        # the two floats the Scalar path divides: each a correctly
        # rounded quotient of integers, as float() of a Fraction is
        t = ((ux * vx + uy * vy) / (uw * vw)) / (t_den / (vw * vw))
        return PRED_TOL < t < 1 - PRED_TOL
    u, v = vsub(m, a), vsub(b, a)
    t_num = dot(u, v)
    t_den = sq_norm(v)
    if near_zero(t_den, 1.0):
        return False
    t = as_float(t_num) / as_float(t_den)
    return PRED_TOL < t < 1 - PRED_TOL


def perpendicular(u: Coord, v: Coord) -> bool:
    if _rational(u) and _rational(v):
        ux, uy, _ = _hom(u)
        vx, vy, _ = _hom(v)
        return ux * vx + uy * vy == 0
    return _near_zero_across(dot(u, v), u, v)


def lines_parallel(l1: Line, l2: Line) -> bool:
    u, v = l1.direction, l2.direction
    if _rational(u) and _rational(v):
        ux, uy, _ = _hom(u)
        vx, vy, _ = _hom(v)
        return ux * vy == uy * vx
    return _near_zero_across(cross(u, v), u, v)


def on_line(p: Coord, l: Line) -> bool:
    a, v = l.anchor, l.direction
    if _rational(p) and _rational(a) and _rational(v):
        ux, uy, _ = _hom_sub(_hom(p), _hom(a))
        vx, vy, _ = _hom(v)
        return ux * vy == uy * vx
    u = vsub(p, a)
    return _near_zero_across(cross(u, v), u, v)


def _same_carrier(l1: Line, l2: Line) -> bool:
    return lines_parallel(l1, l2) and on_line(l2.anchor, l1)


def coincident(a: Coord, b: Coord) -> bool:
    """Do a and b coincide?  Symmetric in its arguments: a component
    whose difference is exact in either order is judged exactly."""
    if _rational(a) and _rational(b):
        return (a[0].as_integer_ratio() == b[0].as_integer_ratio()
                and a[1].as_integer_ratio() == b[1].as_integer_ratio())
    dx, dy = _either_way(a[0], b[0]), _either_way(a[1], b[1])
    if is_exact(dx) and is_exact(dy):
        return near_zero(dx, 1.0) and near_zero(dy, 1.0)
    scale = max(_vec_scale(a), _vec_scale(b))
    return near_zero(dx, scale) and near_zero(dy, scale)


def _either_way(x: Scalar, y: Scalar) -> Scalar:
    """x - y, or y - x when only that is exact (x - 0 keeps a Rad that
    0 - x turns into a float); a float operand makes both floats.
    Float differences in the two orders are negatives of each other,
    so their size does not depend on it."""
    d = sub(x, y)
    if is_exact(d) or not (is_exact(x) and is_exact(y)):
        return d
    e = sub(y, x)
    return e if is_exact(e) else d


# ---------------------------------------------------------------------------
# build


def build_scene(model: dsl.HypothesisModel) -> Scene:
    param_dims: list[tuple[str, tuple[str, str]]] = []
    for s in model.constructions:
        anchor = _bare_param_anchor(s.payload)  # None for a line
        if anchor is not None:
            param_dims.append((anchor[0], (anchor[1], s.name)))
    # by parameter in declaration order, each one's in file order
    param_dims.sort(key=lambda found: model.params.index(found[0]))
    return Scene(model, tuple(param_dims))


def _bare_param_anchor(pe: dsl.PointExpr) -> Optional[tuple[str, str]]:
    """(param, anchor point) when the construction measures a bare
    parameter as a segment from a known point."""
    if (isinstance(pe, (dsl.Baseline, dsl.OnSegment, dsl.OffsetPerp))
            and isinstance(pe.dist, dsl.NameRef)):
        return (pe.dist.name, pe.p)
    if isinstance(pe, dsl.MeetCircle) and isinstance(pe.radius, dsl.NameRef):
        return (pe.radius.name, pe.center)
    return None


# ---------------------------------------------------------------------------
# evaluation


# the last evaluation per scene: it hands the figure sample_params
# accepted to the caller that evaluates it next, the witness to
# discovery and each sample to its SampleStream
_LAST_EVAL: "WeakKeyDictionary[Scene, tuple[ParamAssignment, Evaluation]]" = WeakKeyDictionary()


def evaluate(scene: Scene, a: ParamAssignment) -> Evaluation:
    last = _LAST_EVAL.get(scene)
    if last is None or last[0] != a:
        last = _LAST_EVAL[scene] = (a, _evaluate(scene, a))
    return last[1]


def _evaluate(scene: Scene, a: ParamAssignment) -> Evaluation:
    ev = Evaluation()
    params = a.values
    model = scene.model
    for stmt in scene.plan:
        if stmt.kind == "line-construction":
            ev.named_lines[stmt.name] = _eval_line_arg(stmt.payload, ev, params)
        else:
            ev.add_point(stmt.name, _eval_point(stmt, ev, params, model))
    # lines appearing only inside point expressions were collected
    # during evaluation; order is deterministic (plan order, then
    # encounter order within a statement)
    return ev


def _eval_expr(e: dsl.Expr, ev: Evaluation, params: dict[str, Fraction]) -> Scalar:
    if isinstance(e, dsl.NumLit):
        return e.value
    if isinstance(e, dsl.NameRef):
        return params[e.name]
    if isinstance(e, dsl.LenExpr):
        return _length(ev, (e.p, e.q))
    if isinstance(e, dsl.Neg):
        return sub(Fraction(0), _eval_expr(e.arg, ev, params))
    if isinstance(e, dsl.BinOp):
        left = _eval_expr(e.left, ev, params)
        right = _eval_expr(e.right, ev, params)
        if e.op == "+":
            return add(left, right)
        if e.op == "-":
            return sub(left, right)
        if e.op == "*":
            return mul(left, right)
        try:
            return div(left, right)
        except ZeroDivisionError:
            raise DivisionByZero("zero divisor in a distance expression") from None
    raise AssertionError(f"unhandled expression {e!r}")


def _eval_line_arg(arg: dsl.LineArg, ev: Evaluation, params: dict[str, Fraction]
                   ) -> Line:
    if isinstance(arg, dsl.LineRef):
        return ev.named_lines[arg.name]
    hp = ev.hom[arg.p]
    if isinstance(arg, (dsl.ThroughPoints, dsl.ExtendRay)):
        hq = ev.hom[arg.q]
        if hp and hq:
            direction = _hom_direction(hp, hq)
            line = Line(None, None, hp, direction)
        else:
            kp, kq = ev.kernel(arg.p), ev.kernel(arg.q)
            if kp and kq:
                direction = _flt_direction(kp, kq)
                line = Line(None if hp else kp, direction, hp)
            else:
                p = ev.coord(arg.p)
                direction = through_direction(p, ev.coord(arg.q))
                line = Line(p, direction)
        if direction is None:
            raise DegenerateLine(f"line through coincident points {arg.p}, {arg.q}")
    else:
        assert isinstance(arg, dsl.ThroughParallel)
        base = _eval_line_arg(arg.base, ev, params)
        line = Line(None if hp else ev.coord(arg.p), base._direction, hp, base.hd)
    ev.lines.append(line)
    return line


def _eval_point(stmt: dsl.Statement, ev: Evaluation, params: dict[str, Fraction],
                model: dsl.HypothesisModel) -> Hom | Coord:
    """The point a construction builds: its triple from the integer
    kernel when every input it reads is rational and so is any length it
    divides by; a float pair from the float kernel when a foot, meet or
    circle cut reads a float point or line and no Rad; else its
    coordinates from the Scalar path.  A circle cut whose line, center
    and squared radius are rational solves its quadratic on the integer
    kernel, and its roots on the float kernel unless one is exact."""
    pe = stmt.payload
    hom = ev.hom
    if isinstance(pe, dsl.Origin):
        return (0, 0, 1)
    if isinstance(pe, dsl.Baseline):
        hb = hom[pe.p]
        if hb is not None:
            off_axis = hb[1] != 0
        else:
            base = ev.coord(pe.p)
            off_axis = not near_zero(base[1], 1.0 if is_exact(base[1]) else _vec_scale(base))
        if off_axis:
            raise GeometryError(f"baseline anchor {pe.p!r} is off the reference axis")
        d = _eval_expr(pe.dist, ev, params)
        if near_zero(d, 1.0):
            raise GeometryError("baseline displacement is zero")
        if stmt.name == model.base_point and not scalar_positive(d):
            raise GeometryError("the frame baseline point must sit on the positive axis")
        if hb is not None and type(d) is Fraction:
            return _along(hb, *d.as_integer_ratio(), 1, 0)
        return (add(ev.coord(pe.p)[0], d), Fraction(0))
    if isinstance(pe, dsl.OnSegment):
        d = _eval_expr(pe.dist, ev, params)
        hp, hq = hom[pe.p], hom[pe.q]
        if hp and hq and type(d) is Fraction:
            h = _hom_on_segment(hp, hq, d)
            if h is not None:
                return h
        return on_segment(ev.coord(pe.p), ev.coord(pe.q), d)
    if isinstance(pe, dsl.OffsetPerp):
        line = _eval_line_arg(pe.line, ev, params)
        d = _eval_expr(pe.dist, ev, params)
        hp = hom[pe.p]
        if hp and line.hd and type(d) is Fraction:
            h = _hom_offset_perp(hp, line.hd, d)
            if h is not None:
                return h
        return offset_perp(ev.coord(pe.p), line, d)
    if isinstance(pe, dsl.Meet):
        l1 = _eval_line_arg(pe.l1, ev, params)
        l2 = _eval_line_arg(pe.l2, ev, params)
        if l1.ha and l1.hd and l2.ha and l2.hd:
            return _hom_meet(l1.ha, l1.hd, l2.ha, l2.hd)
        ins = (*_kernel_line(l1), *_kernel_line(l2))
        if all(ins):
            return _flt_meet(*ins)
        return intersect_lines(l1, l2)
    if isinstance(pe, dsl.MeetCircle):
        line = _eval_line_arg(pe.line, ev, params)
        hc = hom[pe.center]
        radius = _eval_expr(pe.radius, ev, params)
        rr = square(radius)
        if line.ha and line.hd and hc and type(rr) is Fraction:
            qa, qb, disc = _hom_circle_quadratic(line.ha, line.hd, hc, rr)
            pick = _resolve_pick(pe.pick, ev.kernel)
            if all(pick[1:]):
                cut = _flt_cut(line.ha, line.hd, qa, qb, disc, pick)
                if cut is not None:
                    return cut
            return _circle_cut(line, Fraction(*qa), Fraction(*qb),
                               Fraction(*disc), _resolve_pick(pe.pick, ev.coord))
        return line_circle_meet(line, ev.coord(pe.center), radius,
                                _resolve_pick(pe.pick, ev.coord))
    if isinstance(pe, dsl.Foot):
        line = _eval_line_arg(pe.line, ev, params)
        hp = hom[pe.p]
        if hp and line.ha and line.hd:
            return _hom_foot(hp, line.ha, line.hd)
        ins = (ev.kernel(pe.p), *_kernel_line(line))
        if all(ins):
            return _flt_foot(*ins)
        return foot_of_perpendicular(ev.coord(pe.p), line)
    raise AssertionError(f"unhandled point expression {pe!r}")


def _resolve_pick(pick: dsl.Pick, read):
    """The pick as a tuple of its kind and its points, each point as
    `read` returns it for its name."""
    if isinstance(pick, dsl.PickFirst):
        return ("first",)
    if isinstance(pick, dsl.PickSecond):
        return ("second",)
    if isinstance(pick, dsl.PickWithinSegment):
        return ("within_segment", read(pick.p), read(pick.q))
    assert isinstance(pick, dsl.PickNearest)
    return ("nearest", read(pick.p))


def _kernel_line(l: Line) -> tuple:
    """l's anchor and direction as the kernels read them: each a triple,
    a float pair, or None."""
    return l.ha or _fpair(l._anchor), l.hd or _fpair(l._direction)


# ---------------------------------------------------------------------------
# geometric primitives: the Scalar path of each step


def through_direction(p: Coord, q: Coord) -> Optional[Coord]:
    """q - p, the direction of the line through p and q; None when the
    points coincide."""
    if coincident(p, q):
        return None
    return vsub(q, p)


def on_segment(p: Coord, q: Coord, d: Scalar) -> Coord:
    """The point at distance d from p toward q, strictly inside pq."""
    seg = vsub(q, p)
    length = sqrt_scalar(sq_norm(seg))
    if near_zero(length, 1.0):
        raise DegenerateLine("zero-length segment")
    if not scalar_positive(d) or not scalar_positive(sub(length, d)):
        raise GeometryError("on_segment displacement must fall strictly inside")
    t = div(d, length)
    return vadd(p, vscale(t, seg))


def offset_perp(p: Coord, l: Line, d: Scalar) -> Coord:
    """The point at signed distance d from p along the normal of l."""
    if near_zero(d, 1.0):
        raise GeometryError("offset_perp displacement is zero")
    u = l.direction
    dx, dy = u
    length = sqrt_scalar(sq_norm(u))
    if near_zero(length, 1.0):
        raise DegenerateLine("zero-direction line")
    # counter-clockwise normal: positive d lands on the left of the
    # direction, which is "above" for the frame axis
    t = div(d, length)
    normal = (sub(Fraction(0), dy), dx)
    return vadd(p, vscale(t, normal))


def intersect_lines(l1: Line, l2: Line) -> Coord:
    u, v = l1.direction, l2.direction
    denom = cross(u, v)
    if _near_zero_across(denom, u, v):
        raise ParallelLines("lines are parallel under this assignment")
    offset = vsub(l2.anchor, l1.anchor)
    t = div(cross(offset, v), denom)
    return vadd(l1.anchor, vscale(t, u))


def line_circle_meet(l: Line, center: Coord, radius: Scalar, pick) -> Coord:
    d = l.direction
    rel = vsub(l.anchor, center)
    qa = sq_norm(d)
    qb = mul(Fraction(2), dot(d, rel))
    qc = sub(sq_norm(rel), square(radius))
    disc = sub(mul(qb, qb), mul(mul(Fraction(4), qa), qc))
    return _circle_cut(l, qa, qb, disc, pick)


def _circle_cut(l: Line, qa: Scalar, qb: Scalar, disc: Scalar, pick) -> Coord:
    """The picked root of qa t^2 + qb t + qc = 0, disc its discriminant,
    as the point anchor + t direction of l."""
    if as_float(disc) < 0:
        raise NoIntersection("the line misses the circle")
    t1, t2 = quadratic_roots(qa, qb, disc)
    t = _pick_root(t1, t2, pick, lambda p: as_float(_line_param(l, p)))
    return vadd(l.anchor, vscale(t, l.direction))


def quadratic_roots(qa: Scalar, qb: Scalar, disc: Scalar
                    ) -> tuple[Scalar, Scalar]:
    """The roots t1 <= t2 of qa t^2 + qb t + qc = 0, from its
    discriminant disc >= 0; the caller checks the sign of disc."""
    root = sqrt_scalar(disc)
    two_a = mul(Fraction(2), qa)
    t1 = div(sub(sub(Fraction(0), qb), root), two_a)
    t2 = div(add(sub(Fraction(0), qb), root), two_a)
    if as_float(t1) > as_float(t2):
        t1, t2 = t2, t1
    return t1, t2


def _line_param(l: Line, p: Coord) -> Scalar:
    a, u = l.anchor, l.direction
    if _rational(p) and _rational(a) and _rational(u):
        ux, uy, uw = _hom(u)
        wx, wy, ww = _hom_sub(_hom(p), _hom(a))
        # dot(p - a, u) / |u|^2
        return Fraction((wx * ux + wy * uy) * uw, ww * (ux * ux + uy * uy))
    return div(dot(vsub(p, a), u), sq_norm(u))


def _pick_root(t1: Scalar, t2: Scalar, pick, param) -> Scalar:
    """The root of t1 <= t2 that `pick` names; `param` maps a point of
    the pick to its line parameter as a float."""
    kind = pick[0]
    if kind == "first":
        return t1
    if kind == "second":
        return t2
    if kind == "within_segment":
        ta, tb = param(pick[1]), param(pick[2])
        lo, hi = min(ta, tb), max(ta, tb)
        inside = [t for t in (t1, t2) if lo < as_float(t) < hi]
        if len(inside) != 1:
            raise AmbiguousPick(
                f"{len(inside)} intersection(s) inside the segment, need exactly 1")
        return inside[0]
    assert kind == "nearest"
    tp = param(pick[1])
    d1, d2 = abs(as_float(t1) - tp), abs(as_float(t2) - tp)
    if math.isclose(d1, d2, rel_tol=1e-12, abs_tol=1e-15):
        raise AmbiguousPick("both intersections are equally near")
    return t1 if d1 < d2 else t2


def foot_of_perpendicular(p: Coord, l: Line) -> Coord:
    if near_zero(sq_norm(l.direction), 1.0):
        raise DegenerateLine("line with zero direction")
    t = _line_param(l, p)
    return vadd(l.anchor, vscale(t, l.direction))


# ---------------------------------------------------------------------------
# sampling and the dimension oracle


# draws sample_params makes before it calls the figure degenerate
RETRY_CAP = 100

# each parameter is drawn as n / SAMPLE_DENOMINATOR, n uniform over the
# numerators that keep it in the sampling range
SAMPLE_DENOMINATOR = 2 ** 40


def sample_space(rng_range: tuple[Fraction, Fraction]) -> int:
    """|S|, how many values sample_params can draw for one parameter:
    the n / SAMPLE_DENOMINATOR in [lo, hi]; 0 or less when none is."""
    lo, hi = rng_range
    return (math.floor(hi * SAMPLE_DENOMINATOR)
            - math.ceil(lo * SAMPLE_DENOMINATOR) + 1)


def sample_params(scene: Scene, seed: int,
                  rng_range: tuple[Fraction, Fraction] = DEFAULT_RANGE,
                  ) -> ParamAssignment:
    """Draw every parameter uniformly from the sample space of
    `rng_range`, and draw again, up to RETRY_CAP times, while the
    figure cannot be constructed."""
    rng = random.Random(seed)
    lo, hi = rng_range
    space = sample_space(rng_range)
    if space < 1:
        raise DegenerateModel(f"sampling range [{lo}, {hi}] is too narrow")
    first = math.ceil(lo * SAMPLE_DENOMINATOR)
    last_err: Optional[Exception] = None
    for _ in range(RETRY_CAP):
        a = ParamAssignment(tuple(
            (name, Fraction(first + rng.randrange(space), SAMPLE_DENOMINATOR))
            for name in scene.model.params))
        try:
            evaluate(scene, a)
        except (GeometryError, ZeroDivisionError) as err:
            last_err = err
            continue
        return a
    raise DegenerateModel(
        f"no valid assignment in {RETRY_CAP} draws; last failure: {last_err}")


SAMPLE_STRIDE = 1_000_003


class SampleStream:
    """The figures one run reads: sample i of `count` is drawn by
    sample_params at seed * SAMPLE_STRIDE + i from `rng_range`, and
    evaluated.  Iterating yields (seed, assignment, evaluation) per
    sample.  Each sample is drawn on first read and kept, so growth's
    validation and the verdict read the same figures, and the verdict
    reuses the values memoized on them."""

    __slots__ = ("scene", "seed", "rng_range", "count", "_drawn")

    def __init__(self, scene: Scene, seed: int,
                 rng_range: tuple[Fraction, Fraction], count: int) -> None:
        self.scene, self.seed, self.rng_range, self.count = (
            scene, seed, rng_range, count)
        self._drawn: list[tuple[int, ParamAssignment, Evaluation]] = []

    def __iter__(self):
        drawn = self._drawn
        for i in range(self.count):
            if i == len(drawn):
                s_seed = self.seed * SAMPLE_STRIDE + i
                a = sample_params(self.scene, s_seed, self.rng_range)
                drawn.append((s_seed, a, evaluate(self.scene, a)))
            yield drawn[i]


_NO_VALUE = object()  # memo entry of a ratio whose denominator is zero


def dim_value(ev: Evaluation, dim) -> Scalar:
    """The value of a dimension, straight from the coordinates of ev.

    Dimensions are dispatched structurally on their `kind` field:
    length (a point pair), ratio (two sub-dimensions), or composite
    (difference of two collinear lengths from a shared endpoint).  Each
    value is computed once per evaluation and memoized on it, a ratio
    from its numerator's and denominator's memoized values; a ratio
    with a zero denominator raises DivisionByZero at every call.
    """
    kind = dim.kind
    if kind == "length":
        return _length(ev, dim.points)
    memo = ev.values
    v = memo.get(dim)
    if v is None:
        if kind == "ratio":
            num = dim_value(ev, dim.num)
            den = dim_value(ev, dim.den)
            try:
                v = div(num, den)
            except ZeroDivisionError:
                v = _NO_VALUE
        elif kind == "composite":
            v = sub(_length(ev, dim.far), _length(ev, dim.near))
        else:
            raise AssertionError(f"unhandled dimension kind {kind!r}")
        memo[dim] = v
    if v is _NO_VALUE:
        raise DivisionByZero(f"zero denominator in {dim.display}")
    return v


def dim_square(ev: Evaluation, dim) -> tuple[int, int] | tuple[()]:
    """The square of a dimension's value as an integer pair (n, d),
    meaning n/d, when that value is exact and positive; the empty tuple
    for a float, zero, negative or undefined value.

    A length between two rational points, difference (x, y)/w, gives
    (x*x + y*y, w*w) straight from their triples.  Any other value goes
    through dim_value: a Fraction p/q gives (p*p, q*q) and a Rad gives
    its radicand's integer ratio.  A ratio crosses its numerator's and
    denominator's pairs, so it is never divided out; the pairs need not
    be in lowest terms.  Memoized per evaluation, like dim_value.
    """
    memo = ev.squares
    sq = memo.get(dim)
    if sq is None:
        kind = dim.kind
        if kind == "ratio":
            num = dim_square(ev, dim.num)
            den = dim_square(ev, dim.den)
            sq = (num[0] * den[1], num[1] * den[0]) if num and den else ()
        else:
            sw = _squared_distance(ev, dim.points) if kind == "length" else ()
            if sw:
                s, w = sw
                sq = (s, w * w) if s else ()
            else:
                v = dim_value(ev, dim)
                if type(v) is Fraction:
                    n, d = v.numerator, v.denominator
                    sq = (n * n, d * d) if n > 0 else ()
                elif type(v) is Rad:
                    sq = v.radicand.as_integer_ratio()
                else:
                    sq = ()
        memo[dim] = sq
    return sq


def _length(ev: Evaluation, pair: tuple[str, str]) -> Scalar:
    """The distance between a pair of points, in either order: from
    their squared distance when both are rational, else by `distance`
    on their coordinates.  Measured and memoized in sorted order, as a
    length dimension names its points, since `distance` on mixed Rad
    and Fraction coordinates is exact in one order only."""
    if pair[1] < pair[0]:
        pair = (pair[1], pair[0])
    v = ev.values.get(pair)
    if v is None:
        sw = _squared_distance(ev, pair)
        if sw:
            s, w = sw
            r = math.isqrt(s)
            v = Fraction(r, w) if r * r == s else Rad(Fraction(s, w * w))
        else:
            v = distance(ev.coord(pair[0]), ev.coord(pair[1]))
        ev.values[pair] = v
    return v


def _squared_distance(ev: Evaluation, pair: tuple[str, str]
                      ) -> tuple[int, int] | tuple[()]:
    """(s, w), the squared distance s/w^2 between a pair of rational
    points, read off their triples; the empty tuple when either point is
    not rational.  Memoized by the pair, so the value and the square of
    a length measure it once."""
    memo = ev.squares
    sw = memo.get(pair)
    if sw is None:
        hp, hq = ev.hom.get(pair[0]), ev.hom.get(pair[1])
        if hp and hq:
            x, y, w = _hom_sub(hp, hq)
            sw = (x * x + y * y, w)
        else:
            sw = ()
        memo[pair] = sw
    return sw
