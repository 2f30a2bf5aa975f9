"""Derivation-rule discovery over a numeric witness.

Each rule inspects the witness coordinates for a geometric relation
(collinearity, parallels, right angles, similar triangles, circle
cuts), and emits hyperedges: a set of source dimensions from which one
target dimension can be computed by a fixed formula.  The rules of one
discover call share a point-pair index of the witness: for each pair,
whether the points are distinct, their squared distance, and the exact
direction class of their difference when it is rational.  A line is
then the set of points sharing a class at an anchor, and a right angle
a pair of perpendicular classes at a corner; only differences with a
radical or float component are compared one by one with the scene's
predicates, and a predicate on rational points reads their integer
triples.  Similar triangles are found the same way: a triangle with
rational squared sides joins the exact class of its shape, and only a
triangle with a radical or float side is compared, on floats, with the
triangles of neighbouring shape buckets.  A ratio is valued at the
witness only where a rule reads its value.  The pool is sorted once,
on one string key per edge (`finalize`).

Relations are detected at a single witness sample; spurious
coincidences are culled by replaying the edges a proof uses at every
sample of the run's scene.SampleStream, the verdict's: those of the
focused schedule, and after a failure those that number the nodes
(validate_edges, called from graph.grow_detailed).  A replay whose
values are all exact and positive first checks the edge's relation on
squared values by integer cross-multiplication; every other replay,
and every one that check does not confirm, recomputes the target on
the Scalar arithmetic.

Positions along the reference axis are always measured from the
origin point; feet are declared points, never invented ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from collections import Counter
from fractions import Fraction
from typing import Optional

from . import dsl, scene as sc
from .exactnum import Scalar, add, as_float, div, mul, rel_err, sqrt_scalar, sub
from .record import Record


class NumericFailure(Exception):
    """Recipe execution hit a numeric dead end at this sample."""


# ---------------------------------------------------------------------------
# dimensions


class Dim(Record):
    """A dimension of the figure.  Built only by length, composite and
    make_ratio, which intern it: equal dims are one object, so they
    compare and hash by identity.  `kind` is "length" (of `points`),
    "ratio" (`num` over `den`) or "composite" (`far` less `near`)."""

    __slots__ = ("kind", "points", "num", "den", "far", "near", "display",
                 "__weakref__")
    _defaults = ((), None, None, (), (), "")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, kind: str, points: tuple[str, str] = (),
                 num: Optional[Dim] = None, den: Optional[Dim] = None,
                 far: tuple[str, str] = (), near: tuple[str, str] = (),
                 display: str = ""):
        s = self._set
        s[0](self, kind)
        s[1](self, points)
        s[2](self, num)
        s[3](self, den)
        s[4](self, far)
        s[5](self, near)
        s[6](self, display)

    def __repr__(self) -> str:
        return f"Dim({self.display})"


# every live dim by its fields, held weakly: a dim no edge or caller
# holds any more is freed, and its entry goes with it
_DIMS: dict[tuple, "weakref.ref[Dim]"] = {}


def _forget(key: tuple, ref: "weakref.ref[Dim]") -> None:
    if _DIMS.get(key) is ref:  # not a dim interned since under the key
        del _DIMS[key]


def _intern(kind: str, points: tuple[str, str] = (), num: Optional[Dim] = None,
            den: Optional[Dim] = None, far: tuple[str, str] = (),
            near: tuple[str, str] = ()) -> Dim:
    key = (kind, points, num, den, far, near)
    ref = _DIMS.get(key)
    d = ref() if ref is not None else None
    if d is None:
        if kind == "length":
            display = "".join(points)
        elif kind == "ratio":
            display = f"{num.display}/{den.display}"
        else:
            display = f"({''.join(far)}-{''.join(near)})"
        d = Dim(kind, points, num, den, far, near, display)
        _DIMS[key] = weakref.ref(d, functools.partial(_forget, key))
    return d


def length(p: str, q: str) -> Dim:
    if p == q:
        raise ValueError(f"length needs two distinct points, got {p!r} twice")
    return _intern("length", (p, q) if p < q else (q, p))


def composite(far: tuple[str, str], near: tuple[str, str]) -> Dim:
    return _intern("composite", (), None, None, tuple(sorted(far)), tuple(sorted(near)))


def make_ratio(a: Dim, b: Dim) -> Dim:
    """Canonical ratio of two dimensions: operands ordered by display
    name, so composites always land in the numerator."""
    if a.display == b.display:
        raise ValueError("ratio of a dimension with itself")
    if a.display < b.display:
        return _intern("ratio", (), a, b)
    return _intern("ratio", (), b, a)


# ---------------------------------------------------------------------------
# hyperedges


class Hyperedge(Record):
    __slots__ = ("sources", "target", "rule", "justification", "recipe",
                 "subpriority")

    def __init__(self, sources: tuple[Dim, ...], target: Dim, rule: str,
                 justification: str, recipe: tuple, subpriority: int = 0):
        s = self._set
        s[0](self, sources)  # sorted by display
        s[1](self, target)
        s[2](self, rule)
        s[3](self, justification)
        s[4](self, recipe)
        s[5](self, subpriority)

    def key(self):
        return (frozenset(self.sources), self.target, self.rule)


PRIORITY = {
    "parallel-transfer": 0,
    "distance-formula": 1,
    "pythagoras": 2,
    "segment-chain": 3,
    "similar-triangles": 4,
    "ratio-solve": 5,
    "line-circle": 6,
}


_display = operator.attrgetter("display")
_target = operator.attrgetter("target")
_sources = operator.attrgetter("sources")


def _canonical(d: Dim) -> tuple:
    """d's display, then its structure: an order in which no two dims
    tie, which agrees with the order by display."""
    return (d.display, d.kind, d.points, d.far, d.near,
            _canonical(d.num) if d.num else (), _canonical(d.den) if d.den else ())


def _ordered(dims) -> tuple[Dim, ...]:
    """The distinct dims sorted by display, dims of one display (points
    A and BC beside AB and C) by `_canonical`: one tuple per set."""
    if len(dims) == 2:
        a, b = dims
        if a.display < b.display:
            return a, b
        if b.display < a.display:
            return b, a
    out = sorted(set(dims), key=_display)
    for a, b in zip(out, out[1:]):
        if a.display == b.display:
            out.sort(key=_canonical)
            break
    return tuple(out)


def _edge(sources, target, rule, justification, recipe, subpriority=0):
    srcs = _ordered(sources)
    if target in srcs or not srcs:
        return None
    return Hyperedge(srcs, target, rule, justification, recipe, subpriority)


def _recipe_key(recipe: tuple) -> tuple:
    out = []
    for item in recipe:
        out.append(item.display if isinstance(item, Dim) else str(item))
    return tuple(out)


def _sort_key(e: Hyperedge):
    return (PRIORITY[e.rule], e.subpriority, e.target.display,
            tuple(map(_display, e.sources)), _recipe_key(e.recipe))


# `finalize` sorts on one string per edge: its priority and subpriority
# as one character each, its target's display, and its sources' displays
# after _SOURCE_SEP each, with its recipe's strings after _RECIPE_SEP
# only where an equal key needs them.  Both characters sort below any
# character of a display, so two strings compare as their `_sort_key`
# tuples do, a shorter list of sources first.
_SOURCE_SEP, _RECIPE_SEP = "\x01", "\x00"


def finalize(edges: list[Hyperedge]) -> list[Hyperedge]:
    """The edges in `_sort_key` order, the first of each `key()` kept.
    This pool order is the only order between edges: growth lists the
    edges it admits in it, and the schedule takes each node's first.
    Sources come in `_ordered` order, one tuple per set, so the tuple
    stands for the set in `key()`."""
    edges = [e for e in edges if e is not None]
    join = _SOURCE_SEP.join
    keys = [f"{chr(48 + PRIORITY[e.rule])}{chr(48 + e.subpriority)}{e.target.display}"
            f"{_SOURCE_SEP}{join(map(_display, e.sources))}" for e in edges]
    counts = Counter(keys)
    if len(counts) < len(keys):
        keys = [k + _RECIPE_SEP + join(_recipe_key(e.recipe)) if counts[k] > 1 else k
                for k, e in zip(keys, edges)]
    first: dict = {}
    for i in sorted(range(len(edges)), key=keys.__getitem__):
        e = edges[i]
        first.setdefault((e.sources, e.target, e.rule), e)
    return list(first.values())


# ---------------------------------------------------------------------------
# witness context


class _Witness:
    """One evaluated sample and the point-pair index every rule of a
    discover call reads.

    Points are indexed in declaration order.  For each pair i < j the
    index holds whether the points are distinct (`apart`: a nonzero
    difference of two rational points, else one scene.coincident call
    per pair), the squared distance (`sq[i][j]`:
    its numerator and denominator in lowest terms when rational, and
    its float) and the direction class of the difference (`klass`): its
    integer components over their gcd, sign-normalised, when both
    components are Fractions; (0, 0) for a zero difference; None when a
    component is a Rad or a float.  Classes are exact, so they decide
    collinearity and right angles as the scene's integer predicates do;
    a vector without a class is compared with the others at its anchor
    by the scene predicate itself, unless a float screen
    (scene.surely_not_parallel / surely_not_perpendicular) shows the
    predicate's answer is no.  The screens come from the index too
    (`screens[i][j]` screens pts[j] - pts[i]): a rational difference's
    floats are its integer components over their denominator, the
    correctly rounded value as_float gives, and any other difference is
    taken once per pair and negated for the other orientation, which
    float subtraction does exactly."""

    def __init__(self, scene_: sc.Scene, figure: sc.Evaluation):
        self.model = model = scene_.model
        self.scene = scene_
        self.ev = ev = figure
        self.names: list[str] = list(ev.points)
        self.coords = ev.points
        self.hom = ev.hom
        origin = self.coords[model.origin]
        base = self.coords[model.base_point]
        # with the anchor and direction triples where they are rational
        self.axis = sc.Line(origin, sc.vsub(base, origin), ev.hom[model.origin],
                            sc.exact_difference(ev, model.origin, model.base_point))
        self.on_axis = [n for n in self.names if self.on_line(n, self.axis)]
        self.off_axis = [n for n in self.names if n not in set(self.on_axis)]
        self.pos = {name: i for i, name in enumerate(self.names)}
        self.points = pts = [self.coords[name] for name in self.names]
        n = len(pts)
        self.apart = [[False] * n for _ in range(n)]
        self.klass: list[list[Optional[tuple[int, int]]]] = [[None] * n for _ in range(n)]
        self.sq: list[list[Optional[tuple[Optional[tuple[int, int]], float]]]] = \
            [[None] * n for _ in range(n)]
        self.screens: list[list[Optional[tuple]]] = [[None] * n for _ in range(n)]
        screen = sc.screen
        names = self.names
        hom = [self.hom[name] for name in names]
        for i, j in itertools.combinations(range(n), 2):
            p, q = pts[i], pts[j]
            diff = sc.exact_difference(self.ev, names[i], names[j])
            if hom[i] and hom[j]:  # rational points coincide when equal
                self.apart[i][j] = self.apart[j][i] = bool(diff[0] or diff[1])
            else:
                self.apart[i][j] = self.apart[j][i] = not sc.coincident(p, q)
            if diff is None:
                v = sc.vsub(p, q)
                s = sc.sq_norm(v)
                exact = s.as_integer_ratio() if type(s) is Fraction else None
                self.sq[i][j] = (exact, as_float(s))
                x, y = as_float(v[0]), as_float(v[1])
                self.screens[j][i] = screen((x, y))
                self.screens[i][j] = screen((0.0 - x, 0.0 - y))
                continue
            x, y, d = diff
            num, den = x * x + y * y, d * d
            g = math.gcd(num, den)
            self.sq[i][j] = ((num // g, den // g), num / den)
            self.klass[i][j] = self.klass[j][i] = _direction(x, y)
            fx, fy = x / d, y / d
            scale = max(abs(fx), abs(fy), 1.0)
            self.screens[i][j] = (fx, fy, scale)
            self.screens[j][i] = (-x / d, -y / d, scale)
        self.collinear_triples = self._collinear_triples()

    def _collinear_triples(self) -> list[tuple[int, int, int]]:
        """Every index triple i < j < k that scene.points_collinear
        calls collinear, coincident points included, in
        combinations order.  At anchor i, j and k are collinear when
        either coincides with i or they share a class; a pair with a
        classless vector asks the predicate."""
        pts, n = self.points, len(self.points)
        out = []
        for i in range(n):
            row = self.klass[i]
            classes: dict[tuple[int, int], list[int]] = {}
            loose = []
            for j in range(i + 1, n):
                (loose if row[j] is None else classes.setdefault(row[j], [])).append(j)
            zero = classes.pop((0, 0), [])
            found = set()
            for js in classes.values():
                found.update(itertools.combinations(js, 2))
            for j in zero:
                found.update((min(j, k), max(j, k)) for k in range(i + 1, n) if k != j)
            screened = self.screens[i]
            for j in loose:
                for k in range(i + 1, n):
                    if k == j or (k < j and row[k] is None) or row[k] == (0, 0):
                        continue
                    if sc.surely_not_parallel(screened[j], screened[k]):
                        continue
                    a, b = min(j, k), max(j, k)
                    if sc.points_collinear(pts[i], pts[a], pts[b]):
                        found.add((a, b))
            out.extend((i, j, k) for j, k in sorted(found))
        return out

    # The predicates read a rational point's triple, as the scene's
    # rational branches do, and hand any other point to the scene
    # predicate on its coordinates.

    def collinear(self, a: str, b: str, c: str) -> bool:
        ha, hb, hc = self.hom[a], self.hom[b], self.hom[c]
        if ha and hb and hc:
            return sc.hom_collinear(ha, hb, hc)
        return sc.points_collinear(self.coords[a], self.coords[b], self.coords[c])

    def between(self, a: str, m: str, b: str) -> bool:
        ha, hm, hb = self.hom[a], self.hom[m], self.hom[b]
        if ha and hm and hb:
            return sc.hom_between(ha, hm, hb)
        return sc.strictly_between(self.coords[a], self.coords[m], self.coords[b])

    def distinct(self, a: str, b: str) -> bool:
        return self.apart[self.pos[a]][self.pos[b]]

    def on_line(self, p: str, line: sc.Line) -> bool:
        hp = self.hom[p]
        if hp and line.ha and line.hd:
            return sc.hom_on_line(hp, line.ha, line.hd)
        return sc.on_line(self.coords[p], line)

    def perpendicular(self, p: str, q: str, line: sc.Line) -> bool:
        """Is p - q perpendicular to `line`?"""
        d = line.hd
        v = sc.exact_difference(self.ev, q, p) if d else None
        if v:
            return v[0] * d[0] + v[1] * d[1] == 0
        return sc.perpendicular(sc.vsub(self.coords[p], self.coords[q]), line.direction)

    def axis_feet(self, p: str) -> list[str]:
        """Declared points on the axis that are the perpendicular foot
        of p, judged at the witness."""
        return [v for v in self.on_axis
                if self.distinct(p, v) and self.perpendicular(p, v, self.axis)]

    def _axis_product(self, p: str, ref: str, dot: bool) -> float:
        """The dot (else cross) product of the axis direction and p -
        ref, as a float: from the triples, rounded once as float() of
        the exact value is, when both vectors are rational."""
        d, v = self.axis.hd, sc.exact_difference(self.ev, ref, p)
        if d and v:
            n = d[0] * v[0] + d[1] * v[1] if dot else d[0] * v[1] - d[1] * v[0]
            return n / (d[2] * v[2])
        u, v = self.axis.direction, sc.vsub(self.coords[p], self.coords[ref])
        return as_float(sc.dot(u, v) if dot else sc.cross(u, v))

    def axis_side(self, p: str) -> int:
        return 1 if self._axis_product(p, self.model.origin, False) > 0 else -1

    def axis_pos_sign(self, p: str, ref: str) -> int:
        return 1 if self._axis_product(p, ref, True) > 0 else -1

    def ratio_value(self, r: Dim) -> Optional[Scalar]:
        """The ratio's value at the witness; None over a zero length."""
        try:
            return sc.dim_value(self.ev, r)
        except (sc.DivisionByZero, ZeroDivisionError):
            return None


def _parallel(l1: sc.Line, l2: sc.Line) -> bool:
    """scene.lines_parallel, on the direction triples when both are
    rational."""
    u, v = l1.hd, l2.hd
    if u and v:
        return u[0] * v[1] == u[1] * v[0]
    return sc.lines_parallel(l1, l2)


def _direction(x: int, y: int) -> tuple[int, int]:
    """The class of the vector (x, y): over the gcd, first nonzero
    component positive; (0, 0) stays itself."""
    g = math.gcd(x, y)
    if g == 0:
        return 0, 0
    x, y = x // g, y // g
    return (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)


def _chain_triples(w: _Witness) -> list[tuple[str, str, str]]:
    """(end, middle, end) for every strictly-between collinear triple."""
    names, apart = w.names, w.apart
    out = []
    for i, j, k in w.collinear_triples:
        if not (apart[i][j] and apart[j][k] and apart[i][k]):
            continue
        a, b, c = names[i], names[j], names[k]
        if w.between(a, b, c):
            out.append((a, b, c))
        elif w.between(b, a, c):
            out.append((b, a, c))
        elif w.between(a, c, b):
            out.append((a, c, b))
    return out


def _right_angles(w: _Witness) -> list[tuple[str, str, str]]:
    """(corner, p, r), p declared before r, for every right angle at a
    corner of three distinct points, in the order of the triple in
    combinations order and then of the corner within it.  At a corner,
    classes meet at a right angle when each is the other turned by 90
    degrees; a classless vector asks scene.perpendicular."""
    pts, n, apart = w.points, len(w.points), w.apart
    found = []
    for c in range(n):
        row = w.klass[c]
        classes: dict[tuple[int, int], list[int]] = {}
        loose = []
        for x in range(n):
            if x != c and apart[c][x]:
                (loose if row[x] is None else classes.setdefault(row[x], [])).append(x)
        for k, ps in classes.items():
            turned = _direction(-k[1], k[0])
            if k < turned:
                found.extend((c, min(p, r), max(p, r))
                             for p in ps for r in classes.get(turned, ()))
        others = [x for xs in classes.values() for x in xs]
        for p in loose:
            for r in others + [x for x in loose if x > p]:
                a, b = min(p, r), max(p, r)
                if not apart[a][b]:
                    continue
                if sc.surely_not_perpendicular(w.screens[c][a], w.screens[c][b]):
                    continue
                if sc.perpendicular(sc.vsub(pts[a], pts[c]), sc.vsub(pts[b], pts[c])):
                    found.append((c, a, b))
    # corners of triple (a, b, c) come in the order a, b, c
    found.sort(key=lambda t: (*sorted(t), sorted(t).index(t[0])))
    return [(w.names[c], w.names[p], w.names[r]) for c, p, r in found]


# ---------------------------------------------------------------------------
# the rules


def segment_chain_rule(w: _Witness, ratio_dims: tuple[Dim, ...] = ()) -> list[Hyperedge]:
    """Lengths add along a line.  For each strictly-between triple
    (P, M, Q) emit the three add/subtract edges.  When ratio dimensions
    are supplied, also copy each onto the ratio whose numerator is
    rewritten as an origin-anchored difference (AF becomes OA - OF),
    which prepares ratio solving; a ratio over a zero length at the
    witness is left out."""
    edges: list[Optional[Hyperedge]] = []
    for a, m, b in _chain_triples(w):
        am, mb, ab = length(a, m), length(m, b), length(a, b)
        just = f"{m} lies between {a} and {b} on a straight line"
        edges.append(_edge([am, mb], ab, "segment-chain", just, ("add", am, mb)))
        edges.append(_edge([ab, am], mb, "segment-chain", just, ("sub", ab, am)))
        edges.append(_edge([ab, mb], am, "segment-chain", just, ("sub", ab, mb)))
    origin = w.model.origin
    for r in ratio_dims:
        if r.kind != "ratio" or r.num.kind != "length":
            continue
        p1, p2 = r.num.points
        if origin in (p1, p2):
            continue
        if not (w.distinct(origin, p1) and w.distinct(origin, p2)):
            continue
        if not w.collinear(origin, p1, p2):
            continue
        if w.between(origin, p1, p2):
            near, far = p1, p2
        elif w.between(origin, p2, p1):
            near, far = p2, p1
        else:
            continue  # origin lies inside the segment; no difference form
        if w.ratio_value(r) is None:
            continue
        comp = composite((origin, far), (origin, near))
        # the composite's display opens with "(", so it is the numerator
        just = (f"{r.num.display} equals {''.join(comp.far)} minus "
                f"{''.join(comp.near)} along the reference axis")
        edges.append(_edge([r], make_ratio(comp, r.den), "segment-chain", just,
                           ("copy", r), subpriority=1))
    return [e for e in edges if e is not None]


def parallel_transfer_rule(w: _Witness) -> list[Hyperedge]:
    """Perpendicular offsets between the same two parallel carriers are
    equal, so either transfers to the other."""
    carriers = w.ev.carriers
    on = [[u for u in w.names if w.on_line(u, line)] for line in carriers]
    edges: list[Optional[Hyperedge]] = []
    for (i1, l1), (i2, l2) in itertools.combinations(enumerate(carriers), 2):
        if not _parallel(l1, l2):
            continue
        offsets = [(u, v) for u in on[i1] for v in on[i2]
                   if u != v and w.distinct(u, v)
                   and w.perpendicular(u, v, l1)]
        for (u1, v1), (u2, v2) in itertools.combinations(offsets, 2):
            d1, d2 = length(u1, v1), length(u2, v2)
            if d1 == d2:
                continue
            just = (f"{u1}{v1} and {u2}{v2} are perpendicular offsets "
                    f"between the same parallel lines")
            edges.append(_edge([d1], d2, "parallel-transfer", just, ("copy", d1)))
            edges.append(_edge([d2], d1, "parallel-transfer", just, ("copy", d2)))
    return [e for e in edges if e is not None]


def pythagoras_rule(w: _Witness) -> list[Hyperedge]:
    """Right angles detected at the witness give the three Pythagoras
    edges per triple; point pairs with declared feet on the reference
    axis additionally give the four-source distance-formula edge."""
    edges: list[Optional[Hyperedge]] = []
    for corner, p, r in _right_angles(w):
        leg1, leg2 = length(corner, p), length(corner, r)
        hyp = length(p, r)
        just = f"the angle at {corner} in triangle {p}{corner}{r} is a right angle"
        edges.append(_edge([leg1, leg2], hyp, "pythagoras", just,
                           ("pyth_hyp", leg1, leg2)))
        edges.append(_edge([hyp, leg1], leg2, "pythagoras", just,
                           ("pyth_leg", hyp, leg1)))
        edges.append(_edge([hyp, leg2], leg1, "pythagoras", just,
                           ("pyth_leg", hyp, leg2)))
    edges.extend(_distance_formula(w))
    return [e for e in edges if e is not None]


def _distance_formula(w: _Witness) -> list[Optional[Hyperedge]]:
    origin = w.model.origin
    edges: list[Optional[Hyperedge]] = []
    feet = {u: w.axis_feet(u) for u in w.off_axis}
    side = {u: w.axis_side(u) for u in w.off_axis}
    for u1, u2 in itertools.combinations(w.off_axis, 2):
        if not w.distinct(u1, u2):
            continue
        if side[u1] != side[u2]:
            continue
        for v1 in feet[u1]:
            for v2 in feet[u2]:
                if v1 == v2 or not w.distinct(v1, v2):
                    continue
                if origin in (v1, v2):
                    continue
                if not (w.distinct(origin, v1) and w.distinct(origin, v2)):
                    continue
                if w.axis_pos_sign(v1, origin) != w.axis_pos_sign(v2, origin):
                    continue
                d1, d2 = length(origin, v1), length(origin, v2)
                o1, o2 = length(u1, v1), length(u2, v2)
                target = length(u1, u2)
                just = (f"{u1} and {u2} stand over the reference axis at "
                        f"feet {v1} and {v2} with known offsets")
                edges.append(_edge([d1, d2, o1, o2], target, "distance-formula",
                                   just, ("dist4", d1, d2, o1, o2)))
    return edges


_PERMS = tuple(itertools.permutations(range(3)))

# side k of a triangle joins its corners _SIDES[k]
_SIDES = tuple(itertools.combinations(range(3), 2))

# a triangle with a side that is not rational is compared by its shape
# bucket, which bins the ratios of its two smaller squared sides to the
# largest at this width, with the triangles in its own and the
# neighbouring buckets
_SHAPE_BIN = 1e-6
_NEIGHBOURS = tuple(itertools.product((-1, 0, 1), repeat=2))


def similar_triangles_rule(w: _Witness) -> list[Hyperedge]:
    """Triangle pairs whose sides are proportional at the witness.  A
    triangle whose three squared sides are rational falls into the
    exact class of its shape (`_shape`): every two triangles of a class
    are similar, under each correspondence that maps equal sides.  Any
    other triangle is compared, on floats, with the triangles of its
    own and the neighbouring shape buckets.

    Per corresponding side pair the rule emits the fused edges (the
    sides of one triangle give the other's ratio directly) and, once
    per ratio, the multiply-through edges that turn the ratio plus one
    side into the other side.  No edge builds a ratio from its own
    triangle's sides or copies one triangle's ratio onto the other's:
    the fused edge reaches each ratio in one step from sides as basic,
    and no proof took those edges.  Pairs are emitted in point-triple
    scan order, which picks the justification finalize keeps among
    tied edges."""
    sq = w.sq
    flat = set(w.collinear_triples)
    # (corner indices, floats of the squared sides facing them, shape)
    tris: list[tuple[tuple[int, int, int], tuple, Optional[tuple]]] = []
    classes: dict[tuple[int, int, int], list[int]] = {}
    loose: list[int] = []
    for t in itertools.combinations(range(len(w.names)), 3):
        if t in flat:
            continue
        a, b, c = t
        (ea, fa), (eb, fb), (ec, fc) = sq[b][c], sq[a][c], sq[a][b]
        if ea and eb and ec:
            shape = _shape(ea, eb, ec)
            classes.setdefault(tuple(sorted(shape)), []).append(len(tris))
        else:
            shape = None
            loose.append(len(tris))
        tris.append((t, (fa, fb, fc), shape))
    matches = []
    for members in classes.values():
        for i, j in itertools.combinations(members, 2):
            s1, s2 = tris[i][2], tris[j][2]
            matches.extend((i, j, p) for p in _PERMS if s1[0] == s2[p[0]]
                           and s1[1] == s2[p[1]] and s1[2] == s2[p[2]])
    if loose:
        matches.extend(_bucket_matches(tris, loose))
    matches.sort()
    edges: list[Hyperedge] = []
    ratios: set[Dim] = set()
    sides: dict[int, _TriangleSides] = {}
    for (i, j), group in itertools.groupby(matches, key=operator.itemgetter(0, 1)):
        for k in (i, j):
            if k not in sides:
                sides[k] = _TriangleSides([w.names[c] for c in tris[k][0]])
        perms = [m[2] for m in group]
        if len(perms) == 1:
            _similarity_edges(sides[i], sides[j], perms[0], ratios, edges)
            continue
        # a pair similar under several correspondences may give one
        # fused edge twice, and finalize would keep only the first; no
        # other pair gives it, as its sources name one triangle and its
        # target the other
        found: list[Hyperedge] = []
        for perm in perms:
            _similarity_edges(sides[i], sides[j], perm, ratios, found)
        emitted: set = set()
        for e in found:
            k = (e.sources, e.target, e.recipe, e.subpriority)
            if k not in emitted:
                emitted.add(k)
                edges.append(e)
    return edges


def _shape(s1: tuple[int, int], s2: tuple[int, int], s3: tuple[int, int]
           ) -> tuple[int, int, int]:
    """Three rational squared sides, each a (numerator, denominator)
    pair, scaled to the coprime integers proportional to them.  Two
    triangles' sides are proportional exactly when their shapes are
    equal."""
    (n1, d1), (n2, d2), (n3, d3) = s1, s2, s3
    lcm = math.lcm(d1, d2, d3)
    x1, x2, x3 = n1 * (lcm // d1), n2 * (lcm // d2), n3 * (lcm // d3)
    g = math.gcd(x1, x2, x3)
    return x1 // g, x2 // g, x3 // g


def _bucket_matches(tris: list, loose: list[int]) -> list[tuple[int, int, tuple]]:
    """(i, j, perm), i < j, for each pair with a triangle of `loose`
    whose sides are proportional under perm by `_proportional`, the
    pair taken when their shape buckets are neighbours."""
    buckets: dict[tuple[int, int], list[int]] = {}
    keys = []
    for i, (_, floats, _) in enumerate(tris):
        lo, mid, hi = sorted(floats)
        key = (int(lo / hi // _SHAPE_BIN), int(mid / hi // _SHAPE_BIN))
        buckets.setdefault(key, []).append(i)
        keys.append(key)
    out = []
    for j in loose:
        kx, ky = keys[j]
        for dx, dy in _NEIGHBOURS:
            for i in buckets.get((kx + dx, ky + dy), ()):
                # a pair of loose triangles is taken from its later one
                if i == j or (i > j and not tris[i][2]):
                    continue
                lo, hi = (i, j) if i < j else (j, i)
                out.extend((lo, hi, perm) for perm in _PERMS
                           if _proportional(tris[lo], tris[hi], perm))
    return out


def _proportional(tri1: tuple, tri2: tuple, perm: tuple[int, int, int]) -> bool:
    """Is side i of tri1 to side perm[i] of tri2 the same ratio for
    every i, on the floats of the squared sides within a relative 1e-9?"""
    f1, f2 = tri1[1], tri2[1]
    a0, b0 = f1[0], f2[perm[0]]
    return (math.isclose(f1[1] * b0, a0 * f2[perm[1]], rel_tol=1e-9)
            and math.isclose(f1[2] * b0, a0 * f2[perm[2]], rel_tol=1e-9))


class _TriangleSides:
    """A matched triangle's side dims, in `_SIDES` order, and for each
    two sides, in `_SIDES` order of side indices, their ratio and their
    `_ordered` pair: interned once per triangle, not once per edge."""

    __slots__ = ("name", "dims", "ratio", "pair")

    def __init__(self, t: list[str]):
        self.name = "".join(t)
        self.dims = dims = tuple(length(t[a], t[b]) for a, b in _SIDES)
        self.ratio = tuple(make_ratio(dims[k], dims[l]) for k, l in _SIDES)
        self.pair = tuple(_ordered((dims[k], dims[l])) for k, l in _SIDES)


def _facing(perm: tuple[int, int, int]) -> tuple:
    """For each two sides (k, l) of one triangle, in `_SIDES` order,
    under the vertex correspondence perm: the sides (m, n) of the other
    triangle they face, and the index of {m, n} in `_SIDES`."""
    side = [_SIDES.index(tuple(sorted((perm[a], perm[b])))) for a, b in _SIDES]
    return tuple((k, l, side[k], side[l], _SIDES.index(tuple(sorted((side[k], side[l])))))
                 for k, l in _SIDES)


_FACING = {perm: _facing(perm) for perm in _PERMS}


def _similarity_edges(t1: _TriangleSides, t2: _TriangleSides,
                      perm: tuple[int, int, int], ratios: set[Dim],
                      out: list[Hyperedge]) -> None:
    """Append a matched pair's fused edges, and the mul-through edges,
    which depend on the ratio alone, of each ratio not yet in `ratios`."""
    just = f"triangle {t1.name} is similar to triangle {t2.name}"
    d1, d2 = t1.dims, t2.dims
    for q1, (k, l, m, n, q2) in enumerate(_FACING[perm]):
        r1, r2 = t1.ratio[q1], t2.ratio[q2]
        if r1 is not r2:
            # fused: one triangle's sides give the other's ratio
            s1, u1, s2, u2 = d1[k], d1[l], d2[m], d2[n]
            out.append(Hyperedge(t1.pair[q1], r2, "similar-triangles", just,
                                 ("div", s1, u1) if r2.num is s2 else ("div", u1, s1)))
            out.append(Hyperedge(t2.pair[q2], r1, "similar-triangles", just,
                                 ("div", s2, u2) if r1.num is s1 else ("div", u2, s2)))
        if r1 not in ratios:
            _mul_through(r1, ratios, out)
        if r2 not in ratios:
            _mul_through(r2, ratios, out)


def _mul_through(r: Dim, ratios: set[Dim], out: list[Hyperedge]) -> None:
    """The two edges that turn the ratio of two sides plus one of them
    into the other.  A ratio's display holds a slash and a length's
    none, so the two never tie in display order."""
    ratios.add(r)
    num, den = r.num, r.den
    out.append(Hyperedge((r, den) if r.display < den.display else (den, r), num,
                         "similar-triangles",
                         f"the ratio {r.display} and the side {den.display} "
                         f"determine {num.display}", ("mul", r, den), 1))
    out.append(Hyperedge((r, num) if r.display < num.display else (num, r), den,
                         "similar-triangles",
                         f"the ratio {r.display} and the side {num.display} "
                         f"determine {den.display}", ("div", num, r), 1))


def line_circle_rule(w: _Witness) -> list[Hyperedge]:
    """Points cut from a line by a circle whose center sits on the
    reference axis.  When the line is anchored on the axis and aimed at
    an off-axis point with a declared foot, the intersection parameter
    solves a quadratic whose coefficients are known lengths, which
    prices both the cut point's axis position and its height."""
    model = w.model
    edges: list[Optional[Hyperedge]] = []
    on_axis = set(w.on_axis)
    named = {s.name: s.payload for s in model.constructions
             if s.kind == "line-construction"}
    for stmt in model.constructions:
        if stmt.kind != "point-construction" or not isinstance(stmt.payload, dsl.MeetCircle):
            continue
        pe = stmt.payload
        z = stmt.name
        anchor_pair = _line_point_pair(pe.line, named)
        if anchor_pair is None:
            continue
        p, q = anchor_pair
        center = pe.center
        if p not in on_axis or center not in on_axis or q in on_axis or z in on_axis:
            continue
        if not (w.distinct(p, q) and w.distinct(p, center)):
            continue
        radius_dim = _radius_dim(pe.radius, w.scene)
        if radius_dim is None:
            continue
        qfeet = w.axis_feet(q)
        zfeet = w.axis_feet(z)
        if not qfeet or not zfeet:
            continue
        mode = _pick_mode(pe.pick, p, q)
        if mode is None:
            continue
        fq = qfeet[0]
        nz = zfeet[0]
        if fq == p or nz == p or not w.distinct(fq, p) or not w.distinct(nz, p):
            continue
        # sign of (Q-P).(P-C): the quadratic's linear coefficient is
        # 2*s*PF*PC with both factors positive lengths
        s = w.axis_pos_sign(q, p) * w.axis_pos_sign(p, center)
        pq, pc = length(p, q), length(p, center)
        pf, qf = length(p, fq), length(q, fq)
        just = (f"{z} is cut from the line {p}{q} by the circle about "
                f"{center} with radius {radius_dim.display}")
        foot_target = length(p, nz)
        edges.append(_edge([pq, pc, pf, radius_dim], foot_target, "line-circle", just,
                           ("lc", pq, pc, pf, radius_dim, None, s, mode, "foot")))
        perp_target = length(z, nz)
        edges.append(_edge([pq, pc, pf, radius_dim, qf], perp_target, "line-circle", just,
                           ("lc", pq, pc, pf, radius_dim, qf, s, mode, "perp")))
    return [e for e in edges if e is not None and residual(e, w.ev) <= VALIDATION_TOL]


def _line_point_pair(arg: dsl.LineArg, named: dict[str, dsl.LineArg]
                     ) -> Optional[tuple[str, str]]:
    """The two points a line is drawn through, reading a named line
    from `named`; None for a parallel."""
    if isinstance(arg, dsl.LineRef):
        arg = named.get(arg.name)
    if isinstance(arg, (dsl.ThroughPoints, dsl.ExtendRay)):
        return (arg.p, arg.q)
    return None


def _radius_dim(radius: dsl.Expr, scene_: sc.Scene) -> Optional[Dim]:
    """The radius as a dim: len(P,Q), or the length a bare parameter measures."""
    kinds = dsl.ARGS.get(type(radius))
    names = [name for name, _, _ in dsl.refs(radius)]
    if kinds == ("point", "point") and names[0] != names[1]:
        return length(*names)
    if kinds == ("param",):
        for param, pair in scene_.param_dims:
            if param == names[0]:
                return length(*pair)
    return None


_PICK_WORDS = {cls: word for word, cls in dsl.PICK_KEYWORDS.items()}


def _pick_mode(pick: dsl.Pick, p: str, q: str) -> Optional[str]:
    """The recipe's root: "first", "second", or "unit" within the segment PQ."""
    word = _PICK_WORDS[type(pick)]
    if word in ("first", "second"):
        return word
    if word == "within_segment" and {n for n, _, _ in dsl.refs(pick)} == {p, q}:
        return "unit"
    return None


def ratio_solve_rule(w: _Witness, ratio_dims: tuple[Dim, ...],
                     known: set[Dim]) -> list[Hyperedge]:
    """A plain/composite ratio pair that is linear in two unknown
    lengths solves for both (2x2 elimination).  Every plain ratio comes
    from similar_triangles_rule, which already emits the edges that
    turn the ratio plus one side into the other side.  Ratios are read
    in the order given; only a matched pair is valued at the witness,
    and a ratio over a zero length there is left out.  A pair solves
    only for a sum whose length `known`, the pool's dimensions, holds."""
    edges: list[Optional[Hyperedge]] = []
    plain: dict[frozenset, list[Dim]] = {}  # by {num, den}
    comps = []
    for r in ratio_dims:
        if r.kind != "ratio" or r.den.kind != "length":
            continue
        if r.num.kind == "length":
            plain.setdefault(frozenset((r.num, r.den)), []).append(r)
        elif r.num.kind == "composite":
            comps.append(r)
    for r2 in comps:
        m_dim = length(*r2.num.far)
        s_dim = length(*r2.num.near)
        z_dim = r2.den
        if m_dim not in known:
            continue
        if s_dim == z_dim:
            continue
        group = plain.get(frozenset((s_dim, z_dim)), ())
        v2 = w.ratio_value(r2) if group else None
        if v2 is None:
            continue
        for r1 in group:
            v1 = w.ratio_value(r1)
            if v1 is None:
                continue
            r1_num_is_s = r1.num == s_dim
            # unknowns S and Z: S + r2*Z = M, and S = r1*Z or Z = r1*S
            det = add(v1, v2) if r1_num_is_s else add(Fraction(1), mul(v1, v2))
            if abs(as_float(det)) < 1e-9:
                continue  # singular at the witness; not solvable
            just = (f"solve {s_dim.display} and {z_dim.display} from "
                    f"{r1.display} and {r2.display} given {m_dim.display}")
            srcs = [r1, r2, m_dim]
            edges.append(_edge(srcs, s_dim, "ratio-solve", just,
                               ("solve2", r1, r2, m_dim, r1_num_is_s, "S")))
            edges.append(_edge(srcs, z_dim, "ratio-solve", just,
                               ("solve2", r1, r2, m_dim, r1_num_is_s, "Z")))
    return [e for e in edges if e is not None]


# ---------------------------------------------------------------------------
# recipe execution


def apply_edge(edge: Hyperedge, values: dict[Dim, Scalar]) -> Scalar:
    """Compute the edge's target from source values by its formula."""
    try:
        return _apply(edge.recipe, values)
    except ZeroDivisionError:
        raise NumericFailure(f"division by zero computing {edge.target.display}") from None
    except ValueError:
        raise NumericFailure(f"negative radicand computing {edge.target.display}") from None


def _apply(recipe: tuple, v: dict[Dim, Scalar]) -> Scalar:
    op = recipe[0]
    if op == "copy":
        return v[recipe[1]]
    if op == "add":
        return add(v[recipe[1]], v[recipe[2]])
    if op == "sub":
        out = sub(v[recipe[1]], v[recipe[2]])
        if as_float(out) < 0:
            raise NumericFailure("length difference came out negative")
        return out
    if op == "mul":
        return mul(v[recipe[1]], v[recipe[2]])
    if op == "div":
        return div(v[recipe[1]], v[recipe[2]])
    if op == "pyth_hyp":
        a, b = v[recipe[1]], v[recipe[2]]
        return sqrt_scalar(add(mul(a, a), mul(b, b)))
    if op == "pyth_leg":
        c, a = v[recipe[1]], v[recipe[2]]
        rad = sub(mul(c, c), mul(a, a))
        if as_float(rad) < 0:
            raise NumericFailure("hypotenuse shorter than a leg")
        return sqrt_scalar(rad)
    if op == "dist4":
        d1, d2 = v[recipe[1]], v[recipe[2]]
        o1, o2 = v[recipe[3]], v[recipe[4]]
        dd, oo = sub(d1, d2), sub(o1, o2)
        return sqrt_scalar(add(mul(dd, dd), mul(oo, oo)))
    if op == "solve2":
        return _apply_solve2(recipe, v)
    if op == "lc":
        return _apply_line_circle(recipe, v)
    raise AssertionError(f"unknown recipe op {op!r}")


def _apply_solve2(recipe: tuple, v: dict[Dim, Scalar]) -> Scalar:
    _, r1d, r2d, md, r1_num_is_s, want = recipe
    r1, r2, m = v[r1d], v[r2d], v[md]
    if r1_num_is_s:
        # S = r1*Z and S + r2*Z = M  =>  Z = M/(r1+r2)
        det = add(r1, r2)
        if as_float(det) == 0:
            raise NumericFailure("singular ratio system")
        z = div(m, det)
        s = mul(r1, z)
    else:
        # Z = r1*S and S + r2*Z = M  =>  S = M/(1+r1*r2)
        det = add(Fraction(1), mul(r1, r2))
        if as_float(det) == 0:
            raise NumericFailure("singular ratio system")
        s = div(m, det)
        z = mul(r1, s)
    out = s if want == "S" else z
    if as_float(out) < 0:
        raise NumericFailure("ratio system solved to a negative length")
    return out


def _apply_line_circle(recipe: tuple, v: dict[Dim, Scalar]) -> Scalar:
    _, pqd, pcd, pfd, rd, qfd, s, mode, which = recipe
    pq, pc, pf, r = v[pqd], v[pcd], v[pfd], v[rd]
    qa = mul(pq, pq)
    qb = mul(Fraction(2 * s), mul(pc, pf))
    qc = sub(mul(pc, pc), mul(r, r))
    disc = sub(mul(qb, qb), mul(mul(Fraction(4), qa), qc))
    if as_float(disc) < 0:
        raise NumericFailure("line misses the circle at this sample")
    t1, t2 = sc.quadratic_roots(qa, qb, disc)
    if mode == "first":
        t = t1
    elif mode == "second":
        t = t2
    else:
        inside = [t for t in (t1, t2) if 0 < as_float(t) < 1]
        if len(inside) != 1:
            raise NumericFailure("root selection inside the segment is ambiguous")
        t = inside[0]
    if as_float(t) < 0:
        t = sub(Fraction(0), t)
    return mul(t, pf if which == "foot" else v[qfd])


# ---------------------------------------------------------------------------
# discovery and cross-sample validation


def discover(scene_: sc.Scene, figure: sc.Evaluation) -> list[Hyperedge]:
    """Union of all rule outputs at `figure`, an evaluation of
    `scene_`, deduplicated and in the pool order of `finalize`.

    One pass suffices: the segment chains rewrite the plain ratios the
    other rules produced, ratio solving then reads those rewrites, and
    it only targets lengths, which feed neither step again."""
    w = _Witness(scene_, figure)
    pool = [*parallel_transfer_rule(w), *pythagoras_rule(w),
            *similar_triangles_rule(w), *line_circle_rule(w)]
    dims = _mentioned(pool)
    chain = segment_chain_rule(w, ratio_dims=_ratios(dims))
    dims |= _mentioned(chain)
    pool.extend(chain)
    pool.extend(ratio_solve_rule(w, _ratios(dims), dims))
    return finalize(pool)


def _mentioned(edges: list[Hyperedge]) -> set[Dim]:
    """Every dimension the edges mention, as a source or a target."""
    dims = set(map(_target, edges))
    dims.update(*map(_sources, edges))
    return dims


def _ratios(dims: set[Dim]) -> tuple[Dim, ...]:
    """The ratios among the dims, by display."""
    return tuple(sorted((d for d in dims if d.kind == "ratio"), key=_display))


# how many samples of the run's stream a run reads by default: validation
# replays every edge at each, and the verdict checks the claim at each;
# and the relative error an edge or the claim may show there
VALIDATION_SAMPLES = 20
VALIDATION_TOL = 1e-9


def validate_edges(edges: list[Hyperedge], stream: sc.SampleStream
                   ) -> list[Hyperedge]:
    """Replay every edge at each sample of the run's stream, the ones
    the verdict reads, and drop any whose residual exceeds
    VALIDATION_TOL; this is what catches relations that only held by
    coincidence at the witness.  Growth hands it the focused schedule's
    edges, and after a failure the first edge to reach each node, never
    one edge twice.  Each dimension is valued and squared once per
    sample, so validating edges piece by piece costs no more than all
    at once."""
    kept = list(edges)
    for _, _, ev in stream:
        kept = [e for e in kept if _replays(e, ev)]
    return kept


# recipe ops whose relation between exact positive values is one
# between their squares, checked by _holds_on_squares
_SQUARE_OPS = frozenset({"copy", "div", "mul", "pyth_hyp", "pyth_leg"})


def residual(e: Hyperedge, ev: sc.Evaluation) -> float:
    """How far the edge misses its target's value from its sources', at
    one evaluation: 0.0 when the relation holds exactly on squared
    values, inf when the recipe cannot run there, and otherwise the
    relative error of the Scalar replay."""
    if _holds_on_squares(e, ev):
        return 0.0
    try:
        target = sc.dim_value(ev, e.target)
        sources = {d: sc.dim_value(ev, d) for d in e.sources}
        got = apply_edge(e, sources)
    except (NumericFailure, sc.GeometryError, ZeroDivisionError):
        return math.inf
    return rel_err(got, target)


def _replays(e: Hyperedge, ev: sc.Evaluation) -> bool:
    """Does the edge reproduce its target's value from its sources'?"""
    return residual(e, ev) <= VALIDATION_TOL


def _holds_on_squares(e: Hyperedge, ev: sc.Evaluation) -> bool:
    """Is the edge's relation exactly true on the squared values of its
    target and sources, checked by integer cross-multiplication?  Only
    for the ops of _SQUARE_OPS, only when the recipe reads every source,
    and only when every value involved is exact and positive; there
    exactnum computes the recipe exactly, so the Scalar replay would
    find its result equal to the target.  False means "not decided
    here", never "drop"."""
    recipe = e.recipe
    op = recipe[0]
    # the recipe's operands are among the sources, so equal counts mean
    # they are the sources
    if op not in _SQUARE_OPS or len(e.sources) != len(recipe) - 1:
        return False
    square = sc.dim_square
    t = square(ev, e.target)
    a = square(ev, recipe[1])
    if not t or not a:
        return False
    nt, dt = t
    na, da = a
    if op == "copy":  # t = a
        return na * dt == nt * da
    b = square(ev, recipe[2])
    if not b:
        return False
    nb, db = b
    if op == "div":  # t = a/b
        return na * dt * db == nt * nb * da
    if op == "mul":  # t = a*b
        return na * nb * dt == nt * da * db
    if op == "pyth_hyp":  # t^2 = a^2 + b^2
        return nt * da * db == dt * (na * db + nb * da)
    return nt * da * db == dt * (na * db - nb * da)  # pyth_leg: t^2 = a^2 - b^2
