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
predicates.  Relations are detected at a single witness sample;
spurious coincidences are culled by replaying the edges a proof uses
at every sample of the run's scene.SampleStream, the verdict's: those
of the focused schedule, and after a failure those that number the
nodes (validate_edges, called from graph.grow_detailed).  A replay
whose values are all exact and positive first checks the edge's
relation on squared values by integer cross-multiplication; every
other replay, and every one that check does not confirm, recomputes
the target on the Scalar arithmetic.

Positions along the reference axis are always measured from the
origin point; feet are declared points, never invented ones.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Optional
from weakref import WeakValueDictionary

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

    def __repr__(self) -> str:
        return f"Dim({self.display})"


_DIMS: "WeakValueDictionary[tuple, Dim]" = WeakValueDictionary()


def _intern(kind: str, points: tuple[str, str] = (), num: Optional[Dim] = None,
            den: Optional[Dim] = None, far: tuple[str, str] = (),
            near: tuple[str, str] = ()) -> Dim:
    key = (kind, points, num, den, far, near)
    d = _DIMS.get(key)
    if d is None:
        if kind == "length":
            display = "".join(points)
        elif kind == "ratio":
            display = f"{num.display}/{den.display}"
        else:
            display = f"({''.join(far)}-{''.join(near)})"
        d = _DIMS[key] = Dim(kind, points, num, den, far, near, display)
    return d


def length(p: str, q: str) -> Dim:
    if p == q:
        raise ValueError(f"length needs two distinct points, got {p!r} twice")
    return _intern("length", points=(p, q) if p < q else (q, p))


def composite(far: tuple[str, str], near: tuple[str, str]) -> Dim:
    return _intern("composite", far=tuple(sorted(far)), near=tuple(sorted(near)))


def make_ratio(a: Dim, b: Dim) -> Dim:
    """Canonical ratio of two dimensions: operands ordered by display
    name, so composites always land in the numerator."""
    if a.display == b.display:
        raise ValueError("ratio of a dimension with itself")
    if a.display < b.display:
        return _intern("ratio", num=a, den=b)
    return _intern("ratio", num=b, den=a)


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


def _edge(sources, target, rule, justification, recipe, subpriority=0):
    srcs = tuple(sorted(set(sources), key=_display))
    if target in srcs or not srcs:
        return None
    return Hyperedge(sources=srcs, target=target, rule=rule,
                     justification=justification, recipe=recipe,
                     subpriority=subpriority)


def _recipe_key(recipe: tuple) -> tuple:
    out = []
    for item in recipe:
        out.append(item.display if isinstance(item, Dim) else str(item))
    return tuple(out)


def _sort_key(e: Hyperedge):
    return (PRIORITY[e.rule], e.subpriority, e.target.display,
            tuple(map(_display, e.sources)), _recipe_key(e.recipe))


def finalize(edges: list[Hyperedge]) -> list[Hyperedge]:
    """The edges in `_sort_key` order, the first of each `key()` kept.
    This pool order is the only order between edges: growth lists the
    edges it admits in it, and the schedule takes each node's first."""
    ordered = sorted((e for e in edges if e is not None), key=_sort_key)
    seen: set = set()
    out: list[Hyperedge] = []
    for e in ordered:
        k = e.key()
        if k not in seen:
            seen.add(k)
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# witness context


class _Witness:
    """One evaluated sample and the point-pair index every rule of a
    discover call reads.

    Points are indexed in declaration order.  For each pair i < j the
    index holds whether the points are distinct (`apart`, one
    scene.coincident call per pair), the squared distance (`sq`: its
    numerator and denominator in lowest terms when rational, and its
    float) and the direction class of the difference (`klass`): its
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

    def __init__(self, model: dsl.HypothesisModel, scene_: sc.Scene,
                 witness: sc.ParamAssignment):
        self.model = model
        self.scene = scene_
        self.ev = sc.evaluate(scene_, witness)
        self.names: list[str] = list(self.ev.points)
        self.coords = self.ev.points
        origin = self.coords[model.origin]
        base = self.coords[model.base_point]
        self.axis = sc.Line(origin, sc.vsub(base, origin))
        self.on_axis = [n for n in self.names if sc.on_line(self.coords[n], self.axis)]
        self.off_axis = [n for n in self.names if n not in set(self.on_axis)]
        self.pos = {name: i for i, name in enumerate(self.names)}
        self.points = pts = [self.coords[name] for name in self.names]
        n = len(pts)
        self.apart = [[False] * n for _ in range(n)]
        self.klass: list[list[Optional[tuple[int, int]]]] = [[None] * n for _ in range(n)]
        self.sq: dict[tuple[int, int], tuple[Optional[tuple[int, int]], float]] = {}
        self.screens: list[list[Optional[tuple]]] = [[None] * n for _ in range(n)]
        screen = sc.screen
        names = self.names
        for i, j in itertools.combinations(range(n), 2):
            p, q = pts[i], pts[j]
            self.apart[i][j] = self.apart[j][i] = not sc.coincident(p, q)
            diff = sc.exact_difference(self.ev, names[i], names[j])
            if diff is None:
                v = sc.vsub(p, q)
                s = sc.sq_norm(v)
                exact = s.as_integer_ratio() if type(s) is Fraction else None
                self.sq[i, j] = (exact, as_float(s))
                x, y = as_float(v[0]), as_float(v[1])
                self.screens[j][i] = screen((x, y))
                self.screens[i][j] = screen((0.0 - x, 0.0 - y))
                continue
            x, y, d = diff
            num, den = x * x + y * y, d * d
            g = math.gcd(num, den)
            self.sq[i, j] = ((num // g, den // g), num / den)
            self.klass[i][j] = self.klass[j][i] = _direction(x, y)
            self.screens[i][j] = screen((x / d, y / d))
            self.screens[j][i] = screen((-x / d, -y / d))
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

    def collinear(self, a: str, b: str, c: str) -> bool:
        return sc.points_collinear(self.coords[a], self.coords[b], self.coords[c])

    def between(self, a: str, m: str, b: str) -> bool:
        return sc.strictly_between(self.coords[a], self.coords[m], self.coords[b])

    def distinct(self, a: str, b: str) -> bool:
        return self.apart[self.pos[a]][self.pos[b]]

    def axis_feet(self, p: str) -> list[str]:
        """Declared points on the axis that are the perpendicular foot
        of p, judged at the witness."""
        pc = self.coords[p]
        out = []
        for v in self.on_axis:
            if not self.distinct(p, v):
                continue
            if sc.perpendicular(sc.vsub(pc, self.coords[v]), self.axis.direction):
                out.append(v)
        return out

    def axis_side(self, p: str) -> int:
        c = sc.cross(self.axis.direction, sc.vsub(self.coords[p], self.axis.anchor))
        return 1 if as_float(c) > 0 else -1

    def axis_pos_sign(self, p: str, ref: str) -> int:
        d = sc.dot(self.axis.direction, sc.vsub(self.coords[p], self.coords[ref]))
        return 1 if as_float(d) > 0 else -1

    def value(self, dim: Dim) -> Scalar:
        return sc.dim_value(self.ev, dim)


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
    which prepares ratio solving."""
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
    edges: list[Optional[Hyperedge]] = []
    for l1, l2 in itertools.combinations(carriers, 2):
        if not sc.lines_parallel(l1, l2):
            continue
        offsets = []
        for u in w.names:
            cu = w.coords[u]
            if not sc.on_line(cu, l1):
                continue
            for v in w.names:
                cv = w.coords[v]
                if u == v or not sc.on_line(cv, l2) or not w.distinct(u, v):
                    continue
                if sc.perpendicular(sc.vsub(cu, cv), l1.direction):
                    offsets.append((u, v))
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
    for u1, u2 in itertools.combinations(w.off_axis, 2):
        if not w.distinct(u1, u2):
            continue
        if w.axis_side(u1) != w.axis_side(u2):
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


# a triangle's shape bucket bins the ratios of its two smaller squared
# sides to the largest at this width
_SHAPE_BIN = 1e-6

_PERMS = tuple(itertools.permutations(range(3)))


def similar_triangles_rule(w: _Witness) -> list[Hyperedge]:
    """Triangle pairs whose sides are proportional at the witness, each
    triangle compared only with those in its own or a neighbouring shape
    bucket.  Per corresponding side pair the rule emits the fused edges
    (the sides of one triangle give the other's ratio directly) and,
    once per ratio, the multiply-through edges that turn the ratio plus
    one side into the other side.  No edge builds a ratio from its own triangle's sides or
    copies one triangle's ratio onto the other's: the fused edge reaches
    each ratio in one step from sides as basic, and no proof took those
    edges.  Pairs are emitted in point-triple scan order, which picks
    the justification finalize keeps among tied edges."""
    sq, names = w.sq, w.names
    flat = set(w.collinear_triples)
    buckets: dict[tuple[int, int], list[int]] = {}
    tris: list[tuple[tuple[str, str, str], tuple, Optional[tuple]]] = []
    matches = []
    for t in itertools.combinations(range(len(names)), 3):
        if t in flat:
            continue
        a, b, c = t
        opposite = (sq[b, c], sq[a, c], sq[a, b])  # side facing each corner
        tri = ((names[a], names[b], names[c]), tuple(s[1] for s in opposite),
               _shape([s[0] for s in opposite]))
        lo, mid, hi = sorted(tri[1])
        kx, ky = int(lo / hi // _SHAPE_BIN), int(mid / hi // _SHAPE_BIN)
        for dx, dy in itertools.product((-1, 0, 1), repeat=2):
            for other in buckets.get((kx + dx, ky + dy), ()):
                matches.extend((other, len(tris), perm) for perm in _PERMS
                               if _proportional(tris[other], tri, perm))
        buckets.setdefault((kx, ky), []).append(len(tris))
        tris.append(tri)
    edges: list[Hyperedge] = []
    emitted: set = set()
    ratios: set[Dim] = set()
    for i, j, perm in sorted(matches):
        for e in _similarity_edges(tris[i][0], tris[j][0], perm, ratios):
            if e is None:
                continue
            k = (e.sources, e.target, e.recipe, e.subpriority)
            if k not in emitted:  # finalize would keep only the first
                emitted.add(k)
                edges.append(e)
    return edges


def _shape(sides: list) -> Optional[tuple[int, int, int]]:
    """Three positive rational squared sides, as (numerator,
    denominator) pairs, scaled to the coprime integers proportional to
    them; None when a side is not rational.  Two triangles' sides are
    proportional exactly when their shapes are equal."""
    if not all(sides):
        return None
    lcm = math.lcm(*(d for _, d in sides))
    scaled = [n * (lcm // d) for n, d in sides]
    g = math.gcd(*scaled)
    return tuple(x // g for x in scaled)


def _proportional(tri1: tuple, tri2: tuple, perm: tuple[int, int, int]) -> bool:
    """Is side i of tri1 to side perm[i] of tri2 the same ratio for
    every i?  Exact, on the shapes, when all six squared sides are
    rational; else on their floats within a relative 1e-9."""
    (_, f1, shape1), (_, f2, shape2) = tri1, tri2
    if shape1 and shape2:
        return all(shape1[i] == shape2[perm[i]] for i in range(3))
    b0 = f2[perm[0]]
    return all(math.isclose(f1[i] * b0, f1[0] * f2[perm[i]], rel_tol=1e-9)
               for i in (1, 2))


def _similarity_edges(t1: tuple[str, str, str], t2: tuple[str, str, str],
                      perm: tuple[int, int, int], ratios: set[Dim],
                      ) -> list[Optional[Hyperedge]]:
    """A matched pair's fused edges, and the mul-through edges, which
    depend on the ratio alone, of each ratio not yet in `ratios`."""
    just = f"triangle {''.join(t1)} is similar to triangle {''.join(t2)}"
    sides1, sides2 = [], []
    for i, j in itertools.combinations(range(3), 2):
        sides1.append(length(t1[i], t1[j]))
        sides2.append(length(t2[perm[i]], t2[perm[j]]))
    corr12 = dict(zip(sides1, sides2))
    corr21 = dict(zip(sides2, sides1))
    out: list[Optional[Hyperedge]] = []
    for (s1, s2), (u1, u2) in itertools.combinations(zip(sides1, sides2), 2):
        r1, r2 = make_ratio(s1, u1), make_ratio(s2, u2)
        if r1 != r2:
            # fused: one triangle's sides give the other's ratio
            out.append(_edge([s1, u1], r2, "similar-triangles", just,
                             ("div", corr21[r2.num], corr21[r2.den])))
            out.append(_edge([s2, u2], r1, "similar-triangles", just,
                             ("div", corr12[r1.num], corr12[r1.den])))
        for r in (r1, r2):
            if r in ratios:
                continue
            ratios.add(r)
            out.append(_edge([r, r.den], r.num, "similar-triangles",
                             f"the ratio {r.display} and the side "
                             f"{r.den.display} determine {r.num.display}",
                             ("mul", r, r.den), subpriority=1))
            out.append(_edge([r, r.num], r.den, "similar-triangles",
                             f"the ratio {r.display} and the side "
                             f"{r.num.display} determine {r.den.display}",
                             ("div", r.num, r), subpriority=1))
    return out


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


def ratio_solve_rule(known_ratios: list[tuple[Dim, Scalar]],
                     known_lengths: set[Dim]) -> list[Hyperedge]:
    """A plain/composite ratio pair that is linear in two unknown
    lengths solves for both (2x2 elimination).  Every plain ratio comes
    from similar_triangles_rule, which already emits the edges that
    turn the ratio plus one side into the other side."""
    edges: list[Optional[Hyperedge]] = []
    plain: dict[frozenset, list[tuple[Dim, Scalar]]] = {}  # by {num, den}
    comps = []
    for r, val in known_ratios:
        if r.kind != "ratio" or r.den.kind != "length":
            continue
        if r.num.kind == "length":
            plain.setdefault(frozenset((r.num, r.den)), []).append((r, val))
        elif r.num.kind == "composite":
            comps.append((r, val))
    for (r2, v2) in comps:
        m_dim = length(*r2.num.far)
        s_dim = length(*r2.num.near)
        z_dim = r2.den
        if m_dim not in known_lengths:
            continue
        if s_dim == z_dim:
            continue
        for (r1, v1) in plain.get(frozenset((s_dim, z_dim)), ()):
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


def discover(model: dsl.HypothesisModel, scene_: sc.Scene,
             witness: sc.ParamAssignment) -> list[Hyperedge]:
    """Union of all rule outputs, deduplicated and in the pool order of
    `finalize`.

    One pass suffices: the segment chains rewrite the plain ratios the
    other rules produced, ratio solving then reads those rewrites, and
    it only targets lengths, which feed neither step again."""
    w = _Witness(model, scene_, witness)
    pool = [*parallel_transfer_rule(w), *pythagoras_rule(w),
            *similar_triangles_rule(w), *line_circle_rule(w)]
    dims: dict[str, set[Dim]] = {"ratio": set(), "length": set(), "composite": set()}
    _collect_dims(pool, dims)
    ratios = _with_values(w, dims["ratio"])
    chain = segment_chain_rule(w, ratio_dims=tuple(r for r, _ in ratios))
    _collect_dims(chain, dims)
    pool.extend(chain)
    pool.extend(ratio_solve_rule(_with_values(w, dims["ratio"]),
                                 dims["length"]))
    return finalize(pool)


def _collect_dims(edges: list[Hyperedge], dims: dict[str, set[Dim]]) -> None:
    """Add every dimension the edges mention to its kind's set."""
    for e in edges:
        dims[e.target.kind].add(e.target)
        for d in e.sources:
            dims[d.kind].add(d)


def _with_values(w: _Witness, dims) -> list[tuple[Dim, Scalar]]:
    """The dims by display name, each with its witness value; a ratio
    over a zero length is left out."""
    out = []
    for d in sorted(dims, key=_display):
        try:
            out.append((d, w.value(d)))
        except (sc.DivisionByZero, ZeroDivisionError):
            continue
    return out


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
