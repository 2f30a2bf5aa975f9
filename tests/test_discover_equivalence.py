"""rules.discover against a copy of the discovery it replaced.

`reference_discover` is discovery as it stood before exact similarity
classes: every triangle compared with those of its own and the
neighbouring float shape buckets, the witness predicates on
coordinates through the scene, every ratio valued before segment
chains and ratio solving read it, and the pool sorted on string keys.
The pool must come out the same, edge for edge (justifications
included) and in order."""

import itertools
import math
import operator
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from gthm import dsl, rules, scene as sc
from gthm.exactnum import add, as_float, mul
from test_point_limit import para_plus

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from gen import family_member  # noqa: E402

_display = operator.attrgetter("display")


def ref_edge(sources, target, rule, justification, recipe, subpriority=0):
    srcs = tuple(sorted(set(sources), key=_display))
    if target in srcs or not srcs:
        return None
    return rules.Hyperedge(sources=srcs, target=target, rule=rule,
                           justification=justification, recipe=recipe,
                           subpriority=subpriority)


class CoordinateWitness(rules._Witness):
    """The witness with every predicate a scene call on coordinates,
    and every pair's distinctness one scene.coincident call."""

    def __init__(self, scn, figure):
        super().__init__(scn, figure)
        pts = self.points
        for i, j in itertools.combinations(range(len(pts)), 2):
            self.apart[i][j] = self.apart[j][i] = not sc.coincident(pts[i], pts[j])

    def collinear(self, a, b, c):
        return sc.points_collinear(self.coords[a], self.coords[b], self.coords[c])

    def between(self, a, m, b):
        return sc.strictly_between(self.coords[a], self.coords[m], self.coords[b])

    def on_line(self, p, line):
        return sc.on_line(self.coords[p], line)

    def axis_feet(self, p):
        pc = self.coords[p]
        return [v for v in self.on_axis if self.distinct(p, v) and sc.perpendicular(
            sc.vsub(pc, self.coords[v]), self.axis.direction)]

    def axis_side(self, p):
        c = sc.cross(self.axis.direction, sc.vsub(self.coords[p], self.axis.anchor))
        return 1 if as_float(c) > 0 else -1

    def axis_pos_sign(self, p, ref):
        d = sc.dot(self.axis.direction, sc.vsub(self.coords[p], self.coords[ref]))
        return 1 if as_float(d) > 0 else -1


def ref_parallel_transfer(w):
    edges = []
    for l1, l2 in itertools.combinations(w.ev.carriers, 2):
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
            d1, d2 = rules.length(u1, v1), rules.length(u2, v2)
            if d1 == d2:
                continue
            just = (f"{u1}{v1} and {u2}{v2} are perpendicular offsets "
                    f"between the same parallel lines")
            edges.append(ref_edge([d1], d2, "parallel-transfer", just, ("copy", d1)))
            edges.append(ref_edge([d2], d1, "parallel-transfer", just, ("copy", d2)))
    return [e for e in edges if e is not None]


def ref_shape(sides):
    if not all(sides):
        return None
    lcm = math.lcm(*(d for _, d in sides))
    scaled = [n * (lcm // d) for n, d in sides]
    g = math.gcd(*scaled)
    return tuple(x // g for x in scaled)


def ref_proportional(tri1, tri2, perm):
    (_, f1, shape1), (_, f2, shape2) = tri1, tri2
    if shape1 and shape2:
        return all(shape1[i] == shape2[perm[i]] for i in range(3))
    b0 = f2[perm[0]]
    return all(math.isclose(f1[i] * b0, f1[0] * f2[perm[i]], rel_tol=1e-9)
               for i in (1, 2))


def ref_similarity_edges(t1, t2, perm, ratios):
    just = f"triangle {''.join(t1)} is similar to triangle {''.join(t2)}"
    sides1, sides2 = [], []
    for i, j in itertools.combinations(range(3), 2):
        sides1.append(rules.length(t1[i], t1[j]))
        sides2.append(rules.length(t2[perm[i]], t2[perm[j]]))
    corr12, corr21 = dict(zip(sides1, sides2)), dict(zip(sides2, sides1))
    out = []
    for (s1, s2), (u1, u2) in itertools.combinations(zip(sides1, sides2), 2):
        r1, r2 = rules.make_ratio(s1, u1), rules.make_ratio(s2, u2)
        if r1 != r2:
            out.append(ref_edge([s1, u1], r2, "similar-triangles", just,
                                ("div", corr21[r2.num], corr21[r2.den])))
            out.append(ref_edge([s2, u2], r1, "similar-triangles", just,
                                ("div", corr12[r1.num], corr12[r1.den])))
        for r in (r1, r2):
            if r in ratios:
                continue
            ratios.add(r)
            out.append(ref_edge([r, r.den], r.num, "similar-triangles",
                                f"the ratio {r.display} and the side "
                                f"{r.den.display} determine {r.num.display}",
                                ("mul", r, r.den), subpriority=1))
            out.append(ref_edge([r, r.num], r.den, "similar-triangles",
                                f"the ratio {r.display} and the side "
                                f"{r.num.display} determine {r.den.display}",
                                ("div", r.num, r), subpriority=1))
    return out


def ref_similar_triangles(w):
    """Every triangle probes the 9 float shape buckets around its own."""
    sq, names = w.sq, w.names
    flat = set(w.collinear_triples)
    buckets, tris, matches = {}, [], []
    for t in itertools.combinations(range(len(names)), 3):
        if t in flat:
            continue
        a, b, c = t
        opposite = (sq[b][c], sq[a][c], sq[a][b])
        tri = ((names[a], names[b], names[c]), tuple(s[1] for s in opposite),
               ref_shape([s[0] for s in opposite]))
        lo, mid, hi = sorted(tri[1])
        kx, ky = int(lo / hi // 1e-6), int(mid / hi // 1e-6)
        for dx, dy in itertools.product((-1, 0, 1), repeat=2):
            for other in buckets.get((kx + dx, ky + dy), ()):
                matches.extend((other, len(tris), perm)
                               for perm in itertools.permutations(range(3))
                               if ref_proportional(tris[other], tri, perm))
        buckets.setdefault((kx, ky), []).append(len(tris))
        tris.append(tri)
    edges, emitted, ratios = [], set(), set()
    for i, j, perm in sorted(matches):
        for e in ref_similarity_edges(tris[i][0], tris[j][0], perm, ratios):
            if e is None:
                continue
            k = (e.sources, e.target, e.recipe, e.subpriority)
            if k not in emitted:
                emitted.add(k)
                edges.append(e)
    return edges


def ref_ratio_solve(known_ratios, known_lengths):
    edges = []
    plain, comps = {}, []
    for r, val in known_ratios:
        if r.kind != "ratio" or r.den.kind != "length":
            continue
        if r.num.kind == "length":
            plain.setdefault(frozenset((r.num, r.den)), []).append((r, val))
        elif r.num.kind == "composite":
            comps.append((r, val))
    for r2, v2 in comps:
        m_dim, s_dim, z_dim = rules.length(*r2.num.far), rules.length(*r2.num.near), r2.den
        if m_dim not in known_lengths or s_dim == z_dim:
            continue
        for r1, v1 in plain.get(frozenset((s_dim, z_dim)), ()):
            s_first = r1.num == s_dim
            det = add(v1, v2) if s_first else add(F(1), mul(v1, v2))
            if abs(as_float(det)) < 1e-9:
                continue
            just = (f"solve {s_dim.display} and {z_dim.display} from "
                    f"{r1.display} and {r2.display} given {m_dim.display}")
            for target, which in ((s_dim, "S"), (z_dim, "Z")):
                edges.append(ref_edge([r1, r2, m_dim], target, "ratio-solve", just,
                                      ("solve2", r1, r2, m_dim, s_first, which)))
    return [e for e in edges if e is not None]


def ref_with_values(w, dims):
    out = []
    for d in sorted(dims, key=_display):
        try:
            out.append((d, sc.dim_value(w.ev, d)))
        except (sc.DivisionByZero, ZeroDivisionError):
            continue
    return out


def ref_collect(edges, dims):
    for e in edges:
        dims[e.target.kind].add(e.target)
        for d in e.sources:
            dims[d.kind].add(d)


def ref_sort_key(e):
    recipe = tuple(i.display if isinstance(i, rules.Dim) else str(i) for i in e.recipe)
    return (rules.PRIORITY[e.rule], e.subpriority, e.target.display,
            tuple(map(_display, e.sources)), recipe)


def ref_finalize(edges):
    seen, out = set(), []
    for e in sorted((e for e in edges if e is not None), key=ref_sort_key):
        k = (frozenset(e.sources), e.target, e.rule)
        if k not in seen:
            seen.add(k)
            out.append(e)
    return out


def reference_discover(scn, figure):
    w = CoordinateWitness(scn, figure)
    pool = [*ref_parallel_transfer(w), *rules.pythagoras_rule(w),
            *ref_similar_triangles(w), *rules.line_circle_rule(w)]
    dims = {"ratio": set(), "length": set(), "composite": set()}
    ref_collect(pool, dims)
    ratios = ref_with_values(w, dims["ratio"])
    chain = rules.segment_chain_rule(w, ratio_dims=tuple(r for r, _ in ratios))
    ref_collect(chain, dims)
    pool.extend(chain)
    pool.extend(ref_ratio_solve(ref_with_values(w, dims["ratio"]), dims["length"]))
    return ref_finalize(pool)


# the fixtures with a figure, every nested member of the scaling
# workload (perfbench/gen.py SCALING_K), and chained feet to 32 points
FIGURES = ["parallelogram", "parallelogram_bd", "parallelogram_bad", "imo2012",
           "unreachable", "oblique2", "parallelogram+2", "parallelogram+4",
           "parallelogram+6", "parallelogram+8", "right_triangle+0",
           "right_triangle+5", "para+14", "para+24"]


def figure_text(figure):
    if figure.startswith("para+"):
        return para_plus(int(figure.removeprefix("para+")))
    if "+" in figure:
        family, k = figure.split("+")
        return family_member(family, int(k), True, random.Random(0), nested=True)
    if figure == "oblique2":
        return (ROOT / "tests" / "oblique2.gthm").read_text()
    return (ROOT / "fixtures" / f"{figure}.gthm").read_text()


def assert_same_pool(figure, seed=None, witness=None):
    model = dsl.validate(dsl.parse(figure_text(figure), figure), figure)
    scn = sc.build_scene(model)
    a = witness or sc.sample_params(scn, seed)[0]
    got = rules.discover(scn, sc.evaluate(scn, a))
    want = reference_discover(scn, sc.evaluate(scn, a))
    assert got
    assert len(got) == len(want)
    for i, (e, f) in enumerate(zip(got, want)):
        assert e == f, (i, e, f)
    return got


@pytest.mark.parametrize("seed", [42, 1, 5])
@pytest.mark.parametrize("figure", FIGURES)
def test_discover_gives_the_reference_pool(figure, seed):
    assert_same_pool(figure, seed)


def test_discover_gives_the_reference_pool_on_an_isosceles_witness():
    # a = h = 9, q = 15/2, the witness program seed 954619 drew when
    # parameters had denominators up to 64: the figure's symmetry reads
    # as thousands of coincidental rules, and many triangles are
    # similar under more than one correspondence
    witness = sc.ParamAssignment((("a", F(9)), ("h", F(9)), ("q", F(15, 2))))
    pool = assert_same_pool("right_triangle+5", witness=witness)
    assert len(pool) > 9000
