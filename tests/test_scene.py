"""Coordinate oracle checks against hand-computed values."""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gthm import dsl, emit, prove_file, rules, scene as sc
from gthm.exactnum import Rad, as_float, exact_eq, rel_err, sqrt_exact
from gthm.rules import length

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TESTS = Path(__file__).resolve().parent

F = Fraction


def load(name: str) -> sc.Scene:
    text = (FIXTURES / name).read_text()
    return sc.build_scene(dsl.validate(dsl.parse(text)))


def assignment(**kwargs) -> sc.ParamAssignment:
    return sc.ParamAssignment(tuple((k, F(v)) for k, v in kwargs.items()))


PARA = assignment(x=4, y=1, z=2)
IMO = assignment(a=1, h=1, q=F(1, 2))


def test_parallelogram_coordinates():
    ev = sc.evaluate(load("parallelogram.gthm"), PARA)
    assert ev.points["O"] == (F(0), F(0))
    assert ev.points["A"] == (F(4), F(0))
    assert ev.points["E"] == (F(1), F(0))
    assert ev.points["B"] == (F(1), F(2))
    assert ev.points["C"] == (F(5), F(2))
    assert ev.points["D"] == (F(5, 2), F(1))
    assert ev.points["F"] == (F(5, 2), F(0))
    assert ev.points["G"] == (F(5), F(0))


def test_parallelogram_coordinates_exact():
    ev = sc.evaluate(load("parallelogram.gthm"), PARA)
    for name, (px, py) in ev.points.items():
        assert isinstance(px, Fraction) and isinstance(py, Fraction), name


def test_plan_covers_every_construction():
    para = load("parallelogram.gthm")
    assert [s.name for s in para.plan] == ["O", "A", "base", "E", "B", "C", "D", "F", "G"]


def test_parameter_dimensions():
    para = load("parallelogram.gthm")
    assert para.param_dims == (("x", ("O", "A")), ("y", ("O", "E")), ("z", ("E", "B")))
    imo = load("imo2012.gthm")
    assert imo.param_dims == (("a", ("A", "D")), ("h", ("D", "C")), ("q", ("D", "X")))


def test_imo_coordinates():
    ev = sc.evaluate(load("imo2012.gthm"), IMO)
    assert ev.points["A"] == (F(0), F(0))
    assert ev.points["D"] == (F(1), F(0))
    assert ev.points["C"] == (F(1), F(1))
    assert ev.points["B"] == (F(2), F(0))
    assert ev.points["X"] == (F(1), F(1, 2))
    kx, ky = ev.points["K"]
    assert as_float(kx) == pytest.approx(0.6202041028867288, abs=1e-12)
    assert as_float(ky) == pytest.approx(0.3101020514433644, abs=1e-12)
    lx, ly = ev.points["L"]
    assert as_float(lx) == pytest.approx(2 - 0.6202041028867288, abs=1e-12)
    assert as_float(ly) == pytest.approx(0.3101020514433644, abs=1e-12)
    mx, my = ev.points["M"]
    assert as_float(mx) == pytest.approx(1.0, abs=1e-12)
    assert ev.points["N"][1] == 0 or as_float(ev.points["N"][1]) == pytest.approx(0.0)


def test_oracle_lengths_parallelogram():
    ev = sc.evaluate(load("parallelogram.gthm"), PARA)
    od = sc.dim_value(ev, length("O", "D"))
    cd = sc.dim_value(ev, length("C", "D"))
    assert isinstance(od, Rad) and od.radicand == F(29, 4)
    assert exact_eq(od, cd)
    assert sc.distance(ev.points["O"], ev.points["O"]) == 0
    assert sc.dim_value(ev, length("C", "G")) == F(2)
    assert sc.dim_value(ev, length("A", "G")) == F(1)
    assert sc.dim_value(ev, length("O", "G")) == F(5)
    assert sc.dim_value(ev, length("A", "E")) == F(3)
    assert sc.dim_value(ev, length("D", "F")) == F(1)
    assert sc.dim_value(ev, length("O", "F")) == F(5, 2)


def test_imo_geometric_mean_exact():
    imo = load("imo2012.gthm")
    for seed in range(5):
        _, ev = sc.sample_params(imo, seed)
        bd = sc.distance(ev.points["B"], ev.points["D"])
        ad = sc.distance(ev.points["A"], ev.points["D"])
        cd = sc.distance(ev.points["C"], ev.points["D"])
        assert bd * ad == cd * cd  # all three exact rationals


def test_imo_claim_agrees_numerically():
    imo = load("imo2012.gthm")
    ev = sc.evaluate(imo, IMO)
    km = as_float(sc.distance(ev.points["K"], ev.points["M"]))
    ml = as_float(sc.distance(ev.points["M"], ev.points["L"]))
    assert abs(km - ml) / max(km, ml) < 1e-9


def test_parallelogram_closure_property():
    para = load("parallelogram.gthm")
    for seed in range(10):
        _, ev = sc.sample_params(para, seed)
        cx, cy = ev.points["C"]
        bx, by = ev.points["B"]
        ax, ay = ev.points["A"]
        assert (cx - bx, cy - by) == (ax, ay)  # C - B = A - O exactly


def test_sampler_deterministic_and_valid():
    para = load("parallelogram.gthm")
    a1, _ = sc.sample_params(para, 42)
    a2, _ = sc.sample_params(para, 42)
    assert a1 == a2
    assert a1 != sc.sample_params(para, 43)[0]
    for seed in range(30):
        a, _ = sc.sample_params(para, seed)
        vals = a.values
        assert vals["y"] < vals["x"]  # E strictly inside OA
        for v in vals.values():
            assert F(1) <= v <= F(10)
            assert sc.SAMPLE_DENOMINATOR % v.denominator == 0


def test_degenerate_fixture_exhausts_sampler():
    deg = load("degenerate.gthm")
    with pytest.raises(sc.DegenerateModel):
        sc.sample_params(deg, 42)
    with pytest.raises(sc.DegenerateModel):
        sc.SampleStream(deg, 42, sc.DEFAULT_RANGE, 5).witness


@pytest.mark.parametrize("seed,rng_range", [(42, sc.DEFAULT_RANGE),
                                            (7, (F(1), F(10_000)))])
def test_stream_witness_is_drawn_once_at_its_seed_and_range(seed, rng_range,
                                                            monkeypatch):
    para = load("parallelogram.gthm")
    want, _ = sc.sample_params(para, seed, rng_range)
    draws, real = [], sc.sample_params

    def spy(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(sc, "sample_params", spy)
    stream = sc.SampleStream(para, seed, rng_range, 3)
    assert draws == []  # drawn on first read
    assert stream.witness[0] == want
    assert stream.witness is stream.witness
    assert draws == [(para, seed, rng_range)]


# two parameters that every draw can construct, so no draw is rejected
TWO_FREE = """param x
param y
point O = origin
point A = baseline(O, x)
line base = through(O, A)
point B = offset_perp(A, base, y)
claim len(O,B) = len(A,B)
"""


def test_sampler_hits_every_value_uniformly(monkeypatch):
    """With D = 8 the range 1:2 holds the 9 values n/8, n = 8..16.  Over
    900 seeded draws each slot takes each value about 100 times: a
    binomial count with p = 1/9 and standard deviation 9.4, so five
    deviations, 47, bound every count."""
    monkeypatch.setattr(sc, "SAMPLE_DENOMINATOR", 8)
    scn = sc.build_scene(dsl.validate(dsl.parse(TWO_FREE)))
    rng_range = (F(1), F(2))
    assert sc.sample_space(rng_range) == 9
    counts = {name: {F(n, 8): 0 for n in range(8, 17)} for name in "xy"}
    for seed in range(900):
        for name, v in sc.sample_params(scn, seed, rng_range)[0].items:
            counts[name][v] += 1
    for per_value in counts.values():
        assert sum(per_value.values()) == 900
        assert all(abs(c - 100) <= 47 for c in per_value.values()), per_value


# one parameter, drawn with no rejection
ONE_FREE = """param x
point O = origin
point A = baseline(O, x)
claim len(O,A) = len(A,O)
"""


def test_sampler_hits_a_four_value_set_uniformly_at_the_shipped_denominator():
    """(1, 1 + 3/2^40) holds |S| = 4 values n/2^40.  Over 2,000 seeded
    draws each value's count is binomial with mean 500 and standard
    deviation 19.4, so five deviations, 97, bound every count."""
    scn = sc.build_scene(dsl.validate(dsl.parse(ONE_FREE)))
    d = sc.SAMPLE_DENOMINATOR
    rng_range = (F(1), 1 + F(3, d))
    assert d == 2**40 and sc.sample_space(rng_range) == 4
    counts = {F(d + i, d): 0 for i in range(4)}
    for seed in range(2000):
        (_, value), = sc.sample_params(scn, seed, rng_range)[0].items
        counts[value] += 1
    assert sum(counts.values()) == 2000
    assert all(abs(c - 500) <= 97 for c in counts.values()), counts


def test_range_narrower_than_a_sample_step_is_inconclusive():
    lo = F(1, 3)  # no n / 2**40 lies between lo and lo + 2**-42
    narrow = (lo, lo + F(1, 4 * sc.SAMPLE_DENOMINATOR))
    assert sc.sample_space(narrow) == 0
    v = prove_file(FIXTURES / "parallelogram.gthm", rng_range=narrow).verdict
    assert v.status == "INCONCLUSIVE"
    assert v.reason == ("degenerate hypotheses: sampling range "
                        f"[{narrow[0]}, {narrow[1]}] is too narrow")


FIGURES = [FIXTURES / "parallelogram.gthm", FIXTURES / "imo2012.gthm",
           FIXTURES / "unreachable.gthm", TESTS / "oblique2.gthm",
           TESTS / "golden" / "parallelogram_k8.gthm",
           TESTS / "golden" / "right_triangle_k5.gthm"]


@pytest.mark.parametrize("figure", FIGURES, ids=lambda p: p.stem)
def test_param_dims_measure_their_parameters_at_every_sample(figure):
    """Each parameter's (from, to) pair is as long as the parameter at
    every sample of the stream: the parameter steps of a proof need no
    check of their own."""
    scn = sc.build_scene(dsl.validate(dsl.parse(figure.read_text())))
    for _, a, ev in sc.SampleStream(scn, 42, sc.DEFAULT_RANGE,
                                    rules.VALIDATION_SAMPLES):
        for name, pair in scn.param_dims:
            got = sc.dim_value(ev, length(*pair))
            assert rel_err(got, a.values[name]) <= rules.VALIDATION_TOL


@pytest.mark.parametrize("seed", [42, 1, 2])
@pytest.mark.parametrize("figure", [TESTS / "oblique2.gthm",
                                    TESTS / "golden" / "parallelogram_k8.gthm"],
                         ids=lambda p: p.stem)
def test_length_is_the_same_in_either_order(figure, seed):
    """A pair read backwards first, on a fresh evaluation, still gets
    the value and the type that its length dimension has."""
    scn = sc.build_scene(dsl.validate(dsl.parse(figure.read_text())))
    _, ev = sc.sample_params(scn, seed)
    for p, q in itertools.combinations(sorted(ev.points), 2):
        backwards = sc._length(ev, (q, p))
        forwards = sc._length(ev, (p, q))
        want = sc.dim_value(ev, length(p, q))
        for got in (backwards, forwards):
            assert type(got) is type(want), (p, q)
            assert exact_eq(got, want) or got == want, (p, q)


def test_intersect_lines_fixture_values():
    l_ab = sc.Line((F(4), F(0)), (F(-3), F(2)))   # A to B
    l_oc = sc.Line((F(0), F(0)), (F(5), F(2)))    # O to C
    assert sc.intersect_lines(l_ab, l_oc) == (F(5, 2), F(1))
    axis = sc.Line((F(0), F(0)), (F(1), F(0)))
    upright = sc.Line((F(0), F(0)), (F(0), F(1)))
    assert sc.intersect_lines(axis, upright) == (F(0), F(0))
    with pytest.raises(sc.ParallelLines):
        sc.intersect_lines(axis, sc.Line((F(0), F(1)), (F(2), F(0))))


def test_line_circle_meet_policies():
    axis = sc.Line((F(0), F(0)), (F(1), F(0)))
    # circle about (3,0) radius 2 cuts the axis at 1 and 5
    first = sc.line_circle_meet(axis, (F(3), F(0)), F(2), ("first",))
    second = sc.line_circle_meet(axis, (F(3), F(0)), F(2), ("second",))
    assert first == (F(1), F(0))
    assert second == (F(5), F(0))
    inside = sc.line_circle_meet(axis, (F(3), F(0)), F(2),
                                 ("within_segment", (F(0), F(0)), (F(2), F(0))))
    assert inside == (F(1), F(0))
    with pytest.raises(sc.AmbiguousPick):
        sc.line_circle_meet(axis, (F(3), F(0)), F(2),
                            ("within_segment", (F(2), F(0)), (F(4), F(0))))
    with pytest.raises(sc.AmbiguousPick):
        sc.line_circle_meet(axis, (F(3), F(0)), F(2), ("nearest", (F(3), F(0))))
    near = sc.line_circle_meet(axis, (F(3), F(0)), F(2), ("nearest", (F(0), F(0))))
    assert near == (F(1), F(0))


def test_line_circle_radius_zero():
    axis = sc.Line((F(0), F(0)), (F(1), F(0)))
    touch = sc.line_circle_meet(axis, (F(1, 2), F(0)), F(0), ("first",))
    assert touch == (F(1, 2), F(0))
    with pytest.raises(sc.NoIntersection):
        sc.line_circle_meet(axis, (F(1, 2), F(1)), F(0), ("first",))


def test_foot_of_perpendicular():
    axis = sc.Line((F(0), F(0)), (F(1), F(0)))
    assert sc.foot_of_perpendicular((F(5), F(2)), axis) == (F(5), F(0))
    assert sc.foot_of_perpendicular((F(3), F(0)), axis) == (F(3), F(0))
    with pytest.raises(sc.DegenerateLine):
        sc.foot_of_perpendicular((F(1), F(1)), sc.Line((F(0), F(0)), (F(0), F(0))))


def test_offset_perp_orientation():
    text = (FIXTURES / "parallelogram.gthm").read_text().replace(
        "offset_perp(E, base, z)", "offset_perp(E, base, -z)")
    flipped = sc.build_scene(dsl.validate(dsl.parse(text)))
    ev = sc.evaluate(flipped, PARA)
    assert ev.points["B"] == (F(1), F(-2))  # negative offset lands below


def test_carriers_deduplicated():
    para = load("parallelogram.gthm")
    ev = sc.evaluate(para, PARA)
    carriers = ev.carriers
    assert carriers[0] is ev.named_lines["base"]
    assert len(carriers) == 6  # base, OB, AC-side, BC-side, AB, OC


def met_lines(scene, ev):
    """Every line evaluation meets, in encounter order, rebuilt from the
    plan and the evaluated points."""
    out = []

    def walk(arg):
        if isinstance(arg, dsl.LineRef):
            return ev.named_lines[arg.name]
        if isinstance(arg, dsl.ThroughParallel):
            line = sc.Line(ev.points[arg.p], walk(arg.base).direction)
        else:
            p = ev.points[arg.p]
            line = sc.Line(p, sc.vsub(ev.points[arg.q], p))
        out.append(line)
        return line

    for stmt in scene.plan:
        payload = stmt.payload
        if stmt.kind == "line-construction":
            walk(payload)
            continue
        for attr in ("line", "l1", "l2"):  # the order _eval_point reads them
            if hasattr(payload, attr):
                walk(getattr(payload, attr))
    return out


def eager_carriers(lines):
    """Deduplicate as lines are met: a line on a carrier already kept
    is dropped, so the first line met of each carrier stands for it."""
    carriers = []
    for line in lines:
        if not any(sc._same_carrier(have, line) for have in carriers):
            carriers.append(line)
    return carriers


def generated(family, k):
    sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    text = gen.family_member(family, k, True, random.Random(0), nested=True)
    return sc.build_scene(dsl.validate(dsl.parse(text)))


# degenerate.gthm is left out: no assignment evaluates
@pytest.mark.parametrize("name", ["imo2012", "parallelogram",
                                  "parallelogram_bad", "parallelogram_bd",
                                  "unreachable", "parallelogram+9",
                                  "right_triangle+6"])
def test_carriers_match_eager_deduplication(name):
    if "+" in name:
        family, k = name.split("+")
        scn = generated(family, int(k))
    else:
        scn = load(f"{name}.gthm")
    for seed in (42, 1):
        _, ev = sc.sample_params(scn, seed)
        lines = met_lines(scn, ev)
        assert ev.lines == lines
        assert ev.carriers == eager_carriers(lines)


def test_scene_view_shape():
    para = load("parallelogram.gthm")
    text = emit.render_scene(para.model, (PARA, sc.evaluate(para, PARA)),
                             theorem="parallelogram")
    assert [ln for ln in text.splitlines() if ln.startswith("param ")] == [
        "param x = 4", "param y = 1", "param z = 2"]
    assert "point D = (5/2, 1)" in text


@settings(max_examples=60, deadline=None)
@given(x=st.fractions(min_value=2, max_value=10, max_denominator=32),
       y=st.fractions(min_value=1, max_value=10, max_denominator=32),
       z=st.fractions(min_value=1, max_value=10, max_denominator=32))
def test_parallelogram_invariants_random(x, y, z):
    if y >= x:
        y = x / 2
    para = load("parallelogram.gthm")
    a = sc.ParamAssignment((("x", x), ("y", y), ("z", z)))
    ev = sc.evaluate(para, a)
    # all coordinates exact, D is the midpoint of OC, feet share x-coordinates
    assert all(isinstance(c, Fraction) for p in ev.points.values() for c in p)
    ox, oy = ev.points["O"]
    cx, cy = ev.points["C"]
    dx, dy = ev.points["D"]
    assert (dx, dy) == ((ox + cx) / 2, (oy + cy) / 2)
    assert ev.points["F"][0] == dx and ev.points["G"][0] == cx


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_imo_sampler_respects_interiority(seed):
    imo = load("imo2012.gthm")
    a, _ = sc.sample_params(imo, seed)
    vals = a.values
    assert vals["q"] < vals["h"]  # X strictly inside DC


# coordinates at and near zero in every representation, so that drawn
# points often coincide or nearly do
NEAR_ZERO = [F(0), 0.0, -0.0, 1e-15, -1e-15, 3e-10, F(1, 10**12),
             sqrt_exact(F(2, 10**30)), sqrt_exact(F(2)), F(1), 1.0]
COMPONENT = st.one_of(
    st.sampled_from(NEAR_ZERO),
    st.fractions(min_value=-10, max_value=10, max_denominator=64),
    st.builds(sqrt_exact, st.fractions(min_value=0, max_value=50,
                                       max_denominator=64)),
    st.floats(min_value=-10, max_value=10, allow_nan=False))
POINT = st.tuples(COMPONENT, COMPONENT)


@settings(max_examples=400, deadline=None)
@given(a=POINT, b=POINT)
@example(a=(sqrt_exact(F(1, 10**30 * 2)), F(0)), b=(F(0), F(0)))
def test_coincident_is_symmetric(a, b):
    assert sc.coincident(a, b) == sc.coincident(b, a)


def test_a_tiny_radical_off_zero_is_apart_in_either_order():
    a, b = (sqrt_exact(F(2, 10**30)), F(0)), (F(0), F(0))
    assert isinstance(a[0], Rad)
    assert not sc.coincident(a, b) and not sc.coincident(b, a)
