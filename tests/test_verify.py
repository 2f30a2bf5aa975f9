"""Schedule execution, validation of the proof's steps, and the
sampled verdict."""

import math
import struct
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gthm import (cli, dsl, graph as gr, prove_file, prove_model, rules,
                  scene as sc, verify as vf)
from gthm.exactnum import Rad, as_float, mul, square
from gthm.rules import NumericFailure, length, make_ratio

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    text = (FIXTURES / name).read_text()
    model = dsl.validate(dsl.parse(text, name), name)
    return model, sc.build_scene(model)


def stream_of(scn, seed=42, count=rules.VALIDATION_SAMPLES):
    return sc.SampleStream(scn, seed, sc.DEFAULT_RANGE, count)


def pipeline(name, seed=42, samples=100):
    """Grow at the witness of `seed`, validating on the stream that
    the verdict then reads."""
    model, scn = load(name)
    witness = sc.sample_params(scn, seed)
    stream = stream_of(scn, seed, samples)
    g = gr.grow_detailed(model, witness, stream)
    assert not g.pending
    return model, scn, g, gr.focus(g, gr.topo_order(g)), stream


def edge_with(edge, **changes):
    """A new hyperedge with the fields of `edge`, some changed."""
    fields = ("sources", "target", "rule", "justification", "recipe",
              "subpriority")
    return rules.Hyperedge(**{f: changes.get(f, getattr(edge, f))
                              for f in fields})


@pytest.fixture(scope="module")
def para():
    return pipeline("parallelogram.gthm")


@pytest.fixture(scope="module")
def imo():
    return pipeline("imo2012.gthm")


def assign(**values):
    return sc.ParamAssignment(tuple((k, Fraction(v)) for k, v in values.items()))


def by_display(values):
    return {d.display: v for d, v in values.items()}


# --- executing a schedule ----------------------------------------------------


def test_execute_parallelogram_worked_figure(para):
    model, scn, g, focused, _ = para
    vals = by_display(vf.execute_schedule(scn, focused, assign(x=4, y=1, z=2)))
    assert vals["CG"] == 2
    assert vals["AG/CG"] == Fraction(1, 2)
    assert vals["AG"] == 1
    assert vals["GO"] == 5
    assert vals["AE"] == 3
    assert vals["DF/FO"] == Fraction(2, 5)
    assert vals["DF"] == 1
    assert vals["FO"] == Fraction(5, 2)
    # both goal segments come out as the same exact radical, sqrt(29)/2
    assert square(vals["DO"]) == Fraction(29, 4)
    assert square(vals["CD"]) == Fraction(29, 4)
    assert as_float(vals["DO"]) == pytest.approx(2.69258, abs=1e-5)


def test_execute_covers_every_scheduled_node(para):
    model, scn, g, focused, _ = para
    vals = vf.execute_schedule(scn, focused, assign(x=4, y=1, z=2))
    assert set(vals) == {s.dim for s in focused}


def test_execute_propagates_numeric_failure(para):
    model, scn, g, focused, _ = para
    ao, go = length("A", "O"), length("G", "O")
    # AO < GO always, so this difference is negative at every assignment
    broken = list(focused)
    last = broken[-1]
    broken[-1] = gr.ScheduleStep(
        last.dim, edge_with(last.edge, recipe=("sub", ao, go)))
    with pytest.raises(NumericFailure):
        vf.execute_schedule(scn, broken, assign(x=4, y=1, z=2))


@settings(max_examples=25, deadline=None)
@given(k=st.fractions(min_value=Fraction(1, 5), max_value=Fraction(8),
                      max_denominator=32))
def test_execute_is_homogeneous_of_degree_one(para, k):
    model, scn, g, focused, _ = para
    base = assign(x=4, y=1, z=2)
    scaled = sc.ParamAssignment(tuple((n, v * k) for n, v in base.items))
    v1 = vf.execute_schedule(scn, focused, base)
    v2 = vf.execute_schedule(scn, focused, scaled)
    for dim, v in v1.items():
        if dim.kind == "ratio":
            want = v
        else:
            want = mul(k, v)
        assert abs(as_float(v2[dim]) - as_float(want)) <= 1e-12 * max(
            1.0, abs(as_float(want)))


# --- sample reports -----------------------------------------------------------


def test_sample_report_fields_and_invariants(para):
    model, scn, g, focused, _ = para
    v = vf.verdict(model, focused, stream_of(scn, 7, 3))
    assert len(v.samples) == 3
    for i, r in enumerate(v.samples):
        assert r.index == i
        assert r.seed == 7 * sc.SAMPLE_STRIDE + i
        assert r.assignment == sc.sample_params(scn, r.seed)
        assert r.redraws == 0
        assert r.claim_residual == 0.0


def test_sample_report_measures_each_length_once(monkeypatch, para):
    model, scn, g, focused, _ = para
    # a fresh evaluation, nothing memoized, which the stream's first
    # sample at seed 123_457 then reads
    a = sc.sample_params(scn, 123_457 * sc.SAMPLE_STRIDE)
    measured = []
    real = sc._squared_distance

    def spy(ev, pair):
        if pair not in ev.squares:  # a memo hit measures nothing
            measured.append(frozenset(pair))
        return real(ev, pair)

    monkeypatch.setattr(sc, "_squared_distance", spy)
    report, = vf._check_samples(model, focused, stream_of(scn, 123_457, 1))
    assert report.assignment == a
    assert report.claim_residual == 0.0
    assert len(measured) == len(set(measured))  # no length measured twice
    # the steps were replayed by validation; the verdict reads the claim
    assert set(measured) == {frozenset(d.points) for d in gr.goal_dims(model)}


def test_prove_draws_the_verdict_samples_once_and_validates_at_each(
        monkeypatch):
    draws = []  # (inside validation?, assignment)
    validating = []
    real_sample, real_validate = sc.sample_params, gr.validate_edges

    def sample_spy(*args, **kwargs):
        draws.append((bool(validating), real_sample(*args, **kwargs)))
        return draws[-1][1]

    def validate_spy(*args, **kwargs):
        validating.append(True)
        try:
            return real_validate(*args, **kwargs)
        finally:
            validating.pop()

    monkeypatch.setattr(sc, "sample_params", sample_spy)
    monkeypatch.setattr(gr, "validate_edges", validate_spy)
    result = prove_file(FIXTURES / "parallelogram.gthm")
    monkeypatch.undo()
    samples = result.verdict.samples
    assert len(samples) == rules.VALIDATION_SAMPLES
    assert len(draws) == 1 + len(samples)  # the witness, then the stream
    assert draws[0] == (False, result.witness)
    # validation draws every sample the verdict reads
    assert draws[1:] == [(True, r.assignment) for r in samples]


def _replayed_at(monkeypatch):
    """Spy on validation: per edge id, the assignments of the figures
    it was replayed at, in order."""
    figures, replays = {}, defaultdict(list)
    real_evaluate, real_replays = sc.evaluate, rules._replays

    def evaluate(scene_, a):
        ev = real_evaluate(scene_, a)
        figures[id(ev)] = (ev, a)  # holding ev keeps its id unique
        return ev

    def replay(e, ev):
        replays[id(e)].append(figures[id(ev)][1])
        return real_replays(e, ev)

    monkeypatch.setattr(sc, "evaluate", evaluate)
    monkeypatch.setattr(rules, "_replays", replay)
    return replays


@pytest.mark.parametrize("run", ["prove_model", "library"])
def test_every_focused_edge_is_validated_at_the_verdict_samples(
        monkeypatch, run):
    model, scn = load("parallelogram.gthm")
    replays = _replayed_at(monkeypatch)
    if run == "prove_model":
        count = 7
        result = prove_model(model, samples=count)
        focused, v = result.focused, result.verdict
    else:
        count = 100
        stream = stream_of(scn, 42, count)
        g = gr.grow_detailed(model, sc.sample_params(scn, 42), stream)
        focused, v = g.focused, vf.verdict(model, g.focused, stream)
    monkeypatch.undo()
    assert v.status == vf.STATUS_PROVED
    seeds = [r.seed for r in v.samples]
    assert len(seeds) == count
    seed_of = {r.assignment: r.seed for r in v.samples}
    edges = [s.edge for s in focused if s.edge is not None]
    assert edges
    for e in edges:
        assert [seed_of[a] for a in replays[id(e)]] == seeds
    assert v.certificate.points == count


def test_oracle_and_verdict_leave_carriers_alone(monkeypatch, capsys, para):
    model, scn, g, focused, _ = para
    calls = []
    real = sc._same_carrier

    def spy(l1, l2):
        calls.append((l1, l2))
        return real(l1, l2)

    monkeypatch.setattr(sc, "_same_carrier", spy)
    for name in ("parallelogram.gthm", "imo2012.gthm"):
        assert cli.main(["check", str(FIXTURES / name), "--samples", "20"]) == 0
    capsys.readouterr()
    v = vf.verdict(model, focused, stream_of(scn, 7, 20))
    assert v.status == vf.STATUS_PROVED
    assert calls == []
    # reading the carriers is what deduplicates them
    assert sc.evaluate(scn, v.samples[-1].assignment).carriers and calls


def test_cross_check_fails_on_a_corrupted_rule(para):
    model, scn, g, focused, _ = para
    be = length("B", "E")
    # CG is a parallel transfer of BE; doubling it breaks the oracle match
    broken = list(focused)
    idx = next(i for i, s in enumerate(broken) if s.dim.display == "CG")
    step = broken[idx]
    broken[idx] = gr.ScheduleStep(
        step.dim, edge_with(step.edge, recipe=("add", be, be)))
    a = sc.sample_params(scn, 99)
    vals = vf.execute_schedule(scn, broken, a)
    ev = sc.evaluate(scn, a)
    cg = next(s.dim for s in focused if s.dim.display == "CG")
    assert as_float(vals[cg]) == pytest.approx(
        2 * as_float(sc.dim_value(ev, cg)))


def _corrupted(focused, kind):
    """A copy of one focused step's edge that fails at every sample:
    CG as BE + BE, twice its value, or the last step as AO - GO, a
    negative length that the recipe refuses."""
    be, ao, go = length("B", "E"), length("A", "O"), length("G", "O")
    if kind == "disagrees":
        step = next(s for s in focused if s.dim.display == "CG")
        return edge_with(step.edge, recipe=("add", be, be))
    return edge_with(focused[-1].edge, sources=(ao, go),
                     recipe=("sub", ao, go))


@pytest.mark.parametrize("kind", ["disagrees", "cannot-run"])
def test_validation_keeps_a_corrupted_step_out_of_the_proof(
        monkeypatch, para, kind):
    model, scn, g, focused, _ = para
    broken = _corrupted(focused, kind)
    stream = stream_of(scn)
    want = math.inf if kind == "cannot-run" else 0.5
    assert all(rules.residual(broken, ev) == pytest.approx(want)
               for _, _, ev in stream)
    assert rules.validate_edges([broken], stream) == []
    # first in the pool, growth reaches for it first, and validation
    # drops it before the verdict sees the schedule
    real = gr.discover
    monkeypatch.setattr(gr, "discover", lambda *args: [broken, *real(*args)])
    result = prove_file(FIXTURES / "parallelogram.gthm")
    monkeypatch.undo()
    assert result.verdict.status == vf.STATUS_PROVED
    assert all(s.edge is not broken for s in result.schedule)
    assert [s.dim for s in result.schedule] == [s.dim for s in focused]


# --- verdicts on the fixtures ------------------------------------------------


def _member_texts():
    import random
    import sys
    sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
    import gen
    out = {p.name: p.read_text() for p in sorted(FIXTURES.glob("*.gthm"))
           if p.stem != "degenerate"}
    for family, (_, _, pool) in gen.FAMILIES.items():
        for k in range(len(pool) + 1):
            for truth in (True, False):
                out[f"{family}+{k}.{truth}"] = gen.family_member(
                    family, k, truth, random.Random(k))
    return out


@pytest.mark.parametrize("name,text", sorted(_member_texts().items()))
def test_claim_on_squares_gives_the_scalar_residual(name, text):
    """The integer check of a one-term claim returns, at every sample,
    the residual the Scalar sides give, bit for bit, and it decides
    the true claims on rational figures."""
    model = dsl.validate(dsl.parse(text))
    scn = sc.build_scene(model)
    eq = model.claim.payload
    decided = 0
    for _, a, ev in stream_of(scn, 9, 20):
        got = vf._claim_check(model, ev)
        fresh = sc._evaluate(scn, a)
        want = vf._claim_residual(vf._claim_side(eq.lhs, fresh),
                                  vf._claim_side(eq.rhs, fresh))
        assert struct.pack("<d", got) == struct.pack("<d", want)
        decided += vf._equal_on_squares(eq.lhs, eq.rhs, fresh)
    if name.endswith(".True") and "meet_circle" not in text:
        assert decided == 20


def test_parallelogram_proved_with_exactly_zero_residuals(para):
    model, scn, g, focused, stream = para
    v = vf.verdict(model, focused, stream)
    assert v.status == vf.STATUS_PROVED
    assert len(v.samples) == 100
    assert all(r.claim_residual == 0.0 for r in v.samples)
    assert v.schedule == tuple(focused)


def test_parallelogram_certificate_is_an_exact_identity():
    c = prove_file(FIXTURES / "parallelogram.gthm").verdict.certificate
    assert c.kind == "exact-identity"
    assert c.points == rules.VALIDATION_SAMPLES == 20
    assert c.sample_space == sc.sample_space(sc.DEFAULT_RANGE) == 9 * 2**40 + 1
    # Schwartz-Zippel: degree below the sample space, 20 independent points
    assert c.certified and c.degree_bound == 44 < c.sample_space
    assert c.log10_failure_bound == pytest.approx(
        20 * math.log10(44 / (9 * 2**40 + 1)))
    assert round(c.log10_failure_bound, 1) == -227.0


def test_second_claim_fixture_proved():
    model, scn, g, focused, stream = pipeline("parallelogram_bd.gthm")
    v = vf.verdict(model, focused, stream)
    assert v.status == vf.STATUS_PROVED
    assert all(r.claim_residual == 0.0 for r in v.samples)


def test_imo_proved_numerically(imo):
    model, scn, g, focused, stream = imo
    v = vf.verdict(model, focused, stream)
    assert v.status == vf.STATUS_PROVED
    assert max(r.claim_residual for r in v.samples) <= rules.VALIDATION_TOL
    assert v.certificate.kind == "numerically-certified"
    assert "numerically certified" in v.reason


OBLIQUE2 = Path(__file__).resolve().parent / "oblique2.gthm"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_oblique_segment_is_numerically_certified():
    """on_segment along an oblique segment leaves the rationals at most
    samples, so the agreement is numerical, never an exact identity."""
    v = prove_file(OBLIQUE2).verdict
    assert v.status == vf.STATUS_PROVED
    assert v.certificate.kind == "numerically-certified"
    assert v.certificate.log10_failure_bound is None
    assert v.certificate.note.startswith("irrational coordinates present")
    assert "numerically certified" in v.reason
    assert max(r.claim_residual for r in v.samples) > 0.0


@pytest.mark.parametrize("seed", [42, 1, 2])
@pytest.mark.parametrize("figure", [
    FIXTURES / "parallelogram.gthm", FIXTURES / "parallelogram_bd.gthm",
    FIXTURES / "imo2012.gthm", OBLIQUE2, GOLDEN / "parallelogram_k8.gthm",
    GOLDEN / "right_triangle_k5.gthm"], ids=lambda p: p.stem)
def test_exact_identity_iff_every_read_coordinate_is_rational(figure, seed):
    """The certificate kind follows the coordinates the proof read:
    exact-identity exactly when every coordinate of every point of a
    scheduled dimension is a Fraction at every verdict sample."""
    result = prove_file(figure, seed=seed, samples=25)
    v = result.verdict
    assert v.status == vf.STATUS_PROVED
    read = set().union(*(vf._dim_points(s.dim) for s in v.schedule))
    rational = all(type(c) is Fraction
                   for r in v.samples
                   for p, xy in sc.evaluate(result.scene, r.assignment).points.items()
                   if p in read for c in xy)
    assert (v.certificate.kind == "exact-identity") == rational


def test_bad_claim_refuted_with_margin_at_every_sample():
    model, scn, g, focused, stream = pipeline("parallelogram_bad.gthm")
    v = vf.verdict(model, focused, stream)
    assert v.status == vf.STATUS_REFUTED
    assert len(v.samples) == 100
    # OD = CD, so claiming OD = 2 CD misses by the whole smaller side
    for r in v.samples:
        assert r.claim_residual == 1.0
        assert r.claim_residual >= vf.REFUTE_MARGIN * rules.VALIDATION_TOL
    assert v.certificate is None


def test_missing_schedule_is_inconclusive():
    v = vf.verdict(None, None, None)
    assert v.status == vf.STATUS_INCONCLUSIVE
    assert v.reason == "no derivation schedule"
    assert v.samples == ()
    assert v.schedule is None


def test_unreachable_fixture_reaches_no_verdict():
    model, scn = load("unreachable.gthm")
    witness = sc.sample_params(scn, 42)
    stream = stream_of(scn, 42, 5)
    g = gr.grow_detailed(model, witness, stream)
    assert g.pending
    v = vf.verdict(model, None, stream)
    assert v.status == vf.STATUS_INCONCLUSIVE


def test_degenerate_model_propagates_from_sampler():
    model, scn = load("degenerate.gthm")
    with pytest.raises(sc.DegenerateModel):
        sc.sample_params(scn, 42)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_verdict_status_is_seed_stable(seed):
    for name, want in (("parallelogram.gthm", vf.STATUS_PROVED),
                       ("imo2012.gthm", vf.STATUS_PROVED)):
        model, scn, g, focused, stream = pipeline(name, seed=seed, samples=20)
        v = vf.verdict(model, focused, stream)
        assert v.status == want, name


def test_same_seed_reproduces_the_same_samples(para):
    model, scn, g, focused, _ = para
    v1 = vf.verdict(model, focused, stream_of(scn, 5, 10))
    v2 = vf.verdict(model, focused, stream_of(scn, 5, 10))
    assert [r.assignment for r in v1.samples] == [
        r.assignment for r in v2.samples]
    assert [r.seed for r in v1.samples] == [r.seed for r in v2.samples]
    assert v1.reason == v2.reason


# --- certificate arithmetic --------------------------------------------------


def _sample_space_brute_force(rng_range, denominator):
    """Every numerator near the range, tested for n/D in it."""
    lo, hi = rng_range
    return sum(1 for n in range(math.floor(lo * denominator) - 1,
                                math.ceil(hi * denominator) + 2)
               if lo <= Fraction(n, denominator) <= hi)


_BOUNDS = sorted({Fraction(n, d) for n in range(-7, 8) for d in (1, 2, 3, 7)})


@pytest.mark.parametrize("lo", _BOUNDS[::3])
def test_sample_space_matches_brute_force(monkeypatch, lo):
    for denominator in (1, 2, 8, 64):
        monkeypatch.setattr(sc, "SAMPLE_DENOMINATOR", denominator)
        for hi in _BOUNDS:
            if hi >= lo:
                assert (sc.sample_space((lo, hi))
                        == _sample_space_brute_force((lo, hi), denominator)
                        ), (lo, hi, denominator)
        # a narrow range that admits no numerator at small denominators
        narrow = (lo + Fraction(1, 97), lo + Fraction(2, 97))
        assert (sc.sample_space(narrow)
                == _sample_space_brute_force(narrow, denominator))


def test_sample_space_of_a_huge_range_is_immediate():
    want = (10**12 - 1) * sc.SAMPLE_DENOMINATOR + 1
    assert sc.sample_space((Fraction(1), Fraction(10**12))) == want


def test_sample_space_shrinks_with_the_range():
    wide = sc.sample_space((Fraction(1), Fraction(10)))
    narrow = sc.sample_space((Fraction(1), Fraction(2)))
    assert 0 < narrow < wide


def test_degree_bound_grows_through_products(para):
    model, scn, g, focused, _ = para
    deg = vf._degree_bound(model, focused)
    # two pythagoras-style goals built from solve2 and products
    assert deg == 44


def test_verdict_summary_shape(para):
    model, scn, g, focused, _ = para
    v = vf.verdict(model, focused, stream_of(scn, 42, 5))
    out = vf.verdict_summary(v)
    assert out["status"] == "PROVED"
    assert out["samples"]["count"] == 5
    assert out["samples"] == {"count": 5, "max_claim_residual": 0.0}
    assert out["schedule"][-2:] == ["CD", "DO"]
    assert out["certificate"]["kind"] == "exact-identity"
    empty = vf.verdict_summary(vf.verdict(None, None, None))
    assert empty == {"status": "INCONCLUSIVE",
                     "reason": "no derivation schedule",
                     "samples": {"count": 0}}
