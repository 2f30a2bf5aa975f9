"""Text, JSON, DOT, and scene rendering."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from gthm import dsl, emit, graph as gr, rules, scene as sc, verify as vf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    text = (FIXTURES / name).read_text()
    model = dsl.validate(dsl.parse(text, name), name)
    return model, sc.build_scene(model)


@pytest.fixture(scope="module")
def para():
    model, scn = load("parallelogram.gthm")
    stream = sc.SampleStream(scn, 42, sc.DEFAULT_RANGE, 100)
    g = gr.grow_detailed(stream.witness[1], stream)
    assert not g.pending
    focused = gr.focus(g, gr.topo_order(g))
    v = vf.verdict(focused, stream)
    return model, scn, g, focused, v


def render(name, samples=100, seed=42):
    model, scn = load(name)
    stream = sc.SampleStream(scn, seed, sc.DEFAULT_RANGE, samples)
    g = gr.grow_detailed(stream.witness[1], stream)
    schedule = gr.topo_order(g) if not g.pending else None
    focused = gr.focus(g, schedule) if schedule else None
    v = vf.verdict(focused, stream)
    stem = name.rsplit(".", 1)[0]
    return model, focused, v, stem


# --- text --------------------------------------------------------------------


def test_parallelogram_script_shape(para):
    model, scn, g, focused, v = para
    text = emit.render_text(model, v, theorem="parallelogram")
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "Theorem: parallelogram"
    assert lines[1] == "Claim: OD = CD"
    assert lines[2] == ""
    assert lines[3:6] == ["Given AO (parameter)", "Given EO (parameter)",
                          "Given BE (parameter)"]
    deriv = [l for l in lines if ". Find" in l]
    assert len(deriv) == 12
    assert deriv[0].startswith(" 1. Find CG (rule: parallel-transfer, "
                               "using {BE})")
    assert lines[-1] == "Check whether OD = CD ... PROVED"


def test_line_count_is_schedule_plus_frame(para):
    model, scn, g, focused, v = para
    text = emit.render_text(model, v, theorem="parallelogram")
    assert len(text.rstrip("\n").split("\n")) == len(focused) + 4
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_every_step_names_rule_and_sources(para):
    model, scn, g, focused, v = para
    text = emit.render_text(model, v, theorem="parallelogram")
    for step in focused:
        if step.edge is None:
            assert f"Given {step.dim.display} (parameter)" in text
        else:
            assert f"Find {step.dim.display} (rule: {step.edge.rule}," in text
            for src in step.edge.sources:
                assert src.display in text


def test_imo_script_footer_and_claim_order():
    model, focused, v, stem = render("imo2012.gthm")
    text = emit.render_text(model, v, theorem=stem)
    assert text.rstrip("\n").split("\n")[-1] == (
        "Check whether KM = ML ... PROVED")


def test_refuted_script_footer():
    model, focused, v, stem = render("parallelogram_bad.gthm")
    text = emit.render_text(model, v, theorem=stem)
    assert text.rstrip("\n").split("\n")[-1] == (
        "Check whether OD = 2*CD ... REFUTED")


def test_missing_schedule_renders_header_and_reason_only():
    model, scn = load("unreachable.gthm")
    stream = sc.SampleStream(scn, 42, sc.DEFAULT_RANGE,
                             rules.VALIDATION_SAMPLES)
    assert gr.grow_detailed(stream.witness[1], stream).pending
    v = vf.verdict(None, stream)
    text = emit.render_text(model, v, theorem="unreachable")
    assert text == ("Theorem: unreachable\n"
                    "Claim: BZ = AB\n"
                    "\n"
                    "INCONCLUSIVE: no derivation schedule\n")


def test_script_is_plain_ascii(para):
    model, scn, g, focused, v = para
    text = emit.render_text(model, v, theorem="parallelogram")
    assert text == text.encode("ascii", "strict").decode("ascii")
    assert chr(0x2014) not in text and chr(0x2026) not in text


# --- json ---------------------------------------------------------------


def test_json_round_trips_with_expected_keys(para):
    model, scn, g, focused, v = para
    out = json.loads(emit.render_json(model, v,
                                      theorem="parallelogram"))
    assert {"theorem", "status", "steps", "samples"} <= set(out)
    assert out["theorem"] == "parallelogram"
    assert out["status"] == "PROVED"
    assert len(out["steps"]) == 15
    assert out["samples"]["count"] == 100
    assert out["samples"]["max_claim_residual"] == 0.0
    assert out["certificate"]["kind"] == "exact-identity"


def test_json_steps_carry_rules_and_sources(para):
    model, scn, g, focused, v = para
    out = json.loads(emit.render_json(model, v))
    first = out["steps"][0]
    assert first == {"find": "AO", "rule": "parameter", "using": [],
                     "justification": "given as a parameter"}
    find_cg = next(s for s in out["steps"] if s["find"] == "CG")
    assert find_cg["rule"] == "parallel-transfer"
    assert find_cg["using"] == ["BE"]


def test_json_refuted_reports_worst_residual():
    model, focused, v, stem = render("parallelogram_bad.gthm")
    out = json.loads(emit.render_json(model, v, theorem=stem))
    assert out["status"] == "REFUTED"
    assert out["samples"]["max_claim_residual"] == 1.0


def test_json_bytes_stable_across_runs():
    model, _, v, _ = render("parallelogram.gthm", samples=20)
    a = emit.render_json(model, v, theorem="parallelogram")
    model, _, v, _ = render("parallelogram.gthm", samples=20)
    b = emit.render_json(model, v, theorem="parallelogram")
    assert a == b
    assert a.endswith("\n")


# --- dot and scene -----------------------------------------------------------


def test_dot_delegates_to_graph_renderer(para):
    model, scn, g, focused, v = para
    assert emit.render_dot(g, focused) == gr.to_dot(g, focused)
    assert emit.render_dot(g, focused).startswith("digraph derivation {")


def test_scene_lists_exact_coordinates(para):
    model, scn, g, focused, v = para
    a = sc.ParamAssignment((("x", Fraction(4)), ("y", Fraction(1)),
                            ("z", Fraction(2))))
    text = emit.render_scene(model, (a, sc.evaluate(scn, a)),
                             theorem="parallelogram")
    assert "param x = 4" in text
    assert "point O = (0, 0)" in text
    assert "point D = (5/2, 1)" in text
    assert text.endswith("\n")


def test_claim_text_keeps_author_point_order(para):
    model = para[0]
    # the canonical node display sorts the pair as DO; the claim does not
    assert emit.claim_text(model) == "OD = CD"


@pytest.mark.parametrize("claim,want", [
    ("len(O,A) - len(O,E) = len(A,E)", "OA - OE = AE"),
    ("len(O,A) - 2*len(O,E) + len(A,E) = len(A,E) - 1/2*len(O,A)",
     "OA - 2*OE + AE = AE - 1/2*OA"),
])
def test_claim_text_spells_a_subtracted_term_with_a_minus(claim, want):
    text = "\n".join(["param x", "param y", "point O = origin",
                      "point A = baseline(O, x)", "point E = baseline(O, y)",
                      f"claim {claim}"]) + "\n"
    model = dsl.validate(dsl.parse(text, "minus"), "minus")
    assert emit.claim_text(model) == want
    v = vf.Verdict(status="INCONCLUSIVE", samples=(), reason="",
                   schedule=())
    lines = emit.render_text(model, v).splitlines()
    assert lines[1] == f"Claim: {want}"
    assert lines[-1] == f"Check whether {want} ... INCONCLUSIVE"
