"""The nine acceptance checks, one test (and one pass/fail line) each.

Criteria 1-6 pin the shipped fixtures to their expected verdicts,
schedules, and tolerances; 7 stress-tests growth and the scheduler on a
thousand random pools against brute-force reachability; 8 checks scale
invariance of executed schedules; 9 checks byte-level determinism of
every output format on every fixture.
"""

import itertools
import json
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from gthm import cli, dsl, emit, graph as gr, scene as sc, verify as vf
from gthm.exactnum import as_float, mul, rel_err
from gthm.rules import VALIDATION_SAMPLES, composite, length, make_ratio
from test_graph import (forward_closure, kahn_reference, random_hypergraph,
                        random_tree, validate_schedule)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    text = (FIXTURES / name).read_text()
    model = dsl.validate(dsl.parse(text, name), name)
    return model, sc.build_scene(model)


def pipeline(name, seed=42, samples=100):
    model, scn = load(name)
    stream = sc.SampleStream(scn, seed, sc.DEFAULT_RANGE, samples)
    g = gr.grow_detailed(stream.witness[1], stream)
    assert not g.pending, f"{name}: goals left pending"
    schedule = gr.topo_order(g)
    focused = gr.focus(g, schedule)
    v = vf.verdict(focused, stream)
    return model, scn, g, focused, v


@pytest.fixture(scope="module")
def para():
    return pipeline("parallelogram.gthm")


@pytest.fixture(scope="module")
def imo():
    return pipeline("imo2012.gthm")


def test_01_parallelogram_proved_with_the_expected_fifteen_nodes(para):
    model, scn, g, focused, v = para
    assert v.status == vf.STATUS_PROVED
    # expected nodes: OA, OE, BE, CG/AG, CG, AE, AF/DF, AG, OG,
    # (OA-OF)/DF, DF/OF, DF, OF, CD, OD (node identity is unordered)
    want = {
        length("O", "A"), length("O", "E"), length("B", "E"),
        make_ratio(length("C", "G"), length("A", "G")), length("C", "G"),
        length("A", "E"), make_ratio(length("A", "F"), length("D", "F")),
        length("A", "G"), length("O", "G"),
        make_ratio(composite(("O", "A"), ("O", "F")), length("D", "F")),
        make_ratio(length("D", "F"), length("O", "F")), length("D", "F"),
        length("O", "F"), length("C", "D"), length("O", "D"),
    }
    assert {s.dim for s in focused} == want
    assert len(want) == 15
    assert validate_schedule(g, focused)
    assert len(v.samples) == 100
    assert all(r.claim_residual == 0.0 for r in v.samples)


def test_02_second_claim_bd_equals_ad_proved():
    model, scn, g, focused, v = pipeline("parallelogram_bd.gthm")
    assert v.status == vf.STATUS_PROVED
    assert all(r.claim_residual == 0.0 for r in v.samples)
    assert validate_schedule(g, focused)


def test_03_imo2012_proved_with_all_listed_dimensions(imo):
    model, scn, g, focused, v = imo
    assert v.status == vf.STATUS_PROVED
    assert len(v.samples) == 100
    scheduled = {s.dim for s in focused}
    listed = ["AC", "BD", "BC", "AX", "BX", "KN", "AN",
              "LS", "AS", "BN", "MR", "AR", "KM", "ML"]
    for pair in listed:
        assert length(pair[0], pair[1]) in scheduled, f"missing {pair}"


def test_04_wrong_claim_refuted_with_margin_at_every_sample():
    model, scn, g, focused, v = pipeline("parallelogram_bad.gthm")
    assert v.status == vf.STATUS_REFUTED
    tol = 1e-9
    assert len(v.samples) == 100
    for r in v.samples:
        assert r.claim_residual >= 10 * tol


def test_05_underivable_claim_is_absent_and_inconclusive(capsys):
    model, scn = load("unreachable.gthm")
    stream = sc.SampleStream(scn, 42, sc.DEFAULT_RANGE, VALIDATION_SAMPLES)
    assert gr.grow_detailed(stream.witness[1], stream).pending
    code = cli.main(["prove", str(FIXTURES / "unreachable.gthm"),
                     "--samples", "5"])
    capsys.readouterr()
    assert code == cli.EXIT_INCONCLUSIVE


def test_06_executed_values_match_the_oracle_on_both_theorems(para, imo):
    # validation replays each step from oracle values at every verdict
    # sample; the chained execution it stands for agrees with the oracle
    for model, scn, g, focused, v in (para, imo):
        assert len(v.samples) == 100
        for r in v.samples:
            ev = sc.evaluate(scn, r.assignment)
            rational = {p for p, xy in ev.points.items()
                        if all(type(c) is Fraction for c in xy)}
            chained = vf.execute_schedule(scn, focused, r.assignment)
            assert list(chained) == [s.dim for s in focused]
            for dim, value in chained.items():
                err = rel_err(value, sc.dim_value(ev, dim))
                if vf._dim_points(dim) <= rational:
                    assert err == 0.0, f"{dim.display} not exact"
                else:
                    assert err <= 1e-9


def _derivable_by_choice_enumeration(edges, params, goals, cap=4096):
    """Try every per-node edge choice; None when too many to try."""
    by_target = defaultdict(list)
    for e in edges:
        by_target[e.target].append(e)
    targets = list(by_target)
    combos = 1
    for t in targets:
        combos *= len(by_target[t])
        if combos > cap:
            return None
    goal_set = set(goals)
    for choice in itertools.product(*(by_target[t] for t in targets)):
        known = set(params)
        changed = True
        while changed:
            changed = False
            for e in choice:
                if e.target not in known and all(
                        s in known for s in e.sources):
                    known.add(e.target)
                    changed = True
        if goal_set <= known:
            return True
    return False


def test_07_scheduler_sound_on_a_thousand_random_hypergraphs():
    enumerated = 0
    for seed in range(1000):
        graph, params, kept = random_hypergraph(seed)
        assert len(graph.nodes) <= 30
        schedule = gr.topo_order(graph)
        derivable = set(graph.goals) <= forward_closure(kept, params)
        assert (not graph.pending) == derivable, f"seed {seed}"
        assert validate_schedule(graph, schedule), f"seed {seed}"
        brute = _derivable_by_choice_enumeration(kept, params, graph.goals)
        if brute is not None:
            enumerated += 1
            assert brute == (not graph.pending), f"seed {seed}: brute"
    assert enumerated >= 500  # most cases are small enough to enumerate

    # on plain digraphs the order must equal textbook Kahn
    for seed in range(100):
        graph = random_tree(seed)
        schedule = gr.topo_order(graph)
        assert [s.dim for s in schedule] == kahn_reference(graph)


def test_08_scaling_parameters_scales_lengths_and_fixes_ratios(para, imo):
    ks = [Fraction(3, 2), Fraction(2, 3), Fraction(7, 4), Fraction(5),
          Fraction(1, 3)]
    for model, scn, g, focused, v in (para, imo):
        for i in range(20):
            base, _ = sc.sample_params(scn, 9000 + i)
            k = ks[i % len(ks)]
            scaled = sc.ParamAssignment(
                tuple((n, val * k) for n, val in base.items))
            v1 = vf.execute_schedule(scn, focused, base)
            v2 = vf.execute_schedule(scn, focused, scaled)
            for dim, val in v1.items():
                want = val if dim.kind == "ratio" else mul(k, val)
                got = as_float(v2[dim])
                assert abs(got - as_float(want)) <= 1e-12 * max(
                    1.0, abs(as_float(want))), dim.display


def test_09_all_outputs_byte_identical_across_reruns(capsys):
    fixtures = sorted(p.name for p in FIXTURES.glob("*.gthm"))
    assert len(fixtures) >= 6
    for name in fixtures:
        for fmt in ("text", "json", "dot"):
            outs = []
            for _ in range(2):
                code = cli.main(["prove", str(FIXTURES / name),
                                 "--samples", "25", "--seed", "42",
                                 "--emit", fmt])
                cap = capsys.readouterr()
                outs.append((code, cap.out, cap.err))
            assert outs[0] == outs[1], f"{name} --emit {fmt} not stable"
