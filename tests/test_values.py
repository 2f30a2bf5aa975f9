"""Value semantics of the prover's record classes.

Every construction, line form and symbol-naming expression in
`dsl.ARGS`, the statement and claim classes, and the records the
pipeline passes between stages behave as frozen values: positional and
keyword construction agree, equal fields give equal objects with equal
hashes, a source span takes no part in equality, classes never compare
equal to each other, and no field can be assigned.  Dimensions are the
exception: interned, they compare by identity.
"""

from fractions import Fraction

import pytest

from gthm import dsl, graph as gr, rules, scene as sc, verify as vf

S1, S2 = dsl.Span(1, 2, 1, 9), dsl.Span(4, 1, 4, 7)
AB, BC = rules.length("A", "B"), rules.length("B", "C")
NUM = dsl.NumLit(S1, Fraction(3))
EDGE = rules.Hyperedge((AB,), BC, "segment-chain", "shares an endpoint",
                       ("copy", AB), 2)
STEP = gr.ScheduleStep(BC, EDGE)
PA = sc.ParamAssignment((("x", Fraction(3)), ("y", Fraction(5, 2))))
REPORT = vf.SampleReport(0, 7, PA, 1e-12, False, 0)
CERT = vf.Certificate("exact-identity", 4, 9, 20, -3.5, True, "a note")

# the fields of each class in positional order, with one value each
ARG_VALUES = {"p": "A", "q": "B", "center": "C", "name": "r", "dist": NUM,
              "radius": NUM, "line": dsl.ThroughPoints("A", "B"),
              "l1": dsl.ThroughPoints("A", "B"), "l2": dsl.LineRef("m"),
              "base": dsl.LineRef("m"), "pick": dsl.PickFirst(), "span": S1}
CONSTRUCTIONS = {
    dsl.Origin: ("span",),
    dsl.Baseline: ("p", "dist", "span"),
    dsl.OnSegment: ("p", "q", "dist", "span"),
    dsl.OffsetPerp: ("p", "line", "dist", "span"),
    dsl.Meet: ("l1", "l2", "span"),
    dsl.MeetCircle: ("line", "center", "radius", "pick", "span"),
    dsl.Foot: ("p", "line", "span"),
    dsl.PickFirst: ("span",),
    dsl.PickSecond: ("span",),
    dsl.PickWithinSegment: ("p", "q", "span"),
    dsl.PickNearest: ("p", "span"),
    dsl.ThroughPoints: ("p", "q", "span"),
    dsl.ExtendRay: ("p", "q", "span"),
    dsl.ThroughParallel: ("p", "base", "span"),
    dsl.NameRef: ("span", "name"),
    dsl.LenExpr: ("span", "p", "q"),
}
CASES = {cls: (names, tuple(ARG_VALUES[n] for n in names))
         for cls, names in CONSTRUCTIONS.items()}
CASES.update({
    dsl.Statement: (("kind", "name", "payload", "aux", "span"),
                    ("point-construction", "D", dsl.Foot("A", dsl.LineRef("m")),
                     True, S1)),
    dsl.ClaimTerm: (("coef", "p", "q", "span"), (Fraction(2), "A", "B", S1)),
    dsl.ClaimEq: (("lhs", "rhs", "span"),
                  ((dsl.ClaimTerm(Fraction(1), "A", "B"),),
                   (dsl.ClaimTerm(Fraction(1), "B", "C"),), S1)),
    dsl.Span: (("line", "col", "end_line", "end_col"), (1, 2, 3, 4)),
    sc.ParamAssignment: (("items",), (PA.items,)),
    rules.Hyperedge: (("sources", "target", "rule", "justification", "recipe",
                       "subpriority"),
                      ((AB,), BC, "segment-chain", "j", ("copy", AB), 2)),
    gr.Node: (("dim", "index", "is_param", "is_goal"), (AB, 3, True, False)),
    gr.ScheduleStep: (("dim", "edge"), (BC, EDGE)),
    vf.SampleReport: (("index", "seed", "assignment", "claim_residual",
                       "exact", "redraws"), (0, 7, PA, 1e-12, False, 0)),
    vf.Certificate: (("kind", "degree_bound", "sample_space", "points",
                      "log10_failure_bound", "certified", "note"),
                     ("exact-identity", 4, 9, 20, -3.5, True, "a note")),
    vf.Verdict: (("status", "samples", "reason", "schedule", "certificate"),
                 ("PROVED", (REPORT,), "held", (STEP,), CERT)),
})
CLASSES = sorted(CASES, key=lambda c: c.__name__)


def build(cls, **changes):
    names, values = CASES[cls]
    return cls(*(changes.get(n, v) for n, v in zip(names, values)))


def test_every_table_class_is_covered():
    for cls, kinds in dsl.ARGS.items():
        names = CONSTRUCTIONS[cls]
        assert len([n for n in names if n != "span"]) == len(kinds), cls


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    names, values = CASES[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword and by_position is not by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert [getattr(by_keyword, n) for n in names] == list(values)
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_each_field_but_the_span_decides_equality(cls):
    names, _ = CASES[cls]
    record = build(cls)
    for name in names:
        other = build(cls, **{name: object()})
        assert (other == record) == (name == "span"), name
        assert (other != record) == (name != "span"), name
    if "span" in names:
        moved = build(cls, span=S2)
        assert hash(moved) == hash(record)
        assert "span=" not in repr(record)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assigning_or_deleting_a_field_raises(cls):
    names, values = CASES[cls]
    record = build(cls)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == build(cls)


def test_classes_with_equal_fields_are_unequal():
    assert dsl.ThroughPoints("A", "B") != dsl.ExtendRay("A", "B")
    assert not dsl.ThroughPoints("A", "B") == dsl.ExtendRay("A", "B")
    empty = [dsl.Origin(), dsl.PickFirst(), dsl.PickSecond()]
    for i, a in enumerate(empty):
        for j, b in enumerate(empty):
            assert (a == b) == (i == j)
    assert dsl.PickFirst() == dsl.PickFirst(S2)


def test_tokens_compare_their_span():
    assert dsl.Token("IDENT", "x", S1) == dsl.Token("IDENT", "x", S1)
    assert dsl.Token("IDENT", "x", S1) != dsl.Token("IDENT", "x", S2)


def test_defaults():
    nospan = dsl.Span(0, 0, 0, 0)
    for cls, (names, values) in CASES.items():
        if names[-1] == "span":
            assert cls(*values[:-1]).span == nospan, cls
    assert dsl.Statement("claim", "", None).aux is False
    assert rules.Hyperedge((AB,), BC, "r", "j", ()).subpriority == 0
    node = gr.Node(AB, 0)
    assert (node.is_param, node.is_goal) == (False, False)
    report = vf.SampleReport(0, 7, PA, 0.0)
    assert (report.exact, report.redraws) == (True, 0)
    verdict = vf.Verdict("REFUTED", (), "missed")
    assert (verdict.schedule, verdict.certificate) == (None, None)
    assert dsl.NumLit(S1).value == 0 and dsl.NameRef(S1).name == ""
    with pytest.raises(TypeError):
        gr.Node(AB)
    with pytest.raises(TypeError):
        dsl.ThroughPoints("A")


def test_repr_shows_the_compared_fields():
    assert repr(dsl.ThroughPoints("A", "B", S1)) == "ThroughPoints(p='A', q='B')"
    assert repr(dsl.Span(1, 2, 3, 4)) == "Span(line=1, col=2, end_line=3, end_col=4)"
    assert repr(dsl.Origin(S1)) == "Origin()"
    assert repr(AB) == "Dim(AB)"


def test_dims_compare_by_identity():
    assert rules.length("B", "A") is AB
    twin = rules.Dim("length", ("A", "B"), display="AB")
    assert twin != AB and AB == AB
    assert hash(AB) == object.__hash__(AB)
    assert rules.make_ratio(AB, BC) is rules.make_ratio(BC, AB)
    with pytest.raises(AttributeError):
        AB.display = "BA"
