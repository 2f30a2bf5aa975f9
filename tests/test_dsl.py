"""Parser and validator behavior, anchored on the fixture corpus."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gthm import dsl

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read(name: str) -> str:
    return (FIXTURES / name).read_text()


def test_parallelogram_statement_count():
    stmts = dsl.parse(read("parallelogram.gthm"))
    assert len(stmts) == 13


def test_parallelogram_model_shape():
    model = dsl.validate(dsl.parse(read("parallelogram.gthm")))
    assert model.params == ("x", "y", "z")
    assert model.points == ("O", "A", "E", "B", "C", "D", "F", "G")
    assert model.lines == ("base",)
    assert model.aux == frozenset({"F", "G"})
    assert model.origin == "O"
    assert model.base_point == "A"
    assert model.claim.kind == "claim"


def test_parallelogram_claim_terms():
    model = dsl.validate(dsl.parse(read("parallelogram.gthm")))
    claim = model.claim.payload
    assert isinstance(claim, dsl.ClaimEq)
    (lt,) = claim.lhs
    (rt,) = claim.rhs
    assert (lt.coef, lt.p, lt.q) == (Fraction(1), "O", "D")
    assert (rt.coef, rt.p, rt.q) == (Fraction(1), "C", "D")


def test_claim_coefficients():
    model = dsl.validate(dsl.parse(read("parallelogram_bad.gthm")))
    claim = model.claim.payload
    (rt,) = claim.rhs
    assert rt.coef == Fraction(2)


def test_fractional_claim_coefficient():
    text = read("parallelogram.gthm").replace(
        "claim len(O,D) = len(C,D)", "claim 1/2*len(O,D) = len(C,D)")
    model = dsl.validate(dsl.parse(text))
    (lt,) = model.claim.payload.lhs
    assert lt.coef == Fraction(1, 2)


def test_all_fixtures_validate():
    for name in ("parallelogram.gthm", "parallelogram_bd.gthm", "parallelogram_bad.gthm",
                 "imo2012.gthm", "unreachable.gthm", "degenerate.gthm"):
        model = dsl.validate(dsl.parse(read(name)), filename=name)
        assert model.claim


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\nparam t\n   # indented comment\npoint O = origin  # trailing\n"
    stmts = dsl.parse(text)
    assert [s.kind for s in stmts] == ["param-decl", "point-construction"]


def test_decimal_literals_are_exact():
    stmts = dsl.parse("point A = baseline(O, 2.5)\n")
    dist = stmts[0].payload.dist
    assert isinstance(dist, dsl.NumLit)
    assert dist.value == Fraction(5, 2)


def test_arithmetic_precedence():
    stmts = dsl.parse("point B = baseline(D, a + h*h/a)\n")
    dist = stmts[0].payload.dist
    assert isinstance(dist, dsl.BinOp) and dist.op == "+"
    assert isinstance(dist.right, dsl.BinOp) and dist.right.op == "/"
    assert isinstance(dist.right.left, dsl.BinOp) and dist.right.left.op == "*"


def test_syntax_error_has_position():
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse("param x\npoint O = origin(\n", filename="bad.gthm")
    err = exc.value
    assert err.filename == "bad.gthm"
    assert err.span.line == 2
    assert str(err).startswith("bad.gthm:2:")


def test_unexpected_character():
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse("param x$\n")
    assert exc.value.span.col == 8


def test_unknown_symbol():
    text = "param x\npoint O = origin\npoint A = baseline(O, w)\npoint Q = baseline(O, x)\nclaim len(O,A) = len(O,Q)\n"
    with pytest.raises(dsl.UnknownSymbol) as exc:
        dsl.validate(dsl.parse(text))
    assert "'w'" in exc.value.message
    assert exc.value.span.line == 3


def test_forward_reference_is_distinguished():
    text = ("param x\npoint O = origin\npoint A = baseline(O, x)\n"
            "point E = on_segment(O, B, x)\npoint B = baseline(O, x)\n"
            "claim len(O,A) = len(O,E)\n")
    with pytest.raises(dsl.ForwardReference) as exc:
        dsl.validate(dsl.parse(text))
    assert exc.value.span.line == 4


def test_duplicate_symbol():
    text = "param x\nparam x\n"
    with pytest.raises(dsl.DuplicateSymbol):
        dsl.validate(dsl.parse(text))


def test_origin_must_come_first():
    text = ("param x\npoint A = baseline(O, x)\npoint O = origin\n"
            "claim len(O,A) = len(O,A)\n")
    with pytest.raises((dsl.MissingFrameAnchor, dsl.ForwardReference)):
        dsl.validate(dsl.parse(text))


def test_second_point_must_be_baseline_at_origin():
    text = ("param x\npoint O = origin\npoint P = foot(O, through(O,O))\n")
    with pytest.raises(dsl.MissingFrameAnchor) as exc:
        dsl.validate(dsl.parse(text))
    assert exc.value.span.line == 3


def test_claim_requires_distinct_points():
    text = ("param x\npoint O = origin\npoint A = baseline(O, x)\n"
            "claim len(O,O) = len(O,A)\n")
    with pytest.raises(dsl.BadClaim):
        dsl.validate(dsl.parse(text))


def test_kind_mismatch_reported():
    text = ("param x\npoint O = origin\npoint A = baseline(O, x)\n"
            "point E = on_segment(O, x, x)\nclaim len(O,A) = len(O,E)\n")
    with pytest.raises(dsl.UnknownSymbol) as exc:
        dsl.validate(dsl.parse(text))
    assert "expected a point" in exc.value.message


def test_line_alias_rejected():
    with pytest.raises(dsl.ParseFailure):
        dsl.parse("line m = base\n")


def test_aux_only_on_points():
    with pytest.raises(dsl.ParseFailure):
        dsl.parse("aux line m = through(A,B)\n")


def test_line_length_limit():
    long = "param " + "x" * 1200 + "\n"
    with pytest.raises(dsl.LimitExceeded):
        dsl.parse(long)


def test_second_claim_rejected():
    text = read("parallelogram.gthm") + "claim len(O,D) = 2*len(C,D)\n"
    with pytest.raises(dsl.BadClaim) as exc:
        dsl.validate(dsl.parse(text))
    assert exc.value.span.line == len(text.splitlines())
    assert exc.value.message == "a second claim is not allowed"


# each statement below is line 5 of DIAG_HEAD + statement + DIAG_TAIL;
# Z and m are declared after it, W and w nowhere
DIAG_HEAD = "param x\npoint O = origin\npoint A = baseline(O, x)\nline l = through(O, A)\n"
DIAG_TAIL = "point Z = baseline(O, 2*x)\nline m = through(O, Z)\nclaim len(O,A) = len(O,Z)\n"

# (statement, "column: message") for every construction, pick and line
# form: each argument position missing its delimiter, of the wrong kind,
# undeclared, declared later, and naming the wrong kind of symbol, and
# trailing input; then the other statement forms
DIAGNOSTICS = [
    ('point P = baseline O, x)', "20: expected '('"),
    ('point P = baseline(O, x', "24: expected ')'"),
    ('point P = baseline(O, x) y', "26: unexpected trailing input 'y'"),
    ('point P = baseline(O x)', "22: expected ','"),
    ('point P = baseline(1, x)', '20: expected point name'),
    ('point P = baseline(W, x)', "11: unknown symbol 'W'"),
    ('point P = baseline(Z, x)', "11: symbol 'Z' is used before its declaration"),
    ('point P = baseline(x, x)', "11: symbol 'x' is a param, expected a point"),
    ('point P = baseline(O, ,)', '23: expected expression'),
    ('point P = baseline(O, w)', "23: unknown symbol 'w'"),
    ('point P = baseline(O, len(O,Z))', "23: symbol 'Z' is used before its declaration"),
    ('point P = baseline(O, O)', "23: symbol 'O' is a point, expected a param"),
    ('point P = on_segment O, O, x)', "22: expected '('"),
    ('point P = on_segment(O, O, x', "29: expected ')'"),
    ('point P = on_segment(O, O, x) y', "31: unexpected trailing input 'y'"),
    ('point P = on_segment(O O, x)', "24: expected ','"),
    ('point P = on_segment(O, O x)', "27: expected ','"),
    ('point P = on_segment(1, O, x)', '22: expected point name'),
    ('point P = on_segment(W, O, x)', "11: unknown symbol 'W'"),
    ('point P = on_segment(Z, O, x)', "11: symbol 'Z' is used before its declaration"),
    ('point P = on_segment(x, O, x)', "11: symbol 'x' is a param, expected a point"),
    ('point P = on_segment(O, 1, x)', '25: expected point name'),
    ('point P = on_segment(O, W, x)', "11: unknown symbol 'W'"),
    ('point P = on_segment(O, Z, x)', "11: symbol 'Z' is used before its declaration"),
    ('point P = on_segment(O, x, x)', "11: symbol 'x' is a param, expected a point"),
    ('point P = on_segment(O, O, ,)', '28: expected expression'),
    ('point P = on_segment(O, O, w)', "28: unknown symbol 'w'"),
    ('point P = on_segment(O, O, len(O,Z))', "28: symbol 'Z' is used before its declaration"),
    ('point P = on_segment(O, O, O)', "28: symbol 'O' is a point, expected a param"),
    ('point P = offset_perp O, l, x)', "23: expected '('"),
    ('point P = offset_perp(O, l, x', "30: expected ')'"),
    ('point P = offset_perp(O, l, x) y', "32: unexpected trailing input 'y'"),
    ('point P = offset_perp(O l, x)', "25: expected ','"),
    ('point P = offset_perp(O, l x)', "28: expected ','"),
    ('point P = offset_perp(1, l, x)', '23: expected point name'),
    ('point P = offset_perp(W, l, x)', "11: unknown symbol 'W'"),
    ('point P = offset_perp(Z, l, x)', "11: symbol 'Z' is used before its declaration"),
    ('point P = offset_perp(x, l, x)', "11: symbol 'x' is a param, expected a point"),
    ('point P = offset_perp(O, 1, x)', '26: expected a line'),
    ('point P = offset_perp(O, W, x)', "26: unknown symbol 'W'"),
    ('point P = offset_perp(O, m, x)', "26: symbol 'm' is used before its declaration"),
    ('point P = offset_perp(O, O, x)', "26: symbol 'O' is a point, expected a line"),
    ('point P = offset_perp(O, l, ,)', '29: expected expression'),
    ('point P = offset_perp(O, l, w)', "29: unknown symbol 'w'"),
    ('point P = offset_perp(O, l, len(O,Z))', "29: symbol 'Z' is used before its declaration"),
    ('point P = offset_perp(O, l, O)', "29: symbol 'O' is a point, expected a param"),
    ('point P = meet l, l)', "16: expected '('"),
    ('point P = meet(l, l', "20: expected ')'"),
    ('point P = meet(l, l) y', "22: unexpected trailing input 'y'"),
    ('point P = meet(l l)', "18: expected ','"),
    ('point P = meet(1, l)', '16: expected a line'),
    ('point P = meet(W, l)', "16: unknown symbol 'W'"),
    ('point P = meet(m, l)', "16: symbol 'm' is used before its declaration"),
    ('point P = meet(O, l)', "16: symbol 'O' is a point, expected a line"),
    ('point P = meet(l, 1)', '19: expected a line'),
    ('point P = meet(l, W)', "19: unknown symbol 'W'"),
    ('point P = meet(l, m)', "19: symbol 'm' is used before its declaration"),
    ('point P = meet(l, O)', "19: symbol 'O' is a point, expected a line"),
    ('point P = meet_circle l, O, x, first)', "23: expected '('"),
    ('point P = meet_circle(l, O, x, first', "37: expected ')'"),
    ('point P = meet_circle(l, O, x, first) y', "39: unexpected trailing input 'y'"),
    ('point P = meet_circle(l O, x, first)', "25: expected ','"),
    ('point P = meet_circle(l, O x, first)', "28: expected ','"),
    ('point P = meet_circle(l, O, x first)', "31: expected ','"),
    ('point P = meet_circle(1, O, x, first)', '23: expected a line'),
    ('point P = meet_circle(W, O, x, first)', "23: unknown symbol 'W'"),
    ('point P = meet_circle(m, O, x, first)', "23: symbol 'm' is used before its declaration"),
    ('point P = meet_circle(O, O, x, first)', "23: symbol 'O' is a point, expected a line"),
    ('point P = meet_circle(l, 1, x, first)', '26: expected point name'),
    ('point P = meet_circle(l, W, x, first)', "11: unknown symbol 'W'"),
    ('point P = meet_circle(l, Z, x, first)', "11: symbol 'Z' is used before its declaration"),
    ('point P = meet_circle(l, x, x, first)', "11: symbol 'x' is a param, expected a point"),
    ('point P = meet_circle(l, O, ,, first)', '29: expected expression'),
    ('point P = meet_circle(l, O, w, first)', "29: unknown symbol 'w'"),
    ('point P = meet_circle(l, O, len(O,Z), first)',
     "29: symbol 'Z' is used before its declaration"),
    ('point P = meet_circle(l, O, O, first)', "29: symbol 'O' is a point, expected a param"),
    ('point P = meet_circle(l, O, x, 1)', '32: expected root pick policy'),
    ('point P = meet_circle(l, O, x, last)', "32: unknown pick policy 'last'"),
    ('point P = meet_circle(l, O, x, nearest(W))', "32: unknown symbol 'W'"),
    ('point P = meet_circle(l, O, x, nearest(Z))',
     "32: symbol 'Z' is used before its declaration"),
    ('point P = meet_circle(l, O, x, nearest(l))', "32: symbol 'l' is a line, expected a point"),
    ('point P = foot O, l)', "16: expected '('"),
    ('point P = foot(O, l', "20: expected ')'"),
    ('point P = foot(O, l) y', "22: unexpected trailing input 'y'"),
    ('point P = foot(O l)', "18: expected ','"),
    ('point P = foot(1, l)', '16: expected point name'),
    ('point P = foot(W, l)', "11: unknown symbol 'W'"),
    ('point P = foot(Z, l)', "11: symbol 'Z' is used before its declaration"),
    ('point P = foot(x, l)', "11: symbol 'x' is a param, expected a point"),
    ('point P = foot(O, 1)', '19: expected a line'),
    ('point P = foot(O, W)', "19: unknown symbol 'W'"),
    ('point P = foot(O, m)', "19: symbol 'm' is used before its declaration"),
    ('point P = foot(O, O)', "19: symbol 'O' is a point, expected a line"),
    ('point P = origin(', "18: expected ')'"),
    ('point P = origin)', "17: unexpected trailing input ')'"),
    ('point P = origin(x)', "18: expected ')'"),
    ('point P = origin', '1: a second origin point is not allowed'),
    ('point P = 1', '11: expected a point construction'),
    ('point P = circle(O)', "11: unknown point construction 'circle'"),
    ('point P =', '10: expected a point construction'),
    ('point P baseline(O, x)', "9: expected '='"),
    ('point P = meet_circle(l, O, x, within_segment(O A))', "49: expected ','"),
    ('point P = meet_circle(l, O, x, within_segment(O, A)', "52: expected ')'"),
    ('point P = meet_circle(l, O, x, within_segment O, A))', "47: expected '('"),
    ('point P = meet_circle(l, O, x, within_segment(O, 1))', '50: expected point name'),
    ('point P = meet_circle(l, O, x, within_segment(W, A))', "32: unknown symbol 'W'"),
    ('point P = meet_circle(l, O, x, within_segment(O, Z))',
     "32: symbol 'Z' is used before its declaration"),
    ('point P = meet_circle(l, O, x, within_segment(x, A))',
     "32: symbol 'x' is a param, expected a point"),
    ('point P = meet_circle(l, O, x, nearest O))', "40: expected '('"),
    ('point P = meet_circle(l, O, x, nearest(O)', "42: expected ')'"),
    ('point P = meet_circle(l, O, x, nearest(1))', '40: expected point name'),
    ('point P = meet_circle(l, O, x, nearest(O, A))', "41: expected ')'"),
    ('point P = meet_circle(l, O, x, first())', "37: expected ')'"),
    ('point P = meet_circle(l, O, x, second(O))', "38: expected ')'"),
    ('point P = foot(A, through(O A))', "29: expected ')'"),
    ('point P = foot(A, through(O, A)', "32: expected ')'"),
    ('point P = foot(A, through O, A))', "27: expected '('"),
    ('point P = foot(A, through(1, A))', '27: expected point name'),
    ('point P = foot(A, through(O, 1))', '30: expected point name'),
    ('point P = foot(A, through(W, A))', "19: unknown symbol 'W'"),
    ('point P = foot(A, through(O, Z))', "19: symbol 'Z' is used before its declaration"),
    ('line n = through(O, Z)', "10: symbol 'Z' is used before its declaration"),
    ('point P = foot(A, through(x, A))', "19: symbol 'x' is a param, expected a point"),
    ('point P = foot(A, through(O, l))', "19: symbol 'l' is a line, expected a point"),
    ('point P = foot(A, through(O) parallel(l)', "41: expected ')'"),
    ('point P = foot(A, through(O) parallel l))', "39: expected '('"),
    ('point P = foot(A, through(O) parallel(1))', '39: expected a line'),
    ('point P = foot(A, through(O) perpendicular(l))', "30: expected 'parallel' after through(P)"),
    ('point P = foot(A, through(O))', "29: expected 'parallel'"),
    ('line n = through(O)', "20: expected 'parallel'"),
    ('point P = foot(A, through(O) parallel(W))', "39: unknown symbol 'W'"),
    ('point P = foot(A, through(O) parallel(m))', "39: symbol 'm' is used before its declaration"),
    ('line n = through(O) parallel(m)', "30: symbol 'm' is used before its declaration"),
    ('point P = foot(A, through(Z) parallel(l))', "19: symbol 'Z' is used before its declaration"),
    ('point P = foot(A, through(O) parallel(O))', "39: symbol 'O' is a point, expected a line"),
    ('point P = foot(A, through(O) parallel(through(O, Z)))',
     "39: symbol 'Z' is used before its declaration"),
    ('point P = foot(A, through(O) parallel(through(O) parallel(m)))',
     "59: symbol 'm' is used before its declaration"),
    ('point P = foot(A, extend_ray(O A))', "32: expected ','"),
    ('line n = extend_ray(O A)', "23: expected ','"),
    ('point P = foot(A, extend_ray(O, A)', "35: expected ')'"),
    ('point P = foot(A, extend_ray O, A))', "30: expected '('"),
    ('point P = foot(A, extend_ray(1, A))', '30: expected point name'),
    ('point P = foot(A, extend_ray(O, W))', "19: unknown symbol 'W'"),
    ('point P = foot(A, extend_ray(Z, A))', "19: symbol 'Z' is used before its declaration"),
    ('point P = foot(A, extend_ray(O, x))', "19: symbol 'x' is a param, expected a point"),
    ('point P = foot(A, 1)', '19: expected a line'),
    ('line n = 1', '10: expected a line'),
    ('point P = foot(A, (O, A))', '19: expected a line'),
    ('aux line n = through(O, A)', "5: 'aux' may only prefix a point construction"),
    ('aux param y', "5: 'aux' may only prefix a point construction"),
    ('line n through(O, A)', "8: expected '='"),
    ('param', '6: expected parameter name'),
    ('param y z', "9: unexpected trailing input 'z'"),
    ('point', '6: expected point name'),
    ('claim', "6: expected 'len'"),
    ('claim len(O,A)', "15: expected '='"),
    ('claim len(O,A) = 2', "19: expected '*'"),
    ('claim 2 len(O,A) = len(O,Z)', "9: expected '*'"),
    ('claim 1/x*len(O,A) = len(O,Z)', "9: expected a number after '/'"),
    ('claim area(O,A) = len(O,Z)', '7: claims may only mention len(P,Q) terms'),
    ('claim len(O,A) = len(O,W)', "18: unknown symbol 'W'"),
    ('claim len(O,A) = len(Z,Z)', "18: symbol 'Z' is used before its declaration"),
    ('claim len(O,A) = len(O,l)', "18: symbol 'l' is a line, expected a point"),
    ('claim len(O,A = len(O,Z)', "15: expected ')'"),
    ('claim len(O A) = len(O,Z)', "13: expected ','"),
    ('claim len O,A) = len(O,Z)', "11: expected '('"),
    ('point P = baseline(O, len(O A))', "29: expected ','"),
    ('point P = baseline(O, len(O, A)', "32: expected ')'"),
    ('point P = baseline(O, (x)', "26: expected ')'"),
    ('point P = baseline(O, x +)', '26: expected expression'),
    ('point P = baseline(O, -)', '24: expected expression'),
    ('point P = baseline(O, x$)', "24: unexpected character '$'"),
    ('point O = baseline(A, x)', "1: symbol 'O' is already declared"),
    ('line O = through(O, A)', "1: symbol 'O' is already declared"),
    ('point P = baseline(O, len(W, A))', "23: unknown symbol 'W'"),
    ('point P = baseline(O, len(O, x))', "23: symbol 'x' is a param, expected a point"),
]


@pytest.mark.parametrize("stmt,expected", DIAGNOSTICS)
def test_diagnostic_text_and_position(stmt, expected):
    with pytest.raises(dsl.DslError) as exc:
        dsl.validate(dsl.parse(DIAG_HEAD + stmt + "\n" + DIAG_TAIL))
    assert str(exc.value) == "<input>:5:" + expected


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="paramointlclbse xyzODC()=,+-*/#.0123456789\n_", max_size=200))
def test_parser_total_over_junk(text):
    # any input either parses and validates or raises a positioned
    # diagnostic
    try:
        dsl.validate(dsl.parse(text))
    except dsl.DslError as err:
        assert err.span.line >= 1
        assert err.span.col >= 1
