import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gthm import exactnum as ex
from gthm.exactnum import Rad


rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64)
pos_rationals = st.fractions(min_value=Fraction(1, 64), max_value=Fraction(50), max_denominator=64)


def test_sqrt_exact_perfect_square_collapses():
    assert ex.sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert ex.sqrt_exact(Fraction(0)) == Fraction(0)


def test_sqrt_exact_nonsquare_is_rad():
    r = ex.sqrt_exact(Fraction(29, 4))
    assert isinstance(r, Rad)
    assert r.radicand == Fraction(29, 4)
    assert abs(float(r) - math.sqrt(7.25)) < 1e-15


def test_sqrt_exact_negative_raises():
    with pytest.raises(ValueError):
        ex.sqrt_exact(Fraction(-1))


def test_rad_plus_rad_same_radicand_stays_exact():
    r = ex.sqrt_exact(Fraction(2))
    s = ex.add(r, r)
    assert isinstance(s, Rad) and s.radicand == Fraction(8)
    assert ex.sub(r, r) == Fraction(0)


def test_rad_times_rad_collapses_when_square():
    r = ex.sqrt_exact(Fraction(2))
    assert ex.mul(r, r) == Fraction(2)
    assert ex.div(r, r) == Fraction(1)


def test_fraction_times_rad_scales_radicand():
    r = ex.sqrt_exact(Fraction(29, 4))
    doubled = ex.mul(Fraction(2), r)
    assert isinstance(doubled, Rad) and doubled.radicand == Fraction(29)


def test_mixed_radicands_fall_back_to_float():
    a = ex.sqrt_exact(Fraction(2))
    b = ex.sqrt_exact(Fraction(3))
    s = ex.add(a, b)
    assert isinstance(s, float)
    assert abs(s - (math.sqrt(2) + math.sqrt(3))) < 1e-12


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ex.div(Fraction(1), Fraction(0))


def test_exact_eq_across_representations():
    assert ex.exact_eq(ex.sqrt_exact(Fraction(29, 4)), ex.sqrt_exact(Fraction(29, 4)))
    assert not ex.exact_eq(ex.sqrt_exact(Fraction(2)), ex.sqrt_exact(Fraction(3)))
    assert not ex.exact_eq(1.0, Fraction(1))  # floats are never exact
    assert ex.exact_eq(Fraction(3, 2), Fraction(3, 2))
    # sign matters even when squares agree
    assert not ex.exact_eq(Fraction(-2), Fraction(2))


def test_rel_err_is_exactly_zero_for_equal_exact_values():
    a = ex.sqrt_exact(Fraction(7, 3))
    assert ex.rel_err(a, ex.sqrt_exact(Fraction(7, 3))) == 0.0
    assert ex.rel_err(Fraction(0), Fraction(0)) == 0.0


def test_rel_err_scale():
    assert abs(ex.rel_err(1.0, 2.0) - 0.5) < 1e-15


@given(rationals, rationals)
def test_ops_agree_with_float_arithmetic(a, b):
    fa, fb = float(a), float(b)
    assert ex.as_float(ex.add(a, b)) == pytest.approx(fa + fb, abs=1e-9)
    assert ex.as_float(ex.sub(a, b)) == pytest.approx(fa - fb, abs=1e-9)
    assert ex.as_float(ex.mul(a, b)) == pytest.approx(fa * fb, abs=1e-9)


@given(pos_rationals)
def test_square_then_sqrt_roundtrip(q):
    v = ex.sqrt_exact(q)
    assert ex.square(v) == q
    back = ex.mul(v, v)
    assert back == q


@given(pos_rationals, pos_rationals)
def test_rad_products_stay_exact(p, q):
    a = ex.sqrt_exact(p)
    b = ex.sqrt_exact(q)
    prod = ex.mul(a, b)
    assert ex.is_exact(prod)
    assert ex.square(prod) == p * q


def exact_eq_reference(a, b):
    """The square-and-sign definition exact_eq had before it compared
    the values directly."""
    if not (ex.is_exact(a) and ex.is_exact(b)):
        return False
    sa = 1 if isinstance(a, Rad) else (0 if a == 0 else (1 if a > 0 else -1))
    sb = 1 if isinstance(b, Rad) else (0 if b == 0 else (1 if b > 0 else -1))
    return sa == sb and ex.square(a) == ex.square(b)


scalars = st.one_of(
    rationals,  # zero and negatives included
    pos_rationals.map(ex.sqrt_exact),  # a Rad unless the radicand is square
    st.floats(min_value=-50, max_value=50, allow_nan=False))


def _partner(a, how):
    """A value equal to a, its negation, or its square, rebuilt apart."""
    if how == "negated":
        return ex.mul(a, Fraction(-1))
    if how == "squared":
        return ex.square(a)
    if isinstance(a, Rad):
        return ex.sqrt_exact(Fraction(a.radicand))
    return Fraction(a) if isinstance(a, Fraction) else float(a)


@given(scalars, scalars, st.sampled_from(["other", "equal", "negated", "squared"]))
def test_exact_eq_matches_square_and_sign_reference(a, other, how):
    b = other if how == "other" else _partner(a, how)
    assert ex.exact_eq(a, b) == exact_eq_reference(a, b)
    assert ex.exact_eq(b, a) == exact_eq_reference(b, a)


# ---------------------------------------------------------------------------
# the fast paths against the general formulas they skip: the operations
# as they read before two floats took a path of their own, and before
# exact comparisons went to integer numerators and denominators


def _as_float_ref(v):
    if isinstance(v, Fraction):
        return float(v)
    if isinstance(v, Rad):
        return float(v)
    return v


def _sqrt_exact_ref(q):
    if q < 0:
        raise ValueError(f"square root of negative rational {q}")
    if q == 0:
        return Fraction(0)
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return Rad(q)


def _add_ref(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    if isinstance(a, Rad) and isinstance(b, Rad):
        if a.radicand == b.radicand:
            return Rad(4 * a.radicand)
        return float(a) + float(b)
    if isinstance(a, Fraction) and a == 0:
        return b
    if isinstance(b, Fraction) and b == 0:
        return a
    return _as_float_ref(a) + _as_float_ref(b)


def _sub_ref(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a - b
    if isinstance(a, Rad) and isinstance(b, Rad):
        if a.radicand == b.radicand:
            return Fraction(0)
        return float(a) - float(b)
    if isinstance(b, Fraction) and b == 0:
        return a
    return _as_float_ref(a) - _as_float_ref(b)


def _mul_ref(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    if isinstance(a, Rad) and isinstance(b, Rad):
        return _sqrt_exact_ref(a.radicand * b.radicand)
    if isinstance(a, Fraction) and isinstance(b, Rad):
        a, b = b, a
    if isinstance(a, Rad) and isinstance(b, Fraction):
        if b == 0:
            return Fraction(0)
        if b > 0:
            return Rad(b * b * a.radicand)
        return -float(a) * float(-b)
    return _as_float_ref(a) * _as_float_ref(b)


def _div_ref(a, b):
    if isinstance(b, Fraction) and b == 0:
        raise ZeroDivisionError("division by exact zero")
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a / b
    if isinstance(a, Rad) and isinstance(b, Rad):
        return _sqrt_exact_ref(a.radicand / b.radicand)
    if isinstance(a, Fraction) and isinstance(b, Rad):
        if a == 0:
            return Fraction(0)
        if a > 0:
            return _sqrt_exact_ref(a * a / b.radicand)
        return -math.sqrt(float(a * a) / float(b.radicand))
    if isinstance(a, Rad) and isinstance(b, Fraction):
        if b > 0:
            return Rad(a.radicand / (b * b))
        return -float(a) / float(-b)
    fb = _as_float_ref(b)
    if fb == 0.0:
        raise ZeroDivisionError("division by zero")
    return _as_float_ref(a) / fb


def _result(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as err:
        return ("raised", type(err), str(err))


def _same(x, y) -> bool:
    """Equal in type and value; floats bit for bit, so -0.0 != 0.0."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        return struct.pack("<d", x) == struct.pack("<d", y)
    if isinstance(x, Rad):
        return _same(x.radicand, y.radicand)
    return x == y


any_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf]))
any_scalars = st.one_of(any_floats, rationals, pos_rationals.map(ex.sqrt_exact))

_OPS = [(ex.add, _add_ref), (ex.sub, _sub_ref), (ex.mul, _mul_ref),
        (ex.div, _div_ref)]


@given(any_floats, any_floats)
def test_float_fast_paths_match_the_general_formulas(a, b):
    for op, ref in _OPS:
        assert _same(_result(op, a, b), _result(ref, a, b)), op.__name__
    assert _same(ex.as_float(a), _as_float_ref(a))


def test_float_division_by_zero_keeps_its_error():
    for zero in (0.0, -0.0):
        for a in (1.0, -0.0, math.inf):
            with pytest.raises(ZeroDivisionError, match="^division by zero$"):
                ex.div(a, zero)


@given(any_scalars, any_scalars)
def test_scalar_ops_match_the_general_formulas(a, b):
    for op, ref in _OPS:
        assert _same(_result(op, a, b), _result(ref, a, b)), op.__name__
    assert _same(ex.as_float(a), _as_float_ref(a))


@given(st.fractions(min_value=Fraction(-50), max_value=Fraction(50)))
@example(Fraction(-1, 3))
@example(Fraction(0))
@example(Fraction(4, 9))
def test_sqrt_exact_matches_the_rich_comparison_form(q):
    assert _same(_result(ex.sqrt_exact, q), _result(_sqrt_exact_ref, q))
    assert _same(_result(ex.sqrt_exact, q * q), _result(_sqrt_exact_ref, q * q))


@given(any_scalars, any_scalars)
def test_rad_eq_matches_the_rich_comparison_form(a, b):
    if isinstance(a, Rad):
        want = isinstance(b, Rad) and a.radicand == b.radicand
        assert (a == b) == want
        assert (a == Rad(Fraction(a.radicand))) is True


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50),
       st.integers(1, 50))
def test_rad_eq_compares_numerator_and_denominator(n1, d1, n2, d2):
    a, b = Rad(Fraction(n1, d1)), Rad(Fraction(n2, d2))
    assert (a == b) == (Fraction(n1, d1) == Fraction(n2, d2))
    assert (Rad(Fraction(n1, d1)) == Rad(Fraction(n1, d1 + 1))) is False


# ---------------------------------------------------------------------------
# exact-type dispatch: exactnum tests `type(v) is Fraction`, the copies
# above `isinstance(v, Fraction)`; no subclass of either type is ever
# built, so the two agree on every operand the prover passes


def _is_exact_ref(v):
    return isinstance(v, (Fraction, Rad))


def _exact_eq_ref(a, b):
    return _is_exact_ref(a) and _is_exact_ref(b) and a == b


# one of each kind of operand: a Fraction, a Rad, a float, the int 0
typed_operands = st.one_of(
    rationals, pos_rationals.map(ex.sqrt_exact).filter(lambda v: isinstance(v, Rad)),
    any_floats, st.just(0))


@given(typed_operands, typed_operands)
@example(0, Fraction(0))
@example(Fraction(0), 0)
@example(0, Rad(Fraction(2)))
@example(Rad(Fraction(2)), 0)
@example(0, -0.0)
def test_exact_type_dispatch_matches_isinstance_dispatch(a, b):
    for op, ref in _OPS:
        assert _same(_result(op, a, b), _result(ref, a, b)), op.__name__
    for v in (a, b):
        assert _same(ex.as_float(v), _as_float_ref(v))
        assert ex.is_exact(v) == _is_exact_ref(v)
    assert ex.exact_eq(a, b) == _exact_eq_ref(a, b)
