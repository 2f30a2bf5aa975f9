import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
