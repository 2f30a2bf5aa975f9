"""Exact-where-possible scalar arithmetic for geometric dimensions.

Scalars flow through three representations: ``Fraction`` for rational
quantities, ``Rad`` for square roots of rationals (the typical shape of
a length between rational points), and ``float`` once a computation
leaves that tower.  Arithmetic degrades to float silently; equality and
residuals stay exact whenever both operands are exact, which is what
lets a rational-coordinate theorem close with residual exactly zero.

The operations dispatch on the exact operand types (``type(v) is
Fraction``), not on ``isinstance``: ``Fraction`` is registered with the
``numbers`` ABCs, so every ``isinstance`` test that fails, as it does
for each float, pays for an ABC lookup.  No subclass of ``Fraction`` or
``Rad`` is ever built, so the two tests agree on every value.  Two
floats take a fast path first, which computes exactly what the general
formula does.  ``sqrt_exact`` and ``Rad`` equality compare integer
numerators and denominators rather than going through ``Fraction``'s
rich comparison.  Construction steps and distances on rational points
do not use these operations at all: they run on the integer kernel in
``scene``, on (x, y, w) triples, and feet, meets and circle cuts on
float points run on its float kernel, which computes what these
operations would.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


class Rad:
    """sqrt(radicand) for a positive non-square rational radicand.

    Instances are only built through :func:`sqrt_exact`, which collapses
    perfect squares back to ``Fraction``; code elsewhere may therefore
    assume a ``Rad`` is irrational and positive.
    """

    __slots__ = ("radicand",)

    def __init__(self, radicand: Fraction):
        self.radicand = radicand

    def __float__(self) -> float:
        return math.sqrt(float(self.radicand))

    def __repr__(self) -> str:
        return f"Rad({self.radicand})"

    def __eq__(self, other: object) -> bool:
        return (type(other) is Rad and self.radicand.as_integer_ratio()
                == other.radicand.as_integer_ratio())

    def __hash__(self) -> int:
        return hash(("Rad", self.radicand))


Scalar = Union[Fraction, Rad, float]


def sqrt_exact(q: Fraction) -> Scalar:
    """Square root of a nonnegative rational, exact when possible."""
    n, d = q.as_integer_ratio()
    if n < 0:
        raise ValueError(f"square root of negative rational {q}")
    if n == 0:
        return Fraction(0)
    # math.isqrt is exact on arbitrary ints; a rational in lowest terms
    # is square iff numerator and denominator both are
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return Rad(q)


def is_exact(v: Scalar) -> bool:
    return type(v) is Fraction or type(v) is Rad


def as_float(v: Scalar) -> float:
    if type(v) is float:
        return v
    if type(v) is Fraction:
        return float(v)
    if type(v) is Rad:
        return float(v)
    return v


def square(v: Scalar) -> Fraction | float:
    if type(v) is Fraction:
        return v * v
    if type(v) is Rad:
        return v.radicand
    return v * v


def sqrt_scalar(v: Scalar) -> Scalar:
    if type(v) is Fraction:
        return sqrt_exact(v)
    if type(v) is Rad:
        # sqrt(sqrt(q)) leaves the tower
        return math.sqrt(float(v))
    if v < 0:
        raise ValueError(f"square root of negative value {v}")
    return math.sqrt(v)


def add(a: Scalar, b: Scalar) -> Scalar:
    if type(a) is float and type(b) is float:
        return a + b
    if type(a) is Fraction and type(b) is Fraction:
        return a + b
    if type(a) is Rad and type(b) is Rad:
        if a.radicand == b.radicand:
            return Rad(4 * a.radicand)  # sqrt(q) + sqrt(q) = sqrt(4q)
        return float(a) + float(b)
    if type(a) is Fraction and a == 0:
        return b
    if type(b) is Fraction and b == 0:
        return a
    return as_float(a) + as_float(b)


def sub(a: Scalar, b: Scalar) -> Scalar:
    if type(a) is float and type(b) is float:
        return a - b
    if type(a) is Fraction and type(b) is Fraction:
        return a - b
    if type(a) is Rad and type(b) is Rad:
        if a.radicand == b.radicand:
            return Fraction(0)
        return float(a) - float(b)
    if type(b) is Fraction and b == 0:
        return a
    return as_float(a) - as_float(b)


def mul(a: Scalar, b: Scalar) -> Scalar:
    if type(a) is float and type(b) is float:
        return a * b
    if type(a) is Fraction and type(b) is Fraction:
        return a * b
    if type(a) is Rad and type(b) is Rad:
        return sqrt_exact(a.radicand * b.radicand)
    if type(a) is Fraction and type(b) is Rad:
        a, b = b, a
    if type(a) is Rad and type(b) is Fraction:
        if b == 0:
            return Fraction(0)
        if b > 0:
            return Rad(b * b * a.radicand)
        return -float(a) * float(-b)
    return as_float(a) * as_float(b)


def div(a: Scalar, b: Scalar) -> Scalar:
    if type(a) is float and type(b) is float:
        if b == 0.0:
            raise ZeroDivisionError("division by zero")
        return a / b
    if type(b) is Fraction and b == 0:
        raise ZeroDivisionError("division by exact zero")
    if type(a) is Fraction and type(b) is Fraction:
        return a / b
    if type(a) is Rad and type(b) is Rad:
        return sqrt_exact(a.radicand / b.radicand)
    if type(a) is Fraction and type(b) is Rad:
        if a == 0:
            return Fraction(0)
        if a > 0:
            return sqrt_exact(a * a / b.radicand)
        return -math.sqrt(float(a * a) / float(b.radicand))
    if type(a) is Rad and type(b) is Fraction:
        if b > 0:
            return Rad(a.radicand / (b * b))
        return -float(a) / float(-b)
    fb = as_float(b)
    if fb == 0.0:
        raise ZeroDivisionError("division by zero")
    return as_float(a) / fb


def exact_eq(a: Scalar, b: Scalar) -> bool:
    """True iff both values are exact and provably equal.  A ``Rad`` is
    irrational, so it never equals a ``Fraction``."""
    return is_exact(a) and is_exact(b) and a == b


def rel_err(a: Scalar, b: Scalar) -> float:
    """Relative disagreement of two scalars; exactly 0.0 for equal exact values."""
    if exact_eq(a, b):
        return 0.0
    fa, fb = as_float(a), as_float(b)
    scale = max(abs(fa), abs(fb))
    if scale == 0.0:
        return 0.0
    return abs(fa - fb) / scale
