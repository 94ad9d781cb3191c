"""Scalar plumbing shared by every module.

A Scalar is either exact (int or fractions.Fraction) or a float. Arithmetic
mixes freely; exactness is preserved as long as no float enters and no
irrational square root is taken. All floating comparisons use one global
absolute tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import InputError

Scalar = Union[int, Fraction, float]

# Global absolute tolerance for floating-mode residual checks.
TOLERANCE = 1e-9


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def is_exact_zero(x: Scalar) -> bool:
    return is_exact(x) and x == 0


def is_zero(x: Scalar, tol: float = TOLERANCE) -> bool:
    """Exact zero for exact scalars, |x| <= tol for floats."""
    if is_exact(x):
        return x == 0
    return abs(x) <= tol


def approx_equal(a: Scalar, b: Scalar, tol: float = TOLERANCE) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= tol


def sqrt_scalar(x: Scalar) -> Scalar:
    """Square root that stays exact on perfect squares of rationals."""
    if is_exact(x):
        if x < 0:
            raise InputError("square root of negative scalar")
        f = Fraction(x)
        rn = math.isqrt(f.numerator)
        rd = math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            return Fraction(rn, rd)
        return math.sqrt(f)
    if x < 0:
        raise InputError("square root of negative scalar")
    return math.sqrt(x)


def parse_rational(text: str) -> Scalar:
    """Parse a strict scalar literal: 'p/q', integer, or decimal.

    Decimal input (containing '.' or an exponent) comes back as float; the
    caller is responsible for flagging the surrounding document as
    floating-mode. A decimal that overflows to infinity, and anything else,
    is an InputError.
    """
    s = text.strip()
    if not s:
        raise InputError("empty scalar literal")
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num.strip()), int(den.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {text!r}: {exc}") from None
    try:
        return int(s)
    except ValueError:
        pass
    if any(ch in s for ch in ".eE"):
        try:
            out = float(s)
        except ValueError:
            pass
        else:
            if not math.isfinite(out):
                raise InputError(f"scalar literal {text!r} is not finite")
            return out
    raise InputError(f"bad scalar literal {text!r}")


def format_scalar(x: Scalar, precision: int = 12) -> str:
    """Render a scalar: exact values as 'p/q' or 'n', floats to precision.

    A float zero renders as '0' whatever its sign: -0.0 is an artefact of
    the order of float operations, not a value.
    """
    if isinstance(x, bool):
        raise InputError("boolean is not a scalar")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return f"{x + 0.0:.{precision}g}"  # -0.0 + 0.0 is 0.0


def scalar_to_json(x: Scalar, precision: int = 12):
    """JSON value for a scalar: exact -> 'p/q' string, float -> number."""
    if is_exact(x):
        return format_scalar(x)
    return float(format_scalar(x, precision))
