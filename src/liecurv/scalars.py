"""Scalar plumbing shared by every module.

A Scalar is either exact (int or fractions.Fraction) or a float. Arithmetic
mixes freely; exactness is preserved as long as no float enters and no
irrational square root is taken. All floating comparisons use one global
absolute tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError, PreconditionError

Scalar = int | Fraction | float

# Global absolute tolerance for floating-mode residual checks.
TOLERANCE = 1e-9


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def is_exact_zero(x: Scalar) -> bool:
    return is_exact(x) and x == 0


def is_zero(x: Scalar) -> bool:
    """Exact zero for exact scalars, |x| <= TOLERANCE for floats."""
    return abs(x) <= TOLERANCE if isinstance(x, float) else x == 0


def approx_equal(a: Scalar, b: Scalar) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= TOLERANCE


def sqrt_scalar(x: Scalar) -> Scalar:
    """Square root that stays exact on perfect squares of rationals.

    Any other exact value goes through its float: one past the float range
    is an InputError, and a positive one whose float is 0.0 a
    PreconditionError, where math.sqrt would raise OverflowError or give 0.
    """
    if is_exact(x):
        if x < 0:
            raise InputError("square root of negative scalar")
        n, d = x.as_integer_ratio()
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        try:
            root = math.sqrt(x)
        except OverflowError:  # float(x) is past the float range
            raise _non_finite(math.inf) from None
        if not root:
            raise PreconditionError("a positive exact value under a square root "
                                    "rounds to 0 in float arithmetic")
        return root
    if x < 0:
        raise InputError("square root of negative scalar")
    return math.sqrt(x)


def _non_finite(x: float) -> InputError:
    return InputError(f"floating result {x} is not finite: the computation left the float range")


def parse_rational(text: str) -> Scalar:
    """Parse a strict scalar literal: 'p/q', integer, or decimal, in ASCII digits.

    Decimal input (containing '.' or an exponent) comes back as float; the
    caller is responsible for flagging the surrounding document as
    floating-mode. An integer past Python's int-string digit limit, a decimal
    that overflows to infinity, and anything else, is an InputError, which
    echoes at most the literal's first 40 characters.
    """
    s = text.strip()
    if not s or not s.isascii() or "_" in s:  # int() and float() also read '٣' and '1_0'
        raise InputError(f"bad scalar literal {shown_literal(text)}" if s
                         else "empty scalar literal")
    try:
        if "/" not in s:
            return int(s)
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise InputError(f"bad rational literal {shown_literal(text)}: zero denominator") from None
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # the int-string digit limit
            raise InputError(f"integer literal too long: {exc}") from None
        if "/" in s:
            raise InputError(f"bad rational literal {shown_literal(text)}") from None
    if any(ch in s for ch in ".eE"):
        try:
            out = float(s)
        except ValueError:
            pass
        else:
            if not math.isfinite(out):
                raise InputError(f"scalar literal {shown_literal(text)} is not finite")
            return out
    raise InputError(f"bad scalar literal {shown_literal(text)}")


def shown_literal(text: str) -> str:
    """repr of a literal for an error line, cut to its first 40 characters."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def format_scalar(x: Scalar, precision: int = 12) -> str:
    """Render a scalar: exact values as 'p/q' or 'n', floats to precision.

    A float zero renders as '0' whatever its sign: -0.0 is an artefact of
    the order of float operations, not a value. An exact value past Python's
    limit on int-to-string conversion, and a float inf or nan, which JSON
    cannot carry, are InputErrors.
    """
    if isinstance(x, bool):
        raise InputError("boolean is not a scalar")
    try:
        if isinstance(x, (int, Fraction)):  # str(Fraction(3)) is '3', str(Fraction(3, 2)) '3/2'
            return str(x)
    except ValueError as exc:
        raise InputError(f"exact value too large to print: {exc}") from None
    if not math.isfinite(x):
        raise _non_finite(x)
    # No finite double has more than 767 significant digits (the largest
    # subnormal has exactly 767), so a larger precision prints the same text;
    # clamping keeps format from refusing or allocating a huge one.
    return f"{x + 0.0:.{min(precision, 767)}g}"  # -0.0 + 0.0 is 0.0


def scalar_to_json(x: Scalar, precision: int = 12):
    """JSON value for a scalar: exact -> 'p/q' string, float -> number."""
    if is_exact(x):
        return format_scalar(x)
    return float(format_scalar(x, precision))
