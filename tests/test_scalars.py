import json
import math
from fractions import Fraction

import pytest

from liecurv.errors import InputError, PreconditionError
from liecurv.scalars import (approx_equal, format_scalar, is_exact, is_zero,
                             parse_rational, scalar_to_json, sqrt_scalar)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(" 1/3 ") == Fraction(1, 3)


def test_parse_rational_decimal_is_float():
    x = parse_rational("0.25")
    assert isinstance(x, float) and x == 0.25


@pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1//2", "1/2/3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_sqrt_exact_on_perfect_squares():
    assert sqrt_scalar(Fraction(9, 4)) == Fraction(3, 2)
    assert is_exact(sqrt_scalar(Fraction(9, 4)))
    assert sqrt_scalar(Fraction(0)) == 0


def test_sqrt_falls_back_to_float():
    x = sqrt_scalar(Fraction(2))
    assert isinstance(x, float)
    assert abs(x * x - 2) < 1e-12


def test_sqrt_of_a_non_square_past_the_float_range_is_refused():
    # its float is inf or 0.0; a perfect square stays exact whatever its size
    with pytest.raises(InputError, match="floating result inf is not finite"):
        sqrt_scalar(2 * 10 ** 400 + 1)
    with pytest.raises(PreconditionError, match="rounds to 0 in float arithmetic"):
        sqrt_scalar(Fraction(3, 10 ** 400))
    assert sqrt_scalar(10 ** 400) == 10 ** 200
    assert sqrt_scalar(Fraction(1, 10 ** 400)) == Fraction(1, 10 ** 200)
    assert sqrt_scalar(Fraction(2, 10 ** 310)) > 0  # a subnormal float is not 0.0


def test_sqrt_negative_raises():
    with pytest.raises(InputError):
        sqrt_scalar(Fraction(-1))


def test_predicates():
    assert is_exact(Fraction(1, 3)) and is_exact(2)
    assert not is_exact(0.5)
    assert is_zero(Fraction(0)) and is_zero(1e-12) and not is_zero(1e-6)
    assert approx_equal(Fraction(1, 3), 1 / 3)
    assert not approx_equal(Fraction(1, 3), 0.3334)


def test_format_scalar():
    assert format_scalar(Fraction(-7, 2)) == "-7/2"
    assert format_scalar(Fraction(4)) == "4"
    assert format_scalar(0.25, precision=3) == "0.25"


def test_precision_past_every_double_prints_as_767():
    # the largest subnormal has 767 significant digits, more than any other double
    largest_subnormal = 2.225073858507201e-308
    assert format_scalar(largest_subnormal, 766) != format_scalar(largest_subnormal, 767)
    for x in (0.1, -1 / 3, largest_subnormal, 5e-324, 1.7976931348623157e308, 1e22, -0.0):
        want = format_scalar(x, 767)
        for precision in (10 ** 6, 2 ** 31, 2 ** 63):
            assert format_scalar(x, precision) == want
            assert scalar_to_json(x, precision) == scalar_to_json(x, 767)


def test_float_zero_is_unsigned():
    assert format_scalar(-0.0) == "0" and format_scalar(0.0) == "0"
    assert math.copysign(1, scalar_to_json(-0.0)) == 1
    assert json.dumps([scalar_to_json(-0.0), scalar_to_json(0.0)]) == "[0.0, 0.0]"
    # only zero loses its sign: tiny values keep theirs
    assert format_scalar(-1e-300) == "-1e-300" and scalar_to_json(-1e-300) == -1e-300
    assert format_scalar(-2.5e-13, precision=3) == "-2.5e-13"


def test_scalar_to_json_rationals_are_strings():
    assert scalar_to_json(Fraction(1, 3)) == "1/3"
    assert scalar_to_json(Fraction(-2)) == "-2"
    assert scalar_to_json(0.5) == 0.5
