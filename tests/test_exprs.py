from fractions import Fraction

import pytest

from liecurv.errors import InputError
from liecurv.exprs import MAX_POWER_BITS, evaluate, free_names, parse_expr


def ev(src, **env):
    return evaluate(parse_expr(src), {k: Fraction(v) for k, v in env.items()})


def test_arithmetic_stays_rational():
    assert ev("1/2 + 1/3") == Fraction(5, 6)
    assert ev("(2 - 5)/4") == Fraction(-3, 4)
    assert ev("2^3 / 3") == Fraction(8, 3)
    assert ev("-a^2", a=3) == Fraction(-9)  # unary minus binds looser than ^


def test_caret_and_doublestar_agree():
    assert ev("a**2 + a^2", a=5) == 50


def test_exponent_rules():
    assert ev("a^64", a=2) == 2 ** 64 and ev("a^-64", a=2) == Fraction(1, 2 ** 64)
    for src in ("a^65", "a^-65", "(a^2)^100", "a^(2*40)"):
        with pytest.raises(InputError, match="ceiling 64"):
            ev(src, a=3)
    for src in ("a^(1/2)", "a^2.5"):
        with pytest.raises(InputError, match="integer exponents"):
            ev(src, a=4)


def test_power_bit_ceiling():
    # |n| times the base's bit length: 64 * 102 bits for (3^64)^64 passes
    assert ev("(a^64)^64", a=3) == 3 ** 4096
    assert ev("a^-2", a=Fraction(1, 2 ** 4000)) == 2 ** 8000
    for src, a in (("((a^64)^64)^64", 3), ("a^2", 2 ** 4096), ("a^2", Fraction(1, 2 ** 4096))):
        with pytest.raises(InputError, match=f"ceiling {MAX_POWER_BITS}"):
            ev(src, a=a)


def test_variables_and_free_names():
    e = parse_expr("-(1+alpha)^2/2 - 2*beta^2 - 6")
    assert free_names(e) == {"alpha", "beta"}
    assert evaluate(e, {"alpha": Fraction(-1), "beta": Fraction(0)}) == -6
    assert evaluate(e, {"alpha": Fraction(2), "beta": Fraction(1)}) == Fraction(-25, 2)


def test_implicit_mul_is_rejected():
    with pytest.raises(InputError):
        parse_expr("2a")


def test_unknown_name_at_eval():
    with pytest.raises(InputError):
        evaluate(parse_expr("q + 1"), {})


@pytest.mark.parametrize("bad", ["", "1 +", "(1", "a $ b", "1/*2"])
def test_syntax_errors(bad):
    with pytest.raises(InputError):
        parse_expr(bad)


def test_fixture_style_polynomial():
    # K(U,V) shape used by the fixtures: coordinates a..d, ta..td, drift q
    src = ("-(a*tb - b*ta)^2 - (a*td - d*ta)^2 - (b*td - d*tb)^2")
    e = parse_expr(src)
    env = {"a": Fraction(1), "b": Fraction(0), "d": Fraction(0),
           "ta": Fraction(0), "tb": Fraction(1), "td": Fraction(0)}
    assert evaluate(e, env) == -1


def test_parse_is_memoized_and_errors_are_not():
    src = "7*memo_a - 3/memo_b"
    assert parse_expr(src) is parse_expr(src)
    before = parse_expr.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InputError):
            parse_expr("7 * (memo_c")
    assert parse_expr.cache_info().currsize == before
