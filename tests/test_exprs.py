import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from oracles import evaluate_reference, free_names_reference, parse_expr_reference
from liecurv.errors import InputError
from liecurv import exprs
from liecurv.exprs import (MAX_EXPR_BITS, MAX_EXPR_TOKENS, MAX_POWER_BITS, evaluate,
                           free_names, parse_expr)


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


def test_deep_and_long_inputs_do_not_recurse():
    # each of these overflowed the stack of a recursive-descent parser
    assert ev("(" * 511 + "a" + ")" * 511, a=3) == 3
    assert ev("-" * 1023 + "a", a=3) == -3
    assert ev("+".join(["a"] * 512), a=3) == 1536
    assert ev("a" + "^1" * 511, a=3) == 3


def test_token_ceiling():
    chain = "+".join(["a"] * 512)  # 1023 tokens
    assert ev("-" + chain, a=1) == 510
    for src in ("--" + chain, "(" * 1025, "1+" * 10 ** 6 + "1"):
        with pytest.raises(InputError, match=f"more than {MAX_EXPR_TOKENS} tokens"):
            parse_expr(src)


def test_bit_ceiling():
    # a*a bounds at 2 bits(a) + 1, checked against the bindings before evaluating
    half = MAX_EXPR_BITS // 2
    assert ev("a*a", a=2 ** (half - 1) - 1) == (2 ** (half - 1) - 1) ** 2
    with pytest.raises(InputError, match=f"up to {MAX_EXPR_BITS + 1} bits is over the "
                                         f"ceiling {MAX_EXPR_BITS}$"):
        ev("a*a", a=2 ** (half - 1))
    # a Fraction counts its longer part, a float 0 bits: b - b + a sits at the ceiling
    with pytest.raises(InputError, match="over the ceiling"):
        ev("a*a", a=Fraction(1, 2 ** (half - 1)))
    assert evaluate(parse_expr("b - b + a"), {"a": 1e300, "b": 2 ** (half - 2)}) == 1e300
    # an exact value past the float range that meets a float is refused
    for a in (10 ** 400, Fraction(10 ** 400, 3)):
        with pytest.raises(InputError, match="expression overflows a float"):
            evaluate(parse_expr("a + 0.5"), {"a": a})
    # literals 7, 2 and 3 take 3 + 2 + 2 bits and the four operators 1 each; the
    # powers multiply a by 3 and b by 2, and a name as exponent counts as 64
    assert parse_expr("a^3 * -b^-2 + 7").cost == (11, (("a", 3), ("b", 2)))
    assert parse_expr("a^b").cost == (1, (("a", 64), ("b", 1)))


def test_bound_holds_for_every_intermediate(monkeypatch):
    # pairs are never reduced, so every value the pair arithmetic and the
    # powers build stays within the bound compiled with the program
    sizes = []

    def recording(fn):
        def wrapped(op, a, b):
            out = fn(op, a, b)
            if not isinstance(out, float):
                n, d = out if isinstance(out, tuple) else (out, 1)
                sizes.append(max(n.bit_length(), d.bit_length()))
            return out
        return wrapped

    monkeypatch.setattr(exprs, "_exact", recording(exprs._exact))
    monkeypatch.setattr(exprs, "_apply", recording(exprs._apply))
    rng = random.Random(8)
    envs = [{name: Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for name in NAMES},
            {name: rng.randint(-10 ** 6, 10 ** 6) for name in NAMES},
            {"a": Fraction(3 ** 40, 7 ** 9), "b": 3, "alpha": Fraction(-1, 10 ** 12),
             "unbound": 0.5}]
    reached = 0
    for src in fixture_strings()[:200] + [grammar_expr(rng, 5) for _ in range(2000)]:
        try:
            program = parse_expr(src)
        except InputError:
            continue
        const, weights = program.cost
        for env in envs:
            full = dict.fromkeys(free_names(program), Fraction(1, 3)) | env
            bound = const + sum(k * max(Fraction(full[name]).numerator.bit_length(),
                                        Fraction(full[name]).denominator.bit_length())
                                for name, k in weights if not isinstance(full[name], float))
            sizes.clear()
            try:
                evaluate(program, full)
            except InputError:
                pass
            assert max(sizes, default=0) <= bound, src
            reached = max(reached, max(sizes, default=0))
    assert reached > 1000


# --- differential test against the recursive reference ------------------------

NUMBERS = ("0", "1", "2", "3", "7", "10", "64", "65", "0.0", "0.5", "2.0", "1e3", "1e400")
NAMES = ("a", "b", "alpha", "unbound")
OPERATORS = ("+", "-", "*", "/", "^", "**", "(", ")")


def fixture_strings() -> list:
    out = []

    def walk(node):
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, (list, dict)):
            for child in node.values() if isinstance(node, dict) else node:
                walk(child)

    walk(json.loads(resources.files("liecurv").joinpath("data/cases.json").read_text()))
    return out


def random_tokens(rng) -> str:
    pool = rng.choice((NUMBERS, NAMES, OPERATORS, OPERATORS, ("$", ".", " ")))
    words = [rng.choice(pool) if rng.random() < 0.2 else
             rng.choice(rng.choice((NUMBERS, NAMES, OPERATORS)))
             for _ in range(rng.randint(1, 12))]
    return "".join(w + rng.choice(("", "", " ")) for w in words)


def grammar_expr(rng, depth: int) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(NUMBERS[:11] + NAMES)
    if roll < 0.35:
        return f"({grammar_expr(rng, depth - 1)})"
    if roll < 0.45:
        return rng.choice(("-", "+", "- ", "--")) + grammar_expr(rng, depth - 1)
    if roll < 0.6:
        exponent = rng.choice(("2", "3", "-1", "-2", "0", "64", "-65", "(1/2)", "2.0", "b", "-b",
                               "1^2"))
        return grammar_expr(rng, depth - 1) + rng.choice(("^", "**", " ^ ")) + exponent
    op = rng.choice((" + ", "-", " - ", "*", " * ", "/", " / "))
    return grammar_expr(rng, depth - 1) + op + grammar_expr(rng, depth - 1)


def outcome(parse, run, names, src, envs):
    """Refusal message, or (free names, [value type and repr or error per env])."""
    try:
        program = parse(src)
    except InputError as exc:
        return str(exc)
    values = []
    for env in envs:
        try:
            value = run(program, env)
        except InputError as exc:
            values.append(str(exc))
        else:
            values.append((type(value), repr(value)))
    return names(program), values


def test_postfix_matches_recursive_reference():
    rng = random.Random(1961)
    fixtures = fixture_strings()
    sources = (fixtures + [random_tokens(rng) for _ in range(20000)]
               + [grammar_expr(rng, rng.randint(1, 4)) for _ in range(5000)])
    bound = set()
    for src in fixtures:
        try:
            bound |= free_names_reference(parse_expr_reference(src))
        except InputError:
            pass
    bound |= {"a", "b", "alpha"}
    names = sorted(bound)
    exact = {name: Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for name in names}
    exact["b"] = 2
    # floats, Fractions and ints side by side, so pairs meet floats and ints
    mixed = {name: (float(x), x, int(x))[k % 3] for k, (name, x) in enumerate(exact.items())}
    mixed.update(a=Fraction(5, 3), alpha=0.25)
    ints = {name: rng.randint(-7, 7) for name in names}
    ints["b"] = 2
    # zeros and negative divisors: a/alpha divides by an int 0, x/a by a
    # negative pair, a^b is a negative power of a pair
    signed = {name: (Fraction(0), 0, Fraction(-5, 3), -3)[k % 4] for k, name in enumerate(names)}
    signed.update(a=Fraction(-5, 3), b=-2, alpha=0)
    envs = (exact, {name: float(value) for name, value in exact.items()}, mixed, ints, signed)
    accepted = 0
    for src in sources:
        want = outcome(parse_expr_reference, evaluate_reference, free_names_reference,
                       src, envs)
        assert outcome(parse_expr, evaluate, free_names, src, envs) == want, src
        accepted += not isinstance(want, str)
    assert len(fixtures) == 499 and accepted > 6000
