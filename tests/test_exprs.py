import json
import random
import re
from fractions import Fraction
from importlib import resources

import pytest

from oracles import (cost_reference, evaluate_reference, free_names_reference,
                     parse_expr_reference)
from liecurv.errors import InputError
from liecurv import catalog, exprs
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


def test_exact_powers_run_on_int_pairs(monkeypatch):
    """An exact base to an exact integer power is a pair of int powers, in lowest terms, with
    no Fraction power: the value and type of Fraction ** k, and its refusals in their order,
    the bits judged on the reduced base."""
    def no_power(*args):
        raise AssertionError("Fraction.__pow__ called")
    monkeypatch.setattr(Fraction, "__pow__", no_power)
    for a in (0, 1, -1, 3, -2, Fraction(-6, 4), Fraction(5, 10), Fraction(7, 3)):
        for k in range(-5, 6):
            if a == 0 and k < 0:
                continue
            want = Fraction(a.numerator ** abs(k), a.denominator ** abs(k))
            want = want if k >= 0 else 1 / want
            for src in ("a^k", "a^(2*k/2)", "(a*6/6)^k"):
                got = ev(src, a=a, k=k)
                assert type(got) is Fraction and got == want, (src, a, k)
    # 2^4095 * 2 / 2 is the pair (2^4096, 2): 2 * 4097 bits unreduced, 2 * 4096 reduced
    assert ev("(a*2/2)^2", a=2 ** 4095) == 2 ** 8190
    for src, message in (("0^(1/2)", "integer exponents"), ("0^(-130/2)", "exponent -65 is"),
                         ("(a*1)^-65", "exponent -65 is"), ("(a/2)^64", "power of about 8256"),
                         ("0^-3", "division by zero"), ("(0/5)^(-4/2)", "division by zero")):
        with pytest.raises(InputError, match=message):
            ev(src, a=2 ** 128 + 1)


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
    before = exprs._compile.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InputError):
            parse_expr("7 * (memo_c")
    assert exprs._compile.cache_info().currsize == before


def test_evaluate_runs_a_compiled_program_as_it_is():
    program = parse_expr("2*memo_d + 2.0")
    misses = exprs._compile.cache_info().misses
    assert evaluate(program, {"memo_d": 3}) == 8.0
    assert exprs._compile.cache_info().misses == misses
    # the memo is keyed by the text, so "2" and "2.0" never share a program
    assert [(type(x), x) for x in (evaluate("2"), evaluate("2.0"))] == [(int, 2), (float, 2.0)]


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
    assert parse_expr("a^3 * -b^-2 + 7")[2][0][0] == (11, (("a", 3), ("b", 2)))
    assert parse_expr("a^b")[2][0][0] == (1, (("a", 64), ("b", 1)))


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
    exprs._compile.cache_clear()  # no program promoted past the spies by earlier runs
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
        const, weights = program[2][0][0]
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


def random_sources(rng) -> list:
    """20000 runs of random tokens, then 5000 draws from the grammar."""
    return ([random_tokens(rng) for _ in range(20000)]
            + [grammar_expr(rng, rng.randint(1, 4)) for _ in range(5000)])


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
    sources = fixtures + random_sources(rng)
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
    # groups linked together share their repeated subexpressions: runs of
    # fixture forms, random draws, and sums and products of a few common parts
    shared = 0
    for _ in range(1500):
        size, roll = rng.randint(2, 5), rng.random()
        if roll < 0.3:
            start = rng.randrange(len(fixtures) - size)
            group = fixtures[start:start + size]
        elif roll < 0.6:
            group = rng.sample(sources, size)
        else:
            parts = rng.sample(sources[len(fixtures):], 3)
            group = [f"({rng.choice(parts)}){rng.choice('+-*/')}({rng.choice(parts)})"
                     for _ in range(size)]
        for env in envs:
            want = group_outcome(evaluate_group_reference, group, env)
            assert group_outcome(exprs.evaluate_all, tuple(group), env) == want, group
            shared += not isinstance(want, str)
    assert shared > 2000


def test_bound_matches_recursive_reference():
    # the bound formed operator by operator while compiling is the module
    # docstring's rule applied to the recursive reference's tree
    checked = 0
    for src in fixture_strings() + random_sources(random.Random(1961)):
        try:
            tree = parse_expr_reference(src)
        except InputError:
            continue
        assert parse_expr(src)[2][0][0] == cost_reference(tree), src
        checked += 1
    assert checked > 6000


def evaluate_group_reference(sources, env):
    trees = [parse_expr_reference(src) for src in sources]
    return [evaluate_reference(tree, env) for tree in trees]


def group_outcome(run, sources, env):
    """The first refusal, or the value type and repr of every source."""
    try:
        return [(type(value), repr(value)) for value in run(sources, env)]
    except InputError as exc:
        return str(exc)


def tiers(monkeypatch):
    """Yield "interpreted", then "promoted", each on a fresh compile memo: the second
    with every program generated on its first run at bound names (promotion count 0)."""
    for tier, count in (("interpreted", exprs.PROMOTE_AT), ("promoted", 0)):
        exprs._compile.cache_clear()
        monkeypatch.setattr(exprs, "PROMOTE_AT", count)
        yield tier


def spy_operators(monkeypatch) -> list:
    """(op, a, b) of every operator that runs through _exact or _apply, in order."""
    calls = []
    for name in ("_exact", "_apply"):
        def spy(op, a, b, real=getattr(exprs, name)):
            calls.append((op, a, b))
            return real(op, a, b)
        monkeypatch.setattr(exprs, name, spy)
    return calls


def assert_served_by(tier, sources):
    """Every binding kind the group ran at was interpreted, or served by generated code."""
    runs = exprs._compile(tuple(sources))[3].values()
    assert runs and all(callable(run) == (tier == "promoted") for run in runs)


def test_errors_keep_stack_machine_order(monkeypatch):
    for src, message in (("1/0 + q", "division by zero"), ("q + 1/0", "unbound variable 'q'")):
        for run in (evaluate, evaluate_reference):
            with pytest.raises(InputError, match=re.escape(message)):
                run(src, {})
    # a*b is computed for the first source; the second reuses it and then
    # meets its error at the same place in postfix order
    for sources, message in ((("a*b", "a*b + (1/0 + q)"), "division by zero"),
                             (("a*b", "a*b + q + 1/0"), "unbound variable 'q'")):
        for run in (exprs.evaluate_all, evaluate_group_reference):
            with pytest.raises(InputError, match=re.escape(message)):
                run(sources, {"a": 2, "b": 3})
    # each source's bound is read before its own operators, after the sources
    # before it have run; generated code sends only powers through _apply
    calls = spy_operators(monkeypatch)
    big = {"a": 2 ** (MAX_EXPR_BITS // 2 - 1), "b": 1}
    sources = ("b^2 + 1", "1/0 + a*a")
    for tier in tiers(monkeypatch):
        calls.clear()
        with pytest.raises(InputError, match=f"bits is over the ceiling {MAX_EXPR_BITS}$"):
            exprs.evaluate_all(sources, big)
        assert calls == ([("^", 1, 2), ("+", (1, 1), 1)] if tier == "interpreted"
                         else [("^", 1, 2)])
        assert_served_by(tier, sources)
        with pytest.raises(InputError, match="division by zero"):
            exprs.evaluate_all(("1/0", "a*a"), big)
        assert_served_by(tier, ("1/0", "a*a"))


def test_shared_subexpressions_are_computed_once(monkeypatch):
    calls = spy_operators(monkeypatch)
    wedge = "(a*tb-b*ta)^2+(a*tb-b*ta)"
    # case 4's closed forms at one sample share their wedges and their powers
    # of (1+alpha) and alpha across the group
    case = catalog.get_case(4, alpha=-1, beta=0)
    forms = (*case.expected["rvuu"], case.expected["sectional_numerator"])
    env = dict(case.params, a=Fraction(1, 2), b=-2, c=Fraction(3, 4), d=1, ta=Fraction(-1, 3),
               tb=1, tc=0, td=Fraction(5, 2))
    for tier in tiers(monkeypatch):
        calls.clear()
        assert evaluate(wedge, {"a": 2, "tb": 3, "b": 5, "ta": 7}) == (6 - 35) ** 2 + (6 - 35)
        interpreted = [("*", 2, 3), ("*", 5, 7), ("-", 6, 35), ("^", -29, 2),
                       ("+", (841, 1), -29)]
        assert calls == (interpreted if tier == "interpreted" else [("^", -29, 2)])
        assert_served_by(tier, (wedge,))
        calls.clear()
        separate = [evaluate(src, env) for src in forms]
        alone = len(calls)
        calls.clear()
        assert exprs.evaluate_all(forms, env) == separate
        assert len(calls) < alone
        assert_served_by(tier, forms)


def test_generated_code_matches_the_interpreter(monkeypatch):
    """Programs drawn as test_postfix_matches_recursive_reference draws them, alone and in
    groups, run on the interpreter and promoted on their first run, at int, Fraction,
    float and mixed bindings, with zero divisors and values near the edges of the float
    range: each run gives the same values, types and float bits (a float's repr is the
    shortest string that reads back to its bits, sign of zero included), or the same
    refusal."""
    monkeypatch.setattr(exprs, "PROMOTE_AT", 0)
    rng = random.Random(1994)

    def compiled(sources):
        kept = []
        for src in sources:
            try:
                parse_expr(src)
            except InputError:
                continue
            kept.append(src)
        return kept

    fixtures = compiled(rng.sample(fixture_strings(), 60))
    # and a negated zero meeting a float, which must stay 0.0, not become -0.0
    draws = compiled([random_tokens(rng) for _ in range(600)]
                     + [grammar_expr(rng, rng.randint(1, 4)) for _ in range(250)]
                     + ["-a * 0.5", "-(a / b) * 2.0", "-alpha / 3 - 0.0"])
    groups = [(src,) for src in fixtures + draws]
    for _ in range(40):
        size = rng.randint(2, 4)
        start = rng.randrange(len(fixtures) - size)
        groups += [tuple(fixtures[start:start + size]), tuple(rng.sample(draws, size))]
    names = sorted(set().union(*(free_names(parse_expr(src)) for src in fixtures + draws)))
    # all int, all Fraction, all float, and the three side by side; each kind's first
    # value is zero, its first four are small and the others lie at the edges of the
    # float range
    pools = {int: (0, 2, -3, 7, 2 ** 1023, -(2 ** 1100)),
             Fraction: (Fraction(0), Fraction(-5, 3), Fraction(7, 4), Fraction(1, 2),
                        Fraction(1, 10 ** 400), Fraction(-(10 ** 400), 3)),
             float: (0.0, -0.0, 0.25, -3.5, 5e-324, 1.7e308)}
    envs = [{name: rng.choice(pools[kinds[k % len(kinds)]][:size])
             for k, name in enumerate(names)}
            for kinds in ((int,), (Fraction,), (float,), (float, Fraction, int))
            for size in (1, 4, 6, 6)]
    promoted = 0
    for group in groups:
        program = exprs._compile.__wrapped__(group)  # with a fresh tier table
        interpreted = (*program[:3], None)
        for env in envs:
            want = group_outcome(exprs._run, interpreted, env)
            assert group_outcome(exprs._run, program, env) == want, (group, env)
        if program[3] is not None:
            assert program[3] and all(map(callable, program[3].values())), group
            promoted += 1
    assert promoted > 250


def test_unbound_names_and_other_classes_stay_interpreted(monkeypatch):
    monkeypatch.setattr(exprs, "PROMOTE_AT", 0)
    program = exprs._compile.__wrapped__(("a*b + 1",))
    for _ in range(3):
        with pytest.raises(InputError, match="unbound variable 'b'"):
            exprs._run(program, {"a": 2})
        assert exprs._run(program, {"a": True, "b": 2}) == [3]
        assert exprs._run(program, {"a": 0.5, "b": Fraction(4)}) == [3.0]
    assert [count.__class__ for count in program[3].values()] == [int, int, type(exprs._run)]
