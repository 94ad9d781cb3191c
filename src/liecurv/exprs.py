"""Tiny arithmetic expression interpreter.

Catalog fixtures store reference formulas (structure constants over alpha and
beta, sectional and flag-curvature closed forms) as plain strings. This module
compiles each once and evaluates it over exact or floating scalars. Grammar:
+ - * / unary minus, '^' or '**' for integer powers (|n| <= MAX_EXPONENT),
parentheses, integer or decimal literals, bare variable names. '^' binds
tightest and groups to the right, unary minus next (-a^2 is -(a^2), a^-b is
a^(-b), -a*b is (-a)*b), then * /, then + -.
Division of exact operands stays exact, so "3/4" evaluates to Fraction(3, 4).

Each source is compiled once into register code, in one walk. One loop with
an operator stack yields it in postfix order (operator precedence, E. W.
Dijkstra 1961), so nothing recurses on the input and no nesting depth or
length of a document expression can exhaust Python's stack. Length is bounded
by MAX_EXPR_TOKENS instead, checked while tokenizing. As each item arrives,
compiling gives each literal (keyed by type and repr), name and operator
result a register and emits (op, i, j, k), meaning regs[k] = regs[i] op
regs[j], once per operator and operands, so a group compiled together
computes a repeated subexpression once (value numbering, J. Cocke 1970).
parse_expr compiles one source and evaluate_all a tuple of sources, through
one memo keyed by the text. Sources run in order and fail as a stack machine
would: each source's bound is read before its operators, and an unbound name
raises after exactly the operators before it in postfix order.

Programs run in two tiers. _run interprets each program and counts its runs
per binding kinds, the class (int, Fraction or float) of each name's value.
Once a program with an operator has run PROMOTE_AT times at the same kinds,
exprgen generates one straight-line Python function for them, kept on the
memoized program, and later runs at those kinds call it (type feedback, U.
Hoelzle and D. Ungar 1994). Unbound names and other binding types stay
interpreted. Both tiers give the same values, types, float bits and errors,
in the same order.

Exact values are evaluated on ints, and on (numerator, denominator) int pairs
once a Fraction or a '/' is involved, powers included, so a result is one
Fraction, built at the end, not one per operation. Only a power's base is
reduced, so a size bound formed as each operator is emitted holds for every
intermediate, with bits the larger bit length of numerator and denominator
(0 for a float): a op b has at most bits(a) + bits(b) + 1 bits, x^e at most
n * bits(x) + bits(e) + 1, and -a as many as a. n is the |value| of an int
literal exponent, negated or not, clamped to 1..MAX_EXPONENT, and
MAX_EXPONENT for any other exponent. The bound is a linear form in the bit
lengths of the free names, read against the bindings before evaluating; a
program whose bound exceeds MAX_EXPR_BITS is refused.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Mapping
from fractions import Fraction

from .errors import InputError
from .scalars import Scalar, format_scalar, is_exact, parse_rational

# Distinct sources and groups kept by the compile memo; reproducing all six
# catalog cases compiles 20 sources alone and 11 groups.
PARSE_CACHE_SIZE = 4096

# Largest |n| accepted in x^n. An exact power is computed in full, so without
# a ceiling alpha^3000000 builds a 1.4M-digit integer; the fixtures use ^2.
MAX_EXPONENT = 64

# Largest estimated size, in bits, of an exact power's result: |n| times the
# bit length of the base, refused before the power is computed. A nest of
# powers each under MAX_EXPONENT, ((3^64)^64)^64, would otherwise build a
# 125k-digit integer. 8192 bits are about 2466 decimal digits, under Python's
# default 4300-digit limit on int-to-string conversion.
MAX_POWER_BITS = 8192

# Most tokens in one expression ('**' is one token). The fixtures' longest
# expression has 347.
MAX_EXPR_TOKENS = 1024

# Largest size bound, in bits, of a program at its bindings (see _compile).
# The tests reach 557576 with ((a^64)^64)^64 at a = 3, which MAX_POWER_BITS
# then refuses, and 33217 in an accepted program; reproducing the catalog
# reaches 494. A product of 512 copies of a 2500-digit alpha bounds at 4.25M
# bits and is refused in under 1 ms, where it took 4.5 s to evaluate. The
# costliest input found under both ceilings, 512 factors of a 2040-bit
# Fraction, takes 2.7 s (CPython 3.11, 2-vCPU Xeon).
MAX_EXPR_BITS = 1 << 20

# Runs of one program at the same binding kinds after which _run generates
# Python for it. Generating case 4's 170-operator R(V,U)U/sectional group takes
# 3.3 ms and saves 59 us a run (78 -> 19 us), so it pays off after 57 runs;
# programs of 3 to 27 operators after 80 to 150 (CPython 3.11, 2-vCPU VM). In
# a single-point `report --case 4` no program runs more than 21 times.
PROMOTE_AT = 64

_DIV_ZERO = "division by zero in expression"
_OVERFLOW = "expression overflows a float"

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))", re.ASCII  # \d and \s: ASCII digits and spaces only
)

# How tightly each operator binds; "(" binds least, so no operator pops it.
_PRECEDENCE = {"(": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _tokenize(src: str) -> list:
    """Numbers, ("var", name) pairs and operator or parenthesis strings."""
    tokens: list = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip() == "":
                break
            raise InputError(f"bad character in expression at {src[pos:]!r}")
        if len(tokens) == MAX_EXPR_TOKENS:
            raise InputError(f"expression has more than {MAX_EXPR_TOKENS} tokens")
        pos = m.end()
        num, name, op = m.group("num", "name", "op")
        if num is not None:
            tokens.append(float(num) if any(ch in num for ch in ".eE") else parse_rational(num))
        elif name is not None:
            tokens.append(("var", name))
        else:
            tokens.append("^" if op == "**" else op)
    return tokens


def _postfix(src: str):
    """Yield src in evaluation order: numbers, ("var", name) pairs and operator
    names (+ - * / ^, and neg for unary minus)."""
    ops: list = []
    operand = True  # the next token must be an operand
    for tok in _tokenize(src):
        if operand:
            if not isinstance(tok, str):
                yield tok
                operand = False
            elif tok in ("-", "("):
                ops.append("neg" if tok == "-" else tok)
            elif tok != "+":
                raise InputError(f"unexpected token {tok!r} in expression {src!r}")
        elif not isinstance(tok, str) or tok == "(":
            problem = "missing ')'" if "(" in ops else "trailing input"
            raise InputError(f"{problem} in expression {src!r}")
        elif tok == ")":
            while ops and ops[-1] != "(":
                yield ops.pop()
            if not ops:
                raise InputError(f"trailing input in expression {src!r}")
            ops.pop()
        else:
            # Pop what binds at least as tightly; '^' groups to the right.
            bind = _PRECEDENCE[tok] + (tok == "^")
            while ops and _PRECEDENCE[ops[-1]] >= bind:
                yield ops.pop()
            ops.append(tok)
            operand = True
    if operand:
        raise InputError(f"unexpected token '' in expression {src!r}")
    if "(" in ops:
        raise InputError(f"missing ')' in expression {src!r}")
    yield from reversed(ops)


def parse_expr(src: str) -> tuple:
    """Compile src into the register program that evaluate runs. Programs are
    immutable and memoized by the text, since the catalog evaluates the same
    fixture strings again for every case and parameter point; a source that
    fails to compile raises every time and is not cached."""
    return _compile((src,))


def free_names(program: tuple) -> set:
    return {name for name, _ in program[1]}


def evaluate(expr: tuple | str, env: Mapping[str, Scalar] | None = None) -> Scalar:
    """Run a program from parse_expr, or compile a source string and run it, over
    the given bindings. A pair that meets a float becomes n / d, correctly rounded
    like float(Fraction). Refused before anything is computed when the program's
    size bound exceeds MAX_EXPR_BITS."""
    return _run(_compile((expr,)) if isinstance(expr, str) else expr, env or {})[0]


def evaluate_all(sources: tuple, env: Mapping[str, Scalar] | None = None) -> list:
    """[evaluate(src, env) for src in sources], for source strings, with the group
    compiled once: a subexpression they share is computed once. Every source is
    compiled before any runs, and the first error raised is the one of that loop."""
    return _run(_compile(tuple(sources)), env or {})


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _compile(sources: tuple) -> tuple:
    """(registers holding the literals, ((name, register), ...), per source
    (bound, code, result register, ((name, its instructions before its first use), ...)),
    and the tier table _run fills, None for a program with no operator), with the bound
    (c, ((name, k), ...)) standing for c + sum(k * bits(value of name))."""
    regs: list = []
    slots: dict = {}  # (type, repr) of a literal, ("var", name) or (op, i, j) -> register
    segments = []
    for src in sources:
        code, loads = [], {}
        stack = []  # per operand: register, bound (c, {name: k}), n as an exponent
        for item in _postfix(src):
            n = MAX_EXPONENT
            if item == "neg":  # a negated int literal keeps the literal's n
                i, bound, m = stack.pop()
                key, n = (item, i, i), m if regs[i].__class__ is int else n
            elif item.__class__ is str:
                j, (c, weights), m = stack.pop()
                i, (ca, wa), _ = stack.pop()
                key, m = (item, i, j), m if item == "^" else 1
                for name, k in wa.items():
                    weights[name] = weights.get(name, 0) + m * k
                bound = (m * ca + c + 1, weights)
            elif item.__class__ is tuple:
                key, bound = item, (0, {item[1]: 1})
                loads.setdefault(item[1], len(code))
            else:
                key, bound = (item.__class__, repr(item)), (0, {})
                if item.__class__ is int:
                    bound, n = (item.bit_length(), {}), max(min(item, MAX_EXPONENT), 1)
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(regs)
                regs.append(item if item.__class__ in (int, float) else None)
                if item.__class__ is str:
                    code.append((*key, slot))
            stack.append((slot, bound, n))
        result, (c, weights), _ = stack[0]
        segments.append(((c, tuple(sorted(weights.items()))), tuple(code), result,
                         tuple(loads.items())))
    names = tuple((key[1], slot) for key, slot in slots.items() if key[0] == "var")
    return tuple(regs), names, tuple(segments), {} if any(s[1] for s in segments) else None


def _run(program: tuple, env: Mapping[str, Scalar]) -> list:
    """Each compiled source's value, in order; see evaluate."""
    init, names, segments, tiers = program
    if tiers is not None:  # per binding kinds, a run count or the generated function
        kinds = tuple([env.get(name).__class__ for name, _ in names])
        count = tiers.get(kinds, 0)
        if count.__class__ is not int:
            return count(env)
        tiers[kinds] = count + 1
        if count >= PROMOTE_AT:
            from .exprgen import generate
            run = generate(program, kinds)
            if run is not None:
                tiers[kinds] = run
                return run(env)
    regs, bits = list(init), {}
    for name, slot in names:
        if name in env:
            x = env[name]
            if isinstance(x, Fraction):
                x = (x.numerator, x.denominator)
                bits[name] = max(x[0].bit_length(), x[1].bit_length())
            elif is_exact(x):
                bits[name] = x.bit_length()
            regs[slot] = x
    out = []
    for (bound, weights), code, result, loads in segments:
        for name, k in weights:
            bound += k * bits.get(name, 0)
        if bound > MAX_EXPR_BITS:
            raise _over(bound)
        missing = next((load for load in loads if load[0] not in env), None)
        for op, i, j, k in code if missing is None else code[:missing[1]]:
            a = regs[i]
            if op == "neg":
                regs[k] = (-a[0], a[1]) if a.__class__ is tuple else -a
                continue
            b = regs[j]
            if op == "^" or a.__class__ is float or b.__class__ is float:
                regs[k] = _apply(op, a, b)
            else:
                regs[k] = _exact(op, a, b)
        if missing:
            raise InputError(f"unbound variable {missing[0]!r} in expression")
        x = regs[result]
        out.append(Fraction(*x) if x.__class__ is tuple else x)
    return out


def _over(bound: int) -> InputError:
    return InputError(f"expression of up to {bound} bits is over the ceiling {MAX_EXPR_BITS}")


def _exact(op: str, a, b):
    """a op b for + - * / on ints and (n, d) pairs: int + - * int stays an
    int, anything else is a pair, cross-multiplied and never reduced. A
    denominator stays positive, so n / d of a zero n is 0.0, not -0.0."""
    if a.__class__ is not tuple and b.__class__ is not tuple and op != "/":
        return a + b if op == "+" else a - b if op == "-" else a * b
    n, d = a if a.__class__ is tuple else (a, 1)
    m, e = b if b.__class__ is tuple else (b, 1)
    if op == "*":
        return n * m, d * e
    if op == "/":
        if not m:
            raise InputError(_DIV_ZERO)
        return (n * e, d * m) if m > 0 else (-n * e, -d * m)
    if d != e:
        n, m, d = n * e, m * d, d * e
    return (n + m if op == "+" else n - m), d


def _apply(op: str, a, b) -> Scalar:
    """a op b for a power, or when one operand is a float. An exact power is a pair in
    lowest terms, a float one float's; next to a float a pair is n / d, correctly rounded."""
    if op != "^":
        try:
            a = a[0] / a[1] if a.__class__ is tuple else float(a)
            b = b[0] / b[1] if b.__class__ is tuple else float(b)
        except OverflowError:
            raise InputError(_OVERFLOW) from None
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b == 0:
            raise InputError(_DIV_ZERO)
        return a / b
    m, e = b if b.__class__ is tuple else (b, 1)
    if m % e if b.__class__ in (int, tuple) else not b.is_integer():
        raise InputError("only integer exponents are supported")
    if abs(m // e) > MAX_EXPONENT:  # a float b is b // 1, itself
        raise InputError(f"exponent {format_scalar(m // e)} is over the ceiling {MAX_EXPONENT}")
    k = int(m // e)
    if a.__class__ in (int, tuple):  # reduced first, so the bits are those of its Fraction
        n, d = a if a.__class__ is tuple else (a, 1)
        n, d = n // (g := math.gcd(n, d)), d // g
        bits = abs(k) * max(n.bit_length(), d.bit_length())
        if bits > MAX_POWER_BITS:
            raise InputError(f"power of about {bits} bits is over the ceiling {MAX_POWER_BITS}")
        if k < 0 and not n:
            raise InputError(_DIV_ZERO)
        return (n ** k, d ** k) if k >= 0 else ((d if n > 0 else -d) ** -k, abs(n) ** -k)
    try:
        return a ** k
    except ZeroDivisionError:
        raise InputError(_DIV_ZERO) from None
    except OverflowError:
        raise InputError(_OVERFLOW) from None
