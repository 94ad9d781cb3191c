"""Tiny arithmetic expression interpreter.

Catalog fixtures store reference formulas (structure constants over alpha and
beta, sectional and flag-curvature closed forms) as plain strings. This module
compiles each once into a postfix program and evaluates it over exact or
floating scalars. Grammar: + - * / unary minus, '^' or '**' for integer powers
(|n| <= MAX_EXPONENT), parentheses, integer or decimal literals, bare
variable names. '^' binds tightest and groups to the right, unary minus
next (-a^2 is -(a^2), a^-b is a^(-b), -a*b is (-a)*b), then * /, then + -.
Division of exact operands stays exact, so "3/4" evaluates to Fraction(3, 4).

A program is a flat tuple in evaluation order: numbers, ("var", name) pairs
and operator names (+ - * / ^, and neg for unary minus). One loop with an
operator stack compiles it (operator precedence, E. W. Dijkstra 1961) and one
loop over a value stack evaluates it, so nothing recurses on the input and
no nesting depth or length of a document expression can exhaust Python's
stack. Length is bounded by MAX_EXPR_TOKENS instead, checked while
tokenizing.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Mapping

from .errors import InputError
from .scalars import Scalar, format_scalar, is_exact

# Distinct sources kept by the parse memo; reproducing all six catalog cases
# parses 82.
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
# expression has 347. The costliest input at the ceiling, a product of 512
# copies of a 2500-digit alpha (1023 tokens), takes 11 s (CPython 3.11, Xeon).
MAX_EXPR_TOKENS = 1024

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
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
            if any(ch in num for ch in ".eE"):
                tokens.append(float(num))
            else:
                try:
                    tokens.append(int(num))
                except ValueError as exc:  # past the int-string digit limit
                    raise InputError(f"integer literal too long: {exc}") from None
        elif name is not None:
            tokens.append(("var", name))
        else:
            tokens.append("^" if op == "**" else op)
    return tokens


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_expr(src: str) -> tuple:
    """Compile src into a postfix program.

    Programs are immutable, so parses are memoized: the catalog evaluates the
    same fixture strings again for every case and parameter point. A source
    that fails to parse raises every time and is not cached.
    """
    program: list = []
    ops: list = []
    operand = True  # the next token must be an operand
    for tok in _tokenize(src):
        if operand:
            if not isinstance(tok, str):
                program.append(tok)
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
                program.append(ops.pop())
            if not ops:
                raise InputError(f"trailing input in expression {src!r}")
            ops.pop()
        else:
            # Pop what binds at least as tightly; '^' groups to the right.
            bind = _PRECEDENCE[tok] + (tok == "^")
            while ops and _PRECEDENCE[ops[-1]] >= bind:
                program.append(ops.pop())
            ops.append(tok)
            operand = True
    if operand:
        raise InputError(f"unexpected token '' in expression {src!r}")
    if "(" in ops:
        raise InputError(f"missing ')' in expression {src!r}")
    return tuple(program + ops[::-1])


def free_names(expr: tuple) -> set:
    return {item[1] for item in expr if isinstance(item, tuple)}


def evaluate(expr: tuple | str, env: Mapping[str, Scalar] | None = None) -> Scalar:
    """Run a compiled program (or source string) over the given bindings."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    env = env or {}
    stack: list = []
    for item in expr:
        if isinstance(item, str):
            if item == "neg":
                stack[-1] = -stack[-1]
            else:
                b = stack.pop()
                stack[-1] = _apply(item, stack[-1], b)
        elif isinstance(item, tuple):
            try:
                stack.append(env[item[1]])
            except KeyError:
                raise InputError(f"unbound variable {item[1]!r} in expression") from None
        else:
            stack.append(item)
    return stack[0]


def _apply(op: str, a: Scalar, b: Scalar) -> Scalar:
    """a op b for a binary operator of the grammar."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise InputError("division by zero in expression")
        if is_exact(a) and is_exact(b):
            return Fraction(a) / Fraction(b)
        return a / b
    if b.denominator != 1 if is_exact(b) else not b.is_integer():
        raise InputError("only integer exponents are supported")
    if abs(b) > MAX_EXPONENT:
        raise InputError(f"exponent {format_scalar(b)} is over the ceiling {MAX_EXPONENT}")
    if is_exact(a):
        a = Fraction(a)
        bits = abs(int(b)) * max(a.numerator.bit_length(), a.denominator.bit_length())
        if bits > MAX_POWER_BITS:
            raise InputError(f"power of about {bits} bits is over the ceiling "
                             f"{MAX_POWER_BITS}")
    try:
        return a ** int(b)
    except ZeroDivisionError:
        raise InputError("division by zero in expression") from None
    except OverflowError:
        raise InputError("expression overflows a float") from None
