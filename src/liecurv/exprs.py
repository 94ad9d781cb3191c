"""Tiny arithmetic expression interpreter.

Catalog fixtures store reference formulas (structure constants over alpha and
beta, sectional and flag-curvature closed forms) as plain strings. This module
parses each once into a small tree and evaluates them over exact or floating
scalars. Grammar: + - * / unary minus, '^' or '**' for integer powers
(|n| <= MAX_EXPONENT), parentheses, integer or decimal literals, bare
variable names. Division of exact operands stays exact, so "3/4" evaluates
to Fraction(3, 4).
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Mapping, Union

from .errors import InputError
from .scalars import Scalar, format_scalar, is_exact

Expr = Union[tuple, int, float, str]

# Distinct sources kept by the parse memo; reproducing all six catalog cases
# parses 82.
PARSE_CACHE_SIZE = 4096

# Largest |n| accepted in x^n. An exact power is computed in full, so without
# a ceiling alpha^3000000 builds a 1.4M-digit integer; the fixtures use ^2.
MAX_EXPONENT = 64

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(src: str) -> list:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip() == "":
                break
            raise InputError(f"bad character in expression at {src[pos:]!r}")
        pos = m.end()
        if m.group("num") is not None:
            text = m.group("num")
            if any(ch in text for ch in ".eE"):
                tokens.append(("num", float(text)))
            else:
                tokens.append(("num", int(text)))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens: list, src: str):
        self.tokens = tokens
        self.pos = 0
        self.src = src

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> str | None:
        kind, value = self.peek()
        if kind == "op" and value in ops:
            self.next()
            return value
        return None

    def parse(self) -> Expr:
        node = self.expr()
        if self.peek()[0] != "end":
            raise InputError(f"trailing input in expression {self.src!r}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return node
            node = (op, node, self.term())

    def term(self) -> Expr:
        node = self.factor()
        while True:
            op = self.accept_op("*", "/")
            if op is None:
                return node
            node = (op, node, self.factor())

    def factor(self) -> Expr:
        if self.accept_op("-"):
            return ("neg", self.factor())
        if self.accept_op("+"):
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.accept_op("^"):
            return ("^", node, self.factor())
        return node

    def atom(self) -> Expr:
        kind, value = self.next()
        if kind == "num":
            return value
        if kind == "name":
            return ("var", value)
        if kind == "op" and value == "(":
            node = self.expr()
            if not self.accept_op(")"):
                raise InputError(f"missing ')' in expression {self.src!r}")
            return node
        raise InputError(f"unexpected token {value!r} in expression {self.src!r}")


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_expr(src: str) -> Expr:
    """Parse src into a tree of nested tuples.

    Trees are immutable, so parses are memoized: the catalog evaluates the
    same fixture strings again for every case and parameter point. A source
    that fails to parse raises every time and is not cached.
    """
    return _Parser(_tokenize(src), src).parse()


def free_names(expr: Expr) -> set:
    if isinstance(expr, tuple):
        if expr[0] == "var":
            return {expr[1]}
        out = set()
        for child in expr[1:]:
            out |= free_names(child)
        return out
    return set()


def evaluate(expr: Expr, env: Mapping[str, Scalar] | None = None) -> Scalar:
    """Evaluate a parsed tree (or source string) over the given bindings."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    return _eval(expr, env or {})


def _eval(expr: Expr, env: Mapping[str, Scalar]) -> Scalar:
    if isinstance(expr, (int, float)):
        return expr
    op = expr[0]
    if op == "var":
        try:
            return env[expr[1]]
        except KeyError:
            raise InputError(f"unbound variable {expr[1]!r} in expression") from None
    if op == "neg":
        return -_eval(expr[1], env)
    a = _eval(expr[1], env)
    b = _eval(expr[2], env)
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
    if op == "^":
        if b.denominator != 1 if is_exact(b) else not b.is_integer():
            raise InputError("only integer exponents are supported")
        if abs(b) > MAX_EXPONENT:
            raise InputError(f"exponent {format_scalar(b)} is over the ceiling {MAX_EXPONENT}")
        try:
            return (Fraction(a) if is_exact(a) else a) ** int(b)
        except ZeroDivisionError:
            raise InputError("division by zero in expression") from None
        except OverflowError:
            raise InputError("expression overflows a float") from None
    raise InputError(f"unknown operator {op!r}")
