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
operator stack compiles it (operator precedence, E. W. Dijkstra 1961), so
nothing recurses on the input and no nesting depth or length of a document
expression can exhaust Python's stack. Length is bounded by MAX_EXPR_TOKENS
instead, checked while tokenizing.

Programs run as register code. Linking gives each literal (keyed by type and
repr), name and operator result a register and emits (op, i, j, k), meaning
regs[k] = regs[i] op regs[j], once per operator and operands, so a linked
group computes a repeated subexpression once (value numbering, J. Cocke 1970).
evaluate links a program on its first run, evaluate_all a tuple of sources,
memoized. Sources run in order and fail as a stack machine would: each
source's bound is read before its operators, and an unbound name raises after
exactly the operators before it in postfix order.

Exact values are evaluated on ints, and on unreduced (numerator,
denominator) int pairs once a Fraction or a '/' is involved, so a result is
one Fraction, built at the end, not one per operation. Since pairs are never
reduced, a bound compiled with the program holds for every intermediate:
a op b has at most bits(a) + bits(b) + 1 bits and x^n at most |n| * bits(x).
It is a linear form in the bit lengths of the free names, read against the
bindings before evaluating; a program whose bound exceeds MAX_EXPR_BITS is
refused.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Mapping

from .errors import InputError
from .scalars import Scalar, format_scalar, is_exact

# Distinct sources kept by the parse memo, and distinct groups by the link
# memo; reproducing all six catalog cases parses 82 sources and links 11 groups.
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

# Largest size bound, in bits, of a program at its bindings (see Program).
# The tests reach 557576 with ((a^64)^64)^64 at a = 3, which MAX_POWER_BITS
# then refuses, and 33217 in an accepted program; reproducing the catalog
# reaches 494. A product of 512 copies of a 2500-digit alpha bounds at 4.25M
# bits and is refused in under 1 ms, where it took 4.5 s to evaluate. The
# costliest input found under both ceilings, 512 factors of a 2040-bit
# Fraction, takes 2.7 s (CPython 3.11, 2-vCPU Xeon).
MAX_EXPR_BITS = 1 << 20

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


class Program(tuple):
    """A compiled postfix program. `cost` is its size bound (c, ((name, k),
    ...)): no exact value met while evaluating it has more than
    c + sum(k * bits(value of name)) bits, where bits is the larger bit
    length of numerator and denominator, and 0 for a float."""

    cost: tuple

    @functools.cached_property
    def linked(self) -> tuple:  # not through the memo, where Program((2,)) == Program((2.0,))
        return _link.__wrapped__((self,))


def _cost(program: tuple) -> tuple:
    """The size bound of a program. a op b takes bits(a) + bits(b) + 1, and a
    power x^e takes n * bits(x) + bits(e) + 1, with n the |value| of a literal
    exponent (at least 1), else MAX_EXPONENT. Each form so dominates its
    operands', and the program's bounds every exact value met. One walk back
    from the root gives each leaf its multiplier, the product of the n above
    it."""
    const, weights = 0, {}
    pending = [1]  # multipliers of the operands still to be met
    for i in range(len(program) - 1, -1, -1):
        item, m = program[i], pending.pop()
        if item == "neg":
            pending.append(m)
        elif item.__class__ is str:
            n = 1
            if item == "^":
                e = program[i - 2] if program[i - 1] == "neg" else program[i - 1]
                n = max(min(abs(e), MAX_EXPONENT), 1) if e.__class__ is int else MAX_EXPONENT
            const += m
            pending += (m * n, m)
        elif item.__class__ is tuple:
            weights[item[1]] = weights.get(item[1], 0) + m
        elif item.__class__ is int:
            const += m * item.bit_length()
    return const, tuple(sorted(weights.items()))


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_expr(src: str) -> Program:
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
    out = Program(program + ops[::-1])
    out.cost = _cost(out)
    return out


def free_names(expr: tuple) -> set:
    return {item[1] for item in expr if isinstance(item, tuple)}


def evaluate(expr: Program | str, env: Mapping[str, Scalar] | None = None) -> Scalar:
    """Run a program from parse_expr (or a source string) over the given bindings,
    linked on its first run. A pair that meets a float becomes n / d, correctly
    rounded like float(Fraction). Refused before anything is computed when the
    program's size bound exceeds MAX_EXPR_BITS."""
    return _run(_link((expr,)) if isinstance(expr, str) else expr.linked, env or {})[0]


def evaluate_all(sources: tuple, env: Mapping[str, Scalar] | None = None) -> list:
    """[evaluate(src, env) for src in sources], for source strings, with the group
    linked once: a subexpression they share is computed once. Every source is
    parsed before any runs, and the first error raised is the one of that loop."""
    return _run(_link(tuple(sources)), env or {})


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _link(sources: tuple) -> tuple:
    """(registers holding the literals, ((name, register), ...), and per source
    (cost, code, result register, ((name, its instructions before its first use), ...)))."""
    regs: list = []
    slots: dict = {}  # (type, repr) of a literal, ("var", name) or (op, i, j) -> register
    segments = []
    for program in sources:
        program = parse_expr(program) if isinstance(program, str) else program
        code, loads, stack = [], {}, []
        for item in program:
            if item.__class__ is str:
                j = stack.pop() if item != "neg" else stack[-1]
                key = (item, stack.pop(), j)
            elif item.__class__ is tuple:
                key = item
                loads.setdefault(item[1], len(code))
            else:
                key = (item.__class__, repr(item))
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(regs)
                regs.append(item if item.__class__ in (int, float) else None)
                if item.__class__ is str:
                    code.append((*key, slot))
            stack.append(slot)
        segments.append((program.cost, tuple(code), stack[0], tuple(loads.items())))
    names = tuple((key[1], slot) for key, slot in slots.items() if key[0] == "var")
    return regs, names, tuple(segments)


def _run(linked: tuple, env: Mapping[str, Scalar]) -> list:
    """Each linked program's value, in order; see evaluate."""
    init, names, segments = linked
    regs, bits = init[:], {}
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
            raise InputError(f"expression of up to {bound} bits is over the ceiling "
                             f"{MAX_EXPR_BITS}")
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
            raise InputError("division by zero in expression")
        return (n * e, d * m) if m > 0 else (-n * e, -d * m)
    if d != e:
        n, m, d = n * e, m * d, d * e
    return (n + m if op == "+" else n - m), d


def _apply(op: str, a, b) -> Scalar:
    """a op b for a power, or when one operand is a float; a pair becomes a
    reduced Fraction for '^', and next to a float n / d, correctly rounded."""
    if op != "^":
        try:
            a = a[0] / a[1] if a.__class__ is tuple else float(a)
            b = b[0] / b[1] if b.__class__ is tuple else float(b)
        except OverflowError:
            raise InputError("expression overflows a float") from None
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b == 0:
            raise InputError("division by zero in expression")
        return a / b
    a = Fraction(*a) if a.__class__ is tuple else a
    b = Fraction(*b) if b.__class__ is tuple else b
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
        out = a ** int(b)
    except ZeroDivisionError:
        raise InputError("division by zero in expression") from None
    except OverflowError:
        raise InputError("expression overflows a float") from None
    return (out.numerator, out.denominator) if isinstance(out, Fraction) else out
