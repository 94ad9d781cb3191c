"""Straight-line Python for a hot exprs program.

exprs._run interprets a compiled program until it has run PROMOTE_AT times at
the same binding kinds, the class of each name's value, then calls generate
for those kinds and, when every class is int, Fraction or float, runs the
function it returns from then on (run-time type feedback, U. Hoelzle and D.
Ungar, PLDI 1994). The kinds fix, by the interpreter's own rules, what every
register holds: an int, an unreduced (numerator, denominator) pair of ints,
or a float. Each register becomes one or two locals and each operator a line
of int or float arithmetic with no dispatch, building the same ints and
floats as exprs._exact and exprs._apply. A division by an int literal, whose
sign is known, needs no test of its divisor.

The function keeps the interpreter's order: it reads the bindings and their
bit lengths first, checks each source's bound before that source's
operators, sends powers through exprs._apply, and raises a ZeroDivisionError
or OverflowError as the InputError the interpreter raises there. Literals and
names are read from the tuples K and N; the generated text holds only
register names, operators and the bounds' own integers, never source text.
It runs in exprs' namespace, so it reads _apply and MAX_EXPR_BITS as they
are when it runs.
"""

from __future__ import annotations

from fractions import Fraction

from . import exprs

_KIND = {int: "i", Fraction: "p", float: "f"}


def generate(program: tuple, kinds: tuple):
    """env -> exprs._run(program, env), for an env that binds every name of program
    (in its order) to a value of exactly the class in kinds; None when a class is not
    int, Fraction or float (a missing name's is NoneType)."""
    if not all(cls in _KIND for cls in kinds):
        return None
    init, names, segments, _ = program
    kind = [_KIND.get(x.__class__) for x in init]  # per register: "i", "p" or "f"
    literals = [reg for reg, x in enumerate(init) if x is not None]
    lines = [", ".join(f"r{reg}" for reg in literals) + ", = K"] if literals else []
    bits = {}
    for pos, ((name, reg), cls) in enumerate(zip(names, kinds)):
        kind[reg] = _KIND[cls]
        if cls is Fraction:
            lines += [f"n{reg}, d{reg} = env[N[{pos}]].as_integer_ratio()",
                      f"b{pos} = max(n{reg}.bit_length(), d{reg}.bit_length())"]
        else:
            lines.append(f"r{reg} = env[N[{pos}]]")
            if cls is int:
                lines.append(f"b{pos} = r{reg}.bit_length()")
        if cls is not float:
            bits[name] = f"b{pos}"
    results = []
    for (c, weights), code, result, _ in segments:
        bound = " + ".join([str(c)] + [f"{k} * {bits[name]}" for name, k in weights
                                       if name in bits])
        lines += [f"B = {bound}", "if B > MAX_EXPR_BITS: raise _over(B)"]
        for op, i, j, k in code:
            lines += _operator(op, i, j, k, kind, init[j])
        results.append(f"Fraction(n{result}, d{result})" if kind[result] == "p"
                       else f"r{result}")
    body = "\n".join("   " + line for line in lines)
    source = (f"def make(K, N):\n def run(env):\n  try:\n{body}\n"
              f"   return [{', '.join(results)}]\n"
              "  except ZeroDivisionError:\n   raise InputError(_DIV_ZERO) from None\n"
              "  except OverflowError:\n   raise InputError(_OVERFLOW) from None\n"
              " return run\n")
    scope: dict = {}
    exec(compile(source, "<liecurv.exprgen>", "exec"), vars(exprs), scope)
    return scope["make"](tuple(init[reg] for reg in literals), tuple(name for name, _ in names))


def _operator(op: str, i: int, j: int, k: int, kind: list, literal) -> list:
    """Lines that set register k to register i op register j, recording k's kind;
    literal is register j's value when it holds a literal (never negative), else None."""
    a, b = kind[i], kind[j]
    if op == "neg":
        kind[k] = a
        return [f"n{k} = -n{i}; d{k} = d{i}"] if a == "p" else [f"r{k} = -r{i}"]
    if op == "^":  # an exact base gives a pair in lowest terms, a float one a float
        kind[k] = "f" if a == "f" else "p"
        target = f"r{k}" if a == "f" else f"n{k}, d{k}"
        return [f"{target} = _apply('^', {_operand(i, a)}, {_operand(j, b)})"]
    if "f" in (a, b):  # next to a float, a pair is n / d, correctly rounded
        kind[k] = "f"
        return [f"r{k} = {_as_float(i, a)} {op} {_as_float(j, b)}"]
    if a == b == "i" and op != "/":
        kind[k] = "i"
        return [f"r{k} = r{i} {op} r{j}"]
    # exprs._exact with a missing denominator standing for 1
    kind[k] = "p"
    n, d = (f"n{i}", f"d{i}") if a == "p" else (f"r{i}", None)
    m, e = (f"n{j}", f"d{j}") if b == "p" else (f"r{j}", None)
    if op == "*":
        return [f"n{k} = {n} * {m}; d{k} = {_times(d, e)}"]
    if op == "/":
        ne, dm = _times(n, e), _times(d, m)
        if literal is not None:  # an int literal: its sign is known
            return [f"n{k} = {ne}; d{k} = {dm}" if literal else "raise ZeroDivisionError"]
        return [f"if {m} > 0: n{k} = {ne}; d{k} = {dm}",
                f"elif {m}: n{k} = -{ne}; d{k} = -{dm}",
                "else: raise ZeroDivisionError"]
    if d is None:  # n/1 op m/e is (n*e op m)/e, whether or not e is 1
        return [f"n{k} = {n} * {e} {op} {m}; d{k} = {e}"]
    if e is None:
        return [f"n{k} = {n} {op} {m} * {d}; d{k} = {d}"]
    return [f"if {d} == {e}: n{k} = {n} {op} {m}; d{k} = {d}",
            f"else: n{k} = {n} * {e} {op} {m} * {d}; d{k} = {d} * {e}"]


def _operand(reg: int, kind: str) -> str:
    """Register reg as exprs._apply takes it."""
    return f"(n{reg}, d{reg})" if kind == "p" else f"r{reg}"


def _as_float(reg: int, kind: str) -> str:
    return {"i": f"float(r{reg})", "p": f"(n{reg} / d{reg})", "f": f"r{reg}"}[kind]


def _times(x: str | None, y: str | None) -> str:
    return y if x is None else x if y is None else f"{x} * {y}"
