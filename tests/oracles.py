"""Reference computations that the package no longer carries.

Each is a slower or more literal route to a value the package computes
another way; tests compare the two.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from liecurv import linalg
from liecurv.algebra import MetricTensor, Vector, as_vector, bracket
from liecurv.errors import (DegeneratePlaneError, InputError, NonBerwaldError,
                            PreconditionError, UndefinedAtOriginError)
from liecurv.exprs import MAX_EXPONENT, MAX_POWER_BITS
from liecurv.randers import Flag, RandersMetric, g_y, randers_norm
from liecurv.riemann import Connection, CurvatureTensor, sectional
from liecurv.scalars import (Scalar, approx_equal, format_scalar, is_exact, is_exact_zero,
                             is_zero, scalar_to_json, sqrt_scalar)


def flag_curvature_four_g_y(rm: RandersMetric, rt: CurvatureTensor,
                            flag: Flag) -> Scalar:
    """Flag curvature K(P, y) = g_y(R(e,y)y, e) / (g_y(y,y) g_y(e,e) - g_y(y,e)^2)
    for pole y and edge e, straight from the definition in the fundamental
    tensor. Only meaningful for Berwald type (parallel drift)."""
    if not rm.berwald:
        raise NonBerwaldError(
            "flag curvature requires a parallel drift (Berwald type); "
            "this Randers metric has nabla Q != 0")
    if rt.dim != rm.dim:
        raise InputError("curvature tensor dimension differs from Randers metric")
    pole = as_vector(flag.pole, rm.dim)
    edge = as_vector(flag.edge, rm.dim)
    g = rm.base
    if is_zero(g.norm_sq(pole)):
        raise UndefinedAtOriginError("flag pole must be nonzero")
    plane_det = g.norm_sq(pole) * g.norm_sq(edge) - g.inner(pole, edge) ** 2
    if is_zero(plane_det):
        raise DegeneratePlaneError("flag pole and edge are linearly dependent")
    rvyy = curvature_apply_dense(rt, edge, pole, pole)
    num = g_y(rm, pole, rvyy, edge)
    den = (g_y(rm, pole, pole, pole) * g_y(rm, pole, edge, edge)
           - g_y(rm, pole, pole, edge) ** 2)
    return num / den


@contextlib.contextmanager
def fraction_gram():
    """Inside, MetricTensor.inner contracts float vectors against the Fraction Gram
    matrix, each product a float times a Fraction, as it did before the float image:
    inner, g_y, plane_form and flag_curvature take that mixed path."""
    image = MetricTensor.__dict__["float_gram"]
    MetricTensor.float_gram = property(lambda self: self.gram)
    try:
        yield
    finally:
        MetricTensor.float_gram = image


def torsion(conn: Connection, i: int, j: int) -> Vector:
    """nabla_i e_j - nabla_j e_i - [e_i, e_j]; zero for Levi-Civita."""
    n = conn.dim
    return (conn.nabla(i, j) - conn.nabla(j, i)
            - bracket(conn.algebra, Vector.basis(n, i), Vector.basis(n, j)))


def compatibility_residual(conn: Connection, i: int, j: int, k: int) -> Scalar:
    """g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k); zero iff the metric is parallel."""
    ej = Vector.basis(conn.dim, j)
    ek = Vector.basis(conn.dim, k)
    return conn.metric.inner(conn.nabla(i, j), ek) + conn.metric.inner(ej, conn.nabla(i, k))


def riemann_tensor_dense(conn: Connection) -> list:
    """All n^4 curvature entries r[i][j][k][l] from one fused multiply-add
    loop over R(e_i,e_j)e_k = sum_m (G_jkm G_im - G_ikm G_jm - c_ijm G_mk),
    with no antisymmetry shortcut. A term is skipped when its coefficient
    == 0."""
    n = conn.dim
    gamma = conn.gamma
    c = conn.algebra.structure
    table = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = table[i][j][k]
                for m in range(n):
                    gjk = gamma[j][k][m]
                    gik = gamma[i][k][m]
                    cij = c[i][j][m]
                    for l in range(n):
                        acc = row[l]
                        if gjk != 0:
                            acc = acc + gjk * gamma[i][m][l]
                        if gik != 0:
                            acc = acc - gik * gamma[j][m][l]
                        if cij != 0:
                            acc = acc - cij * gamma[m][k][l]
                        row[l] = acc
    return table


def curvature_apply_dense(rt: CurvatureTensor, u, v, w) -> Vector:
    """R(u, v)w by trilinear contraction of the dense table."""
    u, v, w = (as_vector(x, rt.dim).coeffs for x in (u, v, w))
    return Vector(linalg.contract(rt.table, u, v, w))


def curvature_operator_dense(conn: Connection) -> list:
    """op[(i,j)][(k,l)] = g(R(e_j,e_i)e_k, e_l) over the pairs i<j, k<l in
    lexicographic order, each entry summed from the dense table and the
    Gram matrix."""
    n = conn.dim
    table = riemann_tensor_dense(conn)
    g = conn.metric.gram
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[sum((table[j][i][k][m] * g[m][l] for m in range(n)), Fraction(0))
             for k, l in pairs] for i, j in pairs]


def sectional_dense(rt: CurvatureTensor, metric: MetricTensor, u, v) -> tuple[Scalar, Scalar]:
    """(g(R(v,u)u, v), K) for span{u, v}, by contracting the dense table
    with v, u, u and then taking the inner product with v."""
    n = rt.dim
    u = as_vector(u, n)
    v = as_vector(v, n)
    numerator = metric.inner(curvature_apply_dense(rt, v, u, u), v)
    den = metric.inner(u, u) * metric.inner(v, v) - metric.inner(u, v) ** 2
    if is_zero(den):
        raise DegeneratePlaneError("sectional curvature needs independent spanning vectors")
    return numerator, numerator / den


def gram_schmidt(gram: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Orthogonalize the standard basis against the metric, no normalization.

    Square roots are deliberately deferred: sectional curvature needs only
    ratios, so rational metrics stay rational throughout.
    """
    n = len(gram)
    basis: list[list[Scalar]] = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        b: list[Scalar] = e
        for prev in basis:
            coeff = linalg.contract(gram, b, prev) / linalg.contract(gram, prev, prev)
            b = [b[j] - coeff * prev[j] for j in range(n)]
        basis.append(b)
    return basis


def orthonormal_pair_fractions(gram: Sequence[Sequence[Scalar]], u: Sequence[Scalar],
                               v: Sequence[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
    """linalg.orthonormal_pair with Fraction contractions and divisions, one
    Fraction per multiply-add."""
    uu = linalg.contract(gram, u, u)
    if is_exact_zero(uu):
        raise DegeneratePlaneError("zero vector cannot span a plane")
    nu = sqrt_scalar(uu)
    u_hat = [x / nu for x in u]
    coeff = linalg.contract(gram, u, v) / (Fraction(uu) if is_exact(uu) else uu)
    w = [v[j] - coeff * u[j] for j in range(len(v))]
    ww = linalg.contract(gram, w, w)
    if is_exact_zero(ww):
        raise DegeneratePlaneError("spanning vectors are linearly dependent")
    nw = sqrt_scalar(ww)
    return u_hat, [x / nw for x in w]


def scalar_curvature_gram_schmidt(rt: CurvatureTensor, metric: MetricTensor) -> Scalar:
    """Sum of sectional curvatures over ordered orthonormal basis pairs.

    The basis is Gram-Schmidt orthogonalized without normalization (exact for
    rational metrics); each plane is then normalized by its Gram determinant,
    which is all the sum needs. Ordered pairs j != k count each plane twice.
    """
    ortho = gram_schmidt(metric.gram)
    n = rt.dim
    total: Scalar = Fraction(0)
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            _, value = sectional(rt, metric, Vector(ortho[j]), Vector(ortho[k]))
            total = total + value
    return total


def scalar_curvature_table(rt: CurvatureTensor, metric: MetricTensor) -> Scalar:
    """g^{jk} Ric_jk with Ric_jk = sum_i r[i][j][k][i] summed over the dense table image,
    i = j included, then one Gram solve against the rows of Ric."""
    n = rt.dim
    table = rt.table
    ric = [[sum(table[i][j][k][i] for i in range(n)) for k in range(n)] for j in range(n)]
    solved = linalg.solve_many(metric.gram, ric)
    return sum((solved[k][k] for k in range(n)), Fraction(0))


def g_y_hessian_oracle(rm: RandersMetric, ybar, u, v, h: float = 1e-4) -> float:
    """Finite-difference check value for g_y: central mixed second difference
    of (1/2) F^2 along u and v around ybar. Always floating."""
    n = rm.dim
    ybar = as_vector(ybar, n)
    u = as_vector(u, n)
    v = as_vector(v, n)

    def f_sq(point: Vector) -> float:
        return float(randers_norm(rm, point)) ** 2

    def shifted(su: float, tv: float) -> Vector:
        return Vector(float(ybar[i]) + su * float(u[i]) + tv * float(v[i])
                      for i in range(n))

    mixed = (f_sq(shifted(h, h)) - f_sq(shifted(h, -h))
             - f_sq(shifted(-h, h)) + f_sq(shifted(-h, -h))) / (4.0 * h * h)
    return 0.5 * mixed


@dataclass
class PlaneInvarianceReport:
    value: Scalar
    value_transformed: Scalar

    @property
    def passed(self) -> bool:
        return approx_equal(self.value, self.value_transformed)

    def to_dict(self, precision: int = 12) -> dict:
        return {"value": scalar_to_json(self.value, precision),
                "value_transformed": scalar_to_json(self.value_transformed, precision),
                "passed": self.passed}


def sectional_plane_invariance_check(rt: CurvatureTensor, metric: MetricTensor,
                                     u, v, transform) -> PlaneInvarianceReport:
    """Recompute sectional curvature after an invertible 2x2 change of span.

    transform = (a, b, c, d) maps the pair to (a u + b v, c u + d v).
    """
    a, b, c, d = transform
    if is_zero(a * d - b * c):
        raise PreconditionError("plane transform must be invertible (det != 0)")
    n = rt.dim
    u = as_vector(u, n)
    v = as_vector(v, n)
    u2 = u.scale(a) + v.scale(b)
    v2 = u.scale(c) + v.scale(d)
    _, value = sectional(rt, metric, u, v)
    _, value2 = sectional(rt, metric, u2, v2)
    return PlaneInvarianceReport(value, value2)


# --- reference expression parser ---------------------------------------------
# The recursive-descent parser and tree evaluator that liecurv.exprs used
# before it compiled expressions to postfix programs, kept unchanged (bar the
# names of parse_expr, free_names and evaluate) as the reference for the differential
# tests. They recurse once per nesting level, so they take inputs of modest
# depth only, and they have no token ceiling.

Expr = Union[tuple, int, float, str]

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
                try:
                    tokens.append(("num", int(text)))
                except ValueError as exc:  # past the int-string digit limit
                    raise InputError(f"integer literal too long: {exc}") from None
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


def parse_expr_reference(src: str) -> Expr:
    return _Parser(_tokenize(src), src).parse()


def free_names_reference(expr: Expr) -> set:
    if isinstance(expr, tuple):
        if expr[0] == "var":
            return {expr[1]}
        out = set()
        for child in expr[1:]:
            out |= free_names_reference(child)
        return out
    return set()


def evaluate_reference(expr: Expr, env: Mapping[str, Scalar] | None = None) -> Scalar:
    """Evaluate a parsed tree (or source string) over the given bindings."""
    if isinstance(expr, str):
        expr = parse_expr_reference(expr)
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
    raise InputError(f"unknown operator {op!r}")
