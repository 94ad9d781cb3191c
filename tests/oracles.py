"""Reference computations that the package no longer carries.

Each is a slower or more literal route to a value the package computes
another way; tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from liecurv import linalg
from liecurv.algebra import MetricTensor, Vector, as_vector
from liecurv.errors import (DegeneratePlaneError, InputError, NonBerwaldError,
                            PreconditionError, UndefinedAtOriginError)
from liecurv.randers import Flag, RandersMetric, g_y, randers_norm
from liecurv.riemann import Connection, CurvatureTensor, curvature_apply, sectional
from liecurv.scalars import Scalar, approx_equal, is_zero, scalar_to_json


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
    rvyy = curvature_apply(rt, edge, pole, pole)
    num = g_y(rm, pole, rvyy, edge)
    den = (g_y(rm, pole, pole, pole) * g_y(rm, pole, edge, edge)
           - g_y(rm, pole, pole, edge) ** 2)
    return num / den


def riemann_tensor_dense(conn: Connection) -> CurvatureTensor:
    """All n^4 curvature entries from one fused multiply-add loop over
    R(e_i,e_j)e_k = sum_m (G_jkm G_im - G_ikm G_jm - c_ijm G_mk), with no
    antisymmetry shortcut. A term is skipped when its coefficient == 0."""
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
    return CurvatureTensor(conn, table)


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
