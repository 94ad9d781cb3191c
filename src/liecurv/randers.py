"""Randers metrics F = sqrt(g(y,y)) + g(Q,y) built from parallel drifts.

A left-invariant drift Q with nabla Q = 0 and g(Q,Q) < 1 gives a Berwald-type
Randers metric whose Chern connection coincides with the Levi-Civita
connection of g. Its flag curvature is then the Riemannian sectional
curvature of the flag's plane, rescaled by the norm of the pole:

    K_F(P, y) = g(y,y) / F(y)^2 * K_g(P).

The fundamental tensor

    g_y(u, v) = g(u,v) + g(Q,u) g(Q,v)
                - g(Q,y) g(y,u) g(y,v) / g(y,y)^(3/2)
                + ( g(Q,u) g(y,v) + g(Q,y) g(u,v) + g(Q,v) g(y,u) ) / sqrt(g(y,y))

is kept for printing and for the fixtures' fundamental-tensor checks. Exact
zeros short-circuit the square-root terms in both, so the drift = 0 limit
degenerates to g exactly, not merely within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import MetricTensor, Vector, as_vector
from .errors import (DegeneratePlaneError, InputError, NonBerwaldError,
                     NormBoundError, UndefinedAtOriginError)
from .riemann import Connection, CurvatureTensor, plane_form
from .scalars import Scalar, format_scalar, is_exact_zero, sqrt_scalar


@dataclass
class RandersMetric:
    """A validated Randers structure; build through build_randers."""

    base: MetricTensor
    drift: Vector
    berwald: bool
    drift_norm_sq: Scalar

    @property
    def dim(self) -> int:
        return self.base.dim


@dataclass
class Flag:
    """A flag: pole direction y and a transverse edge spanning the plane."""

    pole: Vector
    edge: Vector


def parallel_fields(conn: Connection) -> list[Vector]:
    """Basis of left-invariant fields Q with nabla_U Q = 0 for all U.

    The condition is the dim^2 x dim linear system
    sum_j gamma[i][j][k] Q_j = 0; the nullspace is computed exactly in
    rational mode, so 'dimension 0 vs 1' never hinges on a tolerance.
    """
    n = conn.dim
    rows = []
    for i in range(n):
        for k in range(n):
            rows.append([conn.gamma[i][j][k] for j in range(n)])
    return [Vector(b) for b in linalg.nullspace(rows, n)]


def build_randers(metric: MetricTensor, drift, conn: Connection) -> RandersMetric:
    """Validate the drift and record whether the metric is Berwald type.

    Errors only on the hard precondition g(Q,Q) < 1; a non-parallel drift is
    a legitimate Randers metric (berwald=False), it just has no flag
    curvature here. Zero drift is allowed: the q -> 0 limit is useful.
    """
    drift = as_vector(drift, metric.dim)
    norm_sq = metric.norm_sq(drift)
    if not norm_sq < 1:
        raise NormBoundError(
            f"drift must satisfy g(Q,Q) < 1 strictly, got g(Q,Q) = {format_scalar(norm_sq)}")
    n = metric.dim
    berwald = all(conn.derivative(Vector.basis(n, i), drift).is_zero()
                  for i in range(n))
    return RandersMetric(base=metric, drift=drift, berwald=berwald,
                         drift_norm_sq=norm_sq)


def randers_norm(rm: RandersMetric, y) -> Scalar:
    """F(y) = sqrt(g(y,y)) + g(Q,y); positive for y != 0 since ||Q|| < 1."""
    y = as_vector(y, rm.dim)
    return sqrt_scalar(rm.base.norm_sq(y)) + rm.base.inner(rm.drift, y)


_ROUNDED_OUT = "the pole's g(y,y), or a term built from it, rounds to 0 in float arithmetic"


def g_y(rm: RandersMetric, ybar, u, v) -> Scalar:
    """Fundamental tensor g_y(u, v) of F at the nonzero reference vector ybar.

    Closed form of (1/2) d^2/ds dt F^2(ybar + s u + t v) at s = t = 0. Terms
    whose exact coefficient vanishes are skipped so no irrational square root
    contaminates an exact result.
    """
    ybar, u, v = (as_vector(x, rm.dim) for x in (ybar, u, v))
    g = rm.base
    gyy = g.norm_sq(ybar)
    if not gyy:  # a nonzero pole is judged by the float range, not by its size
        raise UndefinedAtOriginError(
            _ROUNDED_OUT if any(ybar) else "fundamental tensor is undefined at y = 0")
    q = rm.drift
    guv, gqu, gqv, gqy, gyu, gyv = (g.inner(a, b) for a, b in (
        (u, v), (q, u), (q, v), (q, ybar), (ybar, u), (ybar, v)))
    total = guv + gqu * gqv
    t3 = gqy * gyv * gyu
    t4 = gqu * gyv + gqy * guv + gqv * gyu
    if is_exact_zero(t3) and is_exact_zero(t4):
        return total
    root = sqrt_scalar(gyy)
    if not gyy * root:
        raise UndefinedAtOriginError(_ROUNDED_OUT)
    if not is_exact_zero(t3):
        total = total - t3 / (gyy * root)
    if not is_exact_zero(t4):
        total = total + t4 / root
    return total


def flag_curvature(rm: RandersMetric, rt: CurvatureTensor, flag: Flag) -> Scalar:
    """Flag curvature K(P, y) of the plane P = span{y, e} with pole y and edge e.

    Only supported for Berwald type (parallel drift), where the curvature of
    the Chern connection is the Riemannian tensor of g. The definition

        K(P, y) = g_y(R(e,y)y, e) / (g_y(y,y) g_y(e,e) - g_y(y,e)^2)

    then reduces to g(y,y) K_g(P) / F(y)^2. Write alpha = sqrt(g(y,y)),
    beta = g(Q,y) and F = alpha + beta. Both sides are unchanged when e is
    replaced by e + t y, so take e orthogonal to y in g. Since Q is parallel,
    R(.,.)Q = 0, so w = R(e,y)y satisfies g(w,y) = 0 and
    g(w,Q) = -g(R(e,y)Q, y) = 0, and the closed form of g_y gives
    g_y(w, e) = (F/alpha) g(w, e). With g(y,e) = 0 it also gives
    g_y(y,y) = F^2, g_y(y,e) = F g(Q,e) and
    g_y(e,e) = (F/alpha) g(e,e) + g(Q,e)^2, so the plane determinant is
    F^3 g(e,e) / alpha. The ratio is g(w,e) / (F^2 g(e,e)), and
    K_g(P) = g(w,e) / (alpha^2 g(e,e)), which riemann.plane_form gives as
    the form op on the 2-form y^e over the Gram determinant of the plane.

    F^2 is built as g(y,y) + 2 beta sqrt(g(y,y)) + beta^2. An exact zero beta
    returns K_g(P) itself, so a zero drift, or a pole g-orthogonal to the
    drift, never meets an irrational square root.
    """
    if not rm.berwald:
        raise NonBerwaldError(
            "flag curvature requires a parallel drift (Berwald type); "
            "this Randers metric has nabla Q != 0")
    if rt.dim != rm.dim:
        raise InputError("curvature tensor dimension differs from Randers metric")
    pole, edge = (as_vector(x, rm.dim) for x in (flag.pole, flag.edge))
    numerator, den, yy = plane_form(rt, pole, edge)
    if not yy:  # a nonzero pole is judged by the float range, not by its size
        raise UndefinedAtOriginError(_ROUNDED_OUT if any(pole) else "flag pole must be nonzero")
    if not den:
        raise DegeneratePlaneError("flag pole and edge are linearly dependent")
    k = numerator / den
    beta = rm.base.inner(rm.drift, pole)
    if is_exact_zero(beta):
        return k
    f_sq = yy + 2 * beta * sqrt_scalar(yy) + beta * beta  # not ** 2: that raises past 1e308
    if not f_sq:
        raise UndefinedAtOriginError(_ROUNDED_OUT)
    return yy * k / f_sq
