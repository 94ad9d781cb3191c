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

is kept for printing and for the fixtures' fundamental-tensor checks. g_y takes one pole and
a list of pairs: g(y,y), g(Q,y) and sqrt(g(y,y)) are built once per pole, and g(Q,u) and
g(y,u) once per vector; every product is one MetricTensor.inner_read on the vectors' own int
forms, inner's value bit for bit. A pair (y, y), y the pole in value, is F^2, which the sum
loses to cancellation as y nears -Q. Exact zeros short-circuit the square-root terms, so the
drift = 0 limit degenerates to g exactly, not merely within tolerance. build_randers reads
every drift from Connection.system, the rows parallel_fields solves; flag_curvature reads
K_g from riemann.plane_sums' sums and denominators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from . import linalg
from .algebra import MetricTensor, Vector, as_vector
from .errors import (DegeneratePlaneError, InputError, NonBerwaldError,
                     NormBoundError, UndefinedAtOriginError)
from .riemann import ROUNDED_PLANE, Connection, CurvatureTensor, plane_sums
from .scalars import Scalar, _non_finite, format_scalar, is_exact_zero, is_zero, sqrt_scalar


class RandersMetric:
    """A validated Randers structure; build through build_randers."""

    def __init__(self, base: MetricTensor, drift: Vector, berwald: bool, drift_norm_sq: Scalar):
        self.base, self.drift, self.berwald = base, drift, berwald
        self.drift_norm_sq = drift_norm_sq

    @property
    def dim(self) -> int:
        return self.base.dim


class Flag:
    """A flag: pole direction y and a transverse edge spanning the plane."""

    def __init__(self, pole: Vector, edge: Vector):
        self.pole, self.edge = pole, edge


def parallel_fields(conn: Connection) -> list[Vector]:
    """Basis of left-invariant fields Q with nabla_U Q = 0 for all U.

    The condition is the dim^2 x dim linear system sum_j gamma[i][j][k] Q_j = 0, solved
    on the connection's rows, den gamma (Connection.system), which have its nullspace. It is
    exact in rational mode, so 'dimension 0 vs 1' never hinges on a tolerance.
    """
    return [Vector(b) for b in linalg.nullspace(conn.system, conn.dim)]


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
    # an exact drift on an exact store: int dot products; else each row at value scale, x / den,
    # so is_zero's tolerance does not grow with den, over the terms contract reads, in its order
    if form := conn.gram and drift.ints:
        berwald = not any(sum(map(mul, row, form[1])) for row in conn.system)
    else:
        q = [(j, x) for j, x in enumerate(drift) if x or isinstance(x, float)]
        berwald = all(is_zero(sum(x * e for j, x in q if (e := row[j] / conn.den)))
                      for row in conn.system)
    return RandersMetric(base=metric, drift=drift, berwald=berwald,
                         drift_norm_sq=norm_sq)


def randers_norm(rm: RandersMetric, y) -> Scalar:
    """F(y) = sqrt(g(y,y)) + g(Q,y); positive for y != 0 since ||Q|| < 1."""
    y = as_vector(y, rm.dim)
    return _randers_f(rm.base.norm_sq(y), rm.base.inner(rm.drift, y))[0]


def _randers_f(yy: Scalar, beta: Scalar) -> tuple[Scalar, Scalar]:
    """(F, F^2) from yy = g(y,y) and beta = g(Q,y), as flag_curvature says."""
    root = sqrt_scalar(yy)
    if beta < 0:
        f = (yy - beta * beta) / (root - beta)
        return f, f * f
    return root + beta, yy + 2 * beta * root + beta * beta  # not ** 2: raises past 1e308


_ROUNDED_OUT = "the pole's g(y,y), or a term built from it, rounds to 0 in float arithmetic"


def g_y(rm: RandersMetric, ybar, pairs) -> list[Scalar]:
    """Fundamental tensor g_y(u, v) of F at the nonzero reference vector ybar, for each
    (u, v) in pairs.

    Closed form of (1/2) d^2/ds dt F^2(ybar + s u + t v) at s = t = 0. Terms whose exact
    coefficient vanishes are skipped so no irrational square root contaminates an exact
    result; the root is taken once, when a term first needs it. A pair of two vectors equal to
    ybar in value is _randers_f's F^2, from the first one's g(y,u) and g(Q,u).
    """
    ybar = as_vector(ybar, rm.dim)
    pairs = [(as_vector(u, rm.dim), as_vector(v, rm.dim)) for u, v in pairs]
    g, q = rm.base.inner_read, rm.drift
    gyy = g(ybar, ybar)
    if not gyy:  # a nonzero pole is judged by the float range, not by its size
        raise UndefinedAtOriginError(
            _ROUNDED_OUT if any(ybar) else "fundamental tensor is undefined at y = 0")
    gqy = g(q, ybar)
    dots, root, out = {id(ybar): (gqy, gyy)}, None, []  # id(u): (g(Q,u), g(y,u)), once per vector
    for u, v in pairs:
        for x in (u, v):
            if id(x) not in dots:
                dots[id(x)] = g(q, x), g(ybar, x)
        (gqu, gyu), (gqv, gyv) = dots[id(u)], dots[id(v)]
        if v == ybar == u:  # u's own values: a float copy of an exact pole stays float
            out.append(gyu if is_exact_zero(gqu) else _randers_f(gyu, gqu)[1])
            continue
        total = (guv := g(u, v)) + gqu * gqv
        t3 = gqy * gyv * gyu
        t4 = gqu * gyv + gqy * guv + gqv * gyu
        if root is None and not (is_exact_zero(t3) and is_exact_zero(t4)):
            root = sqrt_scalar(gyy)
            if not gyy * root:
                raise UndefinedAtOriginError(_ROUNDED_OUT)
        if not is_exact_zero(t3):
            total = total - t3 / (gyy * root)
        if not is_exact_zero(t4):
            total = total + t4 / root
        out.append(total)
    return out


def flag_curvature(rm: RandersMetric, rt: CurvatureTensor, flag: Flag) -> Scalar:
    """Flag curvature K(P, y) of the plane P = span{y, e} with pole y and edge e.

    Only supported for Berwald type (parallel drift), where the curvature of the Chern
    connection is the Riemannian tensor of g. The definition

        K(P, y) = g_y(R(e,y)y, e) / (g_y(y,y) g_y(e,e) - g_y(y,e)^2)

    then reduces to g(y,y) K_g(P) / F(y)^2. Write alpha = sqrt(g(y,y)), beta = g(Q,y) and
    F = alpha + beta. Both sides are unchanged when e is replaced by e + t y, so take e
    orthogonal to y in g. Since Q is parallel, R(.,.)Q = 0, so w = R(e,y)y satisfies
    g(w,y) = 0 and g(w,Q) = -g(R(e,y)Q, y) = 0, and the closed form of g_y gives
    g_y(w, e) = (F/alpha) g(w, e). With g(y,e) = 0 it also gives g_y(y,y) = F^2,
    g_y(y,e) = F g(Q,e) and g_y(e,e) = (F/alpha) g(e,e) + g(Q,e)^2, so the plane determinant
    is F^3 g(e,e) / alpha. The ratio is g(w,e) / (F^2 g(e,e)), and
    K_g(P) = g(w,e) / (alpha^2 g(e,e)), which riemann.plane_sums gives as the form op on the
    2-form y^e over the Gram determinant of the plane.

    F and F^2 come from _randers_f, which randers_norm reads too. For beta < 0, alpha + beta
    cancels as y nears -Q: F is (g(y,y) - beta^2) / (alpha - beta), its numerator positive by
    Cauchy-Schwarz, and F^2 = F F. Else F^2 is g(y,y) + 2 beta alpha + beta^2. An exact zero
    beta returns K_g(P) itself, so a zero drift, or a pole g-orthogonal to the drift, never
    meets an irrational square root. An exact flag (pole, edge, drift and both Gram matrices
    exact) stays in ints: plane_sums' sums and one bilinear for beta. Where alpha is rational
    the result is one Fraction; else each float _randers_f would take of a Fraction is one
    correctly rounded int true division, so the value keeps its bits. A zero F^2 is
    UndefinedAtOriginError, and an F^2, g(y,y) K_g or value past the float range InputError.
    """
    if not rm.berwald:
        raise NonBerwaldError(
            "flag curvature requires a parallel drift (Berwald type); "
            "this Randers metric has nabla Q != 0")
    if rt.dim != rm.dim:
        raise InputError("curvature tensor dimension differs from Randers metric")
    pole, edge = as_vector(flag.pole, rm.dim), as_vector(flag.edge, rm.dim)
    num, den, yy, dens = plane_sums(rt, pole, edge)
    if not yy:  # a nonzero pole is judged by the float range, not by its size
        raise UndefinedAtOriginError(_ROUNDED_OUT if any(pole) else "flag pole must be nonzero")
    if not den:
        raise DegeneratePlaneError(ROUNDED_PLANE if den is None else
                                   "flag pole and edge are linearly dependent")
    fq, cg = rm.drift.ints, rm.base.cleared_gram
    if dens:  # an exact plane: K_g = kn / kd and g(y,y) = yy / a
        (dy, y), a, kn, kd = pole.ints, dens[2], num * dens[1], dens[0] * den
        if fq and cg:  # and an exact drift, beta = b / bb: ints until the result
            if not (b := linalg.bilinear(cg[1], fq[1], y)):
                return Fraction(kn, kd)
            bb = cg[0] * fq[0] * dy
            if (s := math.isqrt(yy * a)) ** 2 == yy * a and (f := s * bb + b * a):
                return Fraction(yy * kn * a * bb * bb, kd * f * f)  # sqrt(g(y,y)) = s / a
            try:  # sqrt_scalar refuses a g(y,y) past the float range or rounding to 0
                root = math.sqrt(g := yy / a) or sqrt_scalar(Fraction(yy, a))
            except OverflowError:
                root = sqrt_scalar(Fraction(yy, a))
            if b < 0:
                f = (yy * bb * bb - a * b * b) / (a * bb * bb) / (root - b / bb)
                return _over_f_sq(yy, kn, a * kd, f * f)
            return _over_f_sq(yy, kn, a * kd, g + 2 * b / bb * root + b * b / (bb * bb))
    k, yy = (Fraction(kn, kd), Fraction(yy, a)) if dens else (num / den, yy)
    if is_exact_zero(beta := rm.base.inner(rm.drift, pole)):
        return k
    return _over_f_sq(yy, k, 1, _randers_f(yy, beta)[1])


def _over_f_sq(yy: Scalar, k: Scalar, d: int, f_sq: Scalar) -> float:
    """yy k / d / f_sq: g(y,y) K_g = yy k / d (d > 0) over F^2, refused where F^2 is 0 or
    F^2, g(y,y) K_g or the value leaves the float range."""
    if not f_sq:
        raise UndefinedAtOriginError(_ROUNDED_OUT)
    try:
        value = yy * k / d / f_sq if math.isfinite(f_sq) else f_sq
    except OverflowError:  # an exact g(y,y) K_g past the float range
        value = math.inf if (yy > 0) == (k > 0) else -math.inf
    if not math.isfinite(value):
        raise _non_finite(value)
    return value
