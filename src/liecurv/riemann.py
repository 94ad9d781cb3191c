"""Levi-Civita connection and curvature of a left-invariant metric.

All tensors live on the Lie algebra: for left-invariant fields the Koszul
formula loses its derivative terms and reads

    2 g(nabla_U V, W) = g([U,V], W) - g([V,W], U) + g([W,U], V).

With the structure constants lowered once, c_abk = g([e_a,e_b], e_k), the
right-hand side is (c_ijk - c_jki + c_kij) / 2 for U = e_i, V = e_j, W = e_k.

Curvature convention: R(U,V)W = nabla_U nabla_V W - nabla_V nabla_U W
- nabla_[U,V] W. The table is computed for i < j only: R(e_j,e_i) is
-R(e_i,e_j) and R(e_i,e_i) = 0. Exact tables are contracted with their
denominators cleared, so each entry costs one Fraction, not one per
multiply-add. Sectional curvature of span{u, v} is
g(R(v,u)u, v) / (g(u,u) g(v,v) - g(u,v)^2). The Ricci tensor is the trace
Ric(V,W) = tr(U -> R(U,V)W), i.e. Ric_jk = sum_i r[i][j][k][i], and the
scalar curvature is its metric trace g^{jk} Ric_jk.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .algebra import LieAlgebra, MetricTensor, Vector, as_vector
from .errors import DegeneratePlaneError, DimensionMismatchError, InputError
from .scalars import Scalar, is_zero


class Connection:
    """Christoffel table gamma[i][j] = coefficients of nabla_{e_i} e_j."""

    def __init__(self, alg: LieAlgebra, metric: MetricTensor, gamma):
        self.algebra = alg
        self.metric = metric
        self.gamma = tuple(tuple(tuple(row) for row in block) for block in gamma)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def nabla(self, i: int, j: int) -> Vector:
        return Vector(self.gamma[i][j])

    def derivative(self, u, v) -> Vector:
        """nabla_u v for left-invariant u, v (bilinear over scalars)."""
        u = as_vector(u, self.dim)
        v = as_vector(v, self.dim)
        return Vector(linalg.contract(self.gamma, u.coeffs, v.coeffs))

    def torsion(self, i: int, j: int) -> Vector:
        """nabla_i e_j - nabla_j e_i - [e_i, e_j]; zero for Levi-Civita."""
        return self.nabla(i, j) - self.nabla(j, i) - self.algebra.bracket_basis(i, j)

    def compatibility_residual(self, i: int, j: int, k: int) -> Scalar:
        """g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k); zero iff metric parallel."""
        ej = Vector.basis(self.dim, j)
        ek = Vector.basis(self.dim, k)
        return self.metric.inner(self.nabla(i, j), ek) + self.metric.inner(ej, self.nabla(i, k))


def levi_civita(alg: LieAlgebra, metric: MetricTensor) -> Connection:
    """Solve the Koszul system for every basis pair.

    The right-hand side is assembled from the lowered structure constants;
    one Gram elimination serves all dim^2 pairs. Exact input stays exact.
    """
    if metric.dim != alg.dim:
        raise DimensionMismatchError("metric dimension differs from algebra")
    if not metric.is_positive_definite():
        raise InputError("metric must be positive definite")
    n = alg.dim
    g = metric.gram
    c = alg.structure
    low = [[linalg.contract(g, c[a][b]) for b in range(n)] for a in range(n)]
    half = Fraction(1, 2)
    rhs_list = [[half * (low[i][j][k] - low[j][k][i] + low[k][i][j]) for k in range(n)]
                for i in range(n) for j in range(n)]
    solutions = linalg.solve_many(g, rhs_list)
    gamma = [[solutions[i * n + j] for j in range(n)] for i in range(n)]
    return Connection(alg, metric, gamma)


class CurvatureTensor:
    """Dense table r[i][j][k][l]: R(e_i, e_j) e_k = sum_l r[i][j][k][l] e_l."""

    def __init__(self, conn: Connection, table):
        self.connection = conn
        self.table = tuple(tuple(tuple(tuple(row) for row in block) for block in plane)
                           for plane in table)

    @property
    def algebra(self) -> LieAlgebra:
        return self.connection.algebra

    @property
    def metric(self) -> MetricTensor:
        return self.connection.metric

    @property
    def dim(self) -> int:
        return self.connection.dim

    def basis_value(self, i: int, j: int, k: int) -> Vector:
        return Vector(self.table[i][j][k])


def riemann_tensor(conn: Connection) -> CurvatureTensor:
    """Contract the connection into the full curvature table.

    Row (i, j, k) for i < j is nabla_i(nabla_j e_k) - nabla_j(nabla_i e_k)
    - nabla_{[e_i,e_j]} e_k, one contraction per term; the row (j, i, k) is
    its negation and the rows (i, i, k) stay zero. On exact input the
    denominators are cleared once, Gamma as L * gamma and c as M * c, so the
    contractions run over ints: the first two terms come out scaled by L^2,
    the third by L M, and a last contraction with (M, -M, -L) gives the int
    numerator of each entry, Fraction(M (a - b) - L d, L^2 M). Float tables
    are contracted as they are, each entry a - b - d.
    """
    n = conn.dim
    gamma = conn.gamma
    c = conn.algebra.structure
    exact = linalg.all_exact((gamma, c))
    if exact:
        L, gamma = linalg.clear_denominators(gamma)
        M, c = linalg.clear_denominators(c)
        den = L * L * M
    # by_target[k][m] = nabla_{e_m} e_k, so contracting its first axis with
    # [e_i,e_j] gives nabla_{[e_i,e_j]} e_k.
    by_target = [[gamma[m][k] for m in range(n)] for k in range(n)]
    zero = Fraction(0)
    table = [[[[zero] * n] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                terms = (linalg.contract(gamma[i], gamma[j][k]),
                         linalg.contract(gamma[j], gamma[i][k]),
                         linalg.contract(by_target[k], c[i][j]))
                if exact:
                    row = [Fraction(v, den) if v else zero
                           for v in linalg.contract(terms, (M, -M, -L))]
                    table[j][i][k] = [-x for x in row]
                else:
                    row = [a - b - d for a, b, d in zip(*terms)]
                    table[j][i][k] = [0 - x for x in row]  # 0 - 0.0 is 0.0, not -0.0
                table[i][j][k] = row
    return CurvatureTensor(conn, table)


def curvature_apply(rt: CurvatureTensor, u, v, w) -> Vector:
    """R(u, v)w by trilinear contraction of the dense table."""
    n = rt.dim
    u = as_vector(u, n)
    v = as_vector(v, n)
    w = as_vector(w, n)
    return Vector(linalg.contract(rt.table, u.coeffs, v.coeffs, w.coeffs))


def sectional(rt: CurvatureTensor, metric: MetricTensor, u, v) -> tuple[Scalar, Scalar]:
    """Sectional curvature of span{u, v}.

    Returns (numerator, value): the numerator g(R(v,u)u, v) matches the
    printed per-case K(U,V) polynomials (which assume an orthonormal pair),
    the value divides by the Gram determinant and is plane-invariant.
    """
    n = rt.dim
    u = as_vector(u, n)
    v = as_vector(v, n)
    numerator = metric.inner(curvature_apply(rt, v, u, u), v)
    den = metric.inner(u, u) * metric.inner(v, v) - metric.inner(u, v) ** 2
    if is_zero(den):
        raise DegeneratePlaneError("sectional curvature needs independent spanning vectors")
    return numerator, numerator / den


def scalar_curvature(rt: CurvatureTensor, metric: MetricTensor) -> Scalar:
    """Metric trace of the Ricci tensor, g^{jk} Ric_jk.

    g^{jk} comes from one Gram solve against the rows of Ric, so rational
    metrics stay rational.
    """
    n = rt.dim
    table = rt.table
    ric = [[sum(table[i][j][k][i] for i in range(n)) for k in range(n)] for j in range(n)]
    solved = linalg.solve_many(metric.gram, ric)
    return sum((solved[k][k] for k in range(n)), Fraction(0))
