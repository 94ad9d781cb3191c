"""Levi-Civita connection and curvature of a left-invariant metric.

All tensors live on the Lie algebra: for left-invariant fields the Koszul
formula loses its derivative terms and reads

    2 g(nabla_U V, W) = g([U,V], W) - g([V,W], U) + g([W,U], V).

With the structure constants lowered once, c_abk = g([e_a,e_b], e_k), the
right-hand side is (c_ijk - c_jki + c_kij) / 2 for U = e_i, V = e_j, W = e_k.

Curvature convention: R(U,V)W = nabla_U nabla_V W - nabla_V nabla_U W
- nabla_[U,V] W. The one store is the rows R(e_i,e_j)e_k for i < j: R(e_j,e_i) is
-R(e_i,e_j) and R(e_i,e_i) = 0. Exact rows are contracted with their denominators
cleared and kept as ints over one common denominator, so each entry costs one
Fraction, and only where it is read. Lowered by g, they give op[(i,j)][(k,l)] =
g(R(e_j,e_i)e_k, e_l) for i < j, k < l. With w = u^v, the sectional curvature of span{u, v} is
w^T op w = g(R(v,u)u, v) over g(u,u) g(v,v) - g(u,v)^2, and R(u,v)x sums w_p R(e_i,e_j)x
over the rows. Float vectors contract float images of rows, op and g, each built once.
The Ricci tensor is the trace Ric(V,W) = tr(U -> R(U,V)W), i.e. Ric_jk = sum_i r[i][j][k][i],
and the scalar curvature is its metric trace g^{jk} Ric_jk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations

from . import linalg
from .algebra import LieAlgebra, MetricTensor, Vector, as_vector
from .errors import DegeneratePlaneError, DimensionMismatchError, InputError
from .scalars import TOLERANCE, Scalar, is_exact


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
    """The store is rows: rows[p][k] / den is R(e_i, e_j) e_k for the p-th pair (i, j) of
    combinations(range(dim), 2). Exact: ints, gram = (G, G g), op_den = den G. Float: dens 1,
    gram = None. table, op, float_rows and float_op are images of the rows, each built on
    first read: op[p][q] / op_den the op entries, float_rows and float_op rows / den and
    op / op_den for float vectors to contract."""

    def __init__(self, conn: Connection, rows, den: int, gram):
        self.connection = conn
        self.rows, self.den, self.gram = rows, den, gram
        self.op_den = den * gram[0] if gram else 1

    @property
    def dim(self) -> int:
        return self.connection.dim

    @cached_property
    def op(self) -> tuple:
        """op[p][(k, l)]: row (p, k) lowered by -g at l, or by -G g when exact, the
        exact 0 where no term reaches; built on first use."""
        g = self.gram[1] if self.gram else self.connection.metric.gram
        return tuple(tuple(-sum(x * g[m][l] for m, x in enumerate(nums[k]) if x) or 0
                           for k, l in combinations(range(self.dim), 2)) for nums in self.rows)

    @cached_property
    def float_rows(self) -> tuple:
        return tuple(tuple(tuple(x / self.den for x in row) for row in p) for p in self.rows)

    @cached_property
    def float_op(self) -> tuple:
        # int / int rounds once, where an int past 1e308 times a float would overflow
        return tuple(tuple(x / self.op_den for x in row) for row in self.op)

    @cached_property
    def table(self) -> tuple:
        """Dense r[i][j][k][l], R(e_i, e_j) e_k = sum_l r[i][j][k][l] e_l: the entries at
        i < j, 0 - each at j < i (0 - 0.0 is 0.0, not -0.0), Fraction(0) at i = j."""
        n = self.dim
        table = [[[(Fraction(0),) * n] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, value in self.entries():
            table[i][j][k], table[j][i][k] = value.coeffs, tuple(0 - x for x in value)
        return tuple(tuple(tuple(block) for block in plane) for plane in table)

    def entries(self):
        """(i, j, k, R(e_i, e_j) e_k) for i < j, in row order: rows / den as Fractions when
        exact, the float rows as they are."""
        for (i, j), nums in zip(combinations(range(self.dim), 2), self.rows):
            for k, num in enumerate(nums):
                yield i, j, k, Vector([Fraction(x, self.den) for x in num] if self.gram else num)


def riemann_tensor(conn: Connection) -> CurvatureTensor:
    """Contract the connection into the curvature rows.

    Row (i, j, k) for i < j is nabla_i(nabla_j e_k) - nabla_j(nabla_i e_k)
    - nabla_{[e_i,e_j]} e_k, one contraction per term. On exact input the
    denominators are cleared once, Gamma as L * gamma and c as M * c, so the
    contractions run over ints: the first two terms come out scaled by L^2,
    the third by L M, and a last contraction with (M, -M, -L) gives the int
    numerator of each entry over den = L^2 M. Float rows are contracted as
    they are, each entry a - b - d.
    """
    n = conn.dim
    gamma = conn.gamma
    c = conn.algebra.structure
    g = conn.metric.gram
    exact = linalg.all_exact((gamma, c)) and linalg.all_exact(g)
    if exact:
        L, gamma = linalg.clear_denominators(gamma)
        M, c = linalg.clear_denominators(c)
        G, g = linalg.clear_denominators(g)
    # by_target[k][m] = nabla_{e_m} e_k, so contracting its first axis with
    # [e_i,e_j] gives nabla_{[e_i,e_j]} e_k.
    by_target = [[gamma[m][k] for m in range(n)] for k in range(n)]
    rows = []
    for i, j in combinations(range(n), 2):
        rows.append([])
        for k in range(n):
            terms = (linalg.contract(gamma[i], gamma[j][k]),
                     linalg.contract(gamma[j], gamma[i][k]),
                     linalg.contract(by_target[k], c[i][j]))
            rows[-1].append(linalg.contract(terms, (M, -M, -L)) if exact
                            else [a - b - d for a, b, d in zip(*terms)])
    return CurvatureTensor(conn, rows, L * L * M if exact else 1, (G, g) if exact else None)


def curvature_apply(rt: CurvatureTensor, u, v, w) -> Vector:
    """R(u, v)w = sum of (u^v)_p R(e_i, e_j)w over the rows. Exact vectors on an exact tensor
    are cleared to ints once, one Fraction per component; any float contracts float_rows."""
    u, v, w = (as_vector(x, rt.dim).coeffs for x in (u, v, w))
    exact = rt.gram is not None and linalg.all_exact((u, v, w))
    if exact:
        scale, (u, v, w) = linalg.clear_denominators((u, v, w))
    wedge = [u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(rt.dim), 2)]
    out = linalg.contract(rt.rows if exact else rt.float_rows, wedge, w)
    return Vector(Fraction(x, rt.den * scale ** 3) for x in out) if exact else Vector(out)


def plane_form(rt: CurvatureTensor, u, v) -> tuple[Scalar, Scalar, Scalar]:
    """(w^T op w, g(u,u) g(v,v) - g(u,v)^2, g(u,u)) for w = u^v and g the metric of rt, the
    determinant 0 on a degenerate plane. Exact u, v on an exact tensor are cleared to ints
    once, one Fraction per result. Any float entry contracts in floats, exact zeros skipped,
    against float_op and MetricTensor.inner; a float determinant <= TOLERANCE g(u,u) g(v,v)
    is 0, so the angle decides, not the scale, and an overflowed one is left to printing."""
    u, v = (as_vector(x, rt.dim).coeffs for x in (u, v))
    exact = rt.gram is not None and linalg.all_exact((u, v))
    if exact:
        scale, (u, v) = linalg.clear_denominators((u, v))
        gram_den = rt.gram[0] * scale ** 2
    inner = partial(linalg.contract, rt.gram[1]) if exact else rt.connection.metric.inner
    w = [u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(rt.dim), 2)]
    uu = inner(u, u)
    norms = uu * inner(v, v)
    uv = inner(u, v)  # uv * uv is inf past the float range, where uv ** 2 raises
    det = norms - uv * uv
    if exact:
        return (Fraction(linalg.contract(rt.op, w, w), rt.op_den * scale ** 4),
                Fraction(det, gram_den ** 2), Fraction(uu, gram_den))
    if not is_exact(det) and det <= TOLERANCE * norms < math.inf:
        det = 0
    return linalg.contract(rt.op if rt.op_den == 1 else rt.float_op, w, w), det, uu


def sectional(rt: CurvatureTensor, metric: MetricTensor, u, v) -> tuple[Scalar, Scalar]:
    """Sectional curvature of span{u, v} as (numerator, value): plane_form's
    numerator g(R(v,u)u, v), which the printed per-case K(U,V) polynomials give
    for an orthonormal pair, and its ratio to the Gram determinant, both in rt's metric."""
    numerator, den, _ = plane_form(rt, u, v)
    if not den:
        raise DegeneratePlaneError("sectional curvature needs independent spanning vectors")
    return numerator, numerator / den


def scalar_curvature(rt: CurvatureTensor, metric: MetricTensor) -> Scalar:
    """Metric trace of the Ricci tensor, g^{jk} Ric_jk.

    Ric_jk sums row (i, j, k) at i over i < j and subtracts row (j, i, k) at i
    over i > j, in ints when exact, divided by den once. g^{jk} comes from one
    Gram solve against the rows of Ric, so rational metrics stay rational.
    """
    n = rt.dim
    ric = [[0] * n for _ in range(n)]
    for (i, j), nums in zip(combinations(range(n), 2), rt.rows):
        for k, num in enumerate(nums):
            ric[j][k] += num[i]
            ric[i][k] -= num[j]
    if rt.gram:
        ric = [[Fraction(x, rt.den) for x in row] for row in ric]
    solved = linalg.solve_many(metric.gram, ric)
    return sum((solved[k][k] for k in range(n)), Fraction(0))
