"""Levi-Civita connection and curvature of a left-invariant metric.

All tensors live on the Lie algebra: for left-invariant fields the Koszul
formula loses its derivative terms and reads

    2 g(nabla_U V, W) = g([U,V], W) - g([V,W], U) + g([W,U], V).

With the structure constants lowered once, c_abk = g([e_a,e_b], e_k), the
right-hand side is (c_ijk - c_jki + c_kij) / 2 for U = e_i, V = e_j, W = e_k.
Exact input is read as ints: the structure constants and the Gram matrix are
each cleared once (LieAlgebra.cleared_structure, MetricTensor.cleared_gram),
and the Gram matrix inverted in the elimination that tests its positive-definiteness
(MetricTensor.cleared_inverse), whose int rows give every Koszul solution as dot products
and g^{jk} for the scalar curvature.
The connection keeps the int rows over their one denominator (Connection.rows,
den), which riemann_tensor, parallel_fields and the Berwald test read.

Curvature convention: R(U,V)W = nabla_U nabla_V W - nabla_V nabla_U W
- nabla_[U,V] W. The one store is the rows R(e_i,e_j)e_k for i < j: R(e_j,e_i) is
-R(e_i,e_j) and R(e_i,e_i) = 0. Rows are commutator sums, exact ones ints over one common
denominator, so each entry costs one Fraction, and only where it is read. Lowered by g,
they give op[(i,j)][(k,l)] = g(R(e_j,e_i)e_k, e_l) for i < j, k < l. With w = u^v, the
sectional curvature of span{u, v} is w^T op w = g(R(v,u)u, v) over g(u,u) g(v,v) - g(u,v)^2,
one op entry, lowered from its row alone, for a basis plane; R(u,v)x sums w_p R(e_i,e_j)x
over the rows. Exact vectors read their int forms (Vector.ints): an exact tensor's plane forms
g(u,v) and w^T op w run on linalg.bilinear, and nabla, entries and curvature_apply return vectors
born with theirs. Any other plane form is linalg.form on the nonzero entries of op or g, contract's
value: a term is float only where a float is live in it (an exact op read as Fractions), and a
float tensor meets exact vectors' int forms. curvature_apply's floats read float rows.
The Ricci tensor is the trace Ric(V,W) = tr(U -> R(U,V)W), i.e. Ric_jk = sum_i r[i][j][k][i],
and the scalar curvature is its metric trace g^{jk} Ric_jk, from the same inverse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

from . import linalg
from .algebra import LieAlgebra, MetricTensor, Vector, as_vector
from .errors import DegeneratePlaneError, DimensionMismatchError, InputError
from .scalars import TOLERANCE, Scalar, is_exact


class Connection:
    """The store is rows: rows[i][j][l] / den is the coefficient of e_l in nabla_{e_i} e_j,
    as levi_civita's solve returns it. Exact (structure and metric exact): ints, gram =
    MetricTensor.cleared_gram. Float: den 1, gram None. Images of the rows built on first read:
    gamma, those coefficients as Fractions or floats; system, the dim^2 x dim rows of nabla Q,
    row (i, k) rows[i][j][k] over j."""

    def __init__(self, alg: LieAlgebra, metric: MetricTensor, rows, den: int, gram):
        self.algebra, self.metric, self.dim = alg, metric, alg.dim
        self.rows, self.den, self.gram = rows, den, gram

    system = cached_property(lambda self: [col for block in self.rows for col in zip(*block)])

    @cached_property
    def gamma(self) -> tuple:
        return tuple(tuple(self.nabla(i, j).coeffs for j in range(self.dim))
                     for i in range(self.dim))

    def nabla(self, i: int, j: int) -> Vector:
        return Vector(self.rows[i][j], self.den if self.gram else None)

    def derivative(self, u, v) -> Vector:
        """nabla_u v for left-invariant u, v (bilinear over scalars)."""
        u, v = (as_vector(x, self.dim).coeffs for x in (u, v))
        return Vector(linalg.contract(self.gamma, u, v))


def levi_civita(alg: LieAlgebra, metric: MetricTensor) -> Connection:
    """Solve the Koszul system for every basis pair.

    Exact input reads the int tables of LieAlgebra.cleared_structure (M, C = M c) and
    MetricTensor.cleared_gram (L, G = L g). C lowered by G in int dot products is L M times
    the lowered constants, so the right-hand side R_ij formed from it is 2 L M times the
    Koszul one, and gamma_ij = Y R_ij / (2 M d) for cleared_inverse's Y / d = G^-1: all dim^3
    numerators and 2 M d over their gcd are the store, ints over their lcm denominator.
    Float input lowers by contract and runs one solve_cleared against 2 g, an exact doubling,
    so the float store has the bits of g x = R / 2.
    """
    if metric.dim != alg.dim:
        raise DimensionMismatchError("metric dimension differs from algebra")
    if not metric.is_positive_definite():
        raise InputError("metric must be positive definite")
    n = alg.dim
    exact = alg.cleared_structure is not None and metric.cleared_gram is not None
    (m, c), (_, g) = ((alg.cleared_structure, metric.cleared_gram) if exact
                      else ((1, alg.structure), (1, metric.gram)))
    # contract's Fraction(0), a float-path sum no term reaches, enters as int 0; a 0.0 stays
    low = [[[sum(map(mul, c_ab, row)) for row in g] if exact else
             [x if x or isinstance(x, float) else 0 for x in linalg.contract(g, c_ab)]
             for c_ab in block] for block in c]
    rhs_list = [[low[i][j][k] - low[j][k][i] + low[k][i][j] for k in range(n)]
                for i in range(n) for j in range(n)]
    if exact:
        d, inv = metric.cleared_inverse
        den, solutions = linalg.lowest_terms(
            2 * m * d, [[sum(map(mul, y, rhs)) for y in inv] for rhs in rhs_list])
    else:
        den, solutions = linalg.solve_cleared([[2 * x for x in row] for row in g], rhs_list)
    return Connection(alg, metric, [solutions[i * n:i * n + n] for i in range(n)], den,
                      metric.cleared_gram if exact else None)


class CurvatureTensor:
    """The store is rows: rows[p][k] / den is R(e_i, e_j) e_k for (i, j) = pairs[p], the p-th
    of combinations(range(dim), 2). gram is the connection's, so Connection.gram alone
    decides exactness. Exact: ints, gram = (G, G g), op_den = den G. Float: dens 1, gram
    None. Images of the rows built on first read: op, op[p][q] / op_den the op entries;
    op_entries, its nonzero ones for linalg.form; float_rows, rows / den; and table."""

    def __init__(self, conn: Connection, rows, den: int):
        self.connection, self.rows, self.den, self.gram = conn, rows, den, conn.gram
        self.op_den = den * self.gram[0] if self.gram else 1
        self.dim, self.pairs = conn.dim, list(combinations(range(conn.dim), 2))

    @cached_property
    def op(self) -> tuple:
        return tuple(tuple(self.lowered(p, q) for q in range(len(self.pairs)))
                     for p in range(len(self.pairs)))

    def lowered(self, p: int, q: int) -> Scalar:
        """op[p][q]: for the q-th pair (k, l), row (p, k) lowered by -g at l, or by -G g when
        exact, the exact 0 where no term reaches."""
        (k, l), g = self.pairs[q], self.gram[1] if self.gram else self.connection.metric.gram
        return -sum(x * g[m][l] for m, x in enumerate(self.rows[p][k]) if x) or 0

    @cached_property
    def float_rows(self) -> tuple:
        return tuple(tuple(tuple(x / self.den for x in row) for row in p) for p in self.rows)

    op_entries = cached_property(lambda self: linalg.nonzero_entries(
        self.op, self.op_den if self.gram else None))

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
        """(i, j, k, R(e_i, e_j) e_k) for i < j, in row order: rows / den, born with that int
        form, when exact; the float rows as they are."""
        for (i, j), nums in zip(self.pairs, self.rows):
            for k, num in enumerate(nums):
                yield i, j, k, Vector(num, self.den if self.gram else None)


def riemann_tensor(conn: Connection) -> CurvatureTensor:
    """The rows of R(e_i, e_j) = [A_i, A_j] - sum_m c_ij^m A_m, A_i = nabla_{e_i} (J. Milnor,
    Adv. Math. 21, 1976), from the connection's L gamma over den = L and C = M c: the cleared
    structure when exact, c with M = L = 1 for floats. Row (i, j, k) is M (a - b) - L d over
    L^2 M, a and b the two products of [A_i, A_j] e_k, d = sum_m C_ij^m A_m e_k, each summed
    from int 0 in contract's order, a float coefficient (0.0 included) live, a zero table
    entry skipped: rows are ints when exact, contract's floats else, and 0 where unreached."""
    n, gamma, L = conn.dim, conn.rows, conn.den
    M, C = conn.algebra.cleared_structure if conn.gram else (1, conn.algebra.structure)
    live = [[[(l, x) for l, x in enumerate(row) if x] for row in block] for block in gamma]
    coef = [[[(m, x) for m, x in enumerate(row) if x or isinstance(x, float)] for row in block]
            for block in gamma]  # as contract reads a vector
    rows = []
    for i, j in combinations(range(n), 2):
        bracket = [(m, x) for m, x in enumerate(C[i][j]) if x or isinstance(x, float)]
        rows.append([])
        for k in range(n):
            a, b, d = [0] * n, [0] * n, [0] * n
            for m, x in coef[j][k]:
                for l, y in live[i][m]:
                    a[l] += x * y
            for m, x in coef[i][k]:
                for l, y in live[j][m]:
                    b[l] += x * y
            for m, x in bracket:
                for l, y in live[m][k]:
                    d[l] += x * y
            rows[-1].append([M * (x - y) - L * z for x, y, z in zip(a, b, d)])
    return CurvatureTensor(conn, rows, L * L * M)


def curvature_apply(rt: CurvatureTensor, u, v, w) -> Vector:
    """R(u, v)w = sum of (u^v)_p R(e_i, e_j)w over the rows. Exact vectors on an exact tensor
    contract their int forms, the result born with its own; any float contracts float_rows."""
    vecs = [as_vector(x, rt.dim) for x in (u, v, w)]
    forms = [x.ints for x in vecs] if rt.gram else [None]
    exact = all(forms)
    (du, u), (dv, v), (dw, w) = forms if exact else [(1, x.coeffs) for x in vecs]
    wedge = [u[i] * v[j] - u[j] * v[i] for i, j in rt.pairs]
    out = linalg.contract(rt.rows if exact else rt.float_rows, wedge, w) if wedge else [0] * rt.dim
    return Vector([x or 0 for x in out], rt.den * du * dv * dw) if exact else Vector(out)


# nonzero float u, v whose g(u,u) g(v,v) underflows: the angle rule cannot decide
ROUNDED_PLANE = "the plane's g(u,u) g(v,v) rounds to 0 in float arithmetic"


def plane_form(rt: CurvatureTensor, u, v) -> tuple[Scalar, Scalar, Scalar]:
    """(w^T op w, g(u,u) g(v,v) - g(u,v)^2, g(u,u)) for w = u^v and g the metric of rt, the
    determinant 0 on a degenerate plane and in dim 1, where no plane exists (plane_sums)."""
    num, det, uu, dens = plane_sums(rt, *(as_vector(x, rt.dim) for x in (u, v)))
    return tuple(map(Fraction, (num, det, uu), dens)) if dens else (num, det, uu)


def plane_sums(rt: CurvatureTensor, u: Vector, v: Vector) -> tuple:
    """(num, det, uu, dens), the one route of plane_form, sectional and flag_curvature. A basis
    plane (one live w_p) lowers op[p][p] from row p and leaves op unbuilt. The int forms, read
    once, pick the route: an exact pair on an exact tensor is linalg.bilinear, ints that
    plane_form divides once by dens = (op_den (du dv)^2, (G du dv)^2, G du^2); any other is
    linalg.form on op's nonzero entries, norms from inner_read, and dens None. A float
    det <= TOLERANCE g(u,u) g(v,v) is 0, so the angle decides, or None when g(u,u) g(v,v) of
    nonzero u, v rounds to 0 (ROUNDED_PLANE); an overflowed one is left to printing."""
    fu, fv = u.ints, v.ints
    exact = (ints := fu and fv) and rt.gram
    (du, a), (dv, b) = (fu, fv) if ints else [(1, u.coeffs), (1, v.coeffs)]
    inner = ((lambda x, y: linalg.bilinear(rt.gram[1], x.ints[1], y.ints[1])) if exact
             else rt.connection.metric.inner_read)
    w = [a[i] * b[j] - a[j] * b[i] for i, j in rt.pairs]
    uu = inner(u, u)
    norms = uu * inner(v, v)
    uv = inner(u, v)  # uv * uv is inf past the float range, where uv ** 2 raises
    det = norms - uv * uv if w else 0
    live = [p for p, x in enumerate(w) if x or isinstance(x, float)]  # as contract reads w
    if len(live) == 1:  # a basis plane: op[p][p] from row p
        w, table = [w[live[0]]], ((rt.lowered(live[0], live[0]),),)
        entries = None if exact else linalg.nonzero_entries(table, rt.op_den if rt.gram else None)
    else:
        table, entries = (rt.op, None) if exact else (None, rt.op_entries)
    num = (linalg.bilinear(table, w, w) if exact else
           linalg.form(entries, w, w, (du * dv) ** 2 if ints else 0)) if w else 0
    if exact:
        g, d = rt.gram[0], du * dv
        return num, det, uu, (rt.op_den * d * d, (g * d) ** 2, g * du * du)
    if not is_exact(det) and det <= TOLERANCE * norms < math.inf:
        det = None if not norms and any(a) and any(b) else 0
    return num, det, uu, None


def sectional(rt: CurvatureTensor, metric: MetricTensor, u, v) -> tuple[Scalar, Scalar]:
    """Sectional curvature of span{u, v} as (numerator, value): plane_form's
    numerator g(R(v,u)u, v), which the printed per-case K(U,V) polynomials give
    for an orthonormal pair, and its ratio to the Gram determinant, both in rt's metric.
    metric is unused, kept for callers: rt carries the metric it was built in."""
    numerator, den, _ = plane_form(rt, u, v)
    if not den:
        raise DegeneratePlaneError(ROUNDED_PLANE if den is None else
                                   "sectional curvature needs independent spanning vectors")
    return numerator, numerator / den


def scalar_curvature(rt: CurvatureTensor, metric: MetricTensor) -> Scalar:
    """Metric trace of the Ricci tensor, g^{jk} Ric_jk, in rt's own metric.

    Ric_jk sums row (i, j, k) at i over i < j and subtracts row (j, i, k) at i
    over i > j, in ints when exact. An exact tensor reads g^{jk} = L Y / d, from rt.gram =
    (L, L g) and the metric's cleared_inverse (d, Y): the int trace sum_jk Y_jk Ric_jk makes
    one Fraction, times L / (den d). A float tensor solves rt.connection.metric.gram against
    the rows of Ric once and sums the float diagonal. metric is unused, kept for callers.
    """
    n = rt.dim
    ric = [[0] * n for _ in range(n)]
    for (i, j), nums in zip(rt.pairs, rt.rows):
        for k, num in enumerate(nums):
            ric[j][k] += num[i]
            ric[i][k] -= num[j]
    if rt.gram:
        d, inv = rt.connection.metric.cleared_inverse
        trace = sum(sum(map(mul, y, row)) for y, row in zip(inv, ric))
        return Fraction(rt.gram[0] * trace, rt.den * d)
    d, solved = linalg.solve_cleared(rt.connection.metric.gram, ric)
    trace = sum(solved[k][k] for k in range(n))  # ints only for an all-0 Ric on an exact g
    return trace if isinstance(trace, float) else Fraction(trace, d)
