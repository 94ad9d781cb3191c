"""Reference computations that the package no longer carries.

Each is a slower or more literal route to a value the package computes
another way; tests compare the two.
"""

from __future__ import annotations

import contextlib
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from typing import Mapping, Sequence, Union

from liecurv import linalg
from liecurv.algebra import JacobiReport, LieAlgebra, MetricTensor, Vector, as_vector
from liecurv.errors import (DegeneratePlaneError, DimensionMismatchError, InputError,
                            NonBerwaldError, PreconditionError, UndefinedAtOriginError)
from liecurv.exprs import MAX_EXPONENT, MAX_POWER_BITS
from liecurv.randers import _ROUNDED_OUT, Flag, RandersMetric, _randers_f, g_y, randers_norm
from liecurv.riemann import (ROUNDED_PLANE, Connection, CurvatureTensor, plane_form,
                             sectional)
from liecurv.scalars import (TOLERANCE, Scalar, approx_equal, format_scalar, is_exact,
                             is_exact_zero, is_zero, scalar_to_json, sqrt_scalar)


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
    num, yy, ee, ye = g_y(rm, pole, [(rvyy, edge), (pole, pole), (edge, edge), (pole, edge)])
    return num / (yy * ee - ye ** 2)


def flag_curvature_per_call(rm: RandersMetric, rt: CurvatureTensor, flag: Flag) -> Scalar:
    """randers.flag_curvature as it read every flag through plane_form's three values and
    MetricTensor.inner: K_g(P) = numerator / det, beta = g(Q,y), and g(y,y) K_g(P) / F^2 with
    F^2 from _randers_f, an exact flag paying one Fraction per step."""
    if not rm.berwald:
        raise NonBerwaldError(
            "flag curvature requires a parallel drift (Berwald type); "
            "this Randers metric has nabla Q != 0")
    if rt.dim != rm.dim:
        raise InputError("curvature tensor dimension differs from Randers metric")
    pole, edge = (as_vector(x, rm.dim) for x in (flag.pole, flag.edge))
    numerator, den, yy = plane_form(rt, pole, edge)
    if not yy:
        raise UndefinedAtOriginError(_ROUNDED_OUT if any(pole) else "flag pole must be nonzero")
    if not den:
        raise DegeneratePlaneError(ROUNDED_PLANE if den is None else
                                   "flag pole and edge are linearly dependent")
    k = numerator / den
    beta = rm.base.inner(rm.drift, pole)
    if is_exact_zero(beta):
        return k
    f_sq = _randers_f(yy, beta)[1]
    if not f_sq:
        raise UndefinedAtOriginError(_ROUNDED_OUT)
    return yy * k / f_sq


def vadd(*vectors: Vector) -> Vector:
    """vectors[0] + vectors[1] + ..., coefficient by coefficient, left to right."""
    return Vector(reduce(operator.add, xs) for xs in zip(*vectors))


def vsub(*vectors: Vector) -> Vector:
    """vectors[0] - vectors[1] - ..., coefficient by coefficient, left to right."""
    return Vector(reduce(operator.sub, xs) for xs in zip(*vectors))


def vscale(v: Vector, s: Scalar) -> Vector:
    """s v, coefficient by coefficient."""
    return Vector(s * a for a in v)


def bracket(alg: LieAlgebra, u, v) -> Vector:
    """[u, v] extended bilinearly from the structure constants."""
    u = as_vector(u, alg.dim)
    v = as_vector(v, alg.dim)
    return Vector(linalg.contract(alg.structure, u.coeffs, v.coeffs))


def check_jacobi_reference(alg: LieAlgebra) -> JacobiReport:
    """check_jacobi as a per-triple scan: antisymmetry on the table as it is,
    then [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej] by brackets of brackets,
    in the type of the structure constants."""
    n, c = alg.dim, alg.structure
    report = JacobiReport(antisymmetry_violations=[
        (i, j, k) for i in range(n) for j in range(i, n) for k in range(n)
        if not is_zero(c[i][j][k] + c[j][i][k])])
    if not report.antisymmetry_ok:
        return report
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = (Vector.basis(n, t) for t in (i, j, k))
                residual = vadd(bracket(alg, bracket(alg, ei, ej), ek),
                                bracket(alg, bracket(alg, ej, ek), ei),
                                bracket(alg, bracket(alg, ek, ei), ej))
                if not residual.is_zero():
                    report.violations.append((i, j, k, residual))
    return report


def levi_civita_reference(alg: LieAlgebra, metric: MetricTensor) -> list:
    """Christoffel table gamma[i][j] from the Koszul system as written: the
    structure constants lowered by the Gram matrix as they are, right-hand
    side (c_ijk - c_jki + c_kij) / 2, one solve_many against the Gram matrix."""
    n, g, c = alg.dim, metric.gram, alg.structure
    low = [[linalg.contract(g, c[a][b]) for b in range(n)] for a in range(n)]
    half = Fraction(1, 2)
    rhs_list = [[half * (low[i][j][k] - low[j][k][i] + low[k][i][j]) for k in range(n)]
                for i in range(n) for j in range(n)]
    solutions = solve_many(g, rhs_list)
    return [solutions[i * n:i * n + n] for i in range(n)]


def koszul_store_reference(alg: LieAlgebra, metric: MetricTensor) -> tuple[int, list]:
    """(den, rows) of the Koszul system solved with one right-hand side per basis pair: the
    structure constants lowered by contract (int tables M c and L g when all exact), the dim^2
    right-hand sides against 2 M L g in one solve_cleared, its ints over their lcm
    denominator, or its floats over 1."""
    n = alg.dim
    exact = alg.cleared_structure is not None and metric.cleared_gram is not None
    (m, c), (_, g) = ((alg.cleared_structure, metric.cleared_gram) if exact
                      else ((1, alg.structure), (1, metric.gram)))
    low = [[linalg.contract(g, c[a][b]) for b in range(n)] for a in range(n)]
    if exact:
        low = [[[x or 0 for x in row] for row in block] for block in low]
    rhs_list = [[low[i][j][k] - low[j][k][i] + low[k][i][j] for k in range(n)]
                for i in range(n) for j in range(n)]
    den, solutions = linalg.solve_cleared([[2 * m * x for x in row] for row in g], rhs_list)
    return den, [solutions[i * n:i * n + n] for i in range(n)]


def solve_many(matrix: Sequence[Sequence[Scalar]],
               rhs_list: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Solve A x = b for each b in rhs_list; one elimination, many columns: solve_cleared's
    ints over its denominator as Fractions, or its floats as they are."""
    den, solutions = linalg.solve_cleared(matrix, rhs_list)
    return [[x if isinstance(x, float) else Fraction(x, den) for x in y] for y in solutions]


def _primitive(vec: list[Fraction]) -> list[Fraction]:
    """Scale a nonzero vector to coprime integers with positive leading entry."""
    ints = linalg.cleared(vec)[1]
    g = math.gcd(*ints) if next(x for x in ints if x) > 0 else -math.gcd(*ints)
    return [Fraction(x // g) for x in ints]


def nullspace_two_loops(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """linalg.nullspace with its own back-substitution, as it was before it shared
    solve_cleared's: a Fraction or float division per pivot, exact vectors cleared back
    to ints by _primitive."""
    mat, pivots, kind = linalg._eliminate(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x: list[Scalar] = [0] * ncols
        x[f] = 1
        for r in reversed(range(len(pivots))):
            c, row = pivots[r], mat[r]
            s = sum(row[j] * x[j] for j in range(c + 1, ncols) if x[j])
            x[c] = -s / kind(row[c]) if s else 0
        basis.append(_primitive(x) if kind is Fraction else [float(v) for v in x])
    return basis


def solve_cleared_two_loops(matrix: Sequence[Sequence[Scalar]],
                            rhs_list: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[Scalar]]]:
    """linalg.solve_cleared with its own back-substitution, as it was before nullspace
    shared it."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("solve_cleared needs a square matrix")
    aug = [list(matrix[i]) + [b[i] for b in rhs_list] for i in range(n)]
    mat, pivots, kind = linalg._eliminate(aug, n)
    if len(pivots) < n:
        raise InputError("singular matrix in solve")
    # Exact rows are ints. The denominators of x divide the pivot product D,
    # so y = D x is an int vector and each back-substitution step divides
    # exactly; one gcd over D and every y then reduces y / D to lowest terms.
    scale = math.prod(mat[r][r] for r in range(n)) if kind is Fraction else 1
    solutions = []
    for k in range(n, n + len(rhs_list)):
        y: list[Scalar] = [0] * n
        for r in reversed(range(n)):
            row = mat[r]
            t = scale * row[k] - sum(row[j] * y[j] for j in range(r + 1, n) if y[j])
            y[r] = t // row[r] if kind is Fraction else t / row[r]
        solutions.append(y)
    if kind is float:
        return 1, solutions
    g = math.gcd(scale, *(x for y in solutions for x in y))
    g = g if scale > 0 else -g
    return scale // g, [[x // g for x in y] for y in solutions]


def gauss_jordan(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[list, list[int]]:
    """Reduced row echelon form over Fractions, plain Gauss-Jordan: pivots sought in the
    first ncols columns in order, each pivot row divided by its pivot and its column
    cleared above and below. Returns (rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = [x - row[c] * y for x, y in zip(row, mat[r])]
        pivots.append(c)
    return mat, pivots


def nullspace_fractions(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Fraction]]:
    """linalg.nullspace of exact rows from gauss_jordan: x[f] = 1 at a free column f, x[c]
    = -rref[r][f] at the pivot column c of row r, scaled to coprime integers with a
    positive leading entry."""
    mat, pivots = gauss_jordan(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(int(c == f)) for c in range(ncols)]
        for r, c in enumerate(pivots):
            x[c] = -mat[r][f]
        ints = cleared_nested(x)[1]
        g = math.gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
        basis.append([Fraction(v // g) for v in ints])
    return basis


def solve_fractions(matrix: Sequence[Sequence[Scalar]],
                    rhs_list: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[int]]]:
    """linalg.solve_cleared of an exact square system from gauss_jordan: the Fraction
    solutions cleared together over their lcm denominator."""
    n = len(matrix)
    aug = [list(matrix[i]) + [b[i] for b in rhs_list] for i in range(n)]
    mat, pivots = gauss_jordan(aug, n)
    if len(pivots) < n:
        raise InputError("singular matrix in solve")
    return cleared_nested([[mat[r][k] for r in range(n)] for k in range(n, n + len(rhs_list))])


def cleared_nested(table) -> tuple[int, list] | None:
    """(L, L * table) for a nested table of uniform depth, L the lcm of all its denominators,
    every entry an int; None if an entry is not exact (a float or a bool). Every entry that
    is not a scalar is a row: a list, a tuple or a Vector. linalg cleared nested tables this
    way, in one call per table, before each owner cleared its flat entries."""
    leaves = table
    while leaves and not isinstance(leaves[0], (int, Fraction, float)):
        leaves = [x for sub in leaves for x in sub]
    if not all(is_exact(x) for x in leaves):
        return None
    scale = math.lcm(*(x.denominator for x in leaves))

    def scaled(t):
        if t and not isinstance(t[0], (int, Fraction, float)):
            return [scaled(sub) for sub in t]
        return [x.numerator * (scale // x.denominator) for x in t]

    return scale, scaled(table)


def connection_from_table(alg: LieAlgebra, metric: MetricTensor, gamma) -> Connection:
    """The Connection with Christoffel table gamma, stored as levi_civita stores it: gamma
    cleared to ints over one denominator, marked with the cleared Gram matrix, when gamma,
    the structure constants and the metric are all exact; else gamma as it is, over 1."""
    cleared = cleared_nested(gamma)
    if cleared and alg.cleared_structure is not None and metric.cleared_gram is not None:
        return Connection(alg, metric, cleared[1], cleared[0], metric.cleared_gram)
    return Connection(alg, metric, gamma, 1, None)


def berwald_reference(conn: Connection, drift) -> bool:
    """Whether gamma Q vanishes, contracted on the Fraction (or float) table gamma: zero
    exactly for exact products, within TOLERANCE of the value for float ones."""
    return all(is_zero(x) for block in conn.gamma for x in linalg.contract(block, drift))


@contextlib.contextmanager
def fraction_forms():
    """Inside, linalg.form contracts the Fraction tables: each form's entries, read as their
    exact values, make a dense table that linalg.contract reads, each product of a float
    coefficient a float times a Fraction, as MetricTensor.inner did before any float image;
    int forms over a den contract as their Fractions x / den. inner, g_y, plane_form and
    flag_curvature take that path."""
    kernel = linalg.form

    def contracted(entries, x, y, den=0):
        table = [[0] * len(y) for _ in x]
        for i, j, e, _ in entries:
            table[i][j] = e
        return linalg.contract(table, [Fraction(a, den) for a in x] if den else x, y)

    linalg.form = contracted
    try:
        yield
    finally:
        linalg.form = kernel


def torsion(conn: Connection, i: int, j: int) -> Vector:
    """nabla_i e_j - nabla_j e_i - [e_i, e_j]; zero for Levi-Civita."""
    n = conn.dim
    return vsub(conn.nabla(i, j), conn.nabla(j, i),
                bracket(conn.algebra, Vector.basis(n, i), Vector.basis(n, j)))


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


def riemann_reference(conn: Connection) -> CurvatureTensor:
    """riemann_tensor by four contractions per row entry, as the package computed it before
    the commutator loops: the int tables L gamma and M c contracted term by term, combined
    with (M, -M, -L) over den = L^2 M when exact, each float entry a - b - d."""
    n, gamma, L = conn.dim, conn.rows, conn.den
    cleared = conn.algebra.cleared_structure
    exact = conn.gram is not None and cleared is not None
    M, c = cleared if exact else (1, conn.algebra.structure)
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
    return CurvatureTensor(conn, rows, L * L * M if exact else 1)


def basis_plane_from_op(rt: CurvatureTensor, i: int, j: int) -> tuple[Scalar, Scalar]:
    """sectional(rt, metric, e_i, e_j) with the numerator w^T op w contracted on the whole
    op, as plane_form read every plane before a basis plane read op[p][p] from row p."""
    n = rt.dim
    w = [int(q == (i, j)) for q in combinations(range(n), 2)]
    num = linalg.contract(rt.op, w, w)
    num = Fraction(num, rt.op_den) if rt.gram else num
    return num, num / plane_form(rt, Vector.basis(n, i), Vector.basis(n, j))[1]


def curvature_apply_dense(rt: CurvatureTensor, u, v, w) -> Vector:
    """R(u, v)w by trilinear contraction of the dense table."""
    u, v, w = (as_vector(x, rt.dim).coeffs for x in (u, v, w))
    return Vector(linalg.contract(rt.table, u, v, w))


def inner_per_call(metric: MetricTensor, u, v) -> Scalar:
    """MetricTensor.inner before vectors carried their int forms: the coefficients against
    the Gram matrix, or its float image when u or v has a float and no exact nonzero."""
    u, v = (as_vector(x, metric.dim).coeffs for x in (u, v))
    floats = any(any(isinstance(x, float) for x in c)
                 and all(isinstance(x, float) or not x for x in c) for c in (u, v))
    gram = [[float(x) for x in row] for row in metric.gram] if floats else metric.gram
    return linalg.contract(gram, u, v)


def curvature_apply_per_call(rt: CurvatureTensor, u, v, w) -> Vector:
    """riemann.curvature_apply as it cleared exact vectors on every call: u, v and w over one
    common denominator, one Fraction per component; any float contracts float_rows."""
    u, v, w = (as_vector(x, rt.dim).coeffs for x in (u, v, w))
    exact = rt.gram is not None and cleared_nested((u, v, w))
    if exact:
        scale, (u, v, w) = exact
    wedge = [u[i] * v[j] - u[j] * v[i] for i, j in rt.pairs]
    out = linalg.contract(rt.rows if exact else rt.float_rows, wedge, w) if wedge else [0] * rt.dim
    return Vector(Fraction(x, rt.den * scale ** 3) for x in out) if exact else Vector(out)


def plane_form_per_call(rt: CurvatureTensor, u, v) -> tuple[Scalar, Scalar, Scalar]:
    """riemann.plane_form as it cleared exact vectors on every call, over one common
    denominator, with inner_per_call for the norms of the rest, whose w^T op w reads an
    exact tensor's op as Fractions op / op_den."""
    u, v = (as_vector(x, rt.dim).coeffs for x in (u, v))
    exact = rt.gram is not None and cleared_nested((u, v))
    if exact:
        scale, (u, v) = exact
        gram_den = rt.gram[0] * scale ** 2
        inner = partial(linalg.contract, rt.gram[1])
    else:
        inner = partial(inner_per_call, rt.connection.metric)
    w = [u[i] * v[j] - u[j] * v[i] for i, j in rt.pairs]
    uu = inner(u, u)
    norms = uu * inner(v, v)
    uv = inner(u, v)
    det = norms - uv * uv if w else 0
    table = rt.op if exact or not rt.gram else [[Fraction(x, rt.op_den) for x in row]
                                                for row in rt.op]
    num = linalg.contract(table, w, w) if w else 0
    if exact:
        return (Fraction(num, rt.op_den * scale ** 4), Fraction(det, gram_den ** 2),
                Fraction(uu, gram_den))
    if not is_exact(det) and det <= TOLERANCE * norms < math.inf:
        det = None if not norms and any(u) and any(v) else 0
    return num, det, uu


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
    solved = solve_many(metric.gram, ric)
    return sum((solved[k][k] for k in range(n)), Fraction(0))


def g_y_pointwise(rm: RandersMetric, ybar, u, v) -> Scalar:
    """g_y(u, v) for one pair, as randers.g_y computed it before it took a list of pairs:
    g(y,y) and six MetricTensor.inner products, the square root taken per call. The pair
    (y, y), the pole object at both places, is F^2 from g(y,y) and g(Q,y), as g_y gives it."""
    ybar, u, v = (as_vector(x, rm.dim) for x in (ybar, u, v))
    g = rm.base
    gyy = g.norm_sq(ybar)
    if not gyy:
        raise UndefinedAtOriginError(
            _ROUNDED_OUT if any(ybar) else "fundamental tensor is undefined at y = 0")
    q = rm.drift
    if u is ybar is v:
        beta = g.inner(q, ybar)
        return gyy if is_exact_zero(beta) else _randers_f(gyy, beta)[1]
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
    u2 = vadd(vscale(u, a), vscale(v, b))
    v2 = vadd(vscale(u, c), vscale(v, d))
    _, value = sectional(rt, metric, u, v)
    _, value2 = sectional(rt, metric, u2, v2)
    return PlaneInvarianceReport(value, value2)


# --- Nijenhuis tensors and para-hypercomplex structure -----------------------
# The oracle for the paper's claim that the groups are para-hypercomplex
# (test_every_fixture_is_para_hypercomplex); no command runs it.


def _after(a, b) -> list:
    """The table of a after b: row i is a(b e_i)."""
    return [linalg.contract(a, row) for row in b]


def _same(a, b) -> bool:
    return all(approx_equal(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _require_square(alg: LieAlgebra, j) -> None:
    if len(j) != alg.dim or any(len(row) != alg.dim for row in j):
        raise DimensionMismatchError("endomorphism table must be dim x dim for the algebra")


def nijenhuis(alg: LieAlgebra, j, u, v) -> Vector:
    """N(u, v) = [Ju, Jv] - J([Ju, v] + [u, Jv]) + J^2 [u, v].

    j is a table of basis images, row i = J e_i, so Jw = contract(j, w).
    The last term is -[u, v] for an almost complex structure (J^2 = -Id)
    and +[u, v] for an almost product structure (J^2 = Id): one formula
    covers both, and the sign follows from J itself.
    """
    _require_square(alg, j)
    u = as_vector(u, alg.dim)
    v = as_vector(v, alg.dim)

    def apply(w: Vector) -> Vector:
        return Vector(linalg.contract(j, w.coeffs))

    ju, jv = apply(u), apply(v)
    return vadd(vsub(bracket(alg, ju, jv), apply(vadd(bracket(alg, ju, v), bracket(alg, u, jv)))),
                apply(apply(bracket(alg, u, v))))


def check_para_hypercomplex(alg: LieAlgebra, j1, j2) -> dict[str, list[str]]:
    """Check the para-hypercomplex axioms for (J1, J2, J3 = J1 J2).

    j1 and j2 are basis-image tables (row i = J e_i). Axioms, by code:
    j1_square J1^2 = -Id; j2_square J2^2 = Id with J2 != +-Id;
    j3_consistency J2 J1 = -J3; n1, n2, n3 the Nijenhuis tensors of J1, J2,
    J3 vanish, on basis pairs (enough by bilinearity). Returns
    {code: failures}; an empty list means the axiom holds.
    """
    _require_square(alg, j1)
    _require_square(alg, j2)
    n = alg.dim
    ident = [[int(i == k) for k in range(n)] for i in range(n)]  # rows: basis vectors
    minus = [[-x for x in row] for row in ident]
    j3 = _after(j1, j2)
    report = {"j1_square": [] if _same(_after(j1, j1), minus) else ["J1^2 != -Id"]}
    if not _same(_after(j2, j2), ident):
        report["j2_square"] = ["J2^2 != Id"]
    elif _same(j2, ident) or _same(j2, minus):
        report["j2_square"] = ["J2 is +-identity"]
    else:
        report["j2_square"] = []
    report["j3_consistency"] = ([] if _same(_after(j2, j1), [[-x for x in row] for row in j3])
                                else ["J2 J1 != -J1 J2"])
    for code, j in (("n1", j1), ("n2", j2), ("n3", j3)):
        report[code] = []
        for a in range(n):
            for b in range(a + 1, n):
                value = nijenhuis(alg, j, ident[a], ident[b])
                if not value.is_zero():
                    report[code].append(f"N({alg.labels[a]}, {alg.labels[b]}) = "
                                        f"{value.describe(alg.labels)}")
    return report


# --- reference expression parser ---------------------------------------------
# The recursive-descent parser and tree evaluator that liecurv.exprs used
# before it compiled expressions to postfix programs, kept unchanged (bar the
# names of parse_expr, free_names and evaluate) as the reference for the differential
# tests. They recurse once per nesting level, so they take inputs of modest
# depth only, and they have no token ceiling.

Expr = Union[tuple, int, float, str]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))", re.ASCII
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


def cost_reference(expr: Expr) -> tuple:
    """The size bound (c, ((name, k), ...)) of a parsed tree, by the rule in the
    liecurv.exprs docstring: a op b takes bits(a) + bits(b) + 1, x^e takes
    n * bits(x) + bits(e) + 1 and -a as much as a, where n is the |value| of an
    int exponent or ("neg", int), clamped to 1..MAX_EXPONENT, else MAX_EXPONENT."""
    const, weights = _bound(expr)
    return const, tuple(sorted(weights.items()))


def _bound(expr: Expr) -> tuple:
    if isinstance(expr, float):
        return 0, {}
    if isinstance(expr, int):
        return expr.bit_length(), {}
    if expr[0] == "var":
        return 0, {expr[1]: 1}
    if expr[0] == "neg":
        return _bound(expr[1])
    (ca, wa), (cb, wb) = _bound(expr[1]), _bound(expr[2])
    n = 1
    if expr[0] == "^":
        e = expr[2][1] if isinstance(expr[2], tuple) and expr[2][0] == "neg" else expr[2]
        n = max(min(abs(e), MAX_EXPONENT), 1) if type(e) is int else MAX_EXPONENT
    weights = {name: n * k for name, k in wa.items()}
    for name, k in wb.items():
        weights[name] = weights.get(name, 0) + k
    return n * ca + cb + 1, weights


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
