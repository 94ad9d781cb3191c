"""Small dense linear algebra over exact rationals, with float fallbacks.

Exact mode is the point: nullspace dimensions and table comparisons must not
depend on a tolerance. One Gaussian elimination serves solve, rank,
nullspace and positive-definiteness. All-exact input is cleared to integer
rows (an int row as it is) and eliminated fraction-free; any float entry
switches the whole matrix to float arithmetic with partial pivoting and the
global tolerance. One back-substitution serves solve_cleared and nullspace: on
exact rows it runs in ints scaled by the pivot product, so `solve_cleared` returns
exact solutions as ints over their lcm and `nullspace` coprime int vectors (E.
Bareiss, Math. Comp. 22, 1968); an exact Gram matrix is inverted by one solve_cleared
against the identity columns (MetricTensor.cleared_inverse), whose ints give the Koszul
solutions and g^{jk} as dot products. One skip-zero contraction, `contract`, evaluates brackets,
covariant derivatives and endomorphisms in the type of its products (riemann_tensor sums its rows
in its own loops, in contract's order). A scalar form x^T T y sums T's nonzero entries, listed once
by T's owner (`nonzero_entries`), in `form`, contract's value to the bit; exact vectors' int forms
meet an int table in `bilinear` (g(u, v), the Gram determinant, w^T op w). `cleared` makes a flat
row of exact scalars ints over their lcm: one Fraction per result. Owners clear once: Vector.ints,
MetricTensor.cleared_gram, LieAlgebra.cleared_structure, _eliminate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .errors import DegeneratePlaneError, InputError
from .scalars import TOLERANCE, Scalar, is_exact, sqrt_scalar


def cleared(entries: Sequence[Scalar]) -> tuple[int, list[int]] | None:
    """(L, [L x for x in entries]) with L the lcm of the denominators, from one pass over a
    flat sequence of scalars; an all-int row comes back as it is, over 1. None at the first
    entry that is_exact refuses: a float, or a bool. An int or a Fraction skips that test."""
    ratios = []
    for x in entries:
        if type(x) is not int and type(x) is not Fraction and not is_exact(x):
            return None
        ratios.append((x, 1) if type(x) is int else x.as_integer_ratio())
    scale = math.lcm(*(d for _, d in ratios))
    return scale, [n * (scale // d) for n, d in ratios]


# --- elimination ------------------------------------------------------------


def _eliminate(rows: Sequence[Sequence[Scalar]], pivot_cols: int,
               swap: bool = True):
    """Row echelon form by Gaussian elimination.

    Pivots are sought in the first pivot_cols columns only; row operations
    act on whole rows, so later columns carry right-hand sides along. Exact
    mode takes an int row as it is and clears any other with `cleared`, then
    takes the first nonzero entry as pivot (any pivot gives the same answer);
    a row below the pivot row `top` becomes top[c] * row - row[c] * top divided
    by its gcd, so every echelon row is a nonzero int multiple of the Gaussian
    one. Float mode takes the largest |x| and reads |x| <= TOLERANCE as zero.
    With swap=False only the current row may hold the pivot, and a column whose
    entry there is zero gets none. Returns (echelon rows, pivot columns, the
    type results are built in: Fraction or float).
    """
    forms = [(1, list(row)) if all(type(x) is int for x in row) else cleared(row) for row in rows]
    kind = Fraction if all(forms) else float
    mat = [f[1] for f in forms] if kind is Fraction else [[float(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(pivot_cols):
        r = len(pivots)
        if r == len(mat):
            break
        candidates = range(r, len(mat) if swap else r + 1)
        if kind is Fraction:
            p = next((i for i in candidates if mat[i][c]), None)
        else:
            p = max(candidates, key=lambda i: abs(mat[i][c]))
            if abs(mat[p][c]) <= TOLERANCE:
                p = None
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        top = mat[r]
        live = [j for j in range(c + 1, len(top)) if top[j]]
        for row in mat[r + 1:]:
            if not row[c]:
                continue
            if kind is Fraction:
                a, b = top[c], row[c]
                row[:] = [a * x - b * y for x, y in zip(row, top)]
                g = math.gcd(*row) or 1
                row[:] = [x // g for x in row]
            else:
                f = row[c] / top[c]
                row[c] = 0.0
                for j in live:
                    row[j] -= f * top[j]
        pivots.append(c)
    return mat, pivots, kind


def _back_substitute(mat, pivots: list[int], kind, width: int, targets) -> tuple[int, list]:
    """(D, [D x for each target]), x of width `width` from the echelon rows of _eliminate.
    A target below width is a free column, x[target] = 1, against zero right-hand sides; a
    target at or past it is a right-hand-side column. Exact rows give D the pivot product: the
    denominators of x divide D, so D x is an int vector and each step divides exactly."""
    scale = math.prod(mat[r][c] for r, c in enumerate(pivots)) if kind is Fraction else 1
    out = []
    for k in targets:
        y: list[Scalar] = [scale if j == k else 0 for j in range(width)]
        for r in reversed(range(len(pivots))):
            c, row = pivots[r], mat[r]
            s = sum(row[j] * y[j] for j in range(c + 1, width) if y[j])
            if k < width and not s:
                continue  # x[c] stays the exact 0, not the signed 0.0 of 0 / row[c]
            t = -s if k < width else scale * row[k] - s
            y[c] = t // row[c] if kind is Fraction else t / row[c]
        out.append(y)
    return scale, out


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of {x : A x = 0}, one vector per free column, which it sets to 1 (the
    other free columns 0) before back-substituting the pivot columns. An exact vector
    is divided by its gcd, signed to a positive leading entry: coprime integers."""
    mat, pivots, kind = _eliminate(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = _back_substitute(mat, pivots, kind, ncols, free)[1]
    if kind is float:
        return [[float(x) for x in y] for y in basis]
    for y in basis:
        g = math.gcd(*y) if next(x for x in y if x) > 0 else -math.gcd(*y)
        y[:] = [Fraction(x // g) for x in y]
    return basis


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def solve_cleared(matrix: Sequence[Sequence[Scalar]],
                  rhs_list: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[Scalar]]]:
    """(d, Y) with Y[b] / d the solution of A x = b for each b in rhs_list, from one
    elimination. Exact input gives ints over the lcm d of the solutions' denominators,
    i.e. the Fraction solutions cleared together; any float gives d = 1 and the float
    solutions."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("solve_cleared needs a square matrix")
    aug = [list(matrix[i]) + [b[i] for b in rhs_list] for i in range(n)]
    mat, pivots, kind = _eliminate(aug, n)
    if len(pivots) < n:
        raise InputError("singular matrix in solve")
    scale, solutions = _back_substitute(mat, pivots, kind, n, range(n, n + len(rhs_list)))
    if kind is float:
        return 1, solutions
    g = math.gcd(scale, *(x for y in solutions for x in y))
    g = g if scale > 0 else -g
    return scale // g, [[x // g for x in y] for y in solutions]


def is_positive_definite(gram: Sequence[Sequence[Scalar]]) -> bool:
    """Sylvester: eliminating without row swaps gives only positive pivots.

    The k-th pivot is the ratio of the k-th to the (k-1)-th leading minor.
    An exact pivot differs from it by a positive factor and a product of
    earlier pivots, so its sign is the ratio's while those are positive. A
    float pivot must exceed TOLERANCE, the threshold that solve_cleared uses. An
    exact matrix may come cleared: a positive scale keeps every pivot's sign.
    """
    n = len(gram)
    mat, pivots, _ = _eliminate(gram, n, swap=False)
    return len(pivots) == n and all(mat[r][r] > 0 for r in range(n))


# --- contraction and metric helpers -----------------------------------------

_ZERO = Fraction(0)


def contract(table, *vectors) -> Scalar | list[Scalar]:
    """sum over i_1..i_k of v_1[i_1] ... v_k[i_k] table[i_1]...[i_k].

    The vectors contract the leading axes in order. A term is skipped when a
    vector coefficient is an exact zero or the table entry is zero, so an
    exact zero never brings a float into an exact result, while a float
    coefficient (0.0 included) that meets a nonzero entry gives a float.
    Each sum starts from its first live product, so int input gives an int
    and Fraction input a Fraction; a sum that no term reaches is
    Fraction(0). Returns a scalar when there is one vector per axis, else a
    list over the last axis.
    """
    live = [[(i, x) for i, x in enumerate(vec) if x or isinstance(x, float)]
            for vec in vectors]
    terms = [(x, table[i]) for i, x in live[0] if table[i]]
    for pairs in live[1:]:
        terms = [(w * x, sub[i]) for w, sub in terms for i, x in pairs if sub[i]]
    tail = table
    for _ in vectors:
        tail = tail[0]
    if scalar := not isinstance(tail, (list, tuple)):  # one sum: each entry a row of one
        terms, tail = [(w, (entry,)) for w, entry in terms], (0,)
    # A product of live exact factors is never zero, so a zero product is a
    # float +-0.0; a sum starts from it as 0.0, never as -0.0.
    out: list = [None] * len(tail)
    for w, row in terms:
        for l, entry in enumerate(row):
            if entry:
                p = w * entry
                acc = out[l]
                out[l] = (p or 0.0) if acc is None else acc + p
    out = [_ZERO if x is None else x for x in out]
    return out[0] if scalar else out


def bilinear(table, u, v) -> int:
    """sum of u[i] table[i][j] v[j] over ints; int 0 where contract gives Fraction(0)."""
    return sum(x * sum(map(mul, row, v)) for x, row in zip(u, table) if x)


def nonzero_entries(table, den: int | None = None) -> list:
    """(i, j, e, f) per nonzero x = table[i][j], row by row: e is x or Fraction(x, den), f its
    float, or e for a float and past 2^1022, where a float meets e and raises as in contract."""
    entries = [(i, j, x if den is None else Fraction(x, den)) for i, row in enumerate(table)
               for j, x in enumerate(row) if x]
    return [(i, j, e, e if isinstance(e, float) or e.numerator.bit_length()
             > e.denominator.bit_length() + 1022 else float(e)) for i, j, e in entries]


def form(entries, x, y, den: int = 0) -> Scalar:
    """x^T T y over entries = nonzero_entries(T): contract(T, x, y) to the bit (order, live
    coefficients, start). A float coefficient x_i y_j meets f, the bits of float * Fraction, an
    exact one e. den > 0: int forms x, y over den on a float T, x_i y_j / den rounded once."""
    total = None
    for i, j, e, f in entries:
        a, b = x[i], y[j]
        if (a or isinstance(a, float)) and (b or isinstance(b, float)):
            w = a * b / den if den else a * b
            p = w * f if type(w) is float else w * e
            total = (p or 0.0) if total is None else total + p
    return _ZERO if total is None else total


def orthonormal_pair(metric, u, v) -> tuple[list[Scalar], list[Scalar]]:
    """Orthonormal (u_hat, v_hat) in a MetricTensor, spanning the same plane,
    pole ray preserved. u, v (Vectors) and the metric must be exact.

    Stays exact when both norms are perfect rational squares, else floats.
    It runs in ints: with the int forms U = L_u u, V = L_v v and the Gram matrix
    cleared to (L_g, g), v - (uv/uu) u is W / (L_v UU) for the int vector
    W = UU V - UV U, where UU = g(U,U) and UV = g(U,V); so each output is one
    Fraction, or one correctly rounded int quotient, over its norm.
    """
    lg, g = metric.cleared_gram
    (lu, cu), (lv, cv) = u.ints, v.ints
    uu = bilinear(g, cu, cu)
    if not uu:
        raise DegeneratePlaneError("zero vector cannot span a plane")
    nu = sqrt_scalar(Fraction(uu, lg * lu * lu))
    uv = bilinear(g, cu, cv)
    w = [uu * y - uv * x for x, y in zip(cu, cv)]
    ww = bilinear(g, w, w)
    if not ww:
        raise DegeneratePlaneError("spanning vectors are linearly dependent")
    den = lv * uu  # positive: sqrt_scalar refused a negative uu
    nw = sqrt_scalar(Fraction(ww, lg * den * den))
    return _unit(cu, lu, nu), _unit(w, den, nw)


def _unit(ints: list[int], den: int, norm: Scalar) -> list[Scalar]:
    """ints / den / norm, for a positive den."""
    if isinstance(norm, float):
        return [x / den / norm for x in ints]
    return [Fraction(x * norm.denominator, den * norm.numerator) for x in ints]
