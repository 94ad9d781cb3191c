"""Small dense linear algebra over exact rationals, with float fallbacks.

Exact mode is the point: nullspace dimensions and table comparisons must not
depend on a tolerance. One Gaussian elimination serves solve, rank,
nullspace and positive-definiteness. All-exact input is cleared to integer
rows and eliminated fraction-free; any float entry switches the whole matrix
to float arithmetic with partial pivoting and the global tolerance. One
skip-zero contraction, `contract`, evaluates every multilinear form in the
package: brackets, covariant derivatives, curvature, inner products and
endomorphisms. It accumulates in the type of its products, so int tables
stay in int arithmetic. `clear_denominators` turns an exact table into such
a table times a common denominator, so a caller builds one Fraction per
result instead of one per multiply-add (E. Bareiss, Math. Comp. 22, 1968);
`orthonormal_pair` runs that way on exact input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DegeneratePlaneError, InputError
from .scalars import TOLERANCE, Scalar, is_exact, is_exact_zero, sqrt_scalar


def _leaves(table) -> list:
    """Entries of a nested table of uniform depth, in order. Every entry that
    is not a scalar is a row: a list, a tuple or a Vector."""
    while table and not isinstance(table[0], (int, Fraction, float)):
        table = [x for sub in table for x in sub]
    return table


def all_exact(table) -> bool:
    return all(is_exact(x) for x in _leaves(table))


# --- elimination ------------------------------------------------------------


def _eliminate(rows: Sequence[Sequence[Scalar]], pivot_cols: int,
               swap: bool = True):
    """Row echelon form by Gaussian elimination.

    Pivots are sought in the first pivot_cols columns only; row operations
    act on whole rows, so later columns carry right-hand sides along. Exact
    mode scales each row to ints and takes the first nonzero entry as pivot
    (any pivot gives the same answer); a row below the pivot row `top`
    becomes top[c] * row - row[c] * top divided by its gcd, so every echelon
    row is a nonzero int multiple of the Gaussian one. Float mode takes the
    largest |x| and reads |x| <= TOLERANCE as zero. With swap=False only the
    current row may hold the pivot, and a column whose entry there is zero
    gets none. Returns (echelon rows, pivot columns, the type results are
    built in: Fraction or float).
    """
    kind = Fraction if all_exact(rows) else float
    mat = ([clear_denominators(row)[1] for row in rows] if kind is Fraction
           else [[float(x) for x in row] for row in rows])
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


def _primitive(vec: list[Fraction]) -> list[Fraction]:
    """Scale to coprime integers with positive leading entry."""
    scale = math.lcm(*(f.denominator for f in vec))
    ints = [int(f * scale) for f in vec]
    g = math.gcd(*(abs(x) for x in ints))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of {x : A x = 0}, one vector per free column.

    Each vector sets its free column to 1, the other free columns to 0, and
    back-substitutes the pivot columns. Exact vectors are then scaled to
    coprime integers with a positive leading entry.
    """
    mat, pivots, kind = _eliminate(rows, ncols)
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


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def solve_many(matrix: Sequence[Sequence[Scalar]],
               rhs_list: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Solve A x = b for each b in rhs_list; one elimination, many columns."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("solve_many needs a square matrix")
    aug = [list(matrix[i]) + [b[i] for b in rhs_list] for i in range(n)]
    mat, pivots, kind = _eliminate(aug, n)
    if len(pivots) < n:
        raise InputError("singular matrix in solve")
    # Exact rows are ints. The denominators of x divide the pivot product D,
    # so y = D x is an int vector and each back-substitution step divides
    # exactly; x = y / D is one Fraction per entry.
    scale = math.prod(mat[r][r] for r in range(n)) if kind is Fraction else 1
    solutions = []
    for k in range(n, n + len(rhs_list)):
        y: list[Scalar] = [0] * n
        for r in reversed(range(n)):
            row = mat[r]
            t = scale * row[k] - sum(row[j] * y[j] for j in range(r + 1, n) if y[j])
            y[r] = t // row[r] if kind is Fraction else t / row[r]
        solutions.append([Fraction(v, scale) for v in y] if kind is Fraction else y)
    return solutions


def is_positive_definite(gram: Sequence[Sequence[Scalar]]) -> bool:
    """Sylvester: eliminating without row swaps gives only positive pivots.

    The k-th pivot is the ratio of the k-th to the (k-1)-th leading minor.
    An exact pivot differs from it by a positive factor and a product of
    earlier pivots, so its sign is the ratio's while those are positive. A
    float pivot must exceed TOLERANCE, the threshold that solve_many uses.
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
    # A product of live exact factors is never zero, so a zero product is a
    # float +-0.0; a sum starts from it as 0.0, never as -0.0.
    if not isinstance(tail, (list, tuple)):
        total = None
        for w, entry in terms:
            if entry:
                p = w * entry
                total = (p or 0.0) if total is None else total + p
        return _ZERO if total is None else total
    out: list = [None] * len(tail)
    for w, row in terms:
        for l, entry in enumerate(row):
            if entry:
                p = w * entry
                acc = out[l]
                out[l] = (p or 0.0) if acc is None else acc + p
    return [_ZERO if x is None else x for x in out]


def float_only(vec) -> bool:
    """One coefficient is a float and the others are floats or exact zeros."""
    seen = False
    for x in vec:  # a loop, to stop at the first exact nonzero entry
        if isinstance(x, float):
            seen = True
        elif x:
            return False
    return seen


def clear_denominators(table) -> tuple[int, list]:
    """(L, L * table) for an exact nested table, with L the lcm of its
    denominators: every entry of the scaled table is an int."""
    scale = math.lcm(*(x.denominator for x in _leaves(table)))

    def scaled(t):
        if t and not isinstance(t[0], (int, Fraction, float)):
            return [scaled(s) for s in t]
        return [x.numerator * (scale // x.denominator) for x in t]

    return scale, scaled(table)


def orthonormal_pair(gram: Sequence[Sequence[Scalar]], u: Sequence[Scalar],
                     v: Sequence[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
    """Orthonormal (u_hat, v_hat) spanning the same plane, pole ray preserved.

    Stays exact when both norms are perfect rational squares, else floats.
    Exact input is cleared once, see _cleared_pair.
    """
    if all_exact(gram) and all_exact(u) and all_exact(v):
        return _cleared_pair(gram, u, v)
    uu = contract(gram, u, u)
    if is_exact_zero(uu):
        raise DegeneratePlaneError("zero vector cannot span a plane")
    nu = sqrt_scalar(uu)
    u_hat = [x / nu for x in u]
    coeff = contract(gram, u, v) / (Fraction(uu) if is_exact(uu) else uu)
    w = [v[j] - coeff * u[j] for j in range(len(v))]
    ww = contract(gram, w, w)
    if is_exact_zero(ww):
        raise DegeneratePlaneError("spanning vectors are linearly dependent")
    nw = sqrt_scalar(ww)
    return u_hat, [x / nw for x in w]


def _cleared_pair(gram, u, v) -> tuple[list[Scalar], list[Scalar]]:
    """orthonormal_pair on exact input, in ints. With U = L_u u, V = L_v v and
    g = L_g gram cleared, v - (uv/uu) u is W / (L_v UU) for the int vector
    W = UU V - UV U, where UU = g(U,U) and UV = g(U,V); so each output is one
    Fraction, or one correctly rounded int quotient, over its norm."""
    (lg, g), (lu, cu), (lv, cv) = map(clear_denominators, (gram, u, v))
    uu = contract(g, cu, cu)
    if not uu:
        raise DegeneratePlaneError("zero vector cannot span a plane")
    nu = sqrt_scalar(Fraction(uu, lg * lu * lu))
    uv = contract(g, cu, cv)
    w = [uu * y - uv * x for x, y in zip(cu, cv)]
    ww = contract(g, w, w)
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
