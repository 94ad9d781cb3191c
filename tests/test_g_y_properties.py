"""Property tests of the fundamental tensor g_y on drawn rational data.

Each example draws a positive-definite Gram matrix L L^T (L unit lower
triangular), a drift Q scaled into g(Q,Q) < 1, a nonzero rational pole y and
rational vectors u, v, w. The algebra is abelian, so every drift is parallel.
Exact values must agree exactly; a value that went through an irrational
square root is a float and must agree to 1e-9 of its size.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import vadd, vscale  # noqa: E402
from liecurv.algebra import LieAlgebra, MetricTensor, Vector  # noqa: E402
from liecurv.randers import build_randers, g_y, randers_norm  # noqa: E402
from liecurv.riemann import levi_civita  # noqa: E402
from liecurv.scalars import is_exact  # noqa: E402

NUMERATORS, DENOMINATORS = st.integers(-12, 12), st.integers(1, 4)


def agree(a, b) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@st.composite
def randers_data(draw):
    def rational():
        return Fraction(draw(NUMERATORS), draw(DENOMINATORS))

    def vector():
        return Vector(rational() for _ in range(n))

    n = draw(st.integers(2, 4))
    lower = [[Fraction(int(i == j)) if j >= i else rational() for j in range(n)]
             for i in range(n)]
    metric = MetricTensor([[sum(lower[i][m] * lower[j][m] for m in range(n))
                            for j in range(n)] for i in range(n)])
    q = vector()
    norm_sq = metric.norm_sq(q)
    if norm_sq >= 1:
        q = vscale(q, Fraction(1, 1 + math.ceil(norm_sq)))
    y = vector()
    if y.is_zero():
        y = Vector.basis(n, 0)
    u, v, w, s = vector(), vector(), vector(), rational()
    c = Fraction(draw(st.integers(1, 12)), draw(DENOMINATORS))
    conn = levi_civita(LieAlgebra([[[0] * n for _ in range(n)] for _ in range(n)]), metric)
    return metric, conn, q, y, u, v, w, s, c


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(randers_data())
def test_g_y_properties(data):
    metric, conn, q, y, u, v, w, s, c = data
    rm = build_randers(metric, q, conn)
    uv, vu, lin, wv, yy = g_y(rm, y, [(u, v), (v, u), (vadd(vscale(u, s), w), v), (w, v), (y, y)])
    assert agree(uv, vu)  # symmetric
    assert agree(lin, s * uv + wv)  # bilinear
    f = randers_norm(rm, y)
    assert agree(yy, f * f)  # g_y(y, y) = F(y)^2
    assert agree(g_y(rm, vscale(y, c), [(u, v)])[0], uv)  # unchanged by y -> c y, c > 0
    base = build_randers(metric, Vector.zero(metric.dim), conn)
    got = g_y(base, y, [(u, v), (w, v)])  # a zero drift gives the base metric, exactly
    assert got == [metric.inner(u, v), metric.inner(w, v)]
    assert all(type(x) is Fraction for x in got)
