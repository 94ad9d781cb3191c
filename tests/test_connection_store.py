"""Differential property test of the connection store.

hypothesis draws R x_D R^(n-1) algebras in dims 2-6 with a rand_pd_metric or the
identity metric, optionally moved to another basis (a random integer one or a
Cayley rotation), as an exact table, as its float image, or with one zero
structure constant written as a decimal 0.0. The Connection keeps Gamma as the
Koszul solve returns it; every read of that store is compared with the Fraction
(or float) table the Koszul system gives as written.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import (cayley_rotation, change_basis, rand_invertible,  # noqa: E402
                      rand_vector)
from oracles import (berwald_reference, compatibility_residual,  # noqa: E402
                     levi_civita_reference, torsion)
from test_exact_vs_float import semidirect_documents  # noqa: E402
from liecurv import linalg  # noqa: E402
from liecurv.algebra import LieAlgebra, MetricTensor  # noqa: E402
from liecurv.randers import build_randers, parallel_fields  # noqa: E402
from liecurv.riemann import levi_civita  # noqa: E402


def vanishes(x, scale) -> bool:
    return x == 0 if not isinstance(x, float) else abs(x) <= 1e-9 * scale


def small(metric: MetricTensor, q) -> list:
    """q / t for t = 3 2^b > 3 sqrt(g(q, q)), so g(q/t, q/t) < 1/9. The factor 3 makes the
    decimal image of a primitive int parallel field round: off its span by ~1e-17."""
    t = 3 * 2 ** math.isqrt(math.ceil(float(metric.norm_sq(q))) + 1).bit_length()
    return [x / t for x in q]


MOVES = {"none": None, "basis": rand_invertible, "rotation": cayley_rotation}


def geometry(seed: int, dim: int, identity: bool, move: str, variant: str):
    """(algebra, metric, rng): an R x_D R^(n-1) document's, moved by MOVES[move], as an
    exact table, its float image, or with one zero constant written as a decimal 0.0."""
    rng = random.Random(seed)
    eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    doc, _ = semidirect_documents(rng, dim, eye if identity else None)
    base = alg, metric = doc.algebra(), doc.metric
    if MOVES[move] is not None:
        alg, metric = change_basis(alg, metric, MOVES[move](rng, dim))
    if variant == "float":
        alg = LieAlgebra([[[float(x) for x in row] for row in block] for block in alg.structure])
        metric = MetricTensor([[float(x) for x in row] for row in metric.gram])
    elif variant == "decimal_zero":
        zeros = [(i, j, k) for i, j in combinations(range(dim), 2) for k in range(dim)
                 if alg.structure[i][j][k] == 0]
        if not zeros:  # a dense moved table: the unmoved one has [e_0, e_1] in span(e_1..)
            (alg, metric), zeros = base, [(0, 1, 0)]
        i, j, k = rng.choice(zeros)
        table = [[list(row) for row in block] for block in alg.structure]
        table[i][j][k], table[j][i][k] = 0.0, -0.0
        alg = LieAlgebra(table)
    return alg, metric, rng


# an exact store with den past 10^13 and three parallel fields: den times the rounding of a
# decimal drift in its span is far past TOLERANCE, its value far below
@example(seed=51, dim=6, identity=True, move="rotation", variant="exact")
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(2, 6), identity=st.booleans(),
       move=st.sampled_from(sorted(MOVES)),
       variant=st.sampled_from(("exact", "float", "decimal_zero")))
def test_connection_store_matches_the_koszul_table(seed, dim, identity, move, variant):
    alg, metric, rng = geometry(seed, dim, identity, move, variant)
    n = alg.dim
    conn = levi_civita(alg, metric)
    if variant == "exact":
        assert conn.gram is metric.cleared_gram is not None
        assert all(type(x) is int for block in conn.rows for row in block for x in row)
    else:
        assert conn.gram is None and conn.den == 1
        assert all(type(x) is float for block in conn.rows for row in block for x in row)
    # the Fraction image is the Koszul solve as written, Fraction for Fraction, bit for bit
    gamma = [[list(row) for row in block] for block in conn.gamma]
    assert repr(gamma) == repr(levi_civita_reference(alg, metric))

    scale = max([1.0] + [abs(float(x)) for block in gamma for row in block for x in row])
    for i in range(n):
        for j in range(n):
            assert all(vanishes(x, scale) for x in torsion(conn, i, j))
            for k in range(n):
                assert vanishes(compatibility_residual(conn, i, j, k), scale)

    par = parallel_fields(conn)
    image_rows = [[gamma[i][j][k] for j in range(n)] for i in range(n) for k in range(n)]
    assert repr([list(q) for q in par]) == repr(linalg.nullspace(image_rows, n))

    # drifts inside and outside the parallel span, exact and as decimals; an exact store
    # with a large den must still judge a decimal drift at the scale of its values
    drifts = [small(metric, q) for q in par[:2]] + [small(metric, rand_vector(rng, n))]
    for drift in drifts + [[float(x) for x in q] for q in drifts]:
        rm = build_randers(metric, drift, conn)
        assert rm.berwald == berwald_reference(conn, drift)
    for drift in drifts[:-1]:
        assert build_randers(metric, [float(x) for x in drift], conn).berwald


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(2, 6), identity=st.booleans(),
       move=st.sampled_from(sorted(MOVES)), variant=st.sampled_from(("exact", "float")))
def test_berwald_test_matches_the_reference(seed, dim, identity, move, variant):
    # an exact drift on an exact store is judged by int dot products with Connection.system,
    # the rows parallel_fields solves; every drift must be judged as gamma Q = 0 judges it:
    # parallel drifts, the zero drift and drifts off the parallel span
    alg, metric, rng = geometry(seed, dim, identity, move, variant)
    n = alg.dim
    conn = levi_civita(alg, metric)
    assert conn.system == [tuple(conn.rows[i][j][k] for j in range(n))
                           for i in range(n) for k in range(n)]
    par = parallel_fields(conn)
    coeffs = [rng.randint(-2, 2) for _ in par]
    combined = [sum(c * q[i] for c, q in zip(coeffs, par)) for i in range(n)]
    parallel = [small(metric, q) for q in par[:2] + [combined] * any(combined)] + [[0] * n]
    # a random drift, and drifts that only the rows a random half of the system leaves out
    # can tell from a parallel one
    kept = [row for row in conn.system if rng.random() < 0.5] or [[0] * n]
    drifts = parallel + [small(metric, q) for q in [rand_vector(rng, n)]
                         + linalg.nullspace(kept, n)[:3]]
    for drift in drifts + [[float(x) for x in q] for q in drifts]:
        assert build_randers(metric, drift, conn).berwald == berwald_reference(conn, drift)
    assert all(build_randers(metric, q, conn).berwald for q in parallel)
