"""Shared helpers: seeded rational sampling and exact basis changes."""

import random
from fractions import Fraction

import pytest

from liecurv.algebra import LieAlgebra, MetricTensor, Vector
from liecurv.linalg import rank
from oracles import bracket, solve_many


def rand_fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_vector(rng: random.Random, dim: int) -> Vector:
    while True:
        v = Vector(rand_fraction(rng) for _ in range(dim))
        if not v.is_zero():
            return v


def rand_pair(rng: random.Random, dim: int) -> tuple:
    """Two random rational vectors spanning a plane."""
    while True:
        u = Vector(rand_fraction(rng) for _ in range(dim))
        v = Vector(rand_fraction(rng) for _ in range(dim))
        if rank([list(u), list(v)]) == 2:
            return u, v


def rand_invertible(rng: random.Random, dim: int) -> list:
    """Random invertible integer matrix (rows = new basis)."""
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)]
                for _ in range(dim)]
        if rank(rows) == dim:
            return rows


def invert(rows: list) -> list:
    n = len(rows)
    cols = solve_many(rows, [[Fraction(int(i == j)) for i in range(n)]
                             for j in range(n)])
    # solve_many returns solution columns; transpose back to rows
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def change_basis(alg: LieAlgebra, metric: MetricTensor, rows: list):
    """Transport (algebra, metric) to the basis f_i = sum_j rows[i][j] e_j.

    Coordinates of an old vector x in the f basis solve rows^T c = x, so the
    new structure constants are (rows^T)^{-1} [f_i, f_j] and the new Gram
    matrix is rows G rows^T.
    """
    n = alg.dim
    rt = [[rows[j][i] for j in range(n)] for i in range(n)]
    rt_inv = invert(rt)

    def to_new(x: Vector) -> Vector:
        return Vector(sum(rt_inv[i][j] * x[j] for j in range(n)) for i in range(n))

    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c[i][j] = list(to_new(bracket(alg, rows[i], rows[j])))
    new_alg = LieAlgebra(c, labels=alg.labels)
    new_gram = [[metric.inner(rows[i], rows[j]) for j in range(n)]
                for i in range(n)]
    return new_alg, MetricTensor(new_gram)


def rand_pd_metric(rng: random.Random, dim: int) -> MetricTensor:
    """A^T A + I for random integer A: rational, positive definite."""
    a = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
    gram = [[sum(a[k][i] * a[k][j] for k in range(dim))
             + Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    return MetricTensor(gram)


def cayley_rotation(rng: random.Random, dim: int) -> list:
    """Exact rotation rows via the Cayley map of a random antisymmetric S."""
    s = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            s[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            s[j][i] = -s[i][j]
    eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    plus = [[eye[i][j] + s[i][j] for j in range(dim)] for i in range(dim)]
    minus = [[eye[i][j] - s[i][j] for j in range(dim)] for i in range(dim)]
    cols = solve_many(minus, [[plus[i][j] for i in range(dim)]
                              for j in range(dim)])
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


@pytest.fixture
def rng():
    return random.Random(20260815)
