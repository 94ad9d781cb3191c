import random
from fractions import Fraction

import pytest

from liecurv import linalg
from liecurv.errors import DegeneratePlaneError, InputError

F = Fraction


def test_nullspace_exact_primitive_vectors():
    rows = [[F(1), F(2), F(0), F(-1)],
            [F(0), F(0), F(1), F(1)]]
    basis = linalg.nullspace(rows, 4)
    assert len(basis) == 2
    for v in basis:
        assert all(isinstance(x, F) for x in v)
        for row in rows:
            assert sum(r * x for r, x in zip(row, v)) == 0


def test_nullspace_full_rank_is_empty():
    rows = [[F(1), F(0)], [F(0), F(1)]]
    assert linalg.nullspace(rows, 2) == []


def test_nullspace_float_fallback():
    rows = [[0.5, -0.5]]
    basis = linalg.nullspace(rows, 2)
    assert len(basis) == 1
    x, y = basis[0]
    assert abs(0.5 * x - 0.5 * y) < 1e-9


def test_rank():
    assert linalg.rank([]) == 0
    assert linalg.rank([[F(0), F(0)]]) == 0
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.rank([[F(1), F(0)], [F(1), F(1)]]) == 2


def test_solve_many_exact():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x1, x2 = linalg.solve_many(a, [[F(1), F(0)], [F(0), F(1)]])
    # columns of the inverse of a (det = 5)
    assert x1 == [F(3, 5), F(-1, 5)]
    assert x2 == [F(-1, 5), F(2, 5)]


def test_solve_many_singular():
    with pytest.raises(InputError):
        linalg.solve_many([[F(1), F(1)], [F(2), F(2)]], [[F(1), F(0)]])


def test_determinant():
    assert linalg.determinant([[F(2), F(1)], [F(1), F(3)]]) == 5
    assert linalg.determinant([[F(1), F(2)], [F(2), F(4)]]) == 0
    assert linalg.determinant([[F(0), F(1)], [F(1), F(0)]]) == -1
    assert linalg.determinant([[0.0, 1.0], [1.0, 0.0]]) == -1.0


def test_is_positive_definite():
    assert linalg.is_positive_definite([[F(2), F(1)], [F(1), F(2)]])
    assert not linalg.is_positive_definite([[F(1), F(0)], [F(0), F(0)]])
    assert not linalg.is_positive_definite([[F(-1)]])
    assert not linalg.is_positive_definite([[F(0), F(1)], [F(1), F(0)]])
    # float pivots, not leading minors, are held to TOLERANCE: a small-scale
    # metric is positive definite, as its exact twin is
    small = [[0.005 if i == j else 0.0 for j in range(4)] for i in range(4)]
    assert linalg.is_positive_definite(small)
    assert linalg.is_positive_definite([[F(1, 200) if i == j else F(0) for j in range(4)]
                                        for i in range(4)])
    # a pivot at or below TOLERANCE is zero, as in solve_many
    assert not linalg.is_positive_definite([[1e6, 0.0], [0.0, 1e-10]])
    with pytest.raises(InputError):
        linalg.solve_many([[1e6, 0.0], [0.0, 1e-10]], [[1.0, 1.0]])


def test_gram_schmidt_orthogonal_not_normalized():
    gram = [[F(2), F(1)], [F(1), F(2)]]
    basis = linalg.gram_schmidt(gram)
    u, v = basis
    assert linalg.inner(gram, u, v) == 0
    # exact arithmetic: no normalization happened
    assert all(isinstance(x, F) for x in u + v)
    assert linalg.inner(gram, u, u) != 1 or linalg.inner(gram, v, v) != 1


def test_orthonormal_pair_identity_gram():
    gram = [[F(1), F(0)], [F(0), F(1)]]
    u, v = linalg.orthonormal_pair(gram, [F(3), F(0)], [F(4), F(4)])
    assert linalg.inner(gram, u, u) == 1
    assert linalg.inner(gram, v, v) == 1
    assert linalg.inner(gram, u, v) == 0
    # first vector keeps its ray
    assert u == [F(1), F(0)]


def test_orthonormal_pair_rejects_dependent():
    gram = [[F(1), F(0)], [F(0), F(1)]]
    with pytest.raises(DegeneratePlaneError):
        linalg.orthonormal_pair(gram, [F(1), F(2)], [F(2), F(4)])


def test_orthonormal_pair_random_planes(rng):
    gram = [[F(2), F(1), F(0)], [F(1), F(2), F(0)], [F(0), F(0), F(3)]]
    for _ in range(25):
        u = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        v = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        try:
            a, b = linalg.orthonormal_pair(gram, u, v)
        except DegeneratePlaneError:
            continue
        assert abs(linalg.inner(gram, a, a) - 1) < 1e-9
        assert abs(linalg.inner(gram, b, b) - 1) < 1e-9
        assert abs(linalg.inner(gram, a, b)) < 1e-9
