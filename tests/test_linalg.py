import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import gram_schmidt
from liecurv import linalg
from liecurv.errors import DegeneratePlaneError, InputError
from liecurv.scalars import is_exact_zero

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
    basis = gram_schmidt(gram)
    u, v = basis
    assert linalg.contract(gram, u, v) == 0
    # exact arithmetic: no normalization happened
    assert all(isinstance(x, F) for x in u + v)
    assert linalg.contract(gram, u, u) != 1 or linalg.contract(gram, v, v) != 1


def test_orthonormal_pair_identity_gram():
    gram = [[F(1), F(0)], [F(0), F(1)]]
    u, v = linalg.orthonormal_pair(gram, [F(3), F(0)], [F(4), F(4)])
    assert linalg.contract(gram, u, u) == 1
    assert linalg.contract(gram, v, v) == 1
    assert linalg.contract(gram, u, v) == 0
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
        assert abs(linalg.contract(gram, a, a) - 1) < 1e-9
        assert abs(linalg.contract(gram, b, b) - 1) < 1e-9
        assert abs(linalg.contract(gram, a, b)) < 1e-9


# --- contract ---------------------------------------------------------------


def rand_table(rng, dim, depth):
    if depth == 0:
        return F(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
    return [rand_table(rng, dim, depth - 1) for _ in range(dim)]


def rand_coeffs(rng, dim):
    return [F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)
            for _ in range(dim)]


def naive_terms(table, vectors, last):
    """(coefficients, entry) for every index tuple; entry at [..][last] if given."""
    for idx in itertools.product(range(len(table)), repeat=len(vectors)):
        entry = table
        for i in idx:
            entry = entry[i]
        yield ([vec[i] for vec, i in zip(vectors, idx)],
               entry if last is None else entry[last])


def naive_contract(table, vectors, last=None):
    return sum((math.prod(c) * e for c, e in naive_terms(table, vectors, last)), F(0))


def meets_float(table, vectors, last=None):
    """A kept term (no exact-zero coefficient, nonzero entry) has a float factor."""
    return any(e != 0 and not any(is_exact_zero(x) for x in c)
               and any(isinstance(x, float) for x in c)
               for c, e in naive_terms(table, vectors, last))


def contract_cases(rng):
    """Random exact (table, vectors, vector-valued) for dims 2-5, 1-3 vectors."""
    for dim in range(2, 6):
        for nvec in range(1, 4):
            for extra in (0, 1):
                for _ in range(3):
                    table = rand_table(rng, dim, nvec + extra)
                    vectors = [rand_coeffs(rng, dim) for _ in range(nvec)]
                    yield table, vectors, bool(extra)


def test_contract_exact_matches_naive_sum():
    rng = random.Random(1209)
    for table, vectors, vector_valued in contract_cases(rng):
        got = linalg.contract(table, *vectors)
        if vector_valued:
            want = [naive_contract(table, vectors, l) for l in range(len(table))]
            assert len(got) == len(want)
        else:
            got, want = [got], [naive_contract(table, vectors)]
        for x, y in zip(got, want):
            assert type(x) is F and x == y


def test_contract_float_coefficient_meeting_nonzero_entry_is_float():
    rng = random.Random(1210)
    seen = {True: 0, False: 0}
    for table, vectors, vector_valued in contract_cases(rng):
        k, i = rng.randrange(len(vectors)), rng.randrange(len(table))
        vectors[k][i] = rng.choice((0.0, float(vectors[k][i]), 0.5))
        got = linalg.contract(table, *vectors)
        lasts = range(len(table)) if vector_valued else [None]
        got = got if vector_valued else [got]
        for x, last in zip(got, lasts):
            floating = meets_float(table, vectors, last)
            seen[floating] += 1
            assert isinstance(x, float) == floating
            assert abs(x - naive_contract(table, vectors, last)) <= 1e-9 * max(1, abs(x))
    assert seen[True] and seen[False]


def test_contract_skip_rule_examples():
    eye = [[F(1), F(0)], [F(0), F(1)]]
    # 0.5 meets only the zero entry g_10: the result stays exact
    assert linalg.contract(eye, [F(1), 0.5], [F(1), F(0)]) == 1
    assert type(linalg.contract(eye, [F(1), 0.5], [F(1), F(0)])) is F
    # a float 0.0 that meets a nonzero entry makes the result a float
    zero = linalg.contract(eye, [F(1), 0.0], [F(0), F(1)])
    assert zero == 0 and isinstance(zero, float)
    # exact-zero coefficients and zero entries contribute nothing, not even type
    assert linalg.contract([[F(0), 2.0], [F(3), F(0)]], [F(1), F(0)], [F(1), F(0)]) == 0
    assert type(linalg.contract(eye, [F(0), F(0)], [0.5, 0.5])) is F
    # one vector short of the table's depth: a list over the last axis
    assert linalg.contract([[F(1), F(1)], [F(0), F(1)]], [F(2), F(-1)]) == [F(2), F(1)]
