import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import cleared_nested, gram_schmidt, orthonormal_pair_fractions, solve_many
from liecurv import linalg
from liecurv.algebra import MetricTensor, Vector
from liecurv.errors import DegeneratePlaneError, InputError
from liecurv.scalars import is_exact_zero

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # only the hypothesis test below is skipped
    st = None

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
    x1, x2 = solve_many(a, [[F(1), F(0)], [F(0), F(1)]])
    # columns of the inverse of a (det = 5)
    assert x1 == [F(3, 5), F(-1, 5)]
    assert x2 == [F(-1, 5), F(2, 5)]


def test_solve_many_singular():
    with pytest.raises(InputError):
        solve_many([[F(1), F(1)], [F(2), F(2)]], [[F(1), F(0)]])


def leibniz_det(m):
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod((F(m[i][perm[i]]) for i in range(n)), start=F(1))
    return total


def test_fraction_free_elimination_is_exact():
    """Exact elimination runs over integer rows; every consumer must still
    give exact answers: solutions with zero residual, nullspace vectors of
    the right count, and Sylvester's criterion on independent minors. The int
    solve under solve_many is reduced: its (den, numerators) are
    the Fraction solutions cleared together."""
    rng = random.Random(1968)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 5)
        a = [[rng.choice((0, rng.randint(-6, 6), F(rng.randint(-6, 6), rng.randint(1, 999))))
              for _ in range(n)] for _ in range(n)]
        minors = [leibniz_det([row[:k] for row in a[:k]]) for k in range(1, n + 1)]
        rhs = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(2)]
        if minors[-1]:
            solutions = solve_many(a, rhs)
            for b, x in zip(rhs, solutions):
                assert all(type(v) is F for v in x)
                assert [sum(F(a[i][j]) * x[j] for j in range(n)) for i in range(n)] == b
            den, nums = linalg.solve_cleared(a, rhs)
            assert (den, nums) == cleared_nested(solutions)
            assert all(type(v) is int for y in nums for v in y)
        basis = linalg.nullspace(a, n)
        assert len(basis) == n - linalg.rank(a) and (len(basis) == 0) == (minors[-1] != 0)
        assert all(sum(F(a[i][j]) * v[j] for j in range(n)) == 0 for v in basis for i in range(n))
        sym = [[a[i][j] + a[j][i] + (2 * n * 36 if i == j and rng.random() < 0.7 else 0)
                for j in range(n)] for i in range(n)]
        want = all(leibniz_det([row[:k] for row in sym[:k]]) > 0 for k in range(1, n + 1))
        assert linalg.is_positive_definite(sym) == want
        seen[want] += 1
    assert seen[True] > 20 and seen[False] > 20


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
        solve_many([[1e6, 0.0], [0.0, 1e-10]], [[1.0, 1.0]])


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
    u, v = linalg.orthonormal_pair(MetricTensor(gram), Vector([F(3), F(0)]),
                                  Vector([F(4), F(4)]))
    assert linalg.contract(gram, u, u) == 1
    assert linalg.contract(gram, v, v) == 1
    assert linalg.contract(gram, u, v) == 0
    # first vector keeps its ray
    assert u == [F(1), F(0)]


def test_orthonormal_pair_rejects_dependent():
    gram = [[F(1), F(0)], [F(0), F(1)]]
    with pytest.raises(DegeneratePlaneError):
        linalg.orthonormal_pair(MetricTensor(gram), Vector([F(1), F(2)]), Vector([F(2), F(4)]))


def test_orthonormal_pair_random_planes(rng):
    gram = [[F(2), F(1), F(0)], [F(1), F(2), F(0)], [F(0), F(0), F(3)]]
    for _ in range(25):
        u = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        v = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        try:
            a, b = linalg.orthonormal_pair(MetricTensor(gram), Vector(u), Vector(v))
        except DegeneratePlaneError:
            continue
        assert abs(linalg.contract(gram, a, a) - 1) < 1e-9
        assert abs(linalg.contract(gram, b, b) - 1) < 1e-9
        assert abs(linalg.contract(gram, a, b)) < 1e-9


def test_orthonormal_pair_matches_fraction_oracle(rng):
    # the cleared int path gives the same type and repr as the Fraction
    # loop, and the same refusals
    def outcome(fn, gram, u, v):
        try:
            return [(type(x), repr(x)) for vec in fn(gram, u, v) for x in vec]
        except (DegeneratePlaneError, InputError) as exc:
            return type(exc), str(exc)

    grams = {"int": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             "thirds": [[F(2), F(1, 3), F(0)], [F(1, 3), F(1), F(-1, 3)],
                        [F(0), F(-1, 3), F(3)]]}
    cases = [("int", [3, 0, 4], [1, 2, 0]),            # perfect-square norms
             ("int", [F(3, 5), 0, F(4, 5)], [0, 1, 0]),
             ("int", [0, 0, 0], [1, 0, 0]),            # zero vector
             ("int", [1, 2, 0], [F(-2), F(-4), 0]),    # dependent
             ("thirds", [1, 0, 0], [0, 1, 0])]
    for _ in range(150):
        kind = rng.choice(("int", "thirds"))
        cases.append((kind, [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)],
                      [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]))
    seen = set()
    for kind, u, v in cases:
        want = outcome(orthonormal_pair_fractions, grams[kind], u, v)
        got = outcome(linalg.orthonormal_pair, MetricTensor(grams[kind]), Vector(u), Vector(v))
        assert got == want, (kind, u, v)
        seen.add(want if isinstance(want, tuple) else tuple(t for t, _ in want))
    # exact and float outputs, and both refusals, were all reached
    assert {(F,) * 6, (float,) * 6,
            (DegeneratePlaneError, "zero vector cannot span a plane"),
            (DegeneratePlaneError, "spanning vectors are linearly dependent")} <= seen


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


def test_contract_result_types():
    # each sum is in the type of its products: Fraction in, Fraction out...
    assert type(linalg.contract([[F(1, 2), F(1)]], [F(2)], [F(1), F(3)])) is F
    # ...int in, int out, scalar and list alike
    assert type(linalg.contract([[2, 3], [5, 7]], [1, 2], [3, 0])) is int
    assert all(type(x) is int for x in linalg.contract([[2, 0], [5, 7]], [1, 2]))
    # a sum that no term reaches is Fraction(0), whatever the inputs
    assert type(linalg.contract([[2, 0], [5, 7]], [1, 0], [0, 1])) is F
    assert [type(x) for x in linalg.contract([[2, 0], [0, 0]], [0.5, 3])] == [float, F]
    # a float zero sum is 0.0, never -0.0, as Fraction(0) + (-0.0) would give
    for got in (linalg.contract([[-3.0]], [0.0], [1]),
                linalg.contract([[-3]], [0.0], [F(1)]),
                linalg.contract([[1], [-1]], [0.0, 0.0], [1]),
                linalg.contract([[F(1)], [F(-1)]], [0.5, 0.5], [1]),
                *linalg.contract([[-3, F(-2)]], [0.0])):
        assert got == 0 and type(got) is float and math.copysign(1, got) == 1


if st is not None:
    # small entries, exact zeros among them, and ints past 2^64 of either sign
    ENTRIES = st.one_of(st.integers(-3, 3), st.just(0), st.integers(-2 ** 80, 2 ** 80))

    @st.composite
    def bilinear_inputs(draw):
        """(table, u, v): an int table of 1-6 rows of 1-6 entries, some rows all zero, as
        lists or tuples, and int vectors to fit, some all zero."""
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        row = st.one_of(st.just([0] * cols), st.lists(ENTRIES, min_size=cols, max_size=cols))
        table = draw(st.lists(row, min_size=rows, max_size=rows))
        if draw(st.booleans()):
            table = tuple(map(tuple, table))
        u, v = (draw(st.one_of(st.just([0] * n), st.lists(ENTRIES, min_size=n, max_size=n)))
                for n in (rows, cols))
        return table, u, v

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(bilinear_inputs())
    @example(((((-7,),), [2 ** 70], [2 ** 70])))  # a basis plane's ((op[p][p],),) on one w_p
    @example(([[0, 0], [0, 0]], [1, -1], [2, 3]))
    @example(([[1, 2], [3, 4]], [0, 0], [5, 6]))
    @example(([[1, -1], [-1, 1]], [1, 1], [1, 1]))  # live terms that cancel
    def test_bilinear_matches_contract_on_ints(inputs):
        """linalg.bilinear is contract's value on int tables and vectors, always as an int:
        int 0 where contract's sum reaches no term and gives Fraction(0)."""
        table, u, v = inputs
        got, want = linalg.bilinear(table, u, v), linalg.contract(table, u, v)
        assert type(got) is int and got == want
        assert type(want) is int or want == 0 and type(want) is F

    # ENTRIES, and numerators past 2^53, where rounding x and y before x y is off by an ulp
    NUMERATORS = st.one_of(ENTRIES, st.integers(2 ** 53, 2 ** 80), st.integers(-2 ** 80, -2 ** 53))
    # zeros of both signs and int 0, subnormals, and entries whose products overflow to inf
    FLOAT_ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, 0, 5e-324, -2.5e-320, 1e308, -1.7e308)),
                              st.floats(allow_nan=False, allow_infinity=False))

    @st.composite
    def float_bilinear_inputs(draw):
        """(table, u, v): a float table of 1-6 rows of 1-6 entries, some rows all zero, and
        two exact Vectors to fit, each of user ints or of Fractions p/q with q up to 10^6."""
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        row = st.one_of(st.just([0.0] * cols), st.lists(FLOAT_ENTRIES, min_size=cols,
                                                         max_size=cols))
        table = draw(st.lists(row, min_size=rows, max_size=rows))

        def vector(n):
            nums = draw(st.one_of(st.just([0] * n), st.lists(NUMERATORS, min_size=n, max_size=n)))
            if draw(st.booleans()):
                return Vector(nums)
            return Vector([F(p, draw(st.integers(1, 10 ** 6))) for p in nums])
        return table, vector(rows), vector(cols)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(float_bilinear_inputs())
    @example(([[0.0, -0.0], [0, 0.0]], Vector([1, 2]), Vector([F(3, 7), 5])))  # no live entry
    @example(([[0.5, 2.0]], Vector([F(0)]), Vector([1, 1])))  # no live coefficient
    @example(([[-5e-324]], Vector([F(1, 10 ** 6)]), Vector([F(1, 10 ** 6)])))  # -0.0 product
    @example(([[1e308, 1e308]], Vector([2 ** 80]), Vector([1, -1])))  # inf - inf: nan
    @example(([[1.0]], Vector([666170095015151626098468]),  # float(x) * float(y) / den is
              Vector([F(-999594411184038167267878, 592923)])))  # one ulp off
    def test_float_bilinear_matches_contract_on_float_tables(inputs):
        """linalg.float_bilinear on the int forms gives contract's result on the Fraction or
        int coefficients to the bit, by repr and type: the same order, skips and start, one
        rounding per coefficient, and Fraction(0) where no term is live."""
        table, u, v = inputs
        (du, a), (dv, b) = u.ints, v.ints
        got = linalg.float_bilinear(table, a, b, du * dv)
        want = linalg.contract(table, u.coeffs, v.coeffs)
        assert (type(got), repr(got)) == (type(want), repr(want))


def test_inner_on_float_and_mixed_grams():
    """An exact pair on a Gram matrix of floats and exact zeros reads float_bilinear with
    contract's bits; one exact nonzero entry among floats keeps contract, so g(e0, e0) on
    [[1, 0.5], [0.5, 2]] reads only the 1 and stays exact."""
    mixed = MetricTensor([[1, 0.5], [0.5, 2]])
    assert not mixed.float_only
    for e0, kind in (([1, 0], int), (Vector.basis(2, 0), F)):
        got = mixed.inner(e0, e0)
        assert type(got) is kind and got == 1
    assert repr(mixed.inner([1, 0], [0, 1])) == "0.5"
    floats = MetricTensor([[2.5, 0, -0.0], [0, 1e-310, 0.3], [-0.0, 0.3, 7.0]])
    assert floats.float_only
    pairs = [([1, 0, 0], [0, 1, 0]), ([F(1, 3), 2, F(-5, 7)], [3, F(1, 999_983), 1]),
             ([0, F(2, 3), 0], [0, F(-4, 9), 0])]
    for u, v in pairs:
        got, want = floats.inner(u, v), linalg.contract(floats.gram, u, v)
        assert (type(got), repr(got)) == (type(want), repr(want))


def test_clear_denominators():
    """linalg.cleared on flat rows; the nested reference in oracles on tables."""
    scale, ints = linalg.cleared([F(1, 2), 3, F(-1, 3), F(0)])
    assert (scale, ints) == (6, [3, 18, -2, 0])
    assert all(type(x) is int for x in ints)
    assert linalg.cleared((1, -2, 0, 5)) == (1, [1, -2, 0, 5])
    assert linalg.cleared([]) == (1, [])
    assert linalg.cleared([F(1, 2), 0.5]) is linalg.cleared([1, True]) is None
    assert cleared_nested([[F(1, 2), 3], [F(-1, 3), F(0)]]) == (6, [[3, 18], [-2, 0]])
    assert cleared_nested(((1, -2), (0, 5))) == (1, [[1, -2], [0, 5]])


def test_vector_rows_are_rows():
    # A Vector row is a row of entries, not one non-exact entry: elimination
    # stays exact and gives the same Fractions as list rows.
    rows = [[F(1, 3), 1, 0], [F(2, 3), 2, F(1, 7)]]
    vrows = [Vector(row) for row in rows]
    assert linalg.nullspace(vrows, 3) == linalg.nullspace(rows, 3) == [[3, -1, 0]]
    assert all(type(x) is F for x in linalg.nullspace(vrows, 3)[0])
    assert ([linalg.cleared(r) for r in vrows] == [linalg.cleared(r) for r in rows]
            == [(3, [1, 3, 0]), (21, [14, 42, 3])])
    # rows 10^-12 apart: exact rank 2, float rank 1
    near = [[1, 1], [1, 1 + F(1, 10 ** 12)]]
    assert linalg.rank([Vector(row) for row in near]) == linalg.rank(near) == 2


def test_orthonormal_pair_int_gram_stays_exact():
    # int g(u,v) / int g(u,u) must not become a float division
    u, v = linalg.orthonormal_pair(MetricTensor([[1, 0], [0, 1]]), Vector([3, 0]),
                                  Vector([1, 2]))
    assert u == [F(1), F(0)] and v == [F(0), F(1)]
    assert all(type(x) is F for x in u + v)
