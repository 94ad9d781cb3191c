"""linalg.cleared, the one flat clearing pass, against the nested reference.

hypothesis draws flat rows of ints, Fractions (denominators up to and near 10^6),
floats, -0.0 and bools, empty rows included: linalg.cleared equals
oracles.cleared_nested on each, ints over the lcm denominator, None where an entry is
not exact, and an all-int row as it is, over 1. It then draws Gram matrices and
structure-constant tables, exact or with one float, and checks
MetricTensor.cleared_gram and LieAlgebra.cleared_structure against the reference on
the nested table.
"""

from fractions import Fraction

import pytest

from oracles import cleared_nested
from liecurv import linalg
from liecurv.algebra import LieAlgebra, MetricTensor

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

EXACT = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(999_000, 1_001_000)),
)
SCALARS = st.one_of(EXACT, EXACT, st.floats(allow_nan=False, allow_infinity=False),
                    st.just(-0.0), st.booleans())


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(row=st.lists(SCALARS, max_size=12))
@example(row=[])
@example(row=[3, 0, -2])
@example(row=[Fraction(1, 999983), Fraction(-1, 1000003), 3])
@example(row=[Fraction(1, 2), -0.0])
@example(row=[1, True])
def test_cleared_matches_the_nested_reference(row):
    got = linalg.cleared(row)
    assert got == cleared_nested(row)
    if got is not None:
        assert all(type(x) is int for x in got[1])
        if all(type(x) is int for x in row):
            assert got == (1, row)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(n=st.integers(1, 4), floating=st.booleans(), data=st.data())
def test_owners_clear_their_tables_as_the_reference(n, floating, data):
    entries = data.draw(st.lists(EXACT, min_size=n ** 3, max_size=n ** 3))
    if floating:
        entries[data.draw(st.integers(0, n * n - 1))] = data.draw(st.floats(-9, 9))
    structure = [[entries[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
                 for i in range(n)]
    gram = [[entries[max(i, j) * n + min(i, j)] for j in range(n)] for i in range(n)]
    alg, metric = LieAlgebra(structure), MetricTensor(gram)
    assert alg.cleared_structure == cleared_nested(structure)
    assert metric.cleared_gram == cleared_nested(gram)
    assert (metric.cleared_gram is None) == (floating and any(
        isinstance(x, float) for row in gram for x in row))
