"""linalg's one back-substitution, through nullspace and solve_cleared, against references.

hypothesis draws matrices of ints, of Fractions, and of either mixed with floats (signed
zeros, subnormals and entries near 1e300 among them), rank-deficient ones, ones with
negative pivots and ones whose back-substitution sums cancel to zero. An exact result
equals the plain Fraction Gauss-Jordan reference of oracles (nullspace_fractions,
solve_fractions). A float result has, by repr, the bits and signed zeros of the two
loops that nullspace and solve_cleared ran before they shared one
(oracles.nullspace_two_loops, solve_cleared_two_loops).
"""

from fractions import Fraction

import pytest

from oracles import (nullspace_fractions, nullspace_two_loops, solve_cleared_two_loops,
                     solve_fractions)
from liecurv import linalg
from liecurv.errors import InputError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

INTS = st.integers(-3, 3)
FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
FLOATS = st.one_of(st.sampled_from((0.0, -0.0, 0.5, -0.25, 1.0, -2.0, 3.0)),
                   st.floats(-8, 8),
                   st.sampled_from((1e10, -1e-320, 5e-324, 1e300, -1e300)))
ENTRIES = {"int": INTS, "fraction": FRACTIONS,
           "int+float": st.one_of(INTS, FLOATS), "fraction+float": st.one_of(FRACTIONS, FLOATS)}


@st.composite
def matrices(draw, square: bool = False):
    """A matrix of one of the four ENTRIES kinds; sometimes its last row is a sum of int
    multiples of two rows, which makes it rank-deficient."""
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, nrows - 2)), draw(st.integers(0, nrows - 2))
        a, b = draw(INTS), draw(INTS)
        rows[-1] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


def is_exact(rows) -> bool:
    return not any(isinstance(x, float) for row in rows for x in row)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(rows=matrices())
@example(rows=[[0.0, -2.0]])  # a sum no term reaches, under a negative pivot: 0.0, not -0.0
@example(rows=[[2.0, 0.0, 1.0]])  # a float sum of 0.0: the entry is 0.0, not -0.0
@example(rows=[[1e10, 1e-320]])  # a nonzero sum whose quotient underflows keeps its -0.0
@example(rows=[[-2, 4, 0], [1, -2, 0]])
@example(rows=[[Fraction(-1, 2), Fraction(1, 3), 0, 1], [0, 0, Fraction(-5, 6), 2]])
def test_nullspace_matches_the_references(rows):
    ncols = len(rows[0])
    got = linalg.nullspace(rows, ncols)
    if is_exact(rows):
        assert got == nullspace_fractions(rows, ncols)
        assert all(type(x) is Fraction for v in got for x in v)
    else:
        assert repr(got) == repr(nullspace_two_loops(rows, ncols))


@st.composite
def systems(draw):
    """A square matrix and up to three right-hand sides, each of its own ENTRIES kind."""
    matrix = draw(matrices(square=True))
    n = len(matrix)
    rhs = draw(st.lists(st.sampled_from(sorted(ENTRIES)).flatmap(
        lambda kind: st.lists(ENTRIES[kind], min_size=n, max_size=n)), max_size=3))
    return matrix, rhs


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(system=systems())
@example(system=([[-2.0]], [[0.0]]))  # 0.0 / -2.0 is -0.0, kept, not an int 0
@example(system=([[-2, 1], [1, 3]], [[1, 0], [0, 0], [Fraction(1, 3), -1]]))
@example(system=([[1, 2], [2, 4]], [[1, 0]]))
def test_solve_cleared_matches_the_references(system):
    matrix, rhs = system
    exact = is_exact(matrix) and is_exact(rhs)
    want = solve_fractions if exact else solve_cleared_two_loops
    try:
        expected = want(matrix, rhs)
    except InputError:
        with pytest.raises(InputError):
            linalg.solve_cleared(matrix, rhs)
        return
    got = linalg.solve_cleared(matrix, rhs)
    if exact:
        assert got == expected
        assert all(type(x) is int for y in got[1] for x in y)
    else:
        assert repr(got) == repr(expected)
