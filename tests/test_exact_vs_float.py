"""Exact-vs-float differential tests.

The same numbers go in once as Fractions and once as their float(Fraction)
copies. Exact mode is the reference; float mode must agree with it on every
rank decision and within TOLERANCE (relative once |x| > 1) on every value.
"""

import random
from fractions import Fraction

import pytest

from conftest import rand_fraction, rand_pd_metric
from oracles import cleared_nested, scalar_curvature_table, solve_many
from liecurv import linalg
from liecurv.documents import parse_document
from liecurv.errors import InputError
from liecurv.randers import parallel_fields
from liecurv.riemann import levi_civita, riemann_tensor, scalar_curvature
from liecurv.scalars import TOLERANCE, format_scalar

F = Fraction


def close(exact, approx) -> bool:
    return abs(float(exact) - approx) <= TOLERANCE * max(1.0, abs(float(exact)))


def as_float(rows):
    return [[float(x) for x in row] for row in rows]


def rand_matrix(rng, nrows, ncols):
    return [[rand_fraction(rng) for _ in range(ncols)] for _ in range(nrows)]


def with_dependent_row(rng, rows):
    """Replace the last row by a rational combination of the others."""
    a, b = rand_fraction(rng), rand_fraction(rng)
    combo = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows[:-1] + [combo]


def square_matrices():
    rng = random.Random(1305)
    out = [[[F(0), F(1)], [F(1), F(0)]],
           [[F(0), F(0)], [F(0), F(1)]],
           [[F(0), F(2), F(1)], [F(0), F(1), F(3)], [F(4), F(0), F(0)]],
           [[F(1, 3), F(2, 3)], [F(1, 6), F(1, 3)]]]
    for n in range(1, 6):
        for _ in range(3):
            rows = rand_matrix(rng, n, n)
            out.append(rows)
            if n >= 3:
                out.append(with_dependent_row(rng, rows))
            lead_zero = [row[:] for row in rows]
            lead_zero[0][0] = F(0)
            out.append(lead_zero)
    return out


def rectangular_matrices():
    rng = random.Random(2855)
    out = [[[F(0), F(0), F(1)]], [[F(0)] * 3] * 2]
    for nrows, ncols in ((2, 4), (4, 2), (6, 3), (3, 5), (8, 4)):
        for _ in range(3):
            rows = rand_matrix(rng, nrows, ncols)
            out.append(rows)
            if nrows >= 3:
                out.append(with_dependent_row(rng, rows))
            sparse = [[x if rng.random() < 0.4 else F(0) for x in row] for row in rows]
            out.append(sparse)
    return out


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def small_scale(gram):
    """The metric times 1/200: its last leading minor is far below TOLERANCE."""
    return [[x / 200 for x in row] for row in gram]


def symmetric_matrices():
    """Positive definite, semidefinite (singular) and indefinite Gram matrices."""
    rng = random.Random(1729)
    out = [[[F(0), F(1)], [F(1), F(0)]], [[F(1), F(2)], [F(2), F(1)]],
           small_scale(identity(4)), small_scale(rand_pd_metric(rng, 6).gram)]
    for n in range(1, 6):
        for _ in range(3):
            out.append(rand_pd_metric(rng, n).gram)
            a = rand_matrix(rng, n, n)
            if n >= 2:
                a = with_dependent_row(rng, a)
            out.append([[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)]
                        for i in range(n)])
            s = rand_matrix(rng, n, n)
            out.append([[s[i][j] + s[j][i] for j in range(n)] for i in range(n)])
    return out


def assert_same_span(exact_basis, float_basis):
    assert len(exact_basis) == len(float_basis)
    if exact_basis:
        assert linalg.rank(exact_basis + float_basis) == len(exact_basis)


def test_rank_and_nullspace_agree():
    for rows in square_matrices() + rectangular_matrices():
        ncols = len(rows[0])
        floats = as_float(rows)
        assert linalg.rank(floats) == linalg.rank(rows), rows
        exact_basis = linalg.nullspace(rows, ncols)
        float_basis = linalg.nullspace(floats, ncols)
        assert all(isinstance(x, float) for v in float_basis for x in v)
        assert_same_span(exact_basis, float_basis)
        for v in float_basis:
            for row in rows:
                assert abs(sum(float(a) * x for a, x in zip(row, v))) <= TOLERANCE, rows


def test_rank_and_solve_agree():
    rng = random.Random(1)
    singular = 0
    for rows in square_matrices():
        floats = as_float(rows)
        rhs = rand_matrix(rng, 2, len(rows))
        if linalg.rank(rows) < len(rows):
            singular += 1
            for matrix, b in ((rows, rhs), (floats, as_float(rhs))):
                with pytest.raises(InputError):
                    solve_many(matrix, b)
            continue
        exact = solve_many(rows, rhs)
        approx = solve_many(floats, as_float(rhs))
        for xe, xf in zip(exact, approx):
            assert all(close(a, b) for a, b in zip(xe, xf)), rows
    assert singular >= 5


def test_positive_definiteness_agrees():
    verdicts = []
    for gram in symmetric_matrices():
        exact = linalg.positive_inverse(gram) is not None
        assert (linalg.positive_inverse(as_float(gram)) is not None) == exact
        verdicts.append(exact)
    assert True in verdicts and False in verdicts


# --- whole pipeline on R semidirect_D R^(n-1) ------------------------------------


def semidirect_objects(rng, dim, gram=None):
    """One algebra as an exact and as a floating document object, unparsed.

    [e_0, e_j] = D e_j with the ideal R^(dim-1) abelian, so Jacobi holds. A
    sparse D leaves some parallel fields; the metric defaults to
    rand_pd_metric.
    """
    m = dim - 1
    density = rng.choice((0.2, 0.5, 1.0))
    d = [[rand_fraction(rng) if rng.random() < density else F(0) for _ in range(m)]
         for _ in range(m)]
    if gram is None:
        gram = rand_pd_metric(rng, dim).gram
    brackets = [(j, [F(0)] + [d[k][j - 1] for k in range(m)]) for j in range(1, dim)]

    def document(text):
        return {"dim": dim,
                "brackets": [{"i": 0, "j": j, "coeffs": [text(c) for c in coeffs]}
                             for j, coeffs in brackets],
                "metric": [[text(x) for x in row] for row in gram]}

    return document(format_scalar), document(float)


def semidirect_documents(rng, dim, gram=None):
    """semidirect_objects, parsed: (exact document, floating document)."""
    return tuple(parse_document(obj) for obj in semidirect_objects(rng, dim, gram))


def is_exact_document(doc):
    return (cleared_nested(list(doc.brackets.values())) is not None
            and cleared_nested(doc.metric.gram) is not None)


def flat(table):
    if isinstance(table, (list, tuple)):
        return [x for item in table for x in flat(item)]
    return [table]


def assert_documents_agree(exact_doc, float_doc):
    """Return the dimension of the space of parallel fields."""
    assert is_exact_document(exact_doc) and not is_exact_document(float_doc)
    results = []
    for doc in (exact_doc, float_doc):
        conn = levi_civita(doc.algebra(), doc.metric)
        rt = riemann_tensor(conn)
        scalar = scalar_curvature(rt, doc.metric)
        # the trace over the int rows is the table trace, Fraction for Fraction, bit for bit
        reference = scalar_curvature_table(rt, doc.metric)
        assert scalar == reference and repr(scalar) == repr(reference)
        results.append((flat(conn.gamma), flat(rt.table), scalar,
                        [list(v) for v in parallel_fields(conn)]))
    (gamma_e, rt_e, s_e, par_e), (gamma_f, rt_f, s_f, par_f) = results
    assert all(isinstance(x, Fraction) for x in gamma_e + rt_e + [s_e])
    assert all(close(a, b) for a, b in zip(gamma_e, gamma_f))
    assert all(close(a, b) for a, b in zip(rt_e, rt_f))
    assert close(s_e, s_f)
    assert_same_span(par_e, par_f)
    return len(par_e)


def test_semidirect_products_agree():
    rng = random.Random(20130512)
    partial = 0
    for dim in (3, 4, 5, 6):
        for _ in range(3):
            parallel = assert_documents_agree(*semidirect_documents(rng, dim))
            partial += 0 < parallel < dim
    assert partial, "no sample had a proper nonzero space of parallel fields"


def test_small_scale_metric_agrees():
    rng = random.Random(200)
    for gram in (identity(4), rand_pd_metric(rng, 4).gram):
        assert_documents_agree(*semidirect_documents(rng, 4, small_scale(gram)))
