"""Property test of the rule that decides whether a plane's numerator is exact.

On an exact tensor, plane_form reads op as its exact values for any pair of vectors, so
contract's rule alone decides: a term w_p op[p][q] w_q is float exactly when a float
coefficient is live in it, and the numerator is a Fraction exactly when no live term is
float, whatever the tensor's op_den. hypothesis draws vectors whose entries are each exact
or decimal, on catalog cases with op_den 1 (1, 3, 5) and not (2, 6, case 4 at (1/2, 1/3)),
and on R x_D R^(n-1) documents with non-identity metrics.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from test_exact_vs_float import semidirect_documents  # noqa: E402
from liecurv import catalog  # noqa: E402
from liecurv.riemann import levi_civita, plane_form, riemann_tensor  # noqa: E402

CASES = {"case 1": (1, {}), "case 3": (3, {}), "case 5": (5, {}), "case 2": (2, {}),
         "case 6": (6, {}), "case 4 at (1/2, 1/3)": (4, {"alpha": "1/2", "beta": "1/3"})}
OP_DEN_1 = {"case 1", "case 3", "case 5"}

# p/q, or one time in four its decimal image (0 gives a live 0.0); 0 is drawn often, so
# many mixed pairs have no float in a live term
ENTRY = st.builds(lambda p, q, decimal: float(Fraction(p, q)) if decimal else Fraction(p, q),
                  st.integers(-4, 4) | st.just(0), st.integers(1, 3),
                  st.integers(0, 3).map(lambda k: k == 0))


def live(x) -> bool:
    """As contract reads a coefficient: a nonzero, or any float."""
    return bool(x) or isinstance(x, float)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(source=st.sampled_from(sorted(CASES) + ["document"]), seed=st.integers(0, 2 ** 32),
       dim=st.integers(3, 6), data=st.data())
def test_a_plane_numerator_is_exact_exactly_when_every_live_term_is(source, seed, dim, data):
    if source == "document":
        doc, _ = semidirect_documents(random.Random(seed), dim)
        gram = doc.metric.gram
        assume(any(gram[i][j] != (i == j) for i in range(dim) for j in range(dim)))
        alg, metric = doc.algebra(), doc.metric
    else:
        case_id, params = CASES[source]
        case = catalog.get_case(case_id, **params)
        alg, metric, dim = case.algebra, case.metric, case.algebra.dim
    rt = riemann_tensor(levi_civita(alg, metric))
    assert rt.gram is not None
    if source != "document":
        assert (rt.op_den == 1) == (source in OP_DEN_1), (source, rt.op_den)
    u, v = (data.draw(st.lists(ENTRY, min_size=dim, max_size=dim)) for _ in range(2))

    num = plane_form(rt, u, v)[0]
    w = [u[i] * v[j] - u[j] * v[i] for i, j in rt.pairs]
    values = [[Fraction(x, rt.op_den) for x in row] for row in rt.op]
    terms = [(p, q) for p, q in product(range(len(w)), repeat=2)
             if live(w[p]) and live(w[q]) and values[p][q]]
    float_terms = [(p, q) for p, q in terms if isinstance(w[p] * w[q], float)]
    assert type(num) is (float if float_terms else Fraction), (u, v, float_terms)

    # the same inputs with each float read as its exact Fraction; the bound is relative to
    # the size of the terms, |op_pq| (|u_i v_j| + |u_j v_i|) (|u_k v_l| + |u_l v_k|)
    exact_u, exact_v = ([Fraction(x) for x in vec] for vec in (u, v))
    want = plane_form(rt, exact_u, exact_v)[0]
    assert type(want) is Fraction
    size = [abs(exact_u[i] * exact_v[j]) + abs(exact_u[j] * exact_v[i]) for i, j in rt.pairs]
    scale = sum(abs(values[p][q]) * size[p] * size[q] for p, q in terms)
    assert abs(Fraction(num) - want) <= Fraction(1, 10 ** 9) * scale, (u, v, num, want)
    if not float_terms:
        assert num == want
