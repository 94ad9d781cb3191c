"""Differential test of flag_curvature against its per-call reference.

An exact flag (pole, edge and drift exact, on an exact tensor and Gram matrix) stays in
ints until its one result; every other flag keeps the plane_form route. hypothesis draws
flags on the catalog cases and on R x_D R^(n-1) algebras with non-identity metrics (exact,
and one float image), with parallel, zero and non-parallel drifts, exact or decimal, and
poles of rational and irrational g-norm with g(Q,y) < 0, = 0 and > 0, basis flags, zero
poles and dependent edges, each exact, decimal or mixed. flag_curvature must give what
oracles.flag_curvature_per_call gives: the same type and repr, or the same exception type
and message. Few draws reach an exact flag whose g(y,y) is no rational square, which ends in
floats formed from ints, so a derandomized test lists such flags, refusals included.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import rand_fraction, rand_vector  # noqa: E402
from oracles import flag_curvature_per_call  # noqa: E402
from test_connection_store import geometry, small  # noqa: E402
from liecurv import catalog, linalg  # noqa: E402
from liecurv.algebra import Vector  # noqa: E402
from liecurv.errors import LiecurvError  # noqa: E402
from liecurv.randers import Flag, build_randers, flag_curvature, parallel_fields  # noqa: E402
from liecurv.riemann import levi_civita, riemann_tensor  # noqa: E402

CASES = [(1, {}), (2, {}), (3, {}), (6, {}), (4, {"alpha": Fraction(-1), "beta": Fraction(0)}),
         (4, {"alpha": Fraction(2), "beta": Fraction(1)})]
# (seed, dim, move, variant) for test_connection_store.geometry, non-identity metrics
DRAWN = [(3, 3, "none", "exact"), (7, 4, "basis", "exact"), (2, 6, "none", "exact"),
         (51, 6, "rotation", "exact"), (51, 6, "basis", "exact"), (51, 6, "none", "float")]
SOURCES = len(CASES) + len(DRAWN)
# how (drift, pole, edge) are written: all exact two times in five
FORMS = [("exact",) * 3] * 4 + [("decimal", "exact", "exact"), ("exact", "decimal", "exact"),
                                 ("exact", "exact", "decimal"), ("exact", "mixed", "exact"),
                                 ("mixed",) * 3, ("decimal",) * 3]


@lru_cache(maxsize=None)
def setting(source: int):
    """(metric, rt, drifts, rational-norm int vectors) for one catalog case or drawn algebra;
    drifts are scaled parallel fields, the zero drift and one non-parallel drift."""
    if source < len(CASES):
        case_id, params = CASES[source]
        case = catalog.get_case(case_id, **params)
        alg, metric, rng = case.algebra, case.metric, random.Random(source)
    else:
        seed, dim, move, variant = DRAWN[source - len(CASES)]
        alg, metric, rng = geometry(seed, dim, False, move, variant)
    conn = levi_civita(alg, metric)
    n = metric.dim
    par = parallel_fields(conn)
    drifts = [small(metric, q) for q in par[:2]]
    if len(par) > 1:
        drifts.append(small(metric, [a + b for a, b in zip(par[0], par[1])]))
    drifts += [[0] * n, small(metric, rand_vector(rng, n))]
    scale, gram = metric.cleared_gram or (0, None)  # y^T gram y / scale is g(y,y)
    rational = [y for y in itertools.product(range(-1, 3), repeat=n)
                if scale and any(y) and square(scale * linalg.bilinear(gram, y, y))]
    return metric, riemann_tensor(conn), drifts, rational


def square(x: int) -> bool:
    return math.isqrt(x) ** 2 == x


def written(xs, form: str, rng: random.Random) -> list:
    """xs exact, as decimals, or each entry either."""
    return [float(x) if form == "decimal" or form == "mixed" and rng.random() < 0.5 else x
            for x in xs]


def outcome(call):
    try:
        value = call()
    except (LiecurvError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return type(value).__name__, repr(value)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(source=st.integers(0, SOURCES - 1), drift=st.integers(0, 4),
       pole_kind=st.sampled_from(("rational", "rational", "raw", "raw", "orthogonal",
                                  "orthogonal", "basis", "zero")),
       edge_kind=st.sampled_from(("raw", "raw", "basis", "dependent")),
       forms=st.sampled_from(FORMS),
       sign=st.sampled_from((1, -1)), seed=st.integers(0, 2 ** 32))
def test_flag_curvature_matches_the_per_call_route(source, drift, pole_kind, edge_kind, forms,
                                                   sign, seed):
    metric, rt, drifts, rational = setting(source)
    rng, n = random.Random(seed), metric.dim
    q = drifts[drift % len(drifts)]
    if pole_kind == "rational" and rational:
        scale = sign * rand_fraction(rng, 4) or Fraction(sign)
        pole = [scale * x for x in rng.choice(rational)]
    elif pole_kind == "orthogonal" and any(q):  # g(Q, y) = 0: y0 less its Q component
        y0 = [sign * x for x in rand_vector(rng, n)]
        t = metric.inner(q, y0) / metric.inner(q, q)
        pole = [a - t * b for a, b in zip(y0, q)]
    elif pole_kind in ("basis", "zero"):
        k = rng.randrange(n) if pole_kind == "basis" else -1
        pole = [sign * int(i == k) for i in range(n)]
    else:
        pole = [sign * x for x in rand_vector(rng, n)]
    if edge_kind == "dependent":
        edge = [rand_fraction(rng) * x for x in pole]
    elif edge_kind == "basis":
        edge = list(Vector.basis(n, rng.randrange(n)))
    else:
        edge = list(rand_vector(rng, n))
    q, pole, edge = (written(xs, form, rng) for xs, form in zip((q, pole, edge), forms))
    rm = build_randers(metric, q, rt.connection)
    got = outcome(lambda: flag_curvature(rm, rt, Flag(Vector(pole), Vector(edge))))
    want = outcome(lambda: flag_curvature_per_call(rm, rt, Flag(Vector(pole), Vector(edge))))
    assert got == want, (source, q, pole, edge)


# catalog cases 1, 2, 3, 6, case 4 at (-1, 0) and the drawn rotated 6-dim metric
ROOTED = [0, 1, 2, 3, 4, len(CASES) + DRAWN.index((51, 6, "rotation", "exact"))]


def irrational_root(metric, pole) -> bool:
    yy = metric.norm_sq(Vector(pole))
    return not (square(yy.numerator) and square(yy.denominator))


@pytest.mark.parametrize("source", ROOTED)
def test_irrational_root_flags_match_the_per_call_route(source):
    """Exact flags whose g(y,y) is no rational square, on a parallel drift: g(Q,y) < 0 and > 0,
    poles near -Q on a drift with g(Q,Q) = 1 - 1e-6, and poles scaled so that g(y,y) is past
    the float range, rounds to 0, or is subnormal. Each gives what the per-call route gives;
    a pole at 10^160 is an InputError and one at 10^-170 a PreconditionError."""
    metric, rt, drifts, _ = setting(source)
    rng, n = random.Random(f"rooted:{source}"), metric.dim
    q = drifts[0]
    bound = 1 - Fraction(1, 10 ** 6)  # t^2 g(Q,Q) <= bound < 1
    t = Fraction(math.isqrt(int(10 ** 18 * bound / metric.norm_sq(Vector(q)))), 10 ** 9)
    near = [t * x for x in q]
    flags = []  # (drift, pole, label)
    while len(flags) < 8:
        y = list(rand_vector(rng, n))
        if irrational_root(metric, y) and metric.inner(Vector(q), Vector(y)):
            flags += [(q, y, "raw"), (q, [-x for x in y], "raw")]
    for _ in range(3):
        e = rand_vector(rng, n)
        flags.append((near, [Fraction(a, 1000) - b for a, b in zip(e, near)], "near"))
    y = flags[0][1]
    for scale, label in ((10 ** 160, "over"), (Fraction(1, 10 ** 170), "under"),
                         (Fraction(1, 10 ** 161), "subnormal")):
        flags.append((q, [scale * x for x in y], label))
    edges = [list(rand_vector(rng, n))] + [list(Vector.basis(n, k)) for k in range(n)]
    signs = set()
    for drift, pole, label in flags:
        rm = build_randers(metric, drift, rt.connection)
        beta = metric.inner(Vector(drift), Vector(pole))
        assert rm.berwald and beta and irrational_root(metric, pole), (label, pole)
        assert label != "near" or beta < 0
        signs.add(beta > 0)
        for edge in edges:
            if not any(edge[i] * pole[j] != edge[j] * pole[i] for i in range(n) for j in range(n)):
                continue  # a basis edge along the pole
            got = outcome(lambda: flag_curvature(rm, rt, Flag(Vector(pole), Vector(edge))))
            want = outcome(lambda: flag_curvature_per_call(rm, rt,
                                                           Flag(Vector(pole), Vector(edge))))
            assert got == want, (label, pole, edge)
            expected = {"over": "InputError", "under": "PreconditionError"}.get(label, "float")
            assert label == "subnormal" or got[0] == expected, (label, got)
    assert signs == {False, True}
