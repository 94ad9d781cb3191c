import decimal
import math
import random
import re
from fractions import Fraction

import pytest

from conftest import change_basis, invert, rand_fraction, rand_invertible, rand_vector
from oracles import (flag_curvature_four_g_y, fraction_forms, g_y_hessian_oracle,
                     g_y_pointwise, sectional_dense, vadd, vscale, vsub)
from test_exact_vs_float import close, semidirect_documents
from test_riemann import assert_same_outcome, decimal_vector
from liecurv import catalog, linalg, randers
from liecurv.algebra import MetricTensor, Vector
from liecurv.errors import (DegeneratePlaneError, InputError, NonBerwaldError,
                            NormBoundError, UndefinedAtOriginError)
from liecurv.linalg import orthonormal_pair
from liecurv.randers import (Flag, build_randers, flag_curvature, g_y,
                             parallel_fields, randers_norm)
from liecurv.riemann import (curvature_apply, levi_civita, plane_form, riemann_tensor,
                             sectional)
from liecurv.scalars import is_exact_zero, sqrt_scalar

F = Fraction

Z_HALF = Vector([F(0), F(0), F(1, 2), F(0)])


def setup(case_id, drift, **params):
    case = catalog.get_case(case_id, **params)
    conn = levi_civita(case.algebra, case.metric)
    rm = build_randers(case.metric, drift, conn)
    return case, conn, riemann_tensor(conn), rm


# --- construction ------------------------------------------------------------


def test_parallel_drift_is_berwald():
    _, _, _, rm = setup(1, Z_HALF)
    assert rm.berwald
    assert rm.drift_norm_sq == F(1, 4)
    assert not rm.drift.is_zero()


def test_nonparallel_drift_is_not_berwald():
    _, _, _, rm = setup(1, Vector([F(0), F(1, 2), F(0), F(0)]))
    assert not rm.berwald


def test_zero_drift_is_riemannian():
    _, _, _, rm = setup(1, Vector.zero(4))
    assert rm.drift.is_zero() and rm.berwald


def test_norm_bound_is_strict():
    case = catalog.get_case(1)
    conn = levi_civita(case.algebra, case.metric)
    with pytest.raises(NormBoundError):
        build_randers(case.metric, Vector([F(0), F(0), F(1), F(0)]), conn)
    with pytest.raises(NormBoundError):
        build_randers(case.metric, Vector([F(0), F(0), F(3, 2), F(0)]), conn)


# --- norm --------------------------------------------------------------------


def test_randers_norm_values():
    _, _, _, rm = setup(1, Z_HALF)
    assert randers_norm(rm, Vector.basis(4, 2)) == F(3, 2)
    assert randers_norm(rm, vscale(Vector.basis(4, 2), F(-1))) == F(1, 2)
    assert randers_norm(rm, Vector.basis(4, 0)) == 1
    assert randers_norm(rm, Vector([F(3), F(4), F(0), F(0)])) == 5


def test_randers_norm_at_the_zero_vector_is_zero():
    """F(0) = 0 in the zero vector's own arithmetic: Fraction(0) for exact coefficients and
    0.0 for float ones, whether the metric and drift are exact or floating."""
    case, _, _, rm = setup(1, Z_HALF)
    gram = MetricTensor([[float(x) for x in row] for row in case.metric.gram])
    floating = build_randers(gram, Vector([0.0, 0.0, 0.5, 0.0]), levi_civita(case.algebra, gram))
    for metric in (rm, floating):
        for zero in (Vector.zero(4), [F(0)] * 4, [0] * 4):
            value = randers_norm(metric, zero)
            assert value == 0 and value.__class__ is F
        value = randers_norm(metric, [0.0] * 4)
        assert value == 0 and value.__class__ is float


def test_randers_norm_positive_for_nonzero(rng):
    _, _, _, rm = setup(1, Z_HALF)
    for _ in range(50):
        y = rand_vector(rng, 4)
        assert randers_norm(rm, y) > 0


def test_norm_is_positively_homogeneous_only(rng):
    _, _, _, rm = setup(1, Z_HALF)
    y = Vector([F(3), F(0), F(4), F(0)])  # perfect square norm: stays exact
    assert randers_norm(rm, y) == 7
    assert randers_norm(rm, vscale(y, F(3))) == 21
    # reversing direction changes the value: the metric is genuinely Finsler
    assert randers_norm(rm, vscale(y, F(-1))) == 3
    y2 = Vector([F(1), F(0), F(1), F(0)])
    assert abs(randers_norm(rm, vscale(y2, F(3))) - 3 * randers_norm(rm, y2)) < 1e-12


# --- fundamental tensor --------------------------------------------------------


def test_g_y_undefined_at_origin():
    _, _, _, rm = setup(1, Z_HALF)
    with pytest.raises(UndefinedAtOriginError):
        g_y(rm, Vector.zero(4), [(Vector.basis(4, 0), Vector.basis(4, 0))])


def test_g_y_symmetric_bilinear(rng):
    _, _, _, rm = setup(1, Z_HALF)
    for _ in range(20):
        y = rand_vector(rng, 4)
        u, v, w = (rand_vector(rng, 4) for _ in range(3))
        s = F(rng.randint(-3, 3), rng.randint(1, 2))
        uv, vu, lhs, wv = g_y(rm, y, [(u, v), (v, u), (vadd(vscale(u, s), w), v), (w, v)])
        assert uv == vu
        rhs = s * uv + wv
        assert abs(lhs - rhs) < 1e-12 if isinstance(lhs, float) else lhs == rhs


def test_g_y_zero_homogeneous_in_reference(rng):
    _, _, _, rm = setup(1, Z_HALF)
    for _ in range(20):
        y, u, v = (rand_vector(rng, 4) for _ in range(3))
        (scaled,) = g_y(rm, vscale(y, F(rng.randint(1, 9))), [(u, v)])
        (plain,) = g_y(rm, y, [(u, v)])
        if isinstance(plain, float) or isinstance(scaled, float):
            assert abs(scaled - plain) < 1e-9
        else:
            assert scaled == plain


def test_g_y_recovers_norm(rng):
    _, _, _, rm = setup(1, Z_HALF)
    for _ in range(20):
        y = rand_vector(rng, 4)
        fy = randers_norm(rm, y)
        (gyy,) = g_y(rm, y, [(y, y)])
        if isinstance(gyy, float) or isinstance(fy, float):
            assert abs(gyy - fy * fy) < 1e-9
        else:
            assert gyy == fy * fy


def test_g_y_zero_drift_is_base_metric(rng):
    case, conn, _, _ = setup(1, Z_HALF)
    rm = build_randers(case.metric, Vector.zero(4), conn)
    for _ in range(20):
        y, u, v = (rand_vector(rng, 4) for _ in range(3))
        assert g_y(rm, y, [(u, v)]) == [case.metric.inner(u, v)]
    # no term needs sqrt(g(y,y)), so none is taken: these two roots would be refused
    basis = [Vector.basis(4, i) for i in range(4)]
    for big in (F(1, 10 ** 200), F(10 ** 200)):
        got = g_y(rm, Vector([big, big, 0, 0]), [(bi, bj) for bi in basis for bj in basis])
        assert got == [int(i == j) for i in range(4) for j in range(4)]


def test_g_y_matches_hessian(rng):
    _, _, _, rm = setup(1, Z_HALF)
    basis = [Vector.basis(4, i) for i in range(4)]
    for _ in range(25):
        y = rand_vector(rng, 4)
        i, j = rng.randrange(4), rng.randrange(4)
        (exact,) = g_y(rm, y, [(basis[i], basis[j])])
        approx = g_y_hessian_oracle(rm, y, basis[i], basis[j])
        assert abs(float(exact) - approx) < 1e-6


def test_positivity_report():
    # g(Q,Q) < 1 makes [g_y(e_i, e_j)] positive definite at every ybar != 0
    _, _, _, rm = setup(1, Z_HALF)
    rng = random.Random(3)
    basis = [Vector.basis(4, i) for i in range(4)]
    for _ in range(40):
        ybar = Vector([F(0)] * 4)
        while ybar.is_zero():
            ybar = Vector(F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4))
        values = g_y(rm, ybar, [(bi, bj) for bi in basis for bj in basis])
        assert linalg.positive_inverse([values[i:i + 4] for i in range(0, 16, 4)]) is not None, ybar


def mixed_vector(rng, dim):
    """Floats and nonzero exact entries side by side, so no route counts it as float-only."""
    return Vector(float(rand_fraction(rng)) if i % 2 else rand_fraction(rng) or F(1)
                  for i in range(dim))


def test_g_y_matches_pointwise_oracle():
    """The batched g_y against g_y_pointwise, which builds every pair from g(y,y) and six
    MetricTensor.inner products, on exact, float and mixed poles and drifts, exact and
    floating tensors, basis and general pairs. A value has the oracle's type: an exact
    one is the same rational of the same type, and a float one the same bits. A zero pole
    and a float pole too small for g(y,y) raise what the oracle raises."""
    rng = random.Random(20131017)
    kinds = {"exact": 0, "basis_bits": 0, "general_bits": 0, "raised": 0}
    for label, conn, metric, _, basis in differential_setups():
        n = metric.dim
        q = random_drift(rng, metric, basis)
        drifts = [Vector.zero(n), q, Vector(float(x) for x in q), random_drift(
            rng, metric, [vscale(mixed_vector(rng, n), F(1, 4 + 4 * n))])]
        basis_pairs = [(Vector.basis(n, i), Vector.basis(n, j))
                       for i in range(n) for j in range(n)]
        for k in range(12):
            rm = build_randers(metric, drifts[k % 4], conn)
            pole = (rand_vector, decimal_vector, mixed_vector)[k % 3](rng, n)
            edge = (rand_vector, decimal_vector, mixed_vector)[(k // 3) % 3](rng, n)
            pairs = basis_pairs + [(pole, pole), (pole, edge), (edge, edge), (edge, pole),
                                   (rand_vector(rng, n), decimal_vector(rng, n)),
                                   (mixed_vector(rng, n), rand_vector(rng, n))]
            where = (label, list(rm.drift), list(pole))
            try:
                wants = [g_y_pointwise(rm, pole, u, v) for u, v in pairs]
            except UndefinedAtOriginError as exc:
                with pytest.raises(UndefinedAtOriginError, match=re.escape(str(exc))):
                    g_y(rm, pole, pairs)
                kinds["raised"] += 1
                continue
            got = g_y(rm, pole, pairs)
            assert len(got) == len(pairs), where
            for m, (value, want) in enumerate(zip(got, wants)):
                if isinstance(want, float):
                    assert repr(value) == repr(want), (where, m)
                    kinds["basis_bits" if m < len(basis_pairs) else "general_bits"] += 1
                else:
                    assert type(value) is type(want) and value == want, (where, m)
                    kinds["exact"] += 1
        rm = build_randers(metric, drifts[1], conn)
        for pole in (Vector.zero(n), Vector([1e-170] + [0.0] * (n - 1))):
            with pytest.raises(UndefinedAtOriginError) as raised:
                g_y(rm, pole, basis_pairs)
            with pytest.raises(UndefinedAtOriginError) as oracle:
                g_y_pointwise(rm, pole, *basis_pairs[0])
            assert str(raised.value) == str(oracle.value)
            kinds["raised"] += 1
    assert min(kinds.values()) >= 20, kinds


# --- flag curvature -------------------------------------------------------------


def test_flag_value_on_orthonormal_sample():
    # pole (2/3, 1/3, 2/3, 0), edge (1/3, 2/3, -2/3, 0), drift Z/2:
    # Riemannian numerator -1/9, correction (1 + g(Q,pole))^2 = 16/9
    _, _, rt, rm = setup(1, Z_HALF)
    pole = Vector([F(2, 3), F(1, 3), F(2, 3), F(0)])
    edge = Vector([F(1, 3), F(2, 3), F(-2, 3), F(0)])
    assert flag_curvature(rm, rt, Flag(pole, edge)) == F(-1, 16)


def test_flag_drift_orthogonal_pole_reduces_to_sectional():
    _, _, rt, rm = setup(1, Z_HALF)
    pole, edge = Vector.basis(4, 0), Vector.basis(4, 1)
    assert flag_curvature(rm, rt, Flag(pole, edge)) == -1


def test_flag_berwald_correction_identity(rng):
    # for g-orthonormal (pole, edge) and parallel Q:
    # K_flag = g(R(edge,pole)pole, edge) / (1 + g(Q,pole))^2
    case, _, rt, rm = setup(1, Z_HALF)
    g = case.metric
    hits = 0
    while hits < 15:
        u, v = rand_vector(rng, 4), rand_vector(rng, 4)
        try:
            pole_c, edge_c = orthonormal_pair(g, u, v)
        except DegeneratePlaneError:
            continue
        hits += 1
        pole, edge = Vector(pole_c), Vector(edge_c)
        num = g.inner(curvature_apply(rt, edge, pole, pole), edge)
        want = num / (1 + g.inner(rm.drift, pole)) ** 2
        got = flag_curvature(rm, rt, Flag(pole, edge))
        if isinstance(got, float) or isinstance(want, float):
            assert abs(got - want) < 1e-9
        else:
            assert got == want


def test_flag_near_minus_drift_keeps_its_digits():
    """A pole near -Q with g(Q,y) < 0: sqrt(g(y,y)) + g(Q,y) cancels, and F and the flag
    curvature came out with relative errors of 1.3e-2 and 9.6e-6 at these points. Both
    must agree with a 60-digit Decimal evaluation of the same exact inputs to 1e-12."""
    case, _, rt, _ = setup(1, Z_HALF)
    g = case.metric

    def dec(x):
        return decimal.Decimal(x.numerator) / x.denominator

    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for q, eps in ((1 - F(1, 10 ** 8), F(1, 10 ** 4)), (1 - F(1, 10 ** 6), F(1, 10 ** 3))):
            rm = build_randers(g, Vector([0, 0, q, 0]), rt.connection)
            pole, edge = Vector([eps, 0, -1, 0]), Vector([0, 1, 0, 0])
            yy, beta = g.norm_sq(pole), g.inner(rm.drift, pole)
            k = sectional(rt, g, pole, edge)[1]
            assert beta < 0 and type(yy) is type(k) is F
            f = dec(yy).sqrt() + dec(beta)
            for got, want in ((randers_norm(rm, pole), f),
                              (flag_curvature(rm, rt, Flag(pole, edge)), dec(yy) * dec(k) / f ** 2)):
                assert abs(decimal.Decimal(got) / want - 1) <= decimal.Decimal("1e-12"), (q, got)
    # a beta < 0 pole of rational norm stays exact: F = 1 - 1/3
    rm = build_randers(g, Z_HALF, rt.connection)
    pole, edge = Vector([F(2, 3), F(1, 3), F(-2, 3), 0]), Vector([F(1, 3), F(2, 3), F(2, 3), 0])
    assert randers_norm(rm, pole) == F(2, 3)
    got = flag_curvature(rm, rt, Flag(pole, edge))
    assert type(got) is F and got == sectional(rt, g, pole, edge)[1] * F(9, 4)


def test_flag_reads_the_metric_once(monkeypatch):
    # an exact flag reads the cleared tables once, in ints: plane_sums gives g(y,y), the
    # plane's numerator and its Gram determinant, one bilinear gives g(Q,y), and none of
    # MetricTensor.inner, linalg.form or linalg.contract runs
    _, _, rt, rm = setup(1, Z_HALF)
    calls = []
    inner, form, contract = MetricTensor.inner, linalg.form, linalg.contract
    monkeypatch.setattr(MetricTensor, "inner",
                        lambda self, u, v: calls.append("inner") or inner(self, u, v))
    monkeypatch.setattr(linalg, "form", lambda *a: calls.append("form") or form(*a))
    monkeypatch.setattr(linalg, "contract", lambda *a: calls.append("contract") or contract(*a))
    pole = Vector([F(2, 3), F(1, 3), F(2, 3), F(0)])
    edge = Vector([F(1, 3), F(2, 3), F(-2, 3), F(0)])
    assert flag_curvature(rm, rt, Flag(pole, edge)) == F(-1, 16)
    assert calls == []


def test_an_irrational_root_flag_finishes_in_ints(monkeypatch):
    # an exact flag whose g(y,y) is no rational square forms each float from plane_sums' ints,
    # one int true division apiece: neither _randers_f nor sqrt_scalar runs, and randers
    # builds no Fraction
    _, _, rt, rm = setup(1, Z_HALF)
    calls = []
    for name in ("_randers_f", "sqrt_scalar", "Fraction"):
        real = getattr(randers, name)
        monkeypatch.setattr(randers, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for pole in ([1, 1, 1, 0], [1, 1, -1, 0]):  # g(y,y) = 3, beta = 1/2 and -1/2
        assert type(flag_curvature(rm, rt, Flag(Vector(pole), Vector.basis(4, 1)))) is float
    assert calls == []


N = 13 * 10 ** 153  # g(y,y) of (N, 0, N // 7, 0) is 1.72e308, inside the float range


@pytest.mark.parametrize("case_id, drift, pole, edge", [
    (1, [0, 0, F(1, 3), 0], [N, 0, N // 7, 0], [0, 1, 0, 0]),  # F^2 past the float range
    (2, [0, 0, 0, F(1, 3)], [N, 0, 0, N // 7], [0, 1, 0, 0]),
    (3, [0, 0, F(1, 3), F(1, 5)], [N, 0, N // 7, 0], [0, 1, 0, 0]),
    (6, [0, 0, F(-1, 3), 0], [0, N, N // 7, 0], [0, 0, 0, 1]),  # g(y,y) K_g past it
])
@pytest.mark.parametrize("decimal_part", [None, "pole", "drift"])
def test_flag_refuses_values_past_the_float_range(case_id, drift, pole, edge, decimal_part):
    """Near the top of the float range F^2, or g(y,y) K_g, leaves it: the flag is refused as a
    non-finite result, where it came back as -0.0, or as a raw OverflowError. The value is
    homogeneous in the pole, and 1/1000 of the pole gives it."""
    def value(scale):
        q, y = ([float(x) for x in xs] if decimal_part == part else xs
                for xs, part in ((drift, "drift"), ([x // scale for x in pole], "pole")))
        _, _, rt, rm = setup(case_id, Vector(q))
        return flag_curvature(rm, rt, Flag(Vector(y), Vector(edge)))

    with pytest.raises(InputError, match=r"^floating result -?inf is not finite"):
        value(1)
    got = value(1000)
    assert type(got) is float and math.isfinite(got) and got < 0
    if case_id == 1:
        assert got == pytest.approx(-0.893750301684039, rel=1e-12)


def test_flag_requires_berwald():
    _, _, rt, rm = setup(1, Vector([F(0), F(1, 2), F(0), F(0)]))
    with pytest.raises(NonBerwaldError):
        flag_curvature(rm, rt, Flag(Vector.basis(4, 0), Vector.basis(4, 1)))


def test_flag_rejects_degenerate_flags():
    _, _, rt, rm = setup(1, Z_HALF)
    u = Vector([F(1), F(1), F(0), F(0)])
    with pytest.raises(DegeneratePlaneError):
        flag_curvature(rm, rt, Flag(u, vscale(u, F(2))))
    with pytest.raises(UndefinedAtOriginError):
        flag_curvature(rm, rt, Flag(Vector.zero(4), u))


@pytest.mark.parametrize("k", range(3, 9))
def test_exact_and_float_agree_at_every_scale(k):
    """A plane is judged degenerate by its angle, not its size: vectors 10^-k
    long give, exactly and in floats, the values they give at length 1, for
    sectional, flag curvature and g_y, while a float plane whose angle is under
    the tolerance stays degenerate at that scale."""
    case, _, rt, rm = setup(1, Z_HALF)

    def values(y, e, u):
        return (sectional(rt, case.metric, y, e)[1], sectional(rt, case.metric, u, e)[1],
                flag_curvature(rm, rt, Flag(y, e)), flag_curvature(rm, rt, Flag(u, y)),
                *g_y(rm, y, [(e, Vector.basis(4, 2))]))

    pole, edge, u = (Vector(x) for x in ((2, 0, 1, 2), (0, 1, 0, 0), (1, 2, 0, 1)))
    wants = values(pole, edge, u)
    assert all(type(w) is F for w in wants)
    for s in (F(1, 10 ** k), 10.0 ** -k):
        gots = values(vscale(pole, s), vscale(edge, s), vscale(u, s))
        for got, want in zip(gots, wants):
            assert got == want if type(s) is F else close(want, got), (s, got, want)
        with pytest.raises(DegeneratePlaneError):
            sectional(rt, case.metric, Vector([s, 0, 0, 0]), Vector([2 * s, 1e-11 * s, 0, 0]))


def test_float_flags_on_exact_tensors_match_the_fraction_path():
    """MetricTensor.inner, g_y, plane_form and flag_curvature with float vectors on exact
    tensors: linalg.form, each float coefficient meeting an entry's float, gives the bits,
    compared by repr, that contracting the Fraction tables gives (oracles.fraction_forms).
    Flags orthonormalized as catalog.reproduce does, raw poles with irrational norms, decimal
    and mixed poles; identity metrics and the cases carried to Gram matrices with thirds."""
    rng = random.Random(20130525)
    setups = [(catalog.get_case(i, **params), None) for i, params in
              ((1, {}), (6, {}), (4, {"alpha": F(-1), "beta": F(0)}))]
    setups += [(case, [[x / 3 for x in row] for row in rand_invertible(rng, 4)])
               for case, _ in setups]
    floats = 0
    for case, rows in setups:
        alg, metric = case.algebra, case.metric
        if rows is not None:
            alg, metric = change_basis(alg, metric, rows)
            assert any(x.denominator % 3 == 0 for row in metric.gram for x in row)
        conn = levi_civita(alg, metric)
        rt = riemann_tensor(conn)
        (q,) = parallel_fields(conn)
        rm = build_randers(metric, vscale(q, F(1, 2 + 2 * int(metric.norm_sq(q)))), conn)
        flags = [tuple(map(Vector, orthonormal_pair(metric, rand_vector(rng, 4),
                                                    rand_vector(rng, 4)))) for _ in range(8)]
        flags += [(Vector([1, 1, 1, 0]), rand_vector(rng, 4)),
                  (rand_vector(rng, 4), decimal_vector(rng, 4)),
                  (decimal_vector(rng, 4), decimal_vector(rng, 4)),
                  (Vector([F(1, 3), 0.7, 0, F(-2)]), rand_vector(rng, 4))]
        for pole, edge in flags:
            basis = [Vector.basis(4, i) for i in range(4)]

            def run():
                return [metric.inner(pole, edge), metric.inner(edge, edge),
                        plane_form(rt, pole, edge), flag_curvature(rm, rt, Flag(pole, edge)),
                        *g_y(rm, pole, [(pole, pole), (pole, edge), (edge, edge)]
                             + list(zip(basis, basis[1:] + basis[:1])))]
            values = run()
            with fraction_forms():
                want = [repr(x) for x in run()]
            assert [repr(x) for x in values] == want, (pole, edge)
            floats += isinstance(values[3], float)
    assert floats >= 60, floats


def test_flag_zero_drift_equals_sectional(rng):
    case, conn, rt, _ = setup(1, Z_HALF)
    rm = build_randers(case.metric, Vector.zero(4), conn)
    for _ in range(15):
        u, v = rand_vector(rng, 4), rand_vector(rng, 4)
        try:
            _, k_riem = sectional(rt, case.metric, u, v)
        except DegeneratePlaneError:
            continue
        assert flag_curvature(rm, rt, Flag(u, v)) == k_riem


# Integer vectors with an integer Euclidean norm (the catalog metrics are the
# identity, so these poles keep sqrt(g(y,y)) rational).
PYTHAGOREAN = ((1, 2, 2, 0), (2, 3, 6, 0), (1, 4, 8, 0), (2, 4, 5, 6),
               (1, 1, 1, 1), (2, 2, 4, 5))


def oracle_setups():
    """(label, connection, metric, curvature tensor, parallel basis, coords)
    for the five flag cases and for cases 1 and 6 carried to a non-identity
    Gram matrix. coords maps catalog-basis coordinates to the setup's basis."""
    out = []
    for case_id, params in ((1, {}), (2, {}), (3, {}), (6, {}),
                            (4, {"alpha": F(-1), "beta": F(0)})):
        case = catalog.get_case(case_id, **params)
        out.append((f"case {case_id}", case.algebra, case.metric, lambda x: x))
    rng = random.Random(4040)
    for case_id in (1, 6):
        case = catalog.get_case(case_id)
        while True:
            rows = rand_invertible(rng, 4)
            alg, metric = change_basis(case.algebra, case.metric, rows)
            if any(metric.gram[i][j] != int(i == j)
                   for i in range(4) for j in range(4)):
                break
        back = invert([[rows[j][i] for j in range(4)] for i in range(4)])
        out.append((f"case {case_id} carried", alg, metric,
                    lambda x, m=back: Vector(sum(m[i][j] * x[j] for j in range(4))
                                             for i in range(4))))
    for label, alg, metric, coords in out:
        conn = levi_civita(alg, metric)
        yield label, conn, metric, riemann_tensor(conn), parallel_fields(conn), coords


def random_drift(rng, metric, basis):
    """A random combination of the parallel basis, scaled into g(Q,Q) < 1."""
    q = Vector.zero(metric.dim)
    for b in basis:
        q = vadd(q, vscale(b, rand_fraction(rng, span=3)))
    norm_sq = metric.norm_sq(q)
    if norm_sq >= 1:
        q = vscale(q, F(1, 2 * math.ceil(norm_sq)))
    return q


def test_flag_matches_four_g_y_oracle():
    """The Berwald identity against the definition in the fundamental tensor.

    An exact oracle value must come back as the identical Fraction; floats
    must agree within 1e-9 relative to max(1, |oracle|). The new value may be
    exact where the oracle's is floating only when g(Q, pole) is an exact
    zero: the oracle's g_y(y,e,e) then takes an irrational root that cancels
    in its ratio, and the two must agree within 1e-12.
    """
    rng = random.Random(5151)
    kinds = {"exact": 0, "float": 0, "exact_vs_float": 0}
    flags = 0
    for label, conn, metric, rt, basis, coords in oracle_setups():
        assert basis, label
        drifts = [Vector.zero(4)] + [random_drift(rng, metric, basis) for _ in range(3)]
        randers = [build_randers(metric, q, conn) for q in drifts]
        assert all(rm.berwald for rm in randers), label
        for n in range(80):
            q, rm = drifts[n % 4], randers[n % 4]
            shape = (n // 4) % 3
            if shape == 0:
                base = list(rng.choice(PYTHAGOREAN))
                rng.shuffle(base)
                pole = coords(Vector(F(rng.choice((-1, 1)) * x) for x in base))
            else:
                pole = rand_vector(rng, 4)
            if shape == 2 and not q.is_zero():
                # project the pole to g(Q, pole) = 0
                pole = vsub(pole, vscale(q, metric.inner(q, pole) / metric.norm_sq(q)))
                if pole.is_zero():
                    continue
            edge = rand_vector(rng, 4)
            flag = Flag(pole, edge)
            where = (label, n, list(q), list(pole), list(edge))
            try:
                want = flag_curvature_four_g_y(rm, rt, flag)
            except DegeneratePlaneError:
                with pytest.raises(DegeneratePlaneError):
                    flag_curvature(rm, rt, flag)
                continue
            got = flag_curvature(rm, rt, flag)
            flags += 1
            if isinstance(want, F):
                assert isinstance(got, F) and got == want, where
                kinds["exact"] += 1
            elif isinstance(got, F):
                assert metric.inner(q, pole) == 0, where
                assert abs(got - want) <= 1e-12, where
                kinds["exact_vs_float"] += 1
            else:
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), where
                kinds["float"] += 1
    assert flags >= 500
    assert all(kinds.values()), kinds


def flag_from_sectional_dense(rm, rt, flag):
    """g(y,y) K_g / F(y)^2 with K_g from the dense sectional oracle, or K_g
    itself when g(Q,y) is an exact zero: the rescaling flag_curvature makes."""
    g = rm.base
    _, k = sectional_dense(rt, g, flag.pole, flag.edge)
    yy, beta = g.norm_sq(flag.pole), g.inner(rm.drift, flag.pole)
    if is_exact_zero(beta):
        return k
    return yy * k / (yy + 2 * beta * sqrt_scalar(yy) + beta ** 2)


def differential_setups():
    """oracle_setups, then R x_D R^(n-1) documents of dims 3-5 with parallel
    fields, exact and floating: (label, connection, metric, tensor, basis)."""
    for label, conn, metric, rt, basis, _ in oracle_setups():
        yield label, conn, metric, rt, basis
    rng = random.Random(20130521)
    found = 0
    while found < 6:
        for doc in semidirect_documents(rng, 3 + found % 3):
            conn = levi_civita(doc.algebra(), doc.metric)
            basis = parallel_fields(conn)
            if basis:
                found += 1
                yield (f"dim {doc.dim}", conn, doc.metric, riemann_tensor(conn), basis)


def test_flag_matches_dense_and_four_g_y_oracles():
    """flag_curvature against the dense sectional oracle, rescaled as before,
    and against the definition in g_y. Rational, decimal (0.0 entries
    included) and mixed flags, zero and nonzero drifts, identity and
    non-identity metrics, exact and floating tensors. A zero pole, a
    dependent edge and a zero edge raise what the g_y oracle raises, with the
    same message, and so does a non-Berwald drift or a tensor of another
    dimension, in that order of precedence."""
    rng = random.Random(20130522)
    kinds = {"exact": 0, "float": 0, "raised": 0}
    other_doc, _ = semidirect_documents(rng, 2)
    other_dim = riemann_tensor(levi_civita(other_doc.algebra(), other_doc.metric))
    for label, conn, metric, rt, basis in differential_setups():
        n = rt.dim
        drifts = [Vector.zero(n)] + [random_drift(rng, metric, basis) for _ in range(2)]
        randers = [build_randers(metric, q, conn) for q in drifts]
        flags = []
        for _ in range(8):
            flags.append(Flag(rand_vector(rng, n), rand_vector(rng, n)))
            flags.append(Flag(decimal_vector(rng, n), decimal_vector(rng, n)))
            flags.append(Flag(decimal_vector(rng, n), rand_vector(rng, n)))
        y, d = rand_vector(rng, n), decimal_vector(rng, n)
        flags += [Flag(Vector.zero(n), y), Flag(Vector([0.0] * n), d),
                  Flag(y, vscale(y, F(5, 3))), Flag(d, vscale(d, -0.5)),
                  Flag(y, Vector.zero(n)), Flag(d, Vector([0.0] * n))]
        # a basis field that is not parallel (a flat algebra has none), scaled
        # into g(Q,Q) < 1
        i = next((i for i in range(n) if any(
            not conn.derivative(Vector.basis(n, m), Vector.basis(n, i)).is_zero()
            for m in range(n))), None)
        bent = [] if i is None else [build_randers(metric, vscale(
            Vector.basis(n, i), F(1, 2 * math.ceil(metric.gram[i][i]))), conn)]
        assert not any(rm.berwald for rm in bent), label
        for rm, tensor in [(b, t) for b in bent for t in (rt, other_dim)] + [
                (randers[0], other_dim)]:
            for flag in (flags[0], flags[-6]):
                assert_same_outcome(lambda: flag_curvature(rm, tensor, flag),
                                    lambda: flag_curvature_four_g_y(rm, tensor, flag),
                                    (label, "precedence"))
        for k, flag in enumerate(flags):
            rm = randers[k % len(randers)]
            where = (label, list(rm.drift), list(flag.pole), list(flag.edge))
            # the g_y oracle decides what is raised; the dense one gives the value
            got = assert_same_outcome(lambda: flag_curvature(rm, rt, flag),
                                      lambda: (flag_curvature_four_g_y(rm, rt, flag),
                                               flag_from_sectional_dense(rm, rt, flag))[1],
                                      where)
            if got is None:
                kinds["raised"] += 1
                continue
            want = flag_curvature_four_g_y(rm, rt, flag)
            if isinstance(want, F):
                assert type(got) is F and got == want, where
            elif isinstance(got, F):  # g(Q,y) = 0: the oracle's irrational root cancels
                assert is_exact_zero(metric.inner(rm.drift, flag.pole)), where
                assert abs(got - want) <= 1e-12, where
            else:
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), where
            kinds["float" if isinstance(got, float) else "exact"] += 1
    assert min(kinds.values()) >= 40, kinds


def test_parallel_fields_match_connection(rng):
    # every returned field really is parallel; random directions too
    for case_id in (1, 2, 3, 6):
        case = catalog.get_case(case_id)
        conn = levi_civita(case.algebra, case.metric)
        for q in parallel_fields(conn):
            for _ in range(5):
                u = rand_vector(rng, 4)
                assert conn.derivative(u, q).is_zero()


def test_g_y_at_the_pole_is_f_squared_near_minus_q():
    """g_y(y, y), y the pole object, an equal copy or a list, is F(y)^2 from _randers_f. At
    two poles near -Q on case 1, drift (0, 0, 1 - 10^-k, 0) and pole (10^-e, 0, -1, 0) for
    (k, e) = (8, 4) and (6, 3), the term-by-term sum cancelled to a relative error of 0.97 and
    9e-5; now it is within 4 ulps of F^2 = (sqrt(g(y,y)) + g(Q,y))^2 to 60 digits. The same
    pole as decimals carries the rounding of g(y,y) = 1 + 10^-8 into F, so there the bound is
    10^-7, relative. A zero g(Q,y) gives g(y,y) itself: the same Fraction, even where its root
    is irrational, and a float copy of an exact pole gives a float."""
    case = catalog.get_case(1)

    def f_squared(drift, pole):
        yy, beta = (sum(F(a) * F(b) for a, b in zip(x, pole)) for x in (pole, drift))
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            root = (decimal.Decimal(yy.numerator) / yy.denominator).sqrt()
            return (root + decimal.Decimal(beta.numerator) / beta.denominator) ** 2

    for k, e in ((8, 4), (6, 3)):
        for exact in (True, False):
            q, eps = (1 - F(1, 10 ** k), F(1, 10 ** e)) if exact else (1 - 10.0 ** -k,
                                                                         10.0 ** -e)
            drift, pole = Vector([0, 0, q, 0]), Vector([eps, 0, -1 if exact else -1.0, 0])
            rm = build_randers(case.metric, drift, case.connection)
            want = f_squared(drift, pole)
            # the pole object, an equal copy, and the pole as a list (two Vectors in the pair)
            for y in (pole, Vector(list(pole)), list(pole)):
                (got,) = g_y(rm, pole, [(y, y)])
                error = abs(decimal.Decimal(got) - want)
                if exact:
                    assert error <= 4 * decimal.Decimal(math.ulp(float(want))), (k, y, got, want)
                else:
                    assert error <= want / 10 ** 7, (k, y, got, want)
    rm = build_randers(case.metric, Vector([0, 0, F(1, 2), 0]), case.connection)
    pole = Vector([1, F(1, 3), 0, 1])  # g(y,y) = 19/9, its root irrational; g(Q,y) = 0
    got = g_y(rm, pole, [(pole, pole), (pole, Vector([1, F(1, 3), 0, 1]))])
    assert got[0] == F(19, 9) and type(got[0]) is F
    assert got[1] == F(19, 9)
    pole, copy = Vector([1, 0, 0, 1]), Vector([1.0, 0.0, 0.0, 1.0])  # a float copy stays float
    got = g_y(rm, pole, [(pole, pole), (copy, copy)])
    assert got == [2, 2.0] and [type(x) for x in got] == [F, float]


def test_float_poles_on_case_1_make_no_contract_call(monkeypatch):
    """On case 1 with a float pole (orthonormal_pair's output when a norm is irrational), g_y,
    MetricTensor.inner, plane_form and flag_curvature sum the live entries of g and op in
    linalg.form: no linalg.contract call, and the bits of the contraction."""
    case = catalog.get_case(1)
    rm = build_randers(case.metric, Vector([0, 0, F(1, 3), 0]), case.connection)
    rt = case.curvature
    pole, edge = map(Vector, orthonormal_pair(case.metric, Vector([1, 2, 0, 1]),
                                              Vector([0, 1, F(1, 2), 3])))
    assert all(type(x) is float for x in (*pole, *edge))
    r = curvature_apply(rt, edge, pole, pole)

    def run():
        return [*g_y(rm, pole, [(pole, pole), (pole, edge), (edge, edge), (r, edge)]),
                case.metric.inner(pole, edge), case.metric.inner(rm.drift, pole),
                *plane_form(rt, pole, edge), flag_curvature(rm, rt, Flag(pole, edge))]
    with fraction_forms():
        want = [repr(x) for x in run()]
    calls = []
    monkeypatch.setattr(linalg, "contract", lambda *args: calls.append(args))
    got = run()
    assert calls == []
    assert [repr(x) for x in got] == want
