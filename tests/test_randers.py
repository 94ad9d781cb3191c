import math
import random
from fractions import Fraction

import pytest

from conftest import change_basis, invert, rand_fraction, rand_invertible, rand_vector
from oracles import (flag_curvature_four_g_y, fraction_gram, g_y_hessian_oracle,
                     sectional_dense)
from test_exact_vs_float import close, semidirect_documents
from test_riemann import assert_same_outcome, decimal_vector
from liecurv import catalog
from liecurv.algebra import MetricTensor, Vector
from liecurv.errors import (DegeneratePlaneError, NonBerwaldError,
                            NormBoundError, UndefinedAtOriginError)
from liecurv.linalg import is_positive_definite, orthonormal_pair
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
    assert randers_norm(rm, Vector.basis(4, 2).scale(F(-1))) == F(1, 2)
    assert randers_norm(rm, Vector.basis(4, 0)) == 1
    assert randers_norm(rm, Vector([F(3), F(4), F(0), F(0)])) == 5


def test_randers_norm_positive_for_nonzero(rng):
    _, _, _, rm = setup(1, Z_HALF)
    for _ in range(50):
        y = rand_vector(rng, 4)
        assert randers_norm(rm, y) > 0


def test_norm_is_positively_homogeneous_only(rng):
    _, _, _, rm = setup(1, Z_HALF)
    y = Vector([F(3), F(0), F(4), F(0)])  # perfect square norm: stays exact
    assert randers_norm(rm, y) == 7
    assert randers_norm(rm, y.scale(F(3))) == 21
    # reversing direction changes the value: the metric is genuinely Finsler
    assert randers_norm(rm, y.scale(F(-1))) == 3
    y2 = Vector([F(1), F(0), F(1), F(0)])
    assert abs(randers_norm(rm, y2.scale(F(3))) - 3 * randers_norm(rm, y2)) < 1e-12


# --- fundamental tensor --------------------------------------------------------


def test_g_y_undefined_at_origin():
    _, _, _, rm = setup(1, Z_HALF)
    with pytest.raises(UndefinedAtOriginError):
        g_y(rm, Vector.zero(4), Vector.basis(4, 0), Vector.basis(4, 0))


def test_g_y_symmetric_bilinear(rng):
    _, _, _, rm = setup(1, Z_HALF)
    for _ in range(20):
        y = rand_vector(rng, 4)
        u, v, w = (rand_vector(rng, 4) for _ in range(3))
        s = F(rng.randint(-3, 3), rng.randint(1, 2))
        assert g_y(rm, y, u, v) == g_y(rm, y, v, u)
        lhs = g_y(rm, y, u.scale(s) + w, v)
        rhs = s * g_y(rm, y, u, v) + g_y(rm, y, w, v)
        assert abs(lhs - rhs) < 1e-12 if isinstance(lhs, float) else lhs == rhs


def test_g_y_zero_homogeneous_in_reference(rng):
    _, _, _, rm = setup(1, Z_HALF)
    for _ in range(20):
        y, u, v = (rand_vector(rng, 4) for _ in range(3))
        scaled = g_y(rm, y.scale(F(rng.randint(1, 9))), u, v)
        plain = g_y(rm, y, u, v)
        if isinstance(plain, float) or isinstance(scaled, float):
            assert abs(scaled - plain) < 1e-9
        else:
            assert scaled == plain


def test_g_y_recovers_norm(rng):
    _, _, _, rm = setup(1, Z_HALF)
    for _ in range(20):
        y = rand_vector(rng, 4)
        fy = randers_norm(rm, y)
        gyy = g_y(rm, y, y, y)
        if isinstance(gyy, float) or isinstance(fy, float):
            assert abs(gyy - fy * fy) < 1e-9
        else:
            assert gyy == fy * fy


def test_g_y_zero_drift_is_base_metric(rng):
    case, conn, _, _ = setup(1, Z_HALF)
    rm = build_randers(case.metric, Vector.zero(4), conn)
    for _ in range(20):
        y, u, v = (rand_vector(rng, 4) for _ in range(3))
        assert g_y(rm, y, u, v) == case.metric.inner(u, v)


def test_g_y_matches_hessian(rng):
    _, _, _, rm = setup(1, Z_HALF)
    basis = [Vector.basis(4, i) for i in range(4)]
    for _ in range(25):
        y = rand_vector(rng, 4)
        i, j = rng.randrange(4), rng.randrange(4)
        exact = g_y(rm, y, basis[i], basis[j])
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
        assert is_positive_definite([[g_y(rm, ybar, bi, bj) for bj in basis]
                                     for bi in basis]), ybar


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
            pole_c, edge_c = orthonormal_pair(g.gram, list(u), list(v))
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


def test_flag_reads_the_metric_once(monkeypatch):
    # g(Q,y) only: on an exact flag g(y,y), the plane's numerator and its Gram
    # determinant all come from riemann.plane_form's cleared pass
    _, _, rt, rm = setup(1, Z_HALF)
    calls = []
    inner = MetricTensor.inner
    monkeypatch.setattr(MetricTensor, "inner",
                        lambda self, u, v: calls.append(1) or inner(self, u, v))
    pole = Vector([F(2, 3), F(1, 3), F(2, 3), F(0)])
    edge = Vector([F(1, 3), F(2, 3), F(-2, 3), F(0)])
    assert flag_curvature(rm, rt, Flag(pole, edge)) == F(-1, 16)
    assert len(calls) == 1


def test_flag_requires_berwald():
    _, _, rt, rm = setup(1, Vector([F(0), F(1, 2), F(0), F(0)]))
    with pytest.raises(NonBerwaldError):
        flag_curvature(rm, rt, Flag(Vector.basis(4, 0), Vector.basis(4, 1)))


def test_flag_rejects_degenerate_flags():
    _, _, rt, rm = setup(1, Z_HALF)
    u = Vector([F(1), F(1), F(0), F(0)])
    with pytest.raises(DegeneratePlaneError):
        flag_curvature(rm, rt, Flag(u, u.scale(F(2))))
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
                g_y(rm, y, e, Vector.basis(4, 2)))

    pole, edge, u = (Vector(x) for x in ((2, 0, 1, 2), (0, 1, 0, 0), (1, 2, 0, 1)))
    wants = values(pole, edge, u)
    assert all(type(w) is F for w in wants)
    for s in (F(1, 10 ** k), 10.0 ** -k):
        gots = values(pole.scale(s), edge.scale(s), u.scale(s))
        for got, want in zip(gots, wants):
            assert got == want if type(s) is F else close(want, got), (s, got, want)
        with pytest.raises(DegeneratePlaneError):
            sectional(rt, case.metric, Vector([s, 0, 0, 0]), Vector([2 * s, 1e-11 * s, 0, 0]))


def test_float_flags_on_exact_tensors_match_the_fraction_path():
    """MetricTensor.inner, g_y, plane_form and flag_curvature with float vectors on exact
    tensors: contracting the float images gives the bits, compared by repr, that
    contracting the Fraction tables gives (oracles.fraction_gram). Flags orthonormalized
    as catalog.reproduce does, raw poles with irrational norms, decimal and mixed poles;
    identity metrics and the cases carried to Gram matrices with thirds."""
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
        rm = build_randers(metric, q.scale(F(1, 2 + 2 * int(metric.norm_sq(q)))), conn)
        flags = [tuple(map(Vector, orthonormal_pair(metric.gram, rand_vector(rng, 4),
                                                    rand_vector(rng, 4)))) for _ in range(8)]
        flags += [(Vector([1, 1, 1, 0]), rand_vector(rng, 4)),
                  (rand_vector(rng, 4), decimal_vector(rng, 4)),
                  (decimal_vector(rng, 4), decimal_vector(rng, 4)),
                  (Vector([F(1, 3), 0.7, 0, F(-2)]), rand_vector(rng, 4))]
        for pole, edge in flags:
            basis = [Vector.basis(4, i) for i in range(4)]
            calls = [lambda: metric.inner(pole, edge), lambda: metric.inner(edge, edge),
                     lambda: plane_form(rt, pole, edge),
                     lambda: flag_curvature(rm, rt, Flag(pole, edge))]
            calls += [lambda a=a, b=b: g_y(rm, pole, a, b)
                      for a, b in [(pole, pole), (pole, edge), (edge, edge)] + list(
                          zip(basis, basis[1:] + basis[:1]))]
            values = [call() for call in calls]
            with fraction_gram():
                want = [repr(call()) for call in calls]
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
        q = q + b.scale(rand_fraction(rng, span=3))
    norm_sq = metric.norm_sq(q)
    if norm_sq >= 1:
        q = q.scale(F(1, 2 * math.ceil(norm_sq)))
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
                pole = pole - q.scale(metric.inner(q, pole) / metric.norm_sq(q))
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
                  Flag(y, y.scale(F(5, 3))), Flag(d, d.scale(-0.5)),
                  Flag(y, Vector.zero(n)), Flag(d, Vector([0.0] * n))]
        # a basis field that is not parallel (a flat algebra has none), scaled
        # into g(Q,Q) < 1
        i = next((i for i in range(n) if any(
            not conn.derivative(Vector.basis(n, m), Vector.basis(n, i)).is_zero()
            for m in range(n))), None)
        bent = [] if i is None else [build_randers(metric, Vector.basis(n, i).scale(
            F(1, 2 * math.ceil(metric.gram[i][i]))), conn)]
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
