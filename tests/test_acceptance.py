"""Acceptance suite: one test per published acceptance criterion.

Each criterion gets exactly one pass/fail line under pytest -v. Criterion 1
checks the published scalar curvature constants under one rule: a printed
constant must match the paper's own sectional formula summed over the
ordered orthonormal coordinate planes, or be annotated as a misprint in the
fixture. Case 6 prints -7/2, while its own sectional formula sums to -5/2;
the fixture annotates that constant with a hand derivation, and the
discrepancy surfaces in `liecurv report --case 6`.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import rand_fraction, rand_pair
from oracles import compatibility_residual, g_y_hessian_oracle, torsion, vadd, vscale
from liecurv import catalog, exprs, linalg
from liecurv.algebra import MetricTensor, Vector
from liecurv.errors import DegeneratePlaneError
from liecurv.randers import (Flag, build_randers, flag_curvature, g_y,
                             parallel_fields, randers_norm)
from liecurv.riemann import (curvature_apply, levi_civita, riemann_tensor,
                             scalar_curvature, sectional)

F = Fraction
GRID = [F(-2), F(-1), F(0), F(1)]
COORDS = ("a", "b", "c", "d")
EDGE_COORDS = ("ta", "tb", "tc", "td")


def build(case):
    conn = levi_civita(case.algebra, case.metric)
    return conn, riemann_tensor(conn)


def case4_points():
    return [(a, b) for a in GRID for b in GRID]


def flag_cases():
    """The five fixtures with a printed flag curvature form."""
    out = [catalog.get_case(cid) for cid in (1, 2, 3, 6)]
    out.append(catalog.get_case(4, alpha=F(-1), beta=F(0)))
    return out


def rand_drift_env(rng, case):
    names = case.drift_vars()
    if len(names) == 1:
        return {names[0]: F(rng.choice([-1, 1]) * rng.randint(1, 8), 9)}
    return {n: F(rng.choice([-1, 1]) * rng.randint(1, 6), 10) for n in names}


def closed_form(case, name):
    return exprs.parse_expr(case.expected["randers"][name])


def coord_env(pole, edge):
    env = {COORDS[i]: pole[i] for i in range(4)}
    env.update({EDGE_COORDS[i]: edge[i] for i in range(4)})
    return env


def assert_scalar_close(got, want, context):
    if isinstance(got, F) and isinstance(want, F):
        assert got == want, f"{context}: {got} != {want} (exact)"
    else:
        assert abs(float(got) - float(want)) <= 1e-9, \
            f"{context}: {got} vs {want}"


# --- criterion 1: published scalar curvature constants -------------------------


def sectional_formula_scalar(case):
    """Sum of the fixture's published sectional numerator over the ordered
    coordinate planes; the catalog metrics are the identity, so these planes
    are orthonormal and the sum is the scalar curvature."""
    n = case.algebra.dim
    basis = [Vector.basis(n, i) for i in range(n)]
    assert all(case.metric.inner(basis[i], basis[j]) == (i == j)
               for i in range(n) for j in range(n)), \
        f"case {case.id}: coordinate basis is not orthonormal"
    return sum(exprs.evaluate(case.expected["sectional_numerator"],
                              coord_env(basis[i], basis[j]))
               for i in range(n) for j in range(n) if i != j)


def test_criterion_1_scalar_curvature_constants():
    published = {1: F(-6), 2: F(-1, 2), 3: F(-2), 5: F(-4), 6: F(-7, 2)}
    start = time.perf_counter()
    computed = {}
    for cid in (1, 2, 3, 5, 6):
        case = catalog.get_case(cid)
        _, rt = build(case)
        computed[cid] = scalar_curvature(rt, case.metric)
    grid_failures = []
    for alpha, beta in case4_points():
        case = catalog.get_case(4, alpha=alpha, beta=beta)
        _, rt = build(case)
        want = -((1 + alpha) ** 2) / 2 - 2 * beta ** 2 - 6
        if scalar_curvature(rt, case.metric) != want:
            grid_failures.append((alpha, beta))
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0, f"scalar computations took {elapsed:.3f}s"
    assert not grid_failures
    failures = []
    for cid, printed in published.items():
        case = catalog.get_case(cid)
        formula = sectional_formula_scalar(case)
        note = case.annotation_for("scalar")
        if computed[cid] != formula:
            failures.append(f"case {cid}: computed {computed[cid]}, "
                            f"sectional formula sums to {formula}")
        if case.expected_scalar() != printed:
            failures.append(f"case {cid}: fixture prints "
                            f"{case.expected_scalar()}, published {printed}")
        if printed == formula:
            if computed[cid] != printed:
                failures.append(f"case {cid}: computed {computed[cid]}, "
                                f"published {printed}")
        elif (note is None
              or exprs.evaluate(note["paper_value"]) != printed
              or exprs.evaluate(note["computed_value"]) != formula):
            failures.append(f"case {cid}: published {printed}, sectional "
                            f"formula sums to {formula}, and the fixture "
                            f"annotation is {note}")
    assert not failures, (
        "each printed scalar must match the paper's own sectional formula "
        "summed over the ordered orthonormal coordinate planes, or be "
        "annotated as a misprint in the fixture (paper_value = printed, "
        "computed_value = that sum; see liecurv report --case <id>): "
        + "; ".join(failures))


# --- criterion 2: connection tables --------------------------------------------


def connection_mismatches(case):
    conn, _ = build(case)
    expected = case.expected_connection()
    bad = []
    for i in range(4):
        for j in range(4):
            want = expected.get((i, j), Vector.zero(4))
            got = conn.nabla(i, j)
            if list(got) != list(want):
                note = case.annotation_for(f"connection[{i}][{j}]")
                if note is None or "derivation" not in note:
                    bad.append((case.id, case.params, i, j, got, want))
    return bad


def test_criterion_2_connection_tables_exact():
    bad = []
    for cid in (1, 2, 3, 5, 6):
        bad += connection_mismatches(catalog.get_case(cid))
    for alpha, beta in case4_points():
        bad += connection_mismatches(catalog.get_case(4, alpha=alpha, beta=beta))
    assert bad == []


# --- criterion 3: curvature tables ----------------------------------------------


def curvature_mismatches(case):
    _, rt = build(case)
    expected = case.expected_curvature()
    bad = []
    for i, j, k, got in rt.entries():
        want = expected.get((i, j, k), Vector.zero(4))
        if list(got) != list(want):
            note = case.annotation_for(f"curvature[{i}][{j}][{k}]")
            if note is None or "derivation" not in note:
                bad.append((case.id, case.params, i, j, k, got, want))
    return bad


def test_criterion_3_curvature_tables_exact():
    bad = []
    for cid in (1, 2, 3, 5, 6):
        bad += curvature_mismatches(catalog.get_case(cid))
    for alpha, beta in case4_points():
        bad += curvature_mismatches(catalog.get_case(4, alpha=alpha, beta=beta))
    assert bad == []


# --- criterion 4: parallel field dimensions --------------------------------------


def test_criterion_4_parallel_field_dimensions():
    dims = {1: 1, 2: 1, 3: 2, 5: 0, 6: 1}
    for cid, want in dims.items():
        case = catalog.get_case(cid)
        conn, _ = build(case)
        fields = parallel_fields(conn)
        assert len(fields) == want, (cid, fields)
        # exact nullspace: dimension decisions never hinge on a tolerance
        assert all(isinstance(x, F) for v in fields for x in v)
    for alpha, beta in case4_points():
        conn, _ = build(catalog.get_case(4, alpha=alpha, beta=beta))
        fields = parallel_fields(conn)
        if (alpha, beta) == (F(-1), F(0)):
            assert [list(v) for v in fields] == [[0, 0, 0, 1]]
        else:
            assert fields == [], (alpha, beta, fields)


# --- criterion 5: printed flag curvature forms -----------------------------------


def test_criterion_5_flag_closed_forms():
    for case in flag_cases():
        rng = random.Random(500 + case.id)
        conn, rt = build(case)
        form = closed_form(case, "flag_curvature")
        done = 0
        while done < 20:
            u, v = rand_pair(rng, 4)
            try:
                pole_c, edge_c = linalg.orthonormal_pair(case.metric, u, v)
            except DegeneratePlaneError:
                continue
            done += 1
            drift_env = rand_drift_env(rng, case)
            drift = case.drift_vector(drift_env)
            rm = build_randers(case.metric, drift, conn)
            pole, edge = Vector(pole_c), Vector(edge_c)
            got = flag_curvature(rm, rt, Flag(pole, edge))
            env = coord_env(pole, edge)
            env.update(drift_env)
            env.update(case.params)
            want = exprs.evaluate(form, env)
            assert_scalar_close(got, want,
                                f"case {case.id} sample {done} flag form")


# --- criterion 6: flag curvature sign behavior -----------------------------------


def test_criterion_6_flag_curvature_signs():
    nonpositive = [catalog.get_case(1), catalog.get_case(3),
                   catalog.get_case(4, alpha=F(-1), beta=F(0))]
    for case in nonpositive:
        rng = random.Random(600 + case.id)
        conn, rt = build(case)
        for n in range(1000):
            u, v = rand_pair(rng, 4)
            drift = case.drift_vector(rand_drift_env(rng, case))
            rm = build_randers(case.metric, drift, conn)
            k = flag_curvature(rm, rt, Flag(u, v))
            if isinstance(k, F):
                assert k <= 0, (case.id, n, k)
            else:
                assert k <= 1e-9, (case.id, n, k)

    case = catalog.get_case(6)
    rng = random.Random(606)
    conn, rt = build(case)
    seen_pos = seen_neg = False
    for _ in range(1000):
        u, v = rand_pair(rng, 4)
        drift = case.drift_vector(rand_drift_env(rng, case))
        rm = build_randers(case.metric, drift, conn)
        k = float(flag_curvature(rm, rt, Flag(u, v)))
        seen_pos = seen_pos or k > 1e-9
        seen_neg = seen_neg or k < -1e-9
    assert seen_pos and seen_neg, "case 6 must exhibit both signs"


# --- criterion 7: structural property suites -------------------------------------


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = random.Random(700)

    # connection axioms on every case, plus a non-identity metric
    setups = []
    for cid in (1, 2, 3, 5, 6):
        case = catalog.get_case(cid)
        setups.append((case.algebra, case.metric))
    setups.append((catalog.get_case(4, alpha=F(-1), beta=F(0)).algebra,
                   catalog.get_case(4, alpha=F(-1), beta=F(0)).metric))
    gram = [[F(2), F(1), F(0), F(0)], [F(1), F(2), F(0), F(0)],
            [F(0), F(0), F(3), F(1)], [F(0), F(0), F(1), F(3)]]
    setups.append((catalog.get_case(6).algebra, MetricTensor(gram)))

    for alg, metric in setups:
        conn = levi_civita(alg, metric)
        rt = riemann_tensor(conn)
        for i in range(4):
            for j in range(4):
                assert torsion(conn, i, j).is_zero()
                for k in range(4):
                    assert compatibility_residual(conn, i, j, k) == 0
        for _ in range(6):
            u, v, w, z = (Vector(rand_fraction(rng) for _ in range(4))
                          for _ in range(4))
            # curvature symmetries: antisymmetry in both slots, pair
            # interchange, first Bianchi
            assert list(curvature_apply(rt, u, v, w)) == \
                list(vscale(curvature_apply(rt, v, u, w), F(-1)))
            r_uvwz = metric.inner(curvature_apply(rt, u, v, w), z)
            assert r_uvwz == -metric.inner(curvature_apply(rt, u, v, z), w)
            assert r_uvwz == metric.inner(curvature_apply(rt, w, z, u), v)
            total = vadd(curvature_apply(rt, u, v, w), curvature_apply(rt, v, w, u),
                         curvature_apply(rt, w, u, v))
            assert total.is_zero()

        # sectional curvature is a function of the plane alone
        for _ in range(4):
            u, v = rand_pair(rng, 4)
            t = (F(rng.randint(1, 3)), F(rng.randint(-2, 2)),
                 F(rng.randint(-2, 2)), F(rng.randint(1, 3)))
            if t[0] * t[3] - t[1] * t[2] == 0:
                continue
            u2 = vadd(vscale(u, t[0]), vscale(v, t[1]))
            v2 = vadd(vscale(u, t[2]), vscale(v, t[3]))
            _, k1 = sectional(rt, metric, u, v)
            _, k2 = sectional(rt, metric, u2, v2)
            assert k1 == k2

    # scalar curvature is basis-invariant (exact rotations of the frame)
    from conftest import cayley_rotation, change_basis
    case = catalog.get_case(1)
    base = scalar_curvature(riemann_tensor(levi_civita(case.algebra, case.metric)),
                            case.metric)
    for _ in range(3):
        alg2, g2 = change_basis(case.algebra, case.metric,
                                cayley_rotation(rng, 4))
        assert scalar_curvature(riemann_tensor(levi_civita(alg2, g2)), g2) == base

    # fundamental tensor: symmetry, bilinearity, zero-homogeneity in the
    # reference vector, recovery of F^2, and the finite-difference Hessian
    case = catalog.get_case(1)
    conn, _ = build(case)
    rm = build_randers(case.metric, Vector([F(0), F(0), F(1, 2), F(0)]), conn)
    basis = [Vector.basis(4, i) for i in range(4)]
    for n in range(50):
        while True:
            y = Vector(rand_fraction(rng) for _ in range(4))
            if not y.is_zero():
                break
        u, v, w = (Vector(rand_fraction(rng) for _ in range(4)) for _ in range(3))
        s = F(rng.randint(-3, 3), rng.randint(1, 2))
        uv, vu, lhs, wv, yy = g_y(rm, y, [(u, v), (v, u), (vadd(vscale(u, s), w), v), (w, v),
                                          (y, y)])
        assert_scalar_close(uv, vu, f"sym {n}")
        assert_scalar_close(lhs, s * uv + wv, f"bilinear {n}")
        assert_scalar_close(*g_y(rm, vscale(y, F(rng.randint(1, 7))), [(u, v)]), uv,
                            f"homogeneous {n}")
        fy = randers_norm(rm, y)
        assert_scalar_close(yy, fy * fy, f"norm {n}")
        i, j = rng.randrange(4), rng.randrange(4)
        (exact,) = g_y(rm, y, [(basis[i], basis[j])])
        approx = g_y_hessian_oracle(rm, y, basis[i], basis[j], h=1e-4)
        assert abs(float(exact) - approx) < 1e-6, (n, i, j, exact, approx)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"property suites took {elapsed:.3f}s"


# --- criterion 8: zero drift reduces to the base geometry ------------------------


def test_criterion_8_zero_drift_flag_equals_sectional():
    cases = [catalog.get_case(cid) for cid in (1, 2, 3, 5, 6)]
    cases.append(catalog.get_case(4, alpha=F(-1), beta=F(0)))
    cases.append(catalog.get_case(4, alpha=F(2), beta=F(1)))
    for case in cases:
        rng = random.Random(800 + case.id)
        conn, rt = build(case)
        rm = build_randers(case.metric, Vector.zero(4), conn)
        assert rm.drift.is_zero() and rm.berwald
        for _ in range(25):
            u, v = rand_pair(rng, 4)
            _, k_riem = sectional(rt, case.metric, u, v)
            k_flag = flag_curvature(rm, rt, Flag(u, v))
            # exact rational equality, not closeness
            assert isinstance(k_flag, F) and isinstance(k_riem, F)
            assert k_flag == k_riem, (case.id, list(u), list(v))
