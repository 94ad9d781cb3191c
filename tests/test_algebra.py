import itertools
import random
from fractions import Fraction

import pytest

from conftest import change_basis, rand_invertible, rand_vector
from oracles import (_after, bracket, check_jacobi_reference, check_para_hypercomplex,
                     cleared_nested, nijenhuis)
from liecurv import catalog
from liecurv.algebra import LieAlgebra, MetricTensor, Vector, as_vector, check_jacobi
from liecurv.errors import DimensionMismatchError, InputError
from liecurv.linalg import contract

F = Fraction


def case2_brackets(extra=None):
    """[X,Y] = Z on basis (X, Y, Z, W), optionally with one extra bracket."""
    b = {(0, 1): [F(0), F(0), F(1), F(0)]}
    if extra:
        b.update(extra)
    return b


# --- vectors -------------------------------------------------------------------


def test_vector_arithmetic():
    u = Vector([F(1), F(2), F(0)])
    v = Vector([F(0), F(-1), F(3)])
    assert list(u + v) == [1, 1, 3]
    assert list(u - v) == [1, 3, -3]
    assert list(u.scale(F(1, 2))) == [F(1, 2), F(1), F(0)]
    assert Vector.zero(3).is_zero()
    assert not u.is_zero()
    assert Vector.basis(3, 1)[1] == 1


def test_vector_describe():
    labels = ("X", "Y", "Z", "W")
    assert Vector([F(0)] * 4).describe(labels) == "0"
    assert Vector([F(1), F(0), F(0), F(0)]).describe(labels) == "X"
    assert Vector([F(0), F(-1), F(0), F(0)]).describe(labels) == "-Y"
    v = Vector([F(3, 2), F(0), F(-1), F(1)])
    assert v.describe(labels) == "3/2 X - Z + W"


def test_vector_repr_renders_every_entry():
    # printing refuses a non-finite float, but a repr of one must not raise
    inf, nan = float("inf"), float("nan")
    assert repr(Vector([inf, 0])) == "Vector(inf, 0)"
    assert repr(Vector([F(1, 3), -inf, nan, 0.25, -0.0])) == "Vector(1/3, -inf, nan, 0.25, 0)"


# --- algebra construction ------------------------------------------------------


def test_from_brackets_antisymmetry():
    alg = LieAlgebra.from_brackets(4, case2_brackets())
    assert list(bracket(alg, Vector.basis(4, 0), Vector.basis(4, 1))) == [0, 0, 1, 0]
    assert list(bracket(alg, Vector.basis(4, 1), Vector.basis(4, 0))) == [0, 0, -1, 0]
    assert alg.antisymmetry_violations() == []
    # a bracket not given, [e_i, e_i] included, holds int zeros
    assert alg.structure[0][0] == alg.structure[2][3] == (0, 0, 0, 0)
    assert all(type(x) is int for x in alg.structure[0][0] + alg.structure[2][3])


def test_from_brackets_rejects_bad_pairs():
    with pytest.raises(InputError):
        LieAlgebra.from_brackets(4, {(1, 0): [F(0)] * 4})
    with pytest.raises(InputError):
        LieAlgebra.from_brackets(4, {(0, 4): [F(0)] * 4})
    with pytest.raises(InputError):
        LieAlgebra.from_brackets(4, {(0, 1): [F(0)] * 3})


def test_bracket_bilinearity(rng):
    alg = LieAlgebra.from_brackets(
        4, case2_brackets({(0, 2): [F(1), F(0), F(0), F(0)]}))
    for _ in range(10):
        u, v, w = (rand_vector(rng, 4) for _ in range(3))
        s = F(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = bracket(alg, u.scale(s) + v, w)
        rhs = bracket(alg, u, w).scale(s) + bracket(alg, v, w)
        assert list(lhs) == list(rhs)
        assert list(bracket(alg, u, v)) == list(bracket(alg, v, u).scale(F(-1)))


# --- jacobi --------------------------------------------------------------------


def test_jacobi_passes_on_heisenberg_extension():
    # adding [X,Z] = Y to [X,Y] = Z keeps the Jacobi identity
    alg = LieAlgebra.from_brackets(
        4, case2_brackets({(0, 2): [F(0), F(1), F(0), F(0)]}))
    report = check_jacobi(alg)
    assert report.passed
    assert report.to_dict()["jacobi_ok"] is True


def test_jacobi_violation_reports_residual():
    # [X,Y] = Z with [X,Z] = X fails on (X, Y, Z) with residual -Z
    alg = LieAlgebra.from_brackets(
        4, case2_brackets({(0, 2): [F(1), F(0), F(0), F(0)]}),
        labels=("X", "Y", "Z", "W"))
    report = check_jacobi(alg)
    assert not report.passed
    assert len(report.violations) == 1
    i, j, k, res = report.violations[0]
    assert (i, j, k) == (0, 1, 2)
    assert list(res) == [0, 0, -1, 0]


def test_antisymmetry_scan_catches_raw_tables():
    table = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    table[0][1][0] = F(1)
    table[1][0][0] = F(1)  # not the negation
    report = check_jacobi(LieAlgebra(table))
    assert not report.antisymmetry_ok
    assert not report.passed


def jacobi_inputs(rng, dim):
    """(label, table) pairs around one dense R x_D R^(dim-1) with rational D: the
    Fraction table, its cleared int table, their float images, each with one
    constant perturbed antisymmetrically (Jacobi fails), and raw tables that
    break antisymmetry."""
    m = dim - 1
    d = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)] for _ in range(m)]
    alg = LieAlgebra.from_brackets(dim, {(0, j): [F(0)] + [d[k][j - 1] for k in range(m)]
                                         for j in range(1, dim)})
    dense = change_basis(alg, MetricTensor.identity(dim), rand_invertible(rng, dim))[0]
    exact = [[list(row) for row in block] for block in dense.structure]
    ints = cleared_nested(exact)[1]
    inputs = []
    for label, table in (("exact", exact), ("int", ints),
                         ("float", [[[float(x) for x in row] for row in b] for b in exact])):
        inputs.append((label, table))
        i, j = sorted(rng.sample(range(dim), 2))
        k = rng.randrange(dim)
        delta = rng.choice((F(1, 3), 2)) if label != "float" else 0.375
        bent = [[list(row) for row in block] for block in table]
        bent[i][j][k] += delta
        bent[j][i][k] -= delta
        inputs.append((label + " perturbed", bent))
        raw = [[list(row) for row in block] for block in table]
        raw[j][i][k] += delta  # [e_j, e_i] is no longer -[e_i, e_j]
        inputs.append((label + " raw", raw))
    return inputs


def test_check_jacobi_matches_reference_scan():
    """The int-table scan against the bracket-of-brackets reference, dims 2-6:
    exact tables with M > 1, all-int, float, one constant perturbed, and raw
    tables that break antisymmetry. Exact reports are equal as JSON at 17
    digits, entry types included; float residuals agree within 1e-9."""
    rng = random.Random(20130519)
    seen = set()
    for dim in range(2, 7):
        for _ in range(4):
            for label, table in jacobi_inputs(rng, dim):
                alg = LieAlgebra(table)
                got, want = check_jacobi(alg), check_jacobi_reference(alg)
                seen.add((label, got.antisymmetry_ok, not got.violations))
                assert got.antisymmetry_violations == want.antisymmetry_violations
                assert [v[:3] for v in got.violations] == [v[:3] for v in want.violations]
                if label.startswith("float"):
                    assert alg.cleared_structure is None
                    for (*_, res), (*_, ref) in zip(got.violations, want.violations):
                        assert all(abs(a - b) <= 1e-9 * max(1.0, abs(b))
                                   for a, b in zip(res, ref))
                    continue
                assert got.to_dict(17) == want.to_dict(17)
                for (*_, res), (*_, ref) in zip(got.violations, want.violations):
                    assert all(type(a) is type(b) is F and a == b for a, b in zip(res, ref))
                if label == "exact" and dim > 2:
                    assert alg.cleared_structure[0] > 1
    for label in ("exact", "int", "float"):
        assert (label, True, True) in seen
        assert (label + " perturbed", True, False) in seen
        assert (label + " raw", False, True) in seen


# --- metric --------------------------------------------------------------------


def test_metric_identity_inner():
    g = MetricTensor.identity(3)
    assert g.inner([F(1), F(2), F(0)], [F(0), F(1), F(5)]) == 2
    assert g.norm_sq([F(3), F(4), F(0)]) == 25
    assert g.is_positive_definite()


def test_metric_rejects_asymmetric():
    with pytest.raises(InputError):
        MetricTensor([[F(1), F(2)], [F(0), F(1)]])


def test_shape_refusals():
    with pytest.raises(DimensionMismatchError, match="dimension 4, got 3"):
        as_vector([F(1), F(0), F(0)], 4)
    with pytest.raises(InputError, match=r"dim\^3 table"):
        LieAlgebra([[[F(0)] * 2] * 2, [[F(0)] * 2]])
    with pytest.raises(InputError, match="one basis label per dimension"):
        LieAlgebra([[[F(0)] * 2] * 2] * 2, labels=("X",))
    with pytest.raises(InputError, match="must be square"):
        MetricTensor([[F(1), F(0)], [F(0)]])


def test_metric_positive_definite_detection():
    assert MetricTensor([[F(2), F(1)], [F(1), F(2)]]).is_positive_definite()
    assert not MetricTensor([[F(1), F(0)], [F(0), F(0)]]).is_positive_definite()


# --- endomorphisms and integrability checks ------------------------------------
# An endomorphism is a table of basis images: row i is J e_i.


def J1():
    # X -> Y, Y -> -X, Z -> W, W -> -Z
    return [[F(0), F(1), F(0), F(0)],
            [F(-1), F(0), F(0), F(0)],
            [F(0), F(0), F(0), F(1)],
            [F(0), F(0), F(-1), F(0)]]


def J2():
    # X -> Z, Z -> X, Y -> -W, W -> -Y
    return [[F(0), F(0), F(1), F(0)],
            [F(0), F(0), F(0), F(-1)],
            [F(1), F(0), F(0), F(0)],
            [F(0), F(-1), F(0), F(0)]]


def identity(n, sign=1):
    return [[sign * int(i == k) for k in range(n)] for i in range(n)]


def test_endomorphism_apply_and_compose():
    j1 = J1()
    assert contract(j1, Vector.basis(4, 0).coeffs) == [0, 1, 0, 0]
    assert _after(j1, j1) == identity(4, -1)
    j3 = _after(j1, J2())  # J1 after J2
    assert contract(j3, Vector.basis(4, 0).coeffs) == [0, 0, 0, 1]  # X -> W


def test_nijenhuis_complex_kind_nonzero():
    # [X,Y] = Y, [X,W] = W with the standard J: N(X, Z) = Z
    alg = LieAlgebra.from_brackets(4, {(0, 1): [F(0), F(1), F(0), F(0)],
                                       (0, 3): [F(0), F(0), F(0), F(1)]})
    n_val = nijenhuis(alg, J1(), Vector.basis(4, 0), Vector.basis(4, 2))
    assert list(n_val) == [0, 0, 1, 0]


def test_nijenhuis_kind_validation():
    alg = LieAlgebra.from_brackets(4, {})
    with pytest.raises(DimensionMismatchError):
        nijenhuis(alg, identity(3), Vector.basis(4, 0), Vector.basis(4, 1))


def test_para_hypercomplex_on_abelian():
    alg = LieAlgebra.from_brackets(4, {})
    report = check_para_hypercomplex(alg, J1(), J2())
    assert report == {code: [] for code in
                      ("j1_square", "j2_square", "j3_consistency", "n1", "n2", "n3")}


def test_para_hypercomplex_fails_when_not_integrable():
    # nonabelian case where N1(X, Z) = Z != 0
    alg = LieAlgebra.from_brackets(4, {(0, 1): [F(0), F(1), F(0), F(0)],
                                       (0, 3): [F(0), F(0), F(0), F(1)]})
    report = check_para_hypercomplex(alg, J1(), J2())
    assert "N(X, Z) = Z" in report["n1"]
    assert not report["j1_square"] and not report["j3_consistency"]


ANTI = {"j3_consistency": ["J2 J1 != -J1 J2"]}


@pytest.mark.parametrize("j1, j2, failures", [
    (J2(), J2(), {"j1_square": ["J1^2 != -Id"], **ANTI}),
    (J1(), J1(), {"j2_square": ["J2^2 != Id"], **ANTI}),
    (J1(), identity(4), {"j2_square": ["J2 is +-identity"], **ANTI}),
    (J1(), identity(4, -1), {"j2_square": ["J2 is +-identity"], **ANTI}),
    # X, Y fixed and Z, W negated: a product structure that commutes with J1
    (J1(), [[F(int(i == k) * (1 if i < 2 else -1)) for k in range(4)] for i in range(4)],
     ANTI),
], ids=["j1_square", "j2_square", "j2_identity", "j2_minus_identity", "j3_consistency"])
def test_para_hypercomplex_axiom_failures(j1, j2, failures):
    """Each broken axiom is reported under its own code, so the fixture check
    cannot pass vacuously. On the abelian algebra every Nijenhuis tensor vanishes."""
    report = check_para_hypercomplex(LieAlgebra.from_brackets(4, {}), j1, j2)
    assert {code: found for code, found in report.items() if found} == failures


def test_every_fixture_is_para_hypercomplex():
    """Signed-permutation witnesses for all six cases and the case-4 grid.

    The search keeps each J whose own Nijenhuis tensor vanishes, then checks
    the anticommuting pairs. Background: N. Blazic and S. Vukmirovic,
    "Four-dimensional Lie algebras with a para-hypercomplex structure",
    Rocky Mountain J. Math. 40 (2010).
    """
    n = 4
    ident, minus = identity(n), identity(n, -1)
    tables = [[[s[i] * int(k == p[i]) for k in range(n)] for i in range(n)]
              for p in itertools.permutations(range(n))
              for s in itertools.product((1, -1), repeat=n)]
    complex_js = [j for j in tables if _after(j, j) == minus]
    product_js = [j for j in tables if _after(j, j) == ident and j not in (ident, minus)]
    assert (len(complex_js), len(product_js)) == (12, 74)

    cases = [(cid, catalog.get_case(cid)) for cid in (1, 2, 3, 5, 6)]
    cases += [((4, a, b), catalog.get_case(4, alpha=a, beta=b))
              for a in range(-2, 2) for b in range(-2, 2)]
    found = {}
    for key, case in cases:
        alg = case.algebra

        def integrable(js):
            return [j for j in js if all(nijenhuis(alg, j, ident[a], ident[b]).is_zero()
                                         for a in range(n) for b in range(a + 1, n))]

        j1s, j2s = integrable(complex_js), integrable(product_js)
        pairs = [(j1, j2) for j1 in j1s for j2 in j2s
                 if _after(j2, j1) == [[-x for x in row] for row in _after(j1, j2)]]
        passed = (not any(check_para_hypercomplex(alg, *pair).values()) for pair in pairs)
        found[key] = sum(passed) if key in (1, 6) else any(passed)  # count, or first witness
    assert found.pop(1) == 64
    assert found.pop(6) == 16
    assert all(found.values()), found
