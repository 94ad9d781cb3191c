import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (cayley_rotation, change_basis, rand_fraction, rand_invertible,
                      rand_pd_metric, rand_vector)
from oracles import (cleared_nested, compatibility_residual, connection_from_table,
                     curvature_apply_dense, koszul_store_reference,
                     curvature_operator_dense, levi_civita_reference, plane_form_per_call,
                     riemann_tensor_dense,
                     scalar_curvature_gram_schmidt, scalar_curvature_table, sectional_dense,
                     sectional_plane_invariance_check, solve_many, torsion, vadd, vscale)
from test_exact_vs_float import is_exact_document, semidirect_documents, semidirect_objects
from liecurv.documents import parse_document
from liecurv import catalog, linalg
from liecurv.algebra import LieAlgebra, MetricTensor, Vector
from liecurv.errors import DegeneratePlaneError, InputError, LiecurvError
from liecurv.randers import Flag, build_randers, flag_curvature, parallel_fields
from liecurv.riemann import (curvature_apply, levi_civita, plane_form, riemann_tensor,
                             scalar_curvature, sectional)

F = Fraction


def pipeline(case_id, **params):
    case = catalog.get_case(case_id, **params)
    conn = levi_civita(case.algebra, case.metric)
    return case, conn, riemann_tensor(conn)


# --- connection ------------------------------------------------------------


def test_levi_civita_solvable_example():
    # [X,Y] = Y, [X,W] = W: nabla_Y X = -Y, nabla_Y Y = X,
    # nabla_W X = -W, nabla_W W = X, all other slots zero
    _, conn, _ = pipeline(1)
    expected = {(1, 0): [0, -1, 0, 0], (1, 1): [1, 0, 0, 0],
                (3, 0): [0, 0, 0, -1], (3, 3): [1, 0, 0, 0]}
    for i in range(4):
        for j in range(4):
            assert list(conn.nabla(i, j)) == expected.get((i, j), [0, 0, 0, 0])


def test_levi_civita_rejects_degenerate_metric():
    alg = LieAlgebra.from_brackets(2, {})
    with pytest.raises(InputError):
        levi_civita(alg, MetricTensor([[F(1), F(0)], [F(0), F(0)]]))


def test_a_singular_or_indefinite_metric_is_refused_before_its_inverse():
    """An exact metric that is not positive definite is refused by levi_civita's
    positive-definiteness test, before MetricTensor.cleared_inverse is formed: a singular
    Gram matrix would fail inside that solve with another message, an indefinite one not at
    all."""
    alg = LieAlgebra.from_brackets(2, {(0, 1): [0, F(1, 2)]})
    for gram in ([[F(1), F(0)], [F(0), F(0)]], [[1, 2], [2, 4]], [[1, 0], [0, -1]],
                 [[F(1, 3), 2], [2, F(1, 2)]]):
        metric = MetricTensor(gram)
        with pytest.raises(InputError, match="^metric must be positive definite$"):
            levi_civita(alg, metric)
        assert "cleared_inverse" not in vars(metric)


def test_exact_connection_and_scalar_share_one_inverse(monkeypatch):
    """An exact levi_civita followed by scalar_curvature on a fresh metric makes one
    linalg.solve_cleared call, with dim right-hand sides (the metric's cleared_inverse), and
    a second levi_civita on the same metric makes none."""
    calls = []

    def spy(matrix, rhs_list, real=linalg.solve_cleared):
        calls.append(len(rhs_list))
        return real(matrix, rhs_list)
    monkeypatch.setattr(linalg, "solve_cleared", spy)
    rng = random.Random(20130527)
    for dim in (2, 3, 4, 5, 6):
        doc, _ = semidirect_documents(rng, dim)
        alg, metric = doc.algebra(), doc.metric
        calls.clear()
        rt = riemann_tensor(levi_civita(alg, metric))
        assert type(scalar_curvature(rt, metric)) is F
        assert calls == [dim]
        levi_civita(alg, metric)
        levi_civita(doc.algebra(), metric)
        assert calls == [dim]


def test_levi_civita_on_decimal_documents_does_no_fraction_arithmetic(monkeypatch):
    """An all-decimal document has float structure constants and a float Gram matrix; the
    sums that no term reaches (the brackets of a basis vector with itself, or of two
    vectors of the abelian ideal) are contract's Fraction(0), and the Koszul right-hand side
    reads them as int 0: no Fraction operator runs, and the store is the float solve's."""
    rng = random.Random(20130528)
    docs = [semidirect_documents(rng, dim)[1] for dim in (2, 3, 4, 5, 6)]
    algebras = [doc.algebra() for doc in docs]
    want = [koszul_store_reference(alg, doc.metric) for alg, doc in zip(algebras, docs)]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on the float path")
    for name in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        for dunder in (f"__{name}__", f"__r{name}__"):
            monkeypatch.setattr(F, dunder, refuse)
    for dunder in ("__neg__", "__pos__", "__abs__"):
        monkeypatch.setattr(F, dunder, refuse)
    got = []
    for alg, doc in zip(algebras, docs):
        assert alg.cleared_structure is None and doc.metric.cleared_gram is None
        conn = levi_civita(alg, doc.metric)
        got.append((conn.den, conn.rows))
    monkeypatch.undo()
    assert repr(got) == repr(want)


def mixed_documents(rng):
    """(document with one decimal 0.0 among rational constants, the same document with an
    exact 0) in dims 2-6, over identity, rational diagonal and rand_pd_metric Gram
    matrices, the first [e0,e1] = [0.0, 1/2] on the identity metric."""
    pairs = [({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [0.0, "1/2"]}],
               "metric": "identity"},
              {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "1/2"]}],
               "metric": "identity"})]
    for dim in range(2, 7):
        diagonal = [[rand_fraction(rng, 6, 5) ** 2 + F(1, 3) if i == j else F(0)
                     for j in range(dim)] for i in range(dim)]
        for gram in ([[F(int(i == j)) for j in range(dim)] for i in range(dim)], diagonal,
                     None):
            exact, _ = semidirect_objects(rng, dim, gram)
            mixed = {**exact, "brackets": [dict(b) for b in exact["brackets"]]}
            # [e_0, e_j] has no e_0 component: written as a decimal zero, it is a float 0.0
            first = mixed["brackets"][rng.randrange(dim - 1)]
            first["coeffs"] = ["0.0"] + first["coeffs"][1:]
            pairs.append((mixed, exact))
    return [tuple(parse_document(obj) for obj in pair) for pair in pairs]


def test_levi_civita_on_a_table_with_a_decimal_zero():
    """A float 0.0 among rational constants over an exact metric is a float table: the
    connection keeps a float store (float rows over den 1, no Gram mark), gamma has the
    bits of the Koszul solve as written, the values of the exact table's gamma, and
    curvature, scalar and parallel fields follow it."""
    docs = mixed_documents(random.Random(20130521))
    for mixed, exact in docs:
        alg = mixed.algebra()
        assert alg.cleared_structure is None and mixed.metric.cleared_gram is not None
        conn = levi_civita(alg, mixed.metric)
        want = levi_civita_reference(alg, mixed.metric)
        assert repr([[list(row) for row in block] for block in conn.gamma]) == repr(want)
        assert conn.gram is None and conn.den == 1
        assert all(type(x) is float for block in conn.rows for row in block for x in row)
        exact_conn = levi_civita(exact.algebra(), exact.metric)
        pairs = [(a, b) for x, y in zip(conn.gamma, exact_conn.gamma) for u, v in zip(x, y)
                 for a, b in zip(u, v)]
        assert all(type(a) is float and abs(a - b) <= 1e-12 * max(1, abs(b)) for a, b in pairs)
        rt, exact_rt = riemann_tensor(conn), riemann_tensor(exact_conn)
        assert rt.gram is None and rt.den == 1
        scalar = scalar_curvature(rt, mixed.metric)
        assert abs(scalar - scalar_curvature(exact_rt, exact.metric)) <= 1e-9
        assert repr(scalar) == repr(scalar_curvature_table(rt, mixed.metric))
        assert len(parallel_fields(conn)) == len(parallel_fields(exact_conn))
    gamma = levi_civita(docs[0][0].algebra(), docs[0][0].metric).gamma
    assert gamma[1] == ((0.0, -0.5), (0.5, 0.0))


def test_scalar_curvature_reads_the_tensors_own_metric():
    """scalar_curvature traces with the metric rt was built in, whatever metric is passed:
    the tensor's own, another exact one or a float one. The scalar is scalar_curvature_table
    in rt's own metric, the identical Fraction on an exact tensor and the same float bits on
    a float one, for every metric passed."""
    rng = random.Random(20130522)
    for case_id in (1, 2, 3, 5, 6):
        case, _, rt = pipeline(case_id)
        float_rt = riemann_tensor(levi_civita(case.algebra, MetricTensor(
            [[float(x) for x in row] for row in case.metric.gram])))
        other = rand_pd_metric(rng, case.algebra.dim)
        floats = MetricTensor([[float(x) for x in row] for row in other.gram])
        for tensor in (rt, float_rt):
            want = scalar_curvature_table(tensor, tensor.connection.metric)
            got = [scalar_curvature(tensor, metric)
                   for metric in (case.metric, MetricTensor(case.metric.gram), other, floats)]
            assert len({repr(x) for x in got}) == 1
            got = got[0]
            if tensor is rt:
                assert type(got) is type(want) is F and got == want
            else:
                assert type(got) is float and repr(got) == repr(want)


def test_torsion_free_and_compatible_everywhere(rng):
    for case_id in (1, 2, 3, 5, 6):
        _, conn, _ = pipeline(case_id)
        n = conn.dim
        for i in range(n):
            for j in range(n):
                assert torsion(conn, i, j).is_zero()
                for k in range(n):
                    assert compatibility_residual(conn, i, j, k) == 0


def test_torsion_free_under_random_metric(rng):
    base = catalog.get_case(2).algebra
    for _ in range(5):
        metric = rand_pd_metric(rng, 4)
        conn = levi_civita(base, metric)
        for i in range(4):
            for j in range(4):
                assert torsion(conn, i, j).is_zero()
                for k in range(4):
                    assert compatibility_residual(conn, i, j, k) == 0


def test_nabla_is_bilinear(rng):
    _, conn, _ = pipeline(6)
    u, v, w = (rand_vector(rng, 4) for _ in range(3))
    s = F(3, 2)
    lhs = conn.derivative(vadd(vscale(u, s), v), w)
    rhs = vadd(vscale(conn.derivative(u, w), s), conn.derivative(v, w))
    assert list(lhs) == list(rhs)


# --- curvature --------------------------------------------------------------


def test_curvature_bidiagonal_example():
    # [X,Z] = X, [Y,W] = Y: R(X, X+Z)(X+Z) = Z - X
    _, _, rt = pipeline(5)
    x = Vector.basis(4, 0)
    xz = Vector([F(1), F(0), F(1), F(0)])
    assert list(curvature_apply(rt, x, xz, xz)) == [-1, 0, 1, 0]


def test_curvature_antisymmetry_first_pair(rng):
    _, _, rt = pipeline(4, alpha=F(2), beta=F(-1))
    for _ in range(10):
        u, v, w = (rand_vector(rng, 4) for _ in range(3))
        lhs = curvature_apply(rt, u, v, w)
        rhs = vscale(curvature_apply(rt, v, u, w), F(-1))
        assert list(lhs) == list(rhs)


def test_curvature_apply_matches_dense_oracle():
    """curvature_apply on the rows against the trilinear contraction of the dense table:
    the identical Fraction for exact vectors on the six cases, case 4 on a grid of
    parameters and exact R x_D R^(n-1) documents of dims 2-8; within 1e-9 for float
    vectors, and for every vector on floating documents. Decimal triples on case 4 at
    alpha = 1/(10^200 + 7), whose rows pass the float range while rows / den do not, come back
    finite: why float vectors read float_rows and not the int rows."""
    rng = random.Random(20130524)
    setups = [catalog.get_case(i) for i in (1, 2, 3, 5, 6)]
    setups += [catalog.get_case(4, alpha=F(a), beta=F(b))
               for a in range(-2, 2) for b in range(-2, 2)]
    setups = [(case.algebra, case.metric) for case in setups]
    for dim in range(2, 9):
        exact_doc, float_doc = semidirect_documents(rng, dim)
        setups.append((exact_doc.algebra(), exact_doc.metric))
        if dim <= 6:
            setups.append((float_doc.algebra(), float_doc.metric))
    checked = {"exact": 0, "float": 0}
    for alg, metric in setups:
        rt = riemann_tensor(levi_civita(alg, metric))
        n = rt.dim
        triples = [(Vector.basis(n, i), Vector.basis(n, j), Vector.basis(n, k))
                   for i, j, k in ((0, 1, 1), (1, 0, n - 1), (n - 1, 0, 0))]
        triples += [tuple(rand_vector(rng, n) for _ in range(3)) for _ in range(4)]
        triples += [(decimal_vector(rng, n), decimal_vector(rng, n), rand_vector(rng, n))
                    for _ in range(3)]
        for u, v, w in triples:
            got, want = curvature_apply(rt, u, v, w), curvature_apply_dense(rt, u, v, w)
            if rt.gram is not None and cleared_nested((u, v, w)):
                assert all(type(x) is F for x in list(got) + list(want)), (u, v, w)
                assert got == want, (u, v, w)
                checked["exact"] += 1
            else:
                assert all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(got, want))
                checked["float"] += 1
    case = catalog.get_case(4, alpha=F(1, 10 ** 200 + 7), beta=F(0))
    rt = riemann_tensor(levi_civita(case.algebra, case.metric))
    assert max(abs(x) for p in rt.rows for row in p for x in row) > 10 ** 400
    for _ in range(8):
        u, v, w = decimal_vector(rng, 4), decimal_vector(rng, 4), rand_vector(rng, 4)
        got, want = curvature_apply(rt, u, v, w), curvature_apply_dense(rt, u, v, w)
        assert all(math.isfinite(a) and abs(a - b) <= 1e-9 * max(1.0, abs(b))
                   for a, b in zip(got, want)), (u, v, w)
        checked["float"] += 1
    assert checked == {"exact": 7 * 28, "float": 3 * 28 + 10 * 5 + 8}, checked


def test_lowered_tensor_symmetries(rng):
    for case_id in (1, 6):
        case, _, rt = pipeline(case_id)
        g = case.metric
        for _ in range(8):
            u, v, w, z = (rand_vector(rng, 4) for _ in range(4))
            r_uvwz = g.inner(curvature_apply(rt, u, v, w), z)
            assert r_uvwz == -g.inner(curvature_apply(rt, u, v, z), w)
            assert r_uvwz == g.inner(curvature_apply(rt, w, z, u), v)


def test_first_bianchi(rng):
    _, _, rt = pipeline(6)
    for _ in range(8):
        u, v, w = (rand_vector(rng, 4) for _ in range(3))
        total = vadd(curvature_apply(rt, u, v, w), curvature_apply(rt, v, w, u),
                     curvature_apply(rt, w, u, v))
        assert total.is_zero()


def assert_matches_dense(alg, metric, is_float):
    """The i<j contraction kernel against the dense n^4 loop: the identical
    Fraction on exact input, 1e-9 relative on floating input, and
    R(e_j,e_i) = -R(e_i,e_j), R(e_i,e_i) = 0."""
    conn = levi_civita(alg, metric)
    got = riemann_tensor(conn).table
    want = riemann_tensor_dense(conn)
    n = alg.dim
    for i in range(n):
        assert all(x == 0 for row in got[i][i] for x in row)
        for j in range(i + 1, n):
            for k in range(n):
                assert list(got[j][i][k]) == [-x for x in got[i][j][k]]
    pairs = [(a, b) for i in range(n) for j in range(n) for k in range(n)
             for a, b in zip(got[i][j][k], want[i][j][k])]
    if is_float:
        assert all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in pairs)
    else:
        assert all(type(a) is F and type(b) is F and a == b for a, b in pairs)
    return got


def test_riemann_tensor_matches_dense_oracle():
    """The kernel against the dense oracle on the six cases, the case-4 grid
    and R x_D R^(n-1) documents of dims 2-6, exact and floating."""
    rng = random.Random(20130516)
    inputs = [(c.algebra, c.metric, False) for c in
              [catalog.get_case(i) for i in (1, 2, 3, 5, 6)]
              + [catalog.get_case(4, alpha=a, beta=b)
                 for a in range(-2, 2) for b in range(-2, 2)]]
    for dim in range(2, 7):
        for _ in range(2):
            inputs += [(doc.algebra(), doc.metric, not is_exact_document(doc))
                       for doc in semidirect_documents(rng, dim)]
    floating = 0
    for alg, metric, is_float in inputs:
        assert_matches_dense(alg, metric, is_float)
        floating += is_float
    assert floating == 10


def test_riemann_tensor_matches_dense_oracle_on_wide_tables(monkeypatch):
    """Exact tables the cleared kernel must not get wrong: dims 7 and 8,
    metric denominators near 10^6, and all-int structure constants, which
    must still take the cleared exact path."""
    rng = random.Random(20130517)
    for dim in (7, 8):
        exact_doc, _ = semidirect_documents(rng, dim)
        assert_matches_dense(exact_doc.algebra(), exact_doc.metric, False)
    # gram = A A^T, A unit lower triangular with entries k/991 and k/997
    a = [[F(int(i == j)) if j >= i else F(rng.randint(1, 9), rng.choice((991, 997)))
          for j in range(5)] for i in range(5)]
    gram = [[sum(a[i][m] * a[j][m] for m in range(5)) for j in range(5)] for i in range(5)]
    assert max(x.denominator for row in gram for x in row) >= 10 ** 6
    exact_doc, float_doc = semidirect_documents(rng, 5, gram=gram)
    assert_matches_dense(exact_doc.algebra(), exact_doc.metric, False)
    assert_matches_dense(float_doc.algebra(), float_doc.metric, True)

    cleared = []
    clear = linalg.cleared

    def spy(entries):
        cleared.append(list(entries))
        return clear(entries)
    monkeypatch.setattr(linalg, "cleared", spy)
    for case_id in (1, 3, 5):
        case = catalog.get_case(case_id)
        assert all(x.denominator == 1 for block in case.algebra.structure
                   for row in block for x in row)
        ints = [[[int(x) for x in row] for row in block] for block in case.algebra.structure]
        alg = LieAlgebra(ints)
        metric = MetricTensor(case.metric.gram)
        cleared.clear()
        got = assert_matches_dense(alg, metric, False)
        assert all(type(x) is F for plane in got for block in plane
                   for row in block for x in row)
        conn = levi_civita(alg, metric)
        # the structure is cleared once per algebra and the Gram matrix once per metric,
        # each in one flat pass over its entries, though levi_civita ran twice
        flat_c = [x for block in ints for row in block for x in row]
        flat_g = [x for row in metric.gram for x in row]
        assert [t for t in cleared if t == flat_c] == [flat_c]
        assert [t for t in cleared if t == flat_g] == [flat_g]
        cleared.clear()
        rt = riemann_tensor(conn)
        # riemann_tensor clears nothing and still takes the int path
        assert cleared == []
        assert rt.gram is metric.cleared_gram
        # the int path reads the connection's store: the solve's ints over their lcm
        assert conn.gram is metric.cleared_gram
        assert (conn.den, conn.rows) == cleared_nested(conn.gamma)
        assert all(type(x) is int or x == 0 for p in rt.rows for row in p for x in row)


def test_directly_built_connection_stays_exact():
    """A Connection built from a Christoffel table through oracles.connection_from_table
    stores what levi_civita stores: the same int rows, den and Gram mark, so the same
    curvature rows, den and op; a float table gives a float store and float rows."""
    rng = random.Random(20130520)
    inputs = [(c.algebra, c.metric) for c in
              [catalog.get_case(i) for i in (1, 2, 3, 5, 6)]
              + [catalog.get_case(4, alpha=F(1, 2), beta=F(-2, 3))]]
    for dim in range(2, 7):
        exact_doc, float_doc = semidirect_documents(rng, dim)
        inputs.append((exact_doc.algebra(), exact_doc.metric))
    for alg, metric in inputs:
        conn = levi_civita(alg, metric)
        direct = connection_from_table(alg, metric, conn.gamma)
        assert (direct.den, direct.rows) == (conn.den, conn.rows)
        assert (conn.den, conn.rows) == cleared_nested(conn.gamma)
        assert direct.gram is conn.gram is metric.cleared_gram
        want, got = riemann_tensor(conn), riemann_tensor(direct)
        assert got.gram is metric.cleared_gram
        assert (got.rows, got.den, got.op) == (want.rows, want.den, want.op)
        assert all(type(x) is int or x == 0 for p in got.rows for row in p for x in row)
    conn = levi_civita(float_doc.algebra(), float_doc.metric)
    direct = connection_from_table(conn.algebra, conn.metric, conn.gamma)
    assert direct.gram is conn.gram is None and direct.den == conn.den == 1
    assert riemann_tensor(direct).rows == riemann_tensor(conn).rows


def test_exact_curvature_and_basis_planes_skip_the_generic_paths(monkeypatch):
    """Counts, not timings, of linalg.cleared and linalg.contract: levi_civita clears the
    Gram matrix once per metric and the structure once per algebra; riemann_tensor (with no
    contract call either), the basis planes, an exact is_positive_definite and
    scalar_curvature and parallel_fields clear nothing; an exact Vector is cleared once, when
    its int form is first read, and not again by the readers of that form; an int row takes
    the den-1 path, with no as_integer_ratio call, and solve_cleared on int rows clears no
    row."""
    counts = dict.fromkeys(("contract", "cleared", "as_integer_ratio"), 0)
    for owner, name in ((linalg, "contract"), (linalg, "cleared"), (F, "as_integer_ratio")):
        def spy(*args, name=name, real=getattr(owner, name)):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, spy)
    exact_doc, _ = semidirect_documents(random.Random(20130524), 5)
    metric, alg = exact_doc.metric, exact_doc.algebra()
    conn = levi_civita(alg, metric)
    levi_civita(alg, metric)
    assert counts["cleared"] == 2  # metric.cleared_gram, alg.cleared_structure
    counts.update(contract=0, cleared=0)
    rt = riemann_tensor(conn)
    assert rt.gram is not None and counts["contract"] == 0
    for i, j in combinations(range(5), 2):
        sectional(rt, metric, Vector.basis(5, i), Vector.basis(5, j))
    assert "op" not in vars(rt)
    assert metric.is_positive_definite()
    assert type(scalar_curvature(rt, metric)) is F
    assert counts["cleared"] == 0
    case = catalog.get_case(3)  # two parallel fields
    case_conn = levi_civita(case.algebra, case.metric)
    counts["cleared"] = 0
    drifts = parallel_fields(case_conn)
    assert len(drifts) == 2 and counts["cleared"] == 0
    rng = random.Random(20130526)
    u, v, w = (Vector(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5))
               for _ in range(3))
    drift = Vector([0, 0, 0, 0, F(1, 10 ** 6)])
    assert all(x.ints for x in (u, v, w, drift))
    assert counts["cleared"] == 4
    counts["cleared"] = 0
    plane_form(rt, u, v)
    r = curvature_apply(rt, u, v, w)
    build_randers(metric, drift, conn)
    metric.inner(u, w)
    metric.inner(r, v)  # born with its int form
    assert counts["cleared"] == 0
    counts["as_integer_ratio"] = 0
    assert Vector([3, 0, -2, 7, 1]).ints == (1, [3, 0, -2, 7, 1])
    assert linalg.cleared([F(1, 2), 3, 0]) == (2, [1, 6, 0])
    assert counts["cleared"] == 2 and counts["as_integer_ratio"] == 1  # the one Fraction
    counts.update(cleared=0, as_integer_ratio=0)
    matrix, rhs = [[2, 1, 0], [1, 3, 1], [0, 1, 4]], [[1, 0, 0], [5, -2, 7]]
    den, solutions = linalg.solve_cleared(matrix, rhs)
    assert counts["cleared"] == counts["as_integer_ratio"] == 0
    assert [[F(x, den) for x in y] for y in solutions] == \
        solve_many([[F(x) for x in row] for row in matrix], rhs)


def test_exact_bilinear_forms_make_no_contract_call(monkeypatch):
    """Exact plane_form (a non-basis and a basis plane), flag_curvature, MetricTensor.inner and
    orthonormal_pair read their int forms with linalg.bilinear: no linalg.contract or
    linalg.form call. A mixed vector takes linalg.form, so the spy sees the generic path where
    it runs."""
    calls = []
    for name in ("contract", "form"):
        monkeypatch.setattr(linalg, name, lambda *args, real=getattr(linalg, name):
                            calls.append(args) or real(*args))
    case, conn, rt = pipeline(3)
    rm = build_randers(case.metric, Vector([0, 0, F(1, 2), 0]), conn)
    assert rm.berwald
    u, v = Vector([F(1, 2), F(1, 3), 1, 0]), Vector([3, F(-4, 7), 0, F(2, 5)])
    calls.clear()
    numerator, det, uu = plane_form(rt, u, v)
    basis = plane_form(rt, Vector.basis(4, 0), Vector.basis(4, 2))
    k = flag_curvature(rm, rt, Flag(u, v))
    inner = case.metric.inner(u, v)
    pair = linalg.orthonormal_pair(case.metric, u, v)
    assert calls == []
    assert all(type(x) is F for x in (numerator, det, uu, *basis, k, inner, *pair[0]))
    assert (numerator, det, uu) == plane_form_per_call(rt, u, v)
    calls.clear()
    plane_form(rt, u, Vector([3, 0.5, 0, 0]))
    assert calls


def test_exact_vectors_on_a_decimal_document_make_no_contract_call(monkeypatch):
    """On a decimal document (a float tensor and a float Gram matrix) exact basis and non-basis
    vectors read their int forms: plane_form, sectional and MetricTensor.inner go through
    linalg.form over the int forms, make no linalg.contract call and build no vector's Fraction
    coeffs, and give the bits of the Fraction contraction."""
    calls = []
    monkeypatch.setattr(linalg, "contract", lambda *args, real=linalg.contract:
                        calls.append(args) or real(*args))
    doc = semidirect_documents(random.Random(20130525), 4)[1]
    rt = riemann_tensor(levi_civita(doc.algebra(), doc.metric))
    assert rt.gram is None and all(type(x) is float for row in doc.metric.gram for x in row)
    vectors = [Vector.basis(4, 0), Vector.basis(4, 2), Vector([3, -1, 0, 2], 7),
               Vector([1, 4, -5, 0], 3)]
    pairs = [(vectors[0], vectors[1]), (vectors[2], vectors[3]), (vectors[1], vectors[3])]
    calls.clear()
    got = [(plane_form(rt, u, v), sectional(rt, doc.metric, u, v), doc.metric.inner(u, v))
           for u, v in pairs]
    assert calls == []
    assert all(x._coeffs is None for x in vectors)
    for (form, _, inner), (u, v) in zip(got, pairs):
        assert repr(form) == repr(plane_form_per_call(rt, u, v))
        assert repr(inner) == repr(linalg.contract(doc.metric.gram, u.coeffs, v.coeffs))


def test_riemann_tensor_has_one_loop_for_both_stores(monkeypatch):
    """Exact and float connections run the same commutator loop: riemann_tensor calls no
    linalg.contract on either."""
    exact_doc, float_doc = semidirect_documents(random.Random(20130525), 4)
    conns = [levi_civita(d.algebra(), d.metric) for d in (exact_doc, float_doc)]
    assert [c.gram is None for c in conns] == [False, True]

    def refuse(*args):
        raise AssertionError("riemann_tensor called linalg.contract")
    monkeypatch.setattr(linalg, "contract", refuse)
    for conn in conns:
        riemann_tensor(conn)


# --- curvature operator on 2-forms --------------------------------------------


def test_curvature_operator_matches_lowered_dense_oracle():
    """op against the dense table lowered by g, on R x_D R^(n-1) with random
    positive-definite metrics, dims 2-8: the identical Fraction when exact,
    1e-9 relative when floating. op is pair-symmetric and satisfies the first
    Bianchi identity op[ab,cd] - op[ac,bd] + op[ad,bc] = 0 for a<b<c<d."""
    rng = random.Random(20130518)
    checked = {False: 0, True: 0}
    for dim in range(2, 9):
        exact_doc, float_doc = semidirect_documents(rng, dim)
        # the same algebra under g/3 + I/5, so the Gram matrix is cleared by G = 15
        scaled = MetricTensor([[F(x) / 3 + F(int(i == j), 5) for j, x in enumerate(row)]
                               for i, row in enumerate(exact_doc.metric.gram)])
        setups = [(exact_doc.algebra(), exact_doc.metric, False)]
        if dim <= 6:
            setups += [(exact_doc.algebra(), scaled, False),
                       (float_doc.algebra(), float_doc.metric, True)]
        for alg, metric, is_float in setups:
            conn = levi_civita(alg, metric)
            rt = riemann_tensor(conn)
            assert "op" not in vars(rt)  # lowered on first read, not by riemann_tensor
            pairs = list(combinations(range(dim), 2))
            at = {pair: p for p, pair in enumerate(pairs)}
            if is_float:
                assert rt.gram is None and rt.op_den == 1
                op = rt.op
                assert all(isinstance(x, float) or x == 0 for row in op for x in row)
            else:
                assert all(type(x) is int for row in rt.op for x in row)
                op = [[F(x, rt.op_den) for x in row] for row in rt.op]
            want = curvature_operator_dense(conn)
            assert len(op) == len(pairs) and all(len(row) == len(pairs) for row in op)
            for p in range(len(pairs)):
                for q in range(len(pairs)):
                    a, b = op[p][q], want[p][q]
                    if is_float:
                        assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (dim, p, q)
                        assert abs(a - op[q][p]) <= 1e-9 * max(1.0, abs(a)), (dim, p, q)
                    else:
                        assert type(b) is F and a == b, (dim, p, q)
                        assert a == op[q][p], (dim, p, q)
            for a, b, c, d in combinations(range(dim), 4):
                total = op[at[a, b]][at[c, d]] - op[at[a, c]][at[b, d]] + op[at[a, d]][at[b, c]]
                assert abs(total) <= 1e-9 if is_float else total == 0, (dim, a, b, c, d)
            checked[is_float] += 1
    assert checked == {False: 12, True: 5}


def test_curvature_operator_of_a_catalog_case():
    # case 1 (K <= 0): op is -1 on e_0^e_1, e_0^e_3 and e_1^e_3, zero elsewhere
    _, _, rt = pipeline(1)
    assert rt.op_den == 1
    assert [list(row) for row in rt.op] == [[-1 if p == q and p in (0, 2, 4) else 0
                                             for q in range(6)] for p in range(6)]


# --- sectional ---------------------------------------------------------------


def test_sectional_basis_planes_hyperbolic_case():
    case, _, rt = pipeline(1)
    values = {}
    for i in range(4):
        for j in range(i + 1, 4):
            _, k = sectional(rt, case.metric, Vector.basis(4, i), Vector.basis(4, j))
            values[(i, j)] = k
    assert values == {(0, 1): -1, (0, 2): 0, (0, 3): -1,
                      (1, 2): 0, (1, 3): -1, (2, 3): 0}


def test_sectional_plane_invariance(rng):
    case, _, rt = pipeline(3)
    for _ in range(10):
        u, v = rand_vector(rng, 4), rand_vector(rng, 4)
        t = (F(rng.randint(1, 3)), F(rng.randint(-2, 2)),
             F(rng.randint(-2, 2)), F(rng.randint(1, 3)))
        if t[0] * t[3] - t[1] * t[2] == 0:
            continue
        try:
            report = sectional_plane_invariance_check(rt, case.metric, u, v, t)
        except DegeneratePlaneError:
            continue
        assert report.passed


def decimal_vector(rng, dim):
    """A float vector from rational draws, with about a third of its entries 0.0."""
    return Vector(0.0 if rng.random() < 0.35 else float(rand_fraction(rng))
                  for _ in range(dim))


def assert_same_outcome(got_call, want_call, where):
    """Both calls raise the same exception type with the same message, or both
    return scalars (or tuples of them) of the same types: the identical
    Fraction when exact, 1e-12 relative to max(1, |want|) when floating.
    Returns the result, or None when both raised."""
    try:
        want = want_call()
    except LiecurvError as exc:
        with pytest.raises(type(exc)) as info:
            got_call()
        assert type(info.value) is type(exc) and str(info.value) == str(exc), where
        return None
    got = got_call()
    for a, b in zip(*((x if isinstance(x, tuple) else (x,)) for x in (got, want))):
        assert type(a) is type(b), (where, got, want)
        if isinstance(b, float):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (where, got, want)
        else:
            assert a == b, (where, got, want)
    return got


def sectional_setups():
    """(label, metric, curvature tensor) for the six cases, case 4 at a
    decimal alpha, cases 1 and 6 carried to non-identity Gram matrices, and
    R x_D R^(n-1) documents of dims 3-6, exact and floating."""
    rng = random.Random(20130519)
    out = [(f"case {c.id}", c.algebra, c.metric) for c in
           [catalog.get_case(i) for i in (1, 2, 3, 5, 6)]
           + [catalog.get_case(4, alpha=F(1, 3), beta=F(-2)),
              catalog.get_case(4, alpha=0.5, beta=F(1, 3))]]
    for case_id in (1, 6):
        case = catalog.get_case(case_id)
        out.append((f"case {case_id} carried",
                    *change_basis(case.algebra, case.metric, rand_invertible(rng, 4))))
    for dim in range(3, 7):
        exact_doc, float_doc = semidirect_documents(rng, dim)
        out += [(f"dim {dim} {kind}", doc.algebra(), doc.metric)
                for kind, doc in (("exact", exact_doc), ("float", float_doc))]
    for case_id in (1, 6):  # a Gram matrix with denominators, cleared in plane_form
        case = catalog.get_case(case_id)
        rows = [[x / 2 for x in row] for row in rand_invertible(rng, 4)]
        out.append((f"case {case_id} carried by halves",
                    *change_basis(case.algebra, case.metric, rows)))
    for label, alg, metric in out:
        yield label, metric, riemann_tensor(levi_civita(alg, metric))


def test_sectional_matches_dense_oracle():
    """sectional against the dense contraction it replaced: basis, rational,
    decimal (0.0 entries included) and mixed planes, and dependent or zero
    spanning vectors, on exact and floating tensors."""
    rng = random.Random(20130520)
    kinds = {"exact": 0, "float": 0, "raised": 0}
    for label, metric, rt in sectional_setups():
        n = rt.dim
        planes = [(Vector.basis(n, i), Vector.basis(n, j))
                  for i in range(n) for j in range(i + 1, n)]
        for _ in range(6):
            planes.append((rand_vector(rng, n), rand_vector(rng, n)))
            planes.append((decimal_vector(rng, n), decimal_vector(rng, n)))
            planes.append((rand_vector(rng, n), decimal_vector(rng, n)))
        u, d = rand_vector(rng, n), decimal_vector(rng, n)
        planes += [(u, vscale(u, F(-3, 2))), (Vector.zero(n), u), (d, vscale(d, 2.5)),
                   (u, Vector([0.0] * n))]
        for u, v in planes:
            got = assert_same_outcome(lambda: sectional(rt, metric, u, v),
                                      lambda: sectional_dense(rt, metric, u, v),
                                      (label, list(u), list(v)))
            kinds["raised" if got is None else
                  "float" if isinstance(got[1], float) else "exact"] += 1
    assert min(kinds.values()) >= 40, kinds


def test_float_planes_on_an_exact_tensor_past_the_float_range():
    """An exact tensor whose op_den and op entries pass 1e308: float and mixed
    planes give what the dense oracle gives, and so does a zero-drift flag."""
    rng = random.Random(20130523)
    alpha = F(1, 10 ** 200 + 7)
    case, conn, rt = pipeline(4, alpha=alpha, beta=F(0))
    assert rt.op_den > 10 ** 400 and max(abs(x) for row in rt.op for x in row) > 10 ** 400
    planes = [(Vector([0.5, 1, 0, 0]), Vector([0, 0, 1, 0])),
              (Vector([0.5, 1.0, 0.0, 0.0]), Vector([0.0, 0.0, 1.0, 0.0]))]
    planes += [(decimal_vector(rng, 4), rand_vector(rng, 4)) for _ in range(8)]
    flat = build_randers(case.metric, Vector.zero(4), conn)
    for u, v in planes:
        got = assert_same_outcome(lambda: sectional(rt, case.metric, u, v),
                                  lambda: sectional_dense(rt, case.metric, u, v), (u, v))
        assert got is None or isinstance(got[1], float)
        assert_same_outcome(lambda: flag_curvature(flat, rt, Flag(u, v)),
                            lambda: sectional_dense(rt, case.metric, u, v)[1], (u, v))


def test_sectional_rejects_dependent_vectors():
    case, _, rt = pipeline(1)
    u = Vector([F(1), F(2), F(0), F(0)])
    with pytest.raises(DegeneratePlaneError):
        sectional(rt, case.metric, u, vscale(u, F(3)))


def test_dim_1_spans_no_plane():
    metric = MetricTensor.identity(1)
    conn = levi_civita(LieAlgebra.from_brackets(1, {}), metric)
    rt = riemann_tensor(conn)
    assert curvature_apply(rt, [1], [1], [1]) == Vector.zero(1)
    assert plane_form(rt, [2], [3]) == (0, 0, 4)
    # in dim 1 even an underflowing g(u,u) g(v,v) leaves the plane dependent
    for u, v in (([1], [1]), ([0.5], [1e-200]), ([1e-200], [1e-200])):
        with pytest.raises(DegeneratePlaneError, match="independent spanning vectors"):
            sectional(rt, metric, u, v)
    for pole, edge in (([1], [1]), ([0.5], [1e-200])):
        with pytest.raises(DegeneratePlaneError, match="linearly dependent"):
            flag_curvature(build_randers(metric, [0], conn), rt, Flag(Vector(pole), Vector(edge)))


# --- scalar ------------------------------------------------------------------


def test_scalar_curvature_catalog_values():
    expected = {1: F(-6), 2: F(-1, 2), 3: F(-2), 5: F(-4), 6: F(-5, 2)}
    for case_id, want in expected.items():
        case, _, rt = pipeline(case_id)
        assert scalar_curvature(rt, case.metric) == want


def test_scalar_curvature_parameterized_family():
    for alpha, beta in ((F(-1), F(0)), (F(2), F(1)), (F(0), F(-2))):
        case, _, rt = pipeline(4, alpha=alpha, beta=beta)
        want = -((1 + alpha) ** 2) / 2 - 2 * beta ** 2 - 6
        assert scalar_curvature(rt, case.metric) == want


def test_scalar_invariant_under_basis_change(rng):
    # transport structure constants and Gram together: scalar is unchanged
    for case_id in (1, 3, 6):
        case = catalog.get_case(case_id)
        base = scalar_curvature(riemann_tensor(levi_civita(case.algebra, case.metric)),
                                case.metric)
        for _ in range(3):
            rows = rand_invertible(rng, 4)
            alg2, g2 = change_basis(case.algebra, case.metric, rows)
            assert scalar_curvature(riemann_tensor(levi_civita(alg2, g2)), g2) == base


def test_scalar_invariant_under_rotation(rng):
    case = catalog.get_case(6)
    base = scalar_curvature(riemann_tensor(levi_civita(case.algebra, case.metric)),
                            case.metric)
    for _ in range(3):
        rows = cayley_rotation(rng, 4)
        alg2, g2 = change_basis(case.algebra, case.metric, rows)
        # rotations keep the Gram matrix the identity
        assert g2.gram == MetricTensor.identity(4).gram
        assert scalar_curvature(riemann_tensor(levi_civita(alg2, g2)), g2) == base


def test_ricci_trace_matches_gram_schmidt_oracle():
    """The Ricci trace against the sum of sectional curvatures over a
    Gram-Schmidt basis: the identical Fraction when exact, 1e-9 relative
    when floating."""
    rng = random.Random(20130514)
    inputs = [(c.algebra, c.metric) for c in
              [catalog.get_case(i) for i in (1, 2, 3, 5, 6)]
              + [catalog.get_case(4, alpha=a, beta=b)
                 for a in range(-2, 2) for b in range(-2, 2)]]
    for case_id in (1, 6):
        case = catalog.get_case(case_id)
        for rows in (rand_invertible(rng, 4), rand_invertible(rng, 4),
                     cayley_rotation(rng, 4)):
            inputs.append(change_basis(case.algebra, case.metric, rows))
    for dim in range(2, 7):
        for _ in range(2):
            inputs += [(doc.algebra(), doc.metric)
                       for doc in semidirect_documents(rng, dim)]
    floating = 0
    for alg, metric in inputs:
        rt = riemann_tensor(levi_civita(alg, metric))
        got = scalar_curvature(rt, metric)
        want = scalar_curvature_gram_schmidt(rt, metric)
        if isinstance(want, float):
            floating += 1
            assert isinstance(got, float)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        else:
            assert type(got) is F and got == want
    assert floating == 10


# --- parallel fields ---------------------------------------------------------


def test_parallel_field_bases():
    expected = {1: [[0, 0, 1, 0]], 2: [[0, 0, 0, 1]],
                3: [[0, 0, 1, 0], [0, 0, 0, 1]], 5: [], 6: [[0, 0, 1, 0]]}
    for case_id, want in expected.items():
        _, conn, _ = pipeline(case_id)
        got = [list(v) for v in parallel_fields(conn)]
        assert got == want


def test_parallel_fields_parameter_dependence():
    _, conn, _ = pipeline(4, alpha=F(-1), beta=F(0))
    assert [list(v) for v in parallel_fields(conn)] == [[0, 0, 0, 1]]
    _, conn, _ = pipeline(4, alpha=F(2), beta=F(1))
    assert parallel_fields(conn) == []
