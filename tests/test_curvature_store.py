"""Differential property test of the curvature store.

The same hypothesis draws as the connection-store test (R x_D R^(n-1) algebras in dims 2-6,
moved or not, exact, float or with one decimal 0.0): riemann_tensor's commutator loop is
compared with the four-contraction form of oracles.riemann_reference, and every basis-plane
sectional curvature, read from its row alone, with the one read from the whole op. Four
vectors of drawn kinds (exact, decimal, mixed or basis, with Fraction(0) and -0.0 entries)
go through plane_form, curvature_apply, MetricTensor.inner and build_randers, which read
their int forms, and through the references that clear them on every call. On exact draws,
the second Bianchi identity holds exactly on basis quadruples.
"""

from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oracles import (basis_plane_from_op, berwald_reference,  # noqa: E402
                     curvature_apply_per_call, inner_per_call, plane_form_per_call,
                     riemann_reference)
from test_connection_store import MOVES, geometry, small  # noqa: E402
from liecurv.algebra import Vector  # noqa: E402
from liecurv.randers import build_randers  # noqa: E402
from liecurv.riemann import (curvature_apply, levi_civita, plane_form,  # noqa: E402
                             riemann_tensor, sectional)
from liecurv.scalars import is_exact  # noqa: E402

KINDS = ("exact", "decimal", "mixed", "basis")


def drawn_vector(rng, dim: int, kind: str) -> Vector:
    """A vector of the kind: a basis vector, or p/q entries with one Fraction(0) that stay
    exact, all turn decimal with one -0.0, or keep one decimal and one -0.0 among them."""
    if kind == "basis":
        return Vector.basis(dim, rng.randrange(dim))
    xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
    i, j = rng.randrange(dim), rng.randrange(dim)
    if kind == "exact":
        xs[i] = Fraction(0)
    elif kind == "decimal":
        xs = [float(x) for x in xs]
        xs[i] = -0.0
    else:
        xs[i], xs[j] = float(xs[i]), -0.0
    return Vector(xs)


def same(got, want) -> bool:
    """Exact results by value, the rest by repr, component by component."""
    if isinstance(want, (tuple, list, Vector)):
        return len(got) == len(want) and all(map(same, got, want))
    return got == want if is_exact(got) and is_exact(want) else repr(got) == repr(want)


# float rows with an entry that no term reaches: int 0, or 0.0 if a 0.0 entry of gamma were
# read; the last two also hold entries that only 0.0 coefficients reach: 0.0, not int 0
@example(seed=0, dim=2, identity=False, move="basis", variant="float",
         kinds=["exact", "mixed", "basis", "decimal"])
@example(seed=2, dim=3, identity=True, move="none", variant="float",
         kinds=["basis", "exact", "decimal", "mixed"])
@example(seed=2, dim=3, identity=True, move="basis", variant="decimal_zero",
         kinds=["exact", "exact", "basis", "exact"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(2, 6), identity=st.booleans(),
       move=st.sampled_from(sorted(MOVES)),
       variant=st.sampled_from(("exact", "float", "decimal_zero")),
       kinds=st.lists(st.sampled_from(KINDS), min_size=4, max_size=4))
def test_curvature_store_matches_the_contractions(seed, dim, identity, move, variant, kinds):
    alg, metric, rng = geometry(seed, dim, identity, move, variant)
    conn = levi_civita(alg, metric)
    rt, ref = riemann_tensor(conn), riemann_reference(conn)
    assert (rt.den, rt.op_den, rt.gram) == (ref.den, ref.op_den, ref.gram)
    entries = [x for p in rt.rows for row in p for x in row]
    if variant == "exact":
        # by value: an entry no term reaches is int 0 here, Fraction(0) in the reference
        assert rt.rows == ref.rows
        assert all(type(x) is int for x in entries)
    else:  # bit for bit, once the reference's Fraction(0) of an unreached entry reads 0
        unreached = [[[0 if type(x) is Fraction and not x else x for x in row] for row in p]
                     for p in ref.rows]
        assert repr(rt.rows) == repr(unreached)
        assert not any(isinstance(x, Fraction) for x in entries)

    planes = {(i, j): sectional(rt, metric, Vector.basis(dim, i), Vector.basis(dim, j))
              for i, j in combinations(range(dim), 2)}
    assert "op" not in vars(rt)
    assert repr(rt.op) == repr(ref.op)
    for (i, j), plane in planes.items():
        assert repr(plane) == repr(basis_plane_from_op(rt, i, j)), (i, j)

    u, v, w, q = (drawn_vector(rng, dim, kind) for kind in kinds)
    assert same(plane_form(rt, u, v), plane_form_per_call(rt, u, v)), (u, v)
    assert same(curvature_apply(rt, u, v, w), curvature_apply_per_call(rt, u, v, w))
    for a, b in ((u, v), (v, w), (w, q), (q, q)):
        assert same(metric.inner(a, b), inner_per_call(metric, a, b)), (a, b)
    drift = Vector(small(metric, q))
    assert build_randers(metric, drift, conn).berwald == berwald_reference(conn, drift)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(2, 6), identity=st.booleans(),
       move=st.sampled_from(sorted(MOVES)))
def test_second_bianchi_identity(seed, dim, identity, move):
    # (nabla_X R)(Y,Z)W + (nabla_Y R)(Z,X)W + (nabla_Z R)(X,Y)W = 0 exactly on basis
    # quadruples of exact tables, with X, Y, Z distinct where the dimension allows
    alg, metric, rng = geometry(seed, dim, identity, move, "exact")
    conn = levi_civita(alg, metric)
    rt, nabla = riemann_tensor(conn), conn.derivative
    e = [Vector.basis(dim, i) for i in range(dim)]

    def r(y, z, w):
        return curvature_apply(rt, y, z, w)

    def nabla_r(x, y, z, w):  # (nabla_x R)(y, z)w for left-invariant fields
        return (nabla(x, r(y, z, w)) - r(nabla(x, y), z, w) - r(y, nabla(x, z), w)
                - r(y, z, nabla(x, w)))

    for _ in range(4):
        i, j, k = rng.sample(range(dim), 3) if dim > 2 else (0, 1, rng.randrange(2))
        x, y, z, w = e[i], e[j], e[k], e[rng.randrange(dim)]
        total = nabla_r(x, y, z, w) + nabla_r(y, z, x, w) + nabla_r(z, x, y, w)
        assert all(type(t) is Fraction and not t for t in total), (i, j, k, total)
