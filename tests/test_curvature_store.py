"""Differential property test of the curvature store.

The same hypothesis draws as the connection-store test (R x_D R^(n-1) algebras in dims 2-6,
moved or not, exact, float or with one decimal 0.0): riemann_tensor's commutator loop is
compared with the four-contraction form of oracles.riemann_reference, and every basis-plane
sectional curvature, read from its row alone, with the one read from the whole op.
"""

from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oracles import basis_plane_from_op, riemann_reference  # noqa: E402
from test_connection_store import MOVES, geometry  # noqa: E402
from liecurv.algebra import Vector  # noqa: E402
from liecurv.riemann import levi_civita, riemann_tensor, sectional  # noqa: E402


# float rows with an entry that no term reaches: int 0, or 0.0 if a 0.0 entry of gamma were
# read; the last two also hold entries that only 0.0 coefficients reach: 0.0, not int 0
@example(seed=0, dim=2, identity=False, move="basis", variant="float")
@example(seed=2, dim=3, identity=True, move="none", variant="float")
@example(seed=2, dim=3, identity=True, move="basis", variant="decimal_zero")
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(2, 6), identity=st.booleans(),
       move=st.sampled_from(sorted(MOVES)),
       variant=st.sampled_from(("exact", "float", "decimal_zero")))
def test_curvature_store_matches_the_contractions(seed, dim, identity, move, variant):
    alg, metric, _ = geometry(seed, dim, identity, move, variant)
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
