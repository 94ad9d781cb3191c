"""A symbolic oracle for the printed scalar curvatures.

sympy reads the brackets of data/cases.json over symbols alpha and beta, builds the
Levi-Civita connection of the identity metric by the Koszul formula, then R, Ricci and the
scalar, with no liecurv code. Each printed `scalar` must equal it as an identity; case 6 goes
through its scalar annotation, as acceptance criterion 1 does. Case 4's scalar then holds for
every alpha and beta, and liecurv's exact scalar_curvature matches it on a grid.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from liecurv import catalog  # noqa: E402
from liecurv.riemann import levi_civita, riemann_tensor, scalar_curvature  # noqa: E402

ALPHA, BETA = sympy.symbols("alpha beta", real=True)
NAMES = {"alpha": ALPHA, "beta": BETA}
CASES = Path(catalog.__file__).parent / "data" / "cases.json"


def read(text: str):
    return sympy.sympify(text, locals=NAMES, rational=True)


def symbolic_scalar(dim: int, brackets: list):
    """The scalar curvature of the identity metric on the algebra [e_i, e_j] = sum_k c_ij^k e_k.

    Koszul: Gamma_ij^k = g(nabla_{e_i} e_j, e_k) = (c_ij^k - c_jk^i + c_ki^j) / 2. With
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z, Ric(Y,Z) is the trace
    of X -> R(X,Y)Z and the scalar the trace of Ric in the orthonormal basis."""
    n = range(dim)
    c = [[[0] * dim for _ in n] for _ in n]
    for b in brackets:
        for k, text in enumerate(b["coeffs"]):
            c[b["i"]][b["j"]][k], c[b["j"]][b["i"]][k] = read(text), -read(text)
    gamma = [[[sympy.S.Half * (c[i][j][k] - c[j][k][i] + c[k][i][j]) for k in n] for j in n]
             for i in n]

    def curvature(i, j, k, l):  # coefficient of e_l in R(e_i, e_j) e_k
        return (sum(gamma[j][k][m] * gamma[i][m][l] - gamma[i][k][m] * gamma[j][m][l]
                    for m in n)
                - sum(c[i][j][m] * gamma[m][k][l] for m in n))

    return sympy.expand(sum(curvature(i, j, j, i) for i in n for j in n))


@pytest.fixture(scope="module")
def fixtures():
    with open(CASES, encoding="utf-8") as fh:
        rows = json.load(fh)
    return {row["id"]: (symbolic_scalar(row["dim"], row["brackets"]), row["expected"])
            for row in rows}


def test_printed_scalars_are_identities(fixtures):
    assert sorted(fixtures) == [1, 2, 3, 4, 5, 6]
    for cid, (scalar, expected) in fixtures.items():
        printed = read(expected["scalar"])
        if cid == 6:  # the annotated misprint: printed -7/2, the tables give -5/2
            note, = [a for a in expected["annotations"] if a["item"] == "scalar"]
            assert read(note["paper_value"]) == printed == sympy.Rational(-7, 2)
            assert read(note["computed_value"]) == scalar == sympy.Rational(-5, 2)
        else:
            assert sympy.expand(printed - scalar) == 0, (cid, printed, scalar)


def test_case_4_scalar_is_at_most_minus_6(fixtures):
    scalar = fixtures[4][0]
    assert scalar.free_symbols == {ALPHA, BETA}
    # -6 - S is a sum of squares with positive weights: S <= -6 for every alpha and beta
    assert sympy.expand(-6 - scalar - (1 + ALPHA) ** 2 / 2 - 2 * BETA ** 2) == 0


def test_liecurv_scalar_matches_the_symbolic_one(fixtures):
    scalar = fixtures[4][0]
    points = [(Fraction(a), Fraction(b)) for a in range(-2, 2) for b in range(-2, 2)]
    for alpha, beta in points + [(Fraction(1, 2), Fraction(1, 3))]:
        case = catalog.get_case(4, alpha=alpha, beta=beta)
        got = scalar_curvature(riemann_tensor(levi_civita(case.algebra, case.metric)),
                               case.metric)
        want = scalar.subs({ALPHA: sympy.Rational(alpha.numerator, alpha.denominator),
                            BETA: sympy.Rational(beta.numerator, beta.denominator)})
        assert isinstance(got, Fraction) and got == Fraction(int(want.p), int(want.q))
