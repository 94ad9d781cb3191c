"""Boundary fuzz of the command line, on the inputs that hold expressions.

hypothesis draws document coefficients (brackets, metric, drift), `params`
values, catalog `--alpha`/`--beta` values and the components of the vector
options (`--u`/`--v`, `--pole`/`--edge`, `--drift`) from edge-valued pools:
huge, tiny and signed-zero literals, literals past Python's int-string digit
limit, powers at and past MAX_EXPONENT, division by zero, unbound names, and
for vectors nan, inf, blank components and wrong component counts.
Each draw runs one command through `cli.main` in process. Every run must:

- end with an exit code that the README lists, with no exception escaping;
- on exit 1 or 2, print one `error:` line, which names the document field or
  the option at fault, or is one of the README's refusals of a whole input
  (not a Lie algebra, a float result past the float range, an exact result
  too large to print, a mathematical precondition);
- in JSON, print a strict (RFC 8259) envelope.
"""

import contextlib
import io
import json
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from test_cli import loads  # noqa: E402
from liecurv.cli import main  # noqa: E402
from liecurv.exprs import MAX_EXPONENT  # noqa: E402

PAST_DIGITS = 4301  # Python's default int-string limit is 4300 digits

# Literals and names a coefficient may hold: plain ones, and the edge pools.
PLAIN = ("0", "1", "-1/2", "3/4", "0.5", "2", "alpha", "beta")
EDGES = (
    "1e308", "1e200", "9" * 300, "-7" + "0" * 200,                # huge
    "1e-320", "5e-324", "1e-400", "1/" + "3" * 300,               # tiny
    "-0.0", "0.0", "-0", "-(0.0)", "0.0*-1",                      # signed zeros
    "1" + "0" * PAST_DIGITS, "1/" + "7" * PAST_DIGITS,            # past the digit limit
    "0." + "3" * PAST_DIGITS,
    f"alpha^{MAX_EXPONENT}", f"2^{MAX_EXPONENT}", f"beta^-{MAX_EXPONENT}",
    f"3^{MAX_EXPONENT + 1}", f"(alpha^{MAX_EXPONENT})^{MAX_EXPONENT}",
    "1/0", "alpha/0", "1/(beta-beta)", "0.5/0",                   # division by zero
    "q", "gamma*alpha",                                           # unbound names
)
# Values of `params` and of --alpha/--beta: literals only, not expressions.
CLI_VALUES = ("1", "-1", "0", "1/3", "0.5", "-0.0", "1e308", "-1e308", "1e-400", "5e-324",
              "9" * 300, "1" + "0" * PAST_DIGITS, "1/0", "alpha", "2^64", "")

expressions = st.recursive(
    st.one_of(st.sampled_from(PLAIN), st.sampled_from(PLAIN), st.sampled_from(EDGES)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        inner.map(lambda x: f"-({x})"),
        st.tuples(inner, st.sampled_from((2, MAX_EXPONENT, -MAX_EXPONENT)))
        .map(lambda t: f"({t[0]})^{t[1]}")),
    max_leaves=4)
# A JSON value of a coefficient: mostly an expression string, sometimes a number.
coefficients = st.one_of(expressions, expressions, expressions,
                         st.sampled_from((0, 1, -0.0, 0.25, 1e308, 10 ** 300, float("inf"))))


@st.composite
def documents(draw) -> dict:
    """Three-dimensional R x_D R^2 documents: [e0, e1] and [e0, e2] lie in span(e1, e2),
    so they satisfy Jacobi whatever D is, unless a drawn e0 coefficient breaks it."""
    doc = {"dim": 3, "brackets": [
        {"i": 0, "j": k, "coeffs": [draw(st.sampled_from(("0", "0", "0", "1/2"))),
                                    draw(coefficients), draw(coefficients)]}
        for k in (1, 2)]}
    if draw(st.booleans()):
        doc["params"] = {name: draw(st.sampled_from(CLI_VALUES + PLAIN))
                         for name in draw(st.sets(st.sampled_from(("alpha", "beta"))))}
    if draw(st.booleans()):
        diagonal = [draw(st.one_of(st.sampled_from(("1", "2", "1/2")), coefficients))
                    for _ in range(3)]
        off = draw(coefficients) if draw(st.booleans()) else "0"
        doc["metric"] = [[diagonal[0], off, "0"], [draw(st.sampled_from((off, "0"))),
                                                   diagonal[1], "0"], ["0", "0", diagonal[2]]]
    if draw(st.booleans()):
        doc["drift"] = ["0", draw(coefficients), draw(coefficients)]
    return doc


DOC_COMMANDS = (["check"], ["scalar"], ["analyze"], ["parallel"],
                ["sectional", "--u=1,0,0", "--v=0,1,1/2"],
                ["randers", "--drift=1/2,0,0", "--pole=1,0,0", "--edge=0,1,0"],
                ["flag", "--drift=1/2,0,0", "--pole=1,1/2,0", "--edge=0,1,0"])
CASE_COMMANDS = (["scalar"], ["analyze"], ["parallel"],
                 ["sectional", "--u=1,0,0,0", "--v=0,1,0,1/2"],
                 ["flag", "--drift=0,0,0,1/2", "--pole=1,0,0,0", "--edge=0,1,0,0"])

# What an error line may name: a document field, or an option.
NAMED = re.compile(r"error: (document(\.\w+|\[\d+\])*|--[a-z]+)\b")
# The README's refusals of a whole input (exit 1), which no single field causes.
WHOLE_INPUT = ("not a Lie algebra", "floating result", "exact value too large to print")
# The README's mathematical preconditions (exit 2); each names the drift, pole or plane.
PRECONDITIONS = ("drift must satisfy g(Q,Q) < 1", "drift is not parallel",
                 "requires a parallel drift", "linearly dependent", "independent spanning",
                 "zero vector", "the pole's g(y,y)", "undefined at y = 0", "pole must be nonzero",
                 "a positive exact value under a square root")


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_run(argv: list) -> None:
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1 and argv[0] == "check" and not err:  # a failed check prints its report
        assert "check: FAIL" in out or loads(out)["status"] == 1, out
    elif code in (1, 2):
        lines = err.splitlines()
        assert len(lines) == 1 and not out, (argv, err, out)
        known = PRECONDITIONS if code == 2 else WHOLE_INPUT
        assert (code == 1 and NAMED.match(lines[0])) or any(w in lines[0] for w in known), lines
    elif "--format=json" in argv:
        assert isinstance(loads(out), dict)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), command=st.sampled_from(DOC_COMMANDS),
       fmt=st.sampled_from(("text", "json")))
def test_documents_with_edge_expressions(doc_path, doc, command, fmt):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    check_run([*command, str(doc_path), f"--format={fmt}"])


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(alpha=st.sampled_from(CLI_VALUES), beta=st.sampled_from(CLI_VALUES),
       command=st.sampled_from(CASE_COMMANDS), fmt=st.sampled_from(("text", "json")))
def test_case_parameters_at_the_edges(alpha, beta, command, fmt):
    check_run([*command, "--case=4", f"--alpha={alpha}", f"--beta={beta}", f"--format={fmt}"])


# Components of a vector option: plain literals, and the edge pool.
COMPONENTS = ("0", "0", "1", "-1", "1/2", "-1/3", "0.5", "2")
COMPONENT_EDGES = (
    "1e308", "-1e308", "1e200", "1e-320", "5e-324", "-0.0", "0.0", "-0",     # decimals
    "9" * 300, "-" + "7" * 300, "1/" + "3" * 300, "9" * 300 + "/" + "7" * 299,  # 300 digits
    "1" + "0" * PAST_DIGITS, "1/" + "7" * PAST_DIGITS, "-" + "3" * PAST_DIGITS + "/2",
    "1/0", "0/0", "nan", "-nan", "inf", "-inf", "1e999", "-1e999",              # not finite
    "", " ", "1/", "/2", "1 2", "x", "1,", "0x10",                              # malformed
)
# Each case with a parallel drift, and that drift: about half the draws keep it, so flag
# and randers reach the curvature with the drawn pole and edge.
VECTOR_CASES = ((["--case=1"], "0,0,1/2,0"), (["--case=2"], "0,0,0,1/2"),
                (["--case=3"], "0,0,1/3,1/3"), (["--case=6"], "0,0,1/2,0"),
                (["--case=4", "--alpha=-1", "--beta=0"], "0,0,0,1/2"))


@st.composite
def vectors(draw) -> str:
    """Four components as a rule, three or five now and then."""
    count = draw(st.sampled_from((4, 4, 4, 4, 3, 5)))
    pool = st.one_of(st.sampled_from(COMPONENTS), st.sampled_from(COMPONENT_EDGES))
    return ",".join(draw(pool) for _ in range(count))


@st.composite
def vector_commands(draw) -> list:
    case, drift = draw(st.sampled_from(VECTOR_CASES))
    command = draw(st.sampled_from(("sectional", "randers", "flag")))
    if command == "sectional":
        return ["sectional", *case, f"--u={draw(vectors())}", f"--v={draw(vectors())}"]
    drift = drift if draw(st.booleans()) else draw(vectors())
    argv = [command, *case, f"--drift={drift}"]
    if command == "flag" or draw(st.booleans()):
        argv += [f"--pole={draw(vectors())}", f"--edge={draw(vectors())}"]
    return argv


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=vector_commands(), fmt=st.sampled_from(("text", "json")))
def test_vector_options_at_the_edges(argv, fmt):
    check_run([*argv, f"--format={fmt}"])
