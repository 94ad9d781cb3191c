"""Boundary fuzz of the command line, on the inputs that hold expressions.

hypothesis draws the dimension of a document (1 to 4) and its coefficients
(brackets, metric, drift), `params` values, catalog `--alpha`/`--beta` values,
`--precision` and the components of the vector options (`--u`/`--v`,
`--pole`/`--edge`, `--drift`) from edge-valued pools:
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

A last test draws the structure of a document instead: one fault per
document (bad bracket indices, coeffs, metric shapes, keys, drift, nesting,
or no object at all), which must exit 1 with one `error:` line that names
the document or a path in it, or is one of the whole-input refusals above.
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
# --precision: the default, the fewest digits, every digit of a double, and past
# what format accepts.
PRECISIONS = (12, 1, 767, 10 ** 6, 2 ** 31)
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
    """R x_D R^(n-1) documents of dimension n from 1 to 4: each [e0, ek] lies in
    span(e1, ..., e(n-1)), so they satisfy Jacobi whatever D is, unless a drawn e0
    coefficient breaks it. A dim-1 document has no brackets."""
    n = draw(st.integers(1, 4))
    doc = {"dim": n, "brackets": [
        {"i": 0, "j": k, "coeffs": [draw(st.sampled_from(("0", "0", "0", "1/2"))),
                                    *(draw(coefficients) for _ in range(n - 1))]}
        for k in range(1, n)]}
    if draw(st.booleans()):
        doc["params"] = {name: draw(st.sampled_from(CLI_VALUES + PLAIN))
                         for name in draw(st.sets(st.sampled_from(("alpha", "beta"))))}
    if draw(st.booleans()):
        metric = [[draw(st.one_of(st.sampled_from(("1", "2", "1/2")), coefficients))
                   if i == j else "0" for j in range(n)] for i in range(n)]
        if n > 1 and draw(st.booleans()):
            metric[0][1] = draw(coefficients)
            metric[1][0] = draw(st.sampled_from((metric[0][1], "0")))
        doc["metric"] = metric
    if draw(st.booleans()):
        doc["drift"] = ["0", *(draw(coefficients) for _ in range(n - 1))]
    return doc


# Vector options are written for dim 3 and cut or padded with zeros to the document's.
DOC_COMMANDS = (["check"], ["scalar"], ["analyze"], ["parallel"],
                ["sectional", "--u=1,0,0", "--v=0,1,1/2"],
                ["randers", "--drift=1/2,0,0", "--pole=1,0,0", "--edge=0,1,0"],
                ["flag", "--drift=1/2,0,0", "--pole=1,1/2,0", "--edge=0,1,0"])
CASE_COMMANDS = (["scalar"], ["analyze"], ["parallel"],
                 ["sectional", "--u=1,0,0,0", "--v=0,1,0,1/2"],
                 ["flag", "--drift=0,0,0,1/2", "--pole=1,0,0,0", "--edge=0,1,0,0"])


def sized(argv: list, dim: int) -> list:
    out = []
    for arg in argv:
        if "=" in arg:
            name, value = arg.split("=")
            arg = f"{name}={','.join((value.split(',') + ['0'] * dim)[:dim])}"
        out.append(arg)
    return out


# What an error line may name: a document field, or an option.
NAMED = re.compile(r"error: (document(\.\w+|\[\d+\])*|--[a-z]+)\b")
# The README's refusals of a whole input (exit 1), which no single field causes.
WHOLE_INPUT = ("not a Lie algebra", "floating result", "exact value too large to print")
# The README's mathematical preconditions (exit 2); each names the drift, pole or plane.
PRECONDITIONS = ("drift must satisfy g(Q,Q) < 1", "drift is not parallel",
                 "requires a parallel drift", "linearly dependent", "independent spanning",
                 "zero vector", "the pole's g(y,y)", "undefined at y = 0", "pole must be nonzero",
                 "a positive exact value under a square root", "the plane's g(u,u) g(v,v)")


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
       fmt=st.sampled_from(("text", "json")), precision=st.sampled_from(PRECISIONS))
def test_documents_with_edge_expressions(doc_path, doc, command, fmt, precision):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    check_run([*sized(command, doc["dim"]), str(doc_path), f"--format={fmt}",
               f"--precision={precision}"])


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(alpha=st.sampled_from(CLI_VALUES), beta=st.sampled_from(CLI_VALUES),
       command=st.sampled_from(CASE_COMMANDS), fmt=st.sampled_from(("text", "json")),
       precision=st.sampled_from(PRECISIONS))
def test_case_parameters_at_the_edges(alpha, beta, command, fmt, precision):
    check_run([*command, "--case=4", f"--alpha={alpha}", f"--beta={beta}", f"--format={fmt}",
               f"--precision={precision}"])


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
@given(argv=vector_commands(), fmt=st.sampled_from(("text", "json")),
       precision=st.sampled_from(PRECISIONS))
def test_vector_options_at_the_edges(argv, fmt, precision):
    check_run([*argv, f"--format={fmt}", f"--precision={precision}"])


# --- documents of other shapes -------------------------------------------------

# Each fault below makes a document invalid whatever else it holds.
NOT_INTS = ("0", 0.5, 1.0, None, True, [0], {"i": 0})
NOT_LISTS = ("0,1", "", 1, 0.5, True, {"0": "1"})
NOT_SCALARS = (None, True, [1], {"a": 1})
# A JSON array nested past the parser's recursion limit, and one under it.
DEEP = {"\u0000deep": "[" * 100_000 + "]" * 100_000, "\u0000shallow": "[" * 500 + "]" * 500}


def _bracket(draw, doc: dict) -> dict:
    """A drawn bracket entry of doc; a dim-1 document gains one, out of range."""
    if not doc["brackets"]:
        doc["brackets"].append({"i": 0, "j": 1, "coeffs": ["0"] * doc["dim"]})
    return draw(st.sampled_from(doc["brackets"]))


def _bad_indices(draw, doc, n):
    entry = _bracket(draw, doc)
    if draw(st.booleans()):
        entry[draw(st.sampled_from(("i", "j")))] = draw(st.sampled_from(NOT_INTS))
    else:  # i >= j, or j out of range
        entry["i"] = i = draw(st.integers(-1, n))
        entry["j"] = draw(st.sampled_from((i, i - 1, n, n + 1, -1, 10 ** 30)))


def _repeated_bracket(draw, doc, n):
    doc["brackets"].append(dict(_bracket(draw, doc)))


def _bad_coeffs(draw, doc, n):
    entry = _bracket(draw, doc)
    roll = draw(st.integers(0, 2))
    if roll == 0:
        entry["coeffs"] = ["0"] * draw(st.sampled_from([k for k in (0, n - 1, n + 1) if k != n]))
    elif roll == 1:
        entry["coeffs"] = draw(st.sampled_from(NOT_LISTS + (None,)))
    else:
        entry["coeffs"] = list(entry["coeffs"])
        entry["coeffs"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(NOT_SCALARS))


def _bad_metric(draw, doc, n):
    rows = [["1" if r == c else "0" for c in range(n)] for r in range(n)]
    roll = draw(st.integers(0, 3))
    if roll == 0:  # not a list
        doc["metric"] = draw(st.sampled_from(("Identity", "", 1, None, True, {"0": ["1"]})))
        return
    if roll == 1:  # not square
        rows = draw(st.sampled_from(([], [r + ["0"] for r in rows], rows + [["0"] * n])))
    elif roll == 2:  # ragged
        r = draw(st.integers(0, n - 1))
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["0"]
    else:  # a row that is not a list, or an entry that is not a scalar
        r = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            rows[r] = draw(st.sampled_from(NOT_LISTS + (None,)))
        else:
            rows[r][draw(st.integers(0, n - 1))] = draw(st.sampled_from(NOT_SCALARS))
    doc["metric"] = rows


def _extra_key(draw, doc, n):
    where = draw(st.sampled_from(("document", "params", "bracket")))
    if where == "document":
        target = doc
    elif where == "params":
        target = doc.setdefault("params", {})
    else:
        target = _bracket(draw, doc)
    target[draw(st.sampled_from(("name", "Dim", "gamma", "coeff", "k", "")))] = "0"


def _missing_key(draw, doc, n):
    if draw(st.booleans()):
        del doc[draw(st.sampled_from(("dim", "brackets")))]
    else:
        del _bracket(draw, doc)[draw(st.sampled_from(("i", "j", "coeffs")))]


def _bad_top_values(draw, doc, n):
    key = draw(st.sampled_from(("dim", "brackets", "params", "basis", "drift")))
    if key == "dim":
        doc["dim"] = draw(st.sampled_from(("4", 0, -1, True, 4.0, 13, 10 ** 30)))
    elif key == "drift":  # the wrong length or type, or null
        doc["drift"] = draw(st.sampled_from(
            [["0"] * k for k in (0, n - 1, n + 1) if k != n]
            + ["0,0", {"0": "1"}, 0.5, True, None]))
    elif key == "basis":  # the wrong length, a repeated or empty label, or null
        doc["basis"] = draw(st.sampled_from(
            (["X"] * (n + 1), ["X"] * n if n > 1 else [], [""] * n, "XYZW", [1] * n, None)))
    else:
        doc[key] = draw(st.sampled_from(("alpha", 1, None, True) + (([], ["alpha"])
                                                                  if key == "params" else ())))


def _deep(draw, doc, n):
    marker = draw(st.sampled_from(sorted(DEEP)))
    where = draw(st.sampled_from(("document", "metric", "drift", "params", "coeffs")))
    if where == "document":
        return marker
    if where == "params":
        doc["params"] = {"alpha": marker}
    elif where == "coeffs":
        _bracket(draw, doc)["coeffs"] = marker
    else:
        doc[where] = marker
    return doc


@st.composite
def misshapen_documents(draw):
    """A valid R x_D R^(n-1) document, dimension 1 to 4, with one structural fault
    drawn into it, or replaced by a value that is not an object."""
    n = draw(st.integers(1, 4))
    doc = {"dim": n, "brackets": [{"i": 0, "j": k, "coeffs": ["0", *(
        draw(st.sampled_from(PLAIN[:6])) for _ in range(n - 1))]} for k in range(1, n)]}
    if draw(st.booleans()):
        doc["metric"] = [["2" if r == c else "0" for c in range(n)] for r in range(n)]
    if draw(st.booleans()):
        doc["drift"] = ["0"] * n
    if draw(st.booleans()):
        doc["params"] = {"alpha": "1"}
    if draw(st.booleans()):
        doc["basis"] = [f"e{k}" for k in range(n)]
    fault = draw(st.sampled_from((_bad_indices, _repeated_bracket, _bad_coeffs, _bad_metric,
                                  _extra_key, _missing_key, _bad_top_values, _deep, None)))
    if fault is None:
        return draw(st.sampled_from(([], [doc], "doc", 4, None, True)))
    return fault(draw, doc, n) or doc


# An error line that names the document or a path in it.
DOCUMENT_PATH = re.compile(r"error: document(\.\w+|\[\d+\])*\b")


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=misshapen_documents(), command=st.sampled_from(DOC_COMMANDS),
       fmt=st.sampled_from(("text", "json")))
def test_documents_of_other_shapes(doc_path, doc, command, fmt):
    text = json.dumps(doc)
    for marker, nested in DEEP.items():
        text = text.replace(json.dumps(marker), nested)
    doc_path.write_text(text, encoding="utf-8")
    code, out, err = run([*command, str(doc_path), f"--format={fmt}"])
    lines = err.splitlines()
    assert code == 1 and not out and len(lines) == 1, (doc, err, out)
    assert DOCUMENT_PATH.match(lines[0]) or any(w in lines[0] for w in WHOLE_INPUT), lines
