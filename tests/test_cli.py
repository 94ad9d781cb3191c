import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from test_exact_vs_float import close, semidirect_objects
from liecurv import catalog, exprs, randers, riemann
from liecurv.algebra import Vector
from liecurv.cli import MAX_GRID_POINTS, main
from liecurv.documents import MAX_DIM, document_digest, load_document, serialize_document
from liecurv.errors import InputError
from liecurv.exprs import MAX_EXPR_BITS, MAX_EXPR_TOKENS, MAX_POWER_BITS

ENVELOPE_KEYS = {"command", "digest", "discrepancies", "sections", "status"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _not_json(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_not_json)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, loads(out), err


def write_doc(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# --- basics -------------------------------------------------------------------


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "[X,Y]=Z" in out
    assert "requires --alpha, --beta" in out


def test_scalar_text(capsys):
    code, out, _ = run(capsys, "scalar", "--case", "1")
    assert code == 0
    assert out.strip() == "scalar curvature: -6"


def test_scalar_case4_needs_params(capsys):
    code, _, err = run(capsys, "scalar", "--case", "4")
    assert code == 1
    assert "alpha" in err


def test_scalar_case4_with_params(capsys):
    code, out, _ = run(capsys, "scalar", "--case", "4",
                       "--alpha", "2", "--beta", "1")
    assert code == 0
    assert "-25/2" in out


def test_float_case_parameters_keep_every_digit(capsys):
    alpha, beta = 0.1234567890123456, 0.3333333333333333
    code, out, _ = run(capsys, "scalar", "--case", "4", "--alpha", repr(alpha),
                       "--beta", repr(beta), "--precision", "17")
    assert code == 0
    # parameters rounded to 12 significant digits move the value by 8e-13
    closed_form = -(1 + alpha) ** 2 / 2 - 2 * beta ** 2 - 6
    assert abs(float(out.split(":")[1]) - closed_form) <= 1e-14


def test_json_envelope_schema(capsys):
    code, doc, _ = run_json(capsys, "scalar", "--case", "2")
    assert code == 0
    assert set(doc) == ENVELOPE_KEYS
    assert doc["command"] == "scalar"
    assert doc["sections"]["scalar"] == "-1/2"
    assert doc["status"] == 0
    assert isinstance(doc["digest"], str) and len(doc["digest"]) == 64


def test_json_keys_sorted(capsys):
    code, out, _ = run(capsys, "analyze", "--case", "2", "--format", "json")
    assert code == 0
    parsed = loads(out)
    assert out.strip() == json.dumps(parsed, sort_keys=True, indent=2)


# --- digest -------------------------------------------------------------------

DOCUMENT_COMMANDS = {
    "check": [], "analyze": [], "scalar": [], "parallel": [],
    "sectional": ["--u", "1,0,0,0", "--v", "0,1,0,0"],
    "randers": ["--pole", "1,0,0,0", "--edge", "0,1,0,0"],
    "flag": ["--pole", "1,0,0,0", "--edge", "0,1,0,0"],
}


def _with_drift(doc, *drift):
    return dataclasses.replace(doc, drift=Vector(Fraction(x) for x in drift))


@pytest.mark.parametrize("source", ["file", "case4", "drift_override"])
def test_digest_is_the_document_read(capsys, tmp_path, source):
    case1 = catalog.get_case(1).document
    if source == "file":
        obj = serialize_document(_with_drift(case1, 0, 0, "1/2", 0))
        argv = [write_doc(tmp_path, obj)]
        read = load_document(argv[0])
    elif source == "case4":
        argv = ["--case", "4", "--alpha=-1", "--beta=0", "--drift", "0,0,0,1/3"]
        read = _with_drift(catalog.get_case(4, alpha=-1, beta=0).document, 0, 0, 0, "1/3")
    else:
        argv = ["--case", "1", "--drift", "0,0,1/4,0"]
        read = _with_drift(case1, 0, 0, "1/4", 0)
    want = document_digest(read)
    for command, extra in DOCUMENT_COMMANDS.items():
        code, doc, _ = run_json(capsys, command, *argv, *extra)
        assert code == 0 and doc["digest"] == want, command
    assert want != document_digest(case1)  # the drift is part of the document read


def test_commands_without_a_document_have_no_digest(capsys):
    for argv in (["report", "--case", "1"], ["catalog", "list"]):
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0 and doc["digest"] is None


# --- input errors ---------------------------------------------------------------


def test_no_input(capsys):
    code, _, err = run(capsys, "scalar")
    assert code == 1 and "no input" in err


def test_document_and_case_conflict(capsys, tmp_path):
    path = write_doc(tmp_path, {"dim": 2, "brackets": [], "metric": "identity"})
    code, _, err = run(capsys, "scalar", path, "--case", "1")
    assert code == 1 and "not both" in err


def test_unknown_case(capsys):
    code, _, err = run(capsys, "scalar", "--case", "42")
    assert code == 1 and "valid ids" in err


def test_bad_vector_length(capsys):
    code, _, err = run(capsys, "sectional", "--case", "1",
                       "--u", "1,0,0", "--v", "0,1,0,0")
    assert code == 1 and "--u" in err


def test_bad_vector_token(capsys):
    code, _, err = run(capsys, "sectional", "--case", "1",
                       "--u", "1,0,x,0", "--v", "0,1,0,0")
    assert code == 1


PAST_LIMIT = "1" + "0" * 4301  # Python's default int-string limit is 4300 digits


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, flag", [
    (["sectional", "--case", "1", f"--u={PAST_LIMIT},0,0,0", "--v=0,1,0,0"], "--u"),
    (["sectional", "--case", "1", "--u=1,0,0,0", f"--v=0,1/{PAST_LIMIT},0,0"], "--v"),
    (["scalar", "--case", "4", f"--alpha={PAST_LIMIT}", "--beta=0"], "--alpha"),
    (["scalar", "--case", "4", "--alpha=0", f"--beta=-1/{PAST_LIMIT}"], "--beta"),
    (["report", "--case", "4", f"--alpha-grid={PAST_LIMIT}:2"], "--alpha-grid"),
    (["report", "--case", "4", f"--beta-grid=0:-{PAST_LIMIT}"], "--beta-grid"),
])
def test_integer_literal_past_the_digit_limit_is_named(capsys, argv, flag, fmt):
    """A valid integer, or either side of p/q, past Python's int-string limit is called
    too long, as in documents, not malformed, and no digit run is echoed."""
    code, out, err = run(capsys, *argv, f"--format={fmt}")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag}: integer literal too long: ")
    assert len(err) < 300 and "0" * 50 not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bad_literal_is_echoed_as_a_short_prefix(capsys, fmt):
    junk = "1/2x" + "7" * 5000
    for flag, text in (("--alpha", junk), ("--alpha", "1e999"), ("--beta", "1/0")):
        code, out, err = run(capsys, "scalar", "--case", "4", f"{flag}={text}",
                             f"--{'alpha' if flag == '--beta' else 'beta'}=0", f"--format={fmt}")
        assert code == 1 and out == "" and err.startswith(f"error: {flag}: ")
        assert text[:20] in err and len(err) < 100
    code, _, err = run(capsys, "sectional", "--case", "1", "--u=1,0,0,0", f"--v={junk},0,0,0")
    assert code == 1 and err == f"error: --v: bad rational literal {junk[:40] + '...'!r}\n"
    code, _, err = run(capsys, "report", "--case", "4", f"--beta-grid={junk}", f"--format={fmt}")
    assert (code, err) == (1, f"error: --beta-grid must look like lo:hi, "
                              f"got {junk[:40] + '...'!r}\n")


CASE4_PLANE = ["sectional", "--case", "4", "--u", "1,0,0,0", "--v", "0,1,0,0"]


# int(), float() and re's \d read '٣' as 3, '1_0' as 10 and '１２' as 12; the literal
# grammar is ASCII digits, so each is refused with exit 1, naming its flag or field.
@pytest.mark.parametrize("argv, error", [
    (CASE4_PLANE + ["--alpha", "٣", "--beta", "1_0"], "--alpha: bad scalar literal"),
    (CASE4_PLANE + ["--alpha", "3", "--beta", "1_0"], "--beta: bad scalar literal"),
    (CASE4_PLANE + ["--alpha", "１２", "--beta", "0"], "--alpha: bad scalar literal"),
    (["report", "--case", "4", "--alpha-grid", "٣:٣", "--beta-grid", "0:0"],
     "--alpha-grid must look like lo:hi"),
    (["report", "--case", "4", "--alpha-grid", "3:3", "--beta-grid", "0_0:0"],
     "--beta-grid must look like lo:hi"),
])
def test_non_ascii_digits_and_underscores_are_refused(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith(f"error: {error}")


@pytest.mark.parametrize("coeffs, field", [(["٣", "1_0"], "coeffs[0]"),
                                           (["3", "1_0"], "coeffs[1]")])
def test_document_literals_are_ascii(capsys, tmp_path, coeffs, field):
    path = write_doc(tmp_path, {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": coeffs}]})
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (1, "") and err.startswith(f"error: document.brackets[0].{field}: ")


def test_expression_digits_are_ascii():
    with pytest.raises(InputError, match="bad character"):
        exprs.evaluate("٣*2")
    assert exprs.evaluate("3*2") == 6


def _shaped(**fields):
    """[X,Y] = Y on a 2-dimensional basis, with fields replaced or added."""
    return {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "1"]}], **fields}


@pytest.mark.parametrize("doc, argv, message", [
    (_shaped(brackets=[{"i": 0, "j": 1, "coeffs": ["0", True]}]), ["analyze"],
     "document.brackets[0].coeffs[1]: booleans are not scalars"),
    (_shaped(drift=[{}, "0"]), ["analyze"], "document.drift[0]: expected a scalar, got dict"),
    ([2, "brackets"], ["analyze"], "document must be a JSON object"),
    (_shaped(basis=["X"]), ["analyze"], "document.basis must be 2 nonempty strings"),
    (_shaped(basis=["X", ""]), ["analyze"], "document.basis must be 2 nonempty strings"),
    (_shaped(basis=["X", "X"]), ["analyze"], "document.basis labels must be distinct"),
    (_shaped(params=["alpha"]), ["analyze"], "document.params must be an object"),
    (_shaped(brackets={"i": 0}), ["analyze"], "document.brackets must be a list"),
    (_shaped(brackets=[[0, 1]]), ["analyze"], "document.brackets[0]: must be an object"),
    (_shaped(metric=[[1, 0]]), ["analyze"], "document.metric must be 'identity' or 2 rows"),
    (_shaped(metric=[[1, 0], [1]]), ["analyze"], "document.metric[1]: need 2 entries"),
    (_shaped(drift=["0"]), ["analyze"], "document.drift must list 2 scalars"),
    (_shaped(), ["scalar", "--alpha=1"],
     "--alpha/--beta only apply with --case; put params in the document instead"),
    (_shaped(), ["flag", "--pole=1,0", "--edge=0,1"],
     "flag needs a drift: give --drift or a document drift field"),
], ids=["boolean_scalar", "non_scalar", "not_an_object", "basis_length", "basis_label",
        "duplicate_labels", "params_not_object", "brackets_not_list", "bracket_not_object",
        "metric_rows", "metric_row_length", "drift_length", "alpha_with_file", "flag_no_drift"])
def test_document_refusals(capsys, tmp_path, doc, argv, message):
    code, out, err = run(capsys, *argv, write_doc(tmp_path, doc))
    assert (code, out, err) == (1, "", f"error: {message}\n")


# --- geometry commands ----------------------------------------------------------


def test_sectional(capsys):
    code, doc, _ = run_json(capsys, "sectional", "--case", "1",
                            "--u", "1,0,0,0", "--v", "0,0,0,2")
    assert code == 0
    assert doc["sections"]["value"] == "-1"
    assert doc["sections"]["numerator"] == "-4"


@pytest.mark.parametrize("case, u, v, numerator", [
    ("6", "1,0,0,0", "2,0,0.25,1", "1/4"),
    ("6", "1,0,0,0", "2,0,1/4,1", "1/4"),
    ("1", "2,0,0.25,1", "3,4,0,0", "-89"),
    ("6", "2,0,0.25,1", "3,4,0,0", "-39/4"),
])
def test_a_float_coefficient_makes_the_numerator_float_only_where_it_is_live(
        capsys, case, u, v, numerator):
    # whatever the tensor's op_den: 4 on case 6, 1 on case 1
    code, out, _ = run(capsys, "sectional", "--case", case, "--u", u, "--v", v)
    assert code == 0 and out.startswith(f"numerator: {numerator}\n"), out


def test_sectional_degenerate_plane(capsys):
    code, _, err = run(capsys, "sectional", "--case", "1",
                       "--u", "1,2,0,0", "--v", "2,4,0,0")
    assert code == 2 and "independent" in err


def test_parallel(capsys):
    code, doc, _ = run_json(capsys, "parallel", "--case", "3")
    assert code == 0
    assert doc["sections"]["dimension"] == 2
    assert doc["sections"]["basis"] == [["0", "0", "1", "0"], ["0", "0", "0", "1"]]


def test_analyze_includes_reproduction_for_cases(capsys):
    code, doc, _ = run_json(capsys, "analyze", "--case", "1")
    assert code == 0
    s = doc["sections"]
    assert s["scalar"] == "-6"
    assert s["reproduce"]["passed"] is True
    assert s["jacobi_passed"] is True
    assert len(s["connection"]) == 4


def test_analyze_plain_document_has_no_reproduction(capsys, tmp_path):
    path = write_doc(tmp_path, {
        "dim": 3,
        "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1"]}],
        "metric": "identity"})
    code, doc, _ = run_json(capsys, "analyze", path)
    assert code == 0
    assert "reproduce" not in doc["sections"]
    assert doc["discrepancies"] == []


# --- randers and flag -----------------------------------------------------------


def test_randers_requires_drift(capsys):
    code, _, err = run(capsys, "randers", "--case", "1")
    assert code == 1 and "drift" in err


def test_randers_norm_bound(capsys):
    code, _, err = run(capsys, "randers", "--case", "1", "--drift", "0,0,1,0")
    assert code == 2 and "g(Q,Q) < 1" in err
    # g(Q,Q) of a 2500-digit drift is too large to print in the message
    code, out, err = run(capsys, "randers", "--case", "1", "--drift", f"0,0,{'7' * 2500},0")
    assert code == 1 and out == ""
    assert err.startswith("error: exact value too large to print")


def test_randers_non_berwald_is_precondition_error(capsys):
    code, _, err = run(capsys, "randers", "--case", "5", "--drift", "0,0,1/2,0")
    assert code == 2 and "not parallel" in err


def test_randers_full_output(capsys):
    code, doc, _ = run_json(capsys, "randers", "--case", "1",
                            "--drift", "0,0,1/2,0",
                            "--pole", "1,0,0,0", "--edge", "0,1,0,0")
    assert code == 0
    s = doc["sections"]
    assert s["berwald"] is True
    assert s["drift_norm_sq"] == "1/4"
    assert s["flag_curvature"] == "-1"
    assert s["norms"]["Z"] == "3/2"
    assert s["g_pole"][2][2] == "5/4"


def test_randers_mixed_pole_keeps_exact_entries(capsys):
    # 0.5 meets only zero Gram entries in g(y, X): with a zero drift the X
    # row of g_y stays exact, while the Y row, which 0.5 does meet, is float
    code, doc, _ = run_json(capsys, "randers", "--case", "1",
                            "--drift", "0,0,0,0", "--pole=1,0.5,0,0")
    assert code == 0
    g_pole = doc["sections"]["g_pole"]
    assert g_pole[0][0] == "1" and g_pole[2][2] == "1"
    assert g_pole[1][1] == 1.0


@pytest.mark.parametrize("argv", [
    ["--case", "1", "--drift", "0,0,1/2,0", "--edge", "0,1,0,0"],
    # refused before any stage runs: these two used to fail on the drift
    # instead, as not parallel (exit 2) and as g(Q,Q) = 4 (exit 2)
    ["--case", "2", "--drift", "1/2,0,0,0", "--edge", "0,1,0,0"],
    ["--case", "1", "--drift", "0,0,2,0", "--edge", "0,1,0,0"],
], ids=["berwald_drift", "non_berwald_drift", "drift_over_norm_bound"])
def test_randers_edge_without_pole(capsys, argv):
    code, out, err = run(capsys, "randers", *argv)
    assert code == 1 and out == ""
    assert err == "error: --edge needs --pole\n"


def test_flag_command(capsys):
    code, out, _ = run(capsys, "flag", "--case", "2", "--drift", "0,0,0,1/2",
                       "--pole", "1,0,0,0", "--edge", "0,1,0,0")
    assert code == 0
    assert "-3/4" in out


def test_flag_pole_at_minus_drift(capsys):
    # F(y) = 1 - 0.99999999999 is about 1e-11, not 0: the flag is defined, and its
    # curvature, on the plane of X and Z, is 0
    code, out, err = run(capsys, "flag", "--case", "1", "--drift", "0,0,0.99999999999,0",
                         "--pole", "0,0,-1,0", "--edge", "1,0,0,0")
    assert (code, out, err) == (0, "flag curvature: 0\n", "")


def test_flag_case4_at_special_parameters(capsys):
    code, doc, _ = run_json(capsys, "flag", "--case", "4",
                            "--alpha", "-1", "--beta", "0",
                            "--drift", "0,0,0,1/3",
                            "--pole", "1,0,0,0", "--edge", "0,1,0,0")
    assert code == 0
    assert doc["sections"]["flag_curvature"] == "-1"


# --- check ----------------------------------------------------------------------


def test_check_pass(capsys, tmp_path):
    path = write_doc(tmp_path, {
        "dim": 3,
        "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1"]}],
        "metric": "identity"})
    code, out, _ = run(capsys, "check", path)
    assert code == 0 and "check: pass" in out


def test_check_jacobi_failure_exits_one(capsys, tmp_path):
    path = write_doc(tmp_path, {
        "dim": 4,
        "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1", "0"]},
                     {"i": 0, "j": 2, "coeffs": ["1", "0", "0", "0"]}],
        "metric": "identity"})
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "jacobi: FAIL" in out and "residual" in out
    # [X,Y] = Y, [Y,Z] = X fails Jacobi on (X, Y, Z); geometry commands refuse
    # it with the residual that check reports, analyze still reports it.
    path = write_doc(tmp_path, {
        "dim": 3,
        "brackets": [{"i": 0, "j": 1, "coeffs": [0, 1, 0]},
                     {"i": 1, "j": 2, "coeffs": [1, 0, 0]}]}, name="nonlie.json")
    code, out, _ = run(capsys, "check", path)
    assert code == 1 and "residual on (X, Y, Z): X" in out
    code, doc, _ = run_json(capsys, "analyze", path)
    assert code == 0 and doc["sections"]["jacobi_passed"] is False
    vectors = {"sectional": ("--u", "1,0,0", "--v", "0,1,0"),
               "scalar": (), "parallel": (), "randers": ("--drift", "0,0,1/2"),
               "flag": ("--drift", "0,0,1/2", "--pole", "1,0,0", "--edge", "0,1,0")}
    for command, extra in vectors.items():
        code, out, err = run(capsys, command, path, *extra)
        assert code == 1, command
        assert out == "", command
        assert "jacobi: FAIL" in err and "residual on (X, Y, Z): X" in err, command


def test_check_degenerate_metric(capsys, tmp_path):
    path = write_doc(tmp_path, {
        "dim": 2, "brackets": [],
        "metric": [["1", "0"], ["0", "0"]]})
    code, out, _ = run(capsys, "check", path)
    assert code == 1 and "NOT positive definite" in out


def test_check_duplicate_bracket(capsys, tmp_path):
    path = write_doc(tmp_path, {
        "dim": 2,
        "brackets": [{"i": 0, "j": 1, "coeffs": ["1", "0"]},
                     {"i": 0, "j": 1, "coeffs": ["0", "1"]}],
        "metric": "identity"})
    code, _, err = run(capsys, "check", path)
    assert code == 1 and "duplicate" in err


# --- report ---------------------------------------------------------------------


def test_report_single_case(capsys):
    code, out, _ = run(capsys, "report", "--case", "6")
    assert code == 0
    assert "case 6: pass" in out
    assert "paper -7/2, computed -5/2" in out
    assert "annotated" in out


def test_report_strict_escalates(capsys):
    code, _, _ = run(capsys, "report", "--case", "6", "--strict")
    assert code == 3
    code, _, _ = run(capsys, "report", "--case", "1", "--strict")
    assert code == 0


def test_report_grid(capsys):
    code, doc, _ = run_json(capsys, "report", "--case", "4",
                            "--alpha-grid", "0:1", "--beta-grid", "0:0")
    assert code == 0
    cases = doc["sections"]["cases"]
    assert len(cases) == 2
    assert [c["params"] for c in cases] == [{"alpha": "0", "beta": "0"},
                                            {"alpha": "1", "beta": "0"}]
    # a range starting with '-' must be attached with '='
    code, doc, _ = run_json(capsys, "report", "--case", "4",
                            "--alpha-grid=-2:-1", "--beta-grid=-1:-1")
    assert code == 0
    assert [c["params"] for c in doc["sections"]["cases"]] == [
        {"alpha": "-2", "beta": "-1"}, {"alpha": "-1", "beta": "-1"}]


def test_report_bad_grid(capsys):
    code, _, err = run(capsys, "report", "--case", "4", "--alpha-grid", "2:-2")
    assert code == 1 and "lo:hi" in err


def test_report_grid_over_ceiling(capsys):
    # 17 x 17 = 289 points; refused before any case is reproduced
    assert 17 * 17 > MAX_GRID_POINTS
    code, out, err = run(capsys, "report", "--case", "4",
                         "--alpha-grid=-8:8", "--beta-grid=-8:8")
    assert code == 1 and out == ""
    assert "--alpha-grid x --beta-grid has 289 points" in err
    assert f"ceiling is {MAX_GRID_POINTS}" in err


@pytest.mark.parametrize("argv", [
    ["report", "--all", "--alpha-grid=0:100000000000000000000"],
    ["report", "--case", "4", "--beta-grid=-100000000000000000000:0"],
    ["scalar", "--case", "4", "--alpha", "0.5", "--beta", "0", "--precision=-3"],
    ["scalar", "--case", "4", "--alpha", "0.5", "--beta", "0", "--precision=0"],
], ids=["alpha_grid_past_ssize_t", "beta_grid_past_ssize_t", "precision_negative",
        "precision_zero"])
def test_out_of_range_option_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_precision_past_every_double_prints_as_767(capsys, fmt):
    # format refuses a precision past 2^31 - 1 and allocates one just under it
    argv = ["analyze", "--case", "4", "--alpha", "0.1", "--beta", "0.3", "--format", fmt]
    code, want, err = run(capsys, *argv, "--precision", "767")
    assert code == 0 and err == ""
    assert ("0.5500000000000000444089209850062616169452667236328125 W" in want) == (fmt == "text")
    for precision in (10 ** 6, 2 ** 31):
        assert run(capsys, *argv, "--precision", str(precision)) == (0, want, "")


def test_report_needs_exactly_one_target(capsys):
    code, _, err = run(capsys, "report")
    assert code == 1
    code, _, err = run(capsys, "report", "--all", "--case", "1")
    assert code == 1


def test_report_all_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "--all", "--out", str(out_path))
    assert code == 0
    assert "overall: pass" in out
    saved = loads(out_path.read_text())
    assert set(saved) == ENVELOPE_KEYS
    assert len(saved["sections"]["cases"]) == 21  # 5 plain + 16 grid points
    assert saved["sections"]["passed"] is True
    assert len(saved["discrepancies"]) == 1


def test_report_out_holds_the_printed_envelope(capsys, tmp_path):
    # --strict escalates the status before the file is written
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "--all", "--strict", "--out", str(out_path),
                       "--format", "json")
    assert code == 3
    assert out_path.read_text() == out
    assert loads(out)["status"] == 3


def test_report_out_unwritable_is_an_input_error(capsys, monkeypatch, tmp_path):
    # the path is probed before any case is reproduced
    def reproduce(*args, **kwargs):
        raise AssertionError("reproduce ran before the --out path was probed")

    monkeypatch.setattr(catalog, "reproduce", reproduce)
    for path in (tmp_path / "nonexistent" / "dir" / "r.json", tmp_path):
        code, out, err = run(capsys, "report", "--all", "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write report {str(path)!r}: ")
    # a usage error is reported before the path is probed
    code, _, err = run(capsys, "report", "--out", str(tmp_path))
    assert code == 1 and err.startswith("error: report needs exactly one of --all or --case N")


def test_report_out_probe_leaves_files_as_they_were(capsys, tmp_path):
    # a run that fails after the probe leaves no new file, an old one intact,
    # and a dangling link as it was, with no file at its target
    new, old, link = tmp_path / "new.json", tmp_path / "old.json", tmp_path / "link.json"
    old.write_text("previous report\n", encoding="utf-8")
    link.symlink_to(tmp_path / "target.json")
    for path in (new, old, link):
        code, _, err = run(capsys, "report", "--case", "99", "--out", str(path))
        assert code == 1 and err.startswith("error: no catalog case 99")
    assert not new.exists()
    assert old.read_text(encoding="utf-8") == "previous report\n"
    assert link.is_symlink() and not (tmp_path / "target.json").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--case", "1"],
    ["analyze", "--case", "4", "--alpha=-1", "--beta=0"],
], ids=["case1", "case4"])
def test_analyze_runs_each_stage_once(capsys, monkeypatch, argv):
    # spy on every liecurv namespace that binds the stage, as bench/spans.py does
    calls = dict.fromkeys(("levi_civita", "riemann_tensor"), 0)
    built = {}
    for name in calls:
        original = getattr(riemann, name)

        def spy(*a, _name=name, _original=original, **kw):
            calls[_name] += 1
            built[_name] = _original(*a, **kw)
            return built[_name]

        for key, module in list(sys.modules.items()):
            if key.startswith("liecurv") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == {"levi_civita": 1, "riemann_tensor": 1}
    # the dense curvature table is an image built on first read; no command reads it
    assert "table" not in built["riemann_tensor"].__dict__


def test_g_y_runs_once_per_pole(capsys, monkeypatch):
    # reproduce builds the fundamental tensor once per Randers sample, for its four
    # pairs, and `randers --pole` once, for the n^2 basis pairs
    calls = []
    original = randers.g_y

    def spy(rm, ybar, pairs):
        calls.append(len(pairs))
        return original(rm, ybar, pairs)

    for key, module in list(sys.modules.items()):
        if key.startswith("liecurv") and getattr(module, "g_y", None) is original:
            monkeypatch.setattr(module, "g_y", spy)
    report = catalog.reproduce(catalog.get_case(1), samples=7, seed=3)
    assert report.passed and calls == [4] * 7
    calls.clear()
    code, _, _ = run(capsys, "randers", "--case", "1", "--drift", "0,0,1/2,0",
                     "--pole", "1,2,0,1", "--edge", "0,1,0,0")
    assert code == 0 and calls == [16]


def test_dim_over_ceiling(capsys, tmp_path):
    path = write_doc(tmp_path, {"dim": MAX_DIM, "brackets": [], "metric": "identity"})
    code, _, _ = run(capsys, "check", path)
    assert code == 0
    path = write_doc(tmp_path, {"dim": MAX_DIM + 1, "brackets": [], "metric": "identity"})
    for command in ("check", "scalar"):
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == ""
        assert f"document.dim is {MAX_DIM + 1}; the ceiling is {MAX_DIM}" in err


def _doc_2d(coeff="1", metric="identity", params=None):
    obj = {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", coeff]}],
           "metric": metric}
    if params:
        obj["params"] = params
    return obj


@pytest.mark.parametrize("doc, argv, where", [
    (_doc_2d("1e999"), ("scalar",), "document.brackets[0].coeffs[1]"),
    (_doc_2d(float("inf")), ("scalar",), "document.brackets[0].coeffs[1]"),
    (_doc_2d(metric=[[float("nan"), 0], [0, 1]]), ("scalar",), "document.metric[0][0]"),
    (_doc_2d("alpha*alpha", params={"alpha": "1e300"}), ("analyze",),
     "document.brackets[0].coeffs[1]"),
    (_doc_2d("alpha^2", params={"alpha": "1e300"}), ("scalar",),
     "document.brackets[0].coeffs[1]"),
    (_doc_2d("alpha^-1", params={"alpha": "0"}), ("check",),
     "document.brackets[0].coeffs[1]"),
    (None, ("sectional", "--case", "1", "--u", "1e999,0,0,0", "--v", "0,1,0,0"), "--u"),
    (None, ("randers", "--case", "1", "--drift", "1e999,0,0,0"), "--drift"),
    (None, ("scalar", "--case", "4", "--alpha", "1e999", "--beta", "0"), "--alpha"),
    (None, ("analyze", "--case", "4", "--alpha", "0", "--beta=-1e999"), "--beta"),
])
def test_non_finite_scalars_are_input_errors(capsys, tmp_path, doc, argv, where):
    # json.dumps writes float('inf') and float('nan') as the literals
    # Infinity and NaN, which json.load reads back as floats.
    if doc is not None:
        argv = argv + (write_doc(tmp_path, doc),)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {where}:")


@pytest.mark.parametrize("key, says", [
    ("basis", "must be 2 nonempty strings"), ("drift", "must list 2 scalars"),
    ("metric", "must be 'identity' or 2 rows"), ("params", "must be an object")])
def test_null_optional_key_is_refused(capsys, tmp_path, key, says):
    # an optional key is given a value or left out; JSON null is neither
    path = write_doc(tmp_path, {**_doc_2d(), key: None})
    for command in ("check", "analyze"):
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == ""
        assert err == f"error: document.{key} {says}\n"


def test_asymmetric_metric_names_its_field(capsys, tmp_path):
    path = write_doc(tmp_path, _doc_2d(metric=[["1", "1/2"], ["0", "1"]]))
    for command in ("check", "scalar"):
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == ""
        assert err == "error: document.metric: metric is not symmetric at (0, 1)\n"


def test_analyze_reads_a_decimal_zero_as_a_float_table(capsys, tmp_path):
    """A decimal 0.0 among rational constants over an exact metric makes a float table:
    analyze prints the exact document's values as floats, gamma = 1/2 where it is 1/2."""
    mixed = {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["0.0", "1/2"]}],
             "metric": "identity"}
    code, out, _ = run(capsys, "analyze", write_doc(tmp_path, mixed))
    assert code == 0
    for line in ("nabla_Y X = -0.5 Y", "nabla_Y Y = 0.5 X", "R(X,Y)X = 0.25 Y",
                 "K(X,Y) = -0.25", "scalar curvature: -0.5"):
        assert f"{line}\n" in out
    rng = random.Random(20130523)
    for dim in range(2, 6):
        identity = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
        exact, _ = semidirect_objects(rng, dim)
        for gram in (identity, exact["metric"]):
            exact = {**exact, "metric": gram}
            mixed = {**exact, "brackets": [dict(b) for b in exact["brackets"]]}
            mixed["brackets"][0]["coeffs"] = ["0.0"] + exact["brackets"][0]["coeffs"][1:]
            want = run_json(capsys, "analyze", write_doc(tmp_path, exact, "exact.json"))[1]
            code, got, _ = run_json(capsys, "analyze", write_doc(tmp_path, mixed, "mixed.json"))
            assert code == want["status"] == 0
            got, want = got["sections"], want["sections"]
            assert got["jacobi_passed"] and close(Fraction(want["scalar"]), got["scalar"])
            assert len(got["parallel"]) == len(want["parallel"])
            for key in ("connection", "curvature"):
                assert [(e["i"], e["j"], e.get("k")) for e in got[key]] == \
                    [(e["i"], e["j"], e.get("k")) for e in want[key]]
                # the float solve gives a float gamma; a curvature entry no term reaches is "0"
                assert all((type(b) is float or key == "curvature")
                           and close(Fraction(a), float(Fraction(str(b))))
                           for g, w in zip(got[key], want[key])
                           for a, b in zip(w["coeffs"], g["coeffs"]))


def test_metric_not_positive_definite_names_its_field(capsys, tmp_path):
    # every command that solves the Koszul system refuses the metric with its path;
    # check still reports it in its own words
    path = write_doc(tmp_path, _doc_2d(metric=[["1", "0"], ["0", "-1/2"]]))
    commands = {"analyze": (), "scalar": (), "parallel": (),
                "sectional": ("--u", "1,0", "--v", "0,1"), "randers": ("--drift", "0,0"),
                "flag": ("--drift", "0,0", "--pole", "1,0", "--edge", "0,1")}
    for command, extra in commands.items():
        for fmt in ("text", "json"):
            code, out, err = run(capsys, command, path, *extra, "--format", fmt)
            assert code == 1 and out == "", (command, fmt)
            assert err == "error: document.metric: metric must be positive definite\n"
    code, out, _ = run(capsys, "check", path)
    assert code == 1 and "metric: NOT positive definite" in out


def test_exponent_over_ceiling_is_an_input_error(capsys, tmp_path):
    # 3^3000000 would be a 1.4M-digit integer; the ceiling refuses it first
    path = write_doc(tmp_path, _doc_2d("alpha^3000000", params={"alpha": "3"}))
    for command in ("check", "scalar"):
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == ""
        assert err.startswith("error: document.brackets[0].coeffs[1]: exponent 3000000 "
                              "is over the ceiling 64")


def test_power_over_bit_ceiling_is_an_input_error(capsys, tmp_path):
    # each exponent is under 64, but the result would have 125k digits
    path = write_doc(tmp_path, _doc_2d("((alpha^64)^64)^64", params={"alpha": "3"}))
    for command in ("check", "scalar"):
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == ""
        assert err.startswith("error: document.brackets[0].coeffs[1]: power of about "
                              f"415552 bits is over the ceiling {MAX_POWER_BITS}")


def test_deeply_nested_expression_evaluates(capsys, tmp_path):
    path = write_doc(tmp_path, _doc_2d("(" * 400 + "alpha" + ")" * 400, params={"alpha": "3"}))
    assert run(capsys, "check", path)[0] == 0


CHAIN = "+".join(["alpha"] * 512)  # 1023 tokens


@pytest.mark.parametrize("coeff", ["-" * 3000 + "alpha", "+".join(["alpha"] * 3000),
                                   "--" + CHAIN], ids=["minus_3000", "sum_3000", "tokens_1025"])
def test_expression_over_token_ceiling_is_an_input_error(capsys, tmp_path, coeff):
    path = write_doc(tmp_path, _doc_2d(coeff, params={"alpha": "3"}))
    code, out, err = run(capsys, "check", path)
    assert code == 1 and out == ""
    assert err == (f"error: document.brackets[0].coeffs[1]: expression has more than "
                   f"{MAX_EXPR_TOKENS} tokens\n")


def test_expression_at_token_ceiling_is_accepted(capsys, tmp_path):
    path = write_doc(tmp_path, _doc_2d("-" + CHAIN, params={"alpha": "3"}))
    assert run(capsys, "check", path)[0] == 0


def test_expression_over_bit_ceiling_is_refused_before_evaluating(capsys, tmp_path,
                                                                   monkeypatch):
    # 512 factors of a 2500-digit alpha bound at 512 * 8305 + 511 bits; the
    # product took seconds to evaluate before the bit ceiling
    chain = "*".join(["alpha"] * 512)
    path = write_doc(tmp_path, _doc_2d(chain, params={"alpha": "7" * 2500}))
    calls = []
    for name in ("_exact", "_apply"):
        monkeypatch.setattr(exprs, name, lambda op, a, b: calls.append(op))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "check", path, "--format", fmt)
        assert code == 1 and out == ""
        assert err == ("error: document.brackets[0].coeffs[1]: expression of up to "
                       f"4252671 bits is over the ceiling {MAX_EXPR_BITS}\n")
        assert calls == []  # refused before any operator runs


def test_value_too_large_to_print_is_an_input_error(capsys, tmp_path):
    # c = 7...7 (2500 digits) prints, but the scalar curvature -c^2/2 does not
    path = write_doc(tmp_path, _doc_2d("7" * 2500))
    assert run(capsys, "check", path)[0] == 0
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "scalar", path, "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith("error: exact value too large to print")


@pytest.mark.parametrize("coeff", ["7" * 5000, "alpha + " + "7" * 5000])
def test_literal_past_int_string_limit_is_an_input_error(capsys, tmp_path, coeff):
    path = write_doc(tmp_path, _doc_2d(coeff, params={"alpha": "1"}))
    code, out, err = run(capsys, "check", path)
    assert code == 1 and out == ""
    assert err.startswith("error: document.brackets[0].coeffs[1]: integer literal too long")


def test_json_int_past_int_string_limit_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [0, %s]}]}'
                    % ("7" * 5000))
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and out == ""
    assert "is not valid JSON" in err


def test_json_nested_past_the_recursion_limit_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"dim": 2, "brackets": [], "metric": %s}' % ("[" * 100_000 + "]" * 100_000))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (1, "", f"error: document {str(path)!r} nests too deeply to read\n")


def test_analyze_writes_float_roundoff_as_zero(capsys, tmp_path):
    # Float connection and curvature entries carry the zero pattern of their
    # exact twins: roundoff that is_zero reads as zero is written 0.0, not as
    # digits that depend on summation order.
    rng = random.Random(5)
    zeroed = 0
    for dim in (3, 4, 5, 6):
        for _ in range(6):
            exact, floating = (run_json(capsys, "analyze", write_doc(tmp_path, obj))[1]["sections"]
                               for obj in semidirect_objects(rng, dim))
            for key in ("connection", "curvature"):
                assert len(exact[key]) == len(floating[key])
                for e, f in zip(exact[key], floating[key]):
                    assert e.keys() == f.keys() and all(e[k] == f[k] for k in e if k != "coeffs")
                    for x, y in zip(e["coeffs"], f["coeffs"]):
                        assert type(y) is float and (y == 0) == (x == "0")
                        assert close(Fraction(x), y)
                        zeroed += x == "0"
    assert zeroed > 0


def test_analyze_json_tells_an_unreached_curvature_entry_from_a_float_zero(capsys, tmp_path):
    """On a float table, a curvature entry that no term of the commutator reaches is an
    exact 0, written "0"; one that float terms reach, here 0.0 products, is written 0.0.
    Exact brackets over a decimal metric: no connection entry has an e_2 component."""
    doc = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "1", "0"]}],
           "metric": [["1.5", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]}
    code, out, _ = run_json(capsys, "analyze", write_doc(tmp_path, doc), "--precision", "17")
    assert code == 0
    assert out["sections"]["curvature"] == [
        {"i": 0, "j": 1, "k": 0, "coeffs": [0.0, 1.0, "0"]},
        {"i": 0, "j": 1, "k": 1, "coeffs": [-0.66666666666666663, 0.0, "0"]}]


@pytest.mark.parametrize("argv", [
    ["sectional", "--case", "1", "--u", "1e200,0,0,0", "--v", "0,1,0,0"],
    ["flag", "--case", "1", "--drift", "0,0,1/2,0", "--pole", "1e200,0,0,0", "--edge", "0,1,0,0"],
    ["analyze", "DOC"],
    ["sectional", "--case", "1", "--u=1e200,1,0,0", "--v=1,1e200,0,0"],
    ["flag", "--case", "1", "--drift=0,0,1/2,0", "--pole=0,0,1e200,0", "--edge=0,1,0,0"],
    ["scalar", "MIXED"],
], ids=["sectional", "flag", "analyze", "sectional_square", "flag_square", "exact_meets_float"])
def test_non_finite_results_are_refused(capsys, tmp_path, argv):
    # each used to print nan, -inf or their JSON spellings NaN and -Infinity; the
    # squares of g(u,v) and g(Q,y) past the float range, and an exact 10^400 bracket
    # coefficient next to a float metric entry, used to raise OverflowError
    docs = {"DOC": _doc_2d("1e200"), "MIXED": _doc_2d("1" + "0" * 400, metric=[[0.5, 0], [0, 1]])}
    argv = [write_doc(tmp_path, docs[a]) if a in docs else a for a in argv]
    for fmt in ("text", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith("error: floating result ") and "is not finite" in err


def test_small_float_planes_are_not_degenerate(capsys):
    # a float plane or pole is judged by its angle, not its length
    code, out, _ = run(capsys, "sectional", "--case", "1",
                       "--u", "0.001,0,0,0", "--v", "0,0.001,0,0")
    assert code == 0 and out.endswith("sectional curvature: -1\n")
    code, out, _ = run(capsys, "randers", "--case", "1", "--drift", "0,0,1/2,0",
                       "--pole", "0.00001,0,0,0", "--edge", "0,1,0,0")
    assert code == 0 and out.endswith("flag curvature: -1\n")
    code, _, err = run(capsys, "sectional", "--case", "1", "--u", "1,0,0,0", "--v", "2,1e-11,0,0")
    assert code == 2 and "independent" in err


def test_a_plane_whose_norms_underflow_is_refused_as_rounded(capsys):
    # g(u,u) g(v,v) of these independent planes rounds to 0.0, so their angle cannot be
    # read: they are refused as rounded out, and the same planes at 1e-10 give -1
    sectional = ("sectional", "--case", "1", "--v=0,1,0,0")
    flag = ("flag", "--case", "1", "--drift=0,0,1/2,0")
    for argv, tiny, small, key in (
            (sectional, ("--u=1e-170,0,0,0",), ("--u=1e-10,0,0,0",), "value"),
            (flag, ("--pole=1e-100,0,0,0", "--edge=0,1e-100,0,0"),
             ("--pole=1e-10,0,0,0", "--edge=0,1e-10,0,0"), "flag_curvature")):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, *tiny, "--format", fmt)
            assert code == 2 and out == "", (argv, err)
            assert err == "error: the plane's g(u,u) g(v,v) rounds to 0 in float arithmetic\n"
        code, out, _ = run(capsys, *argv, *small)
        assert code == 0 and out.endswith(" -1\n"), out
        code, doc, _ = run_json(capsys, *argv, *small)
        assert code == 0 and doc["sections"][key] == -1


def test_a_dim_1_document_spans_no_plane(capsys, tmp_path):
    # no two vectors span a plane in dim 1: each command refuses the plane
    path = write_doc(tmp_path, {"dim": 1, "brackets": []})
    dependent = "error: flag pole and edge are linearly dependent\n"
    for argv, message in (
            (("sectional", path, "--u", "1", "--v", "1"),
             "error: sectional curvature needs independent spanning vectors\n"),
            (("flag", path, "--drift", "0", "--pole", "1", "--edge", "1"), dependent),
            (("randers", path, "--drift", "0", "--pole", "1", "--edge", "1"), dependent)):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert code == 2 and out == "" and err == message, (argv, err)


@pytest.mark.parametrize("command", ["flag", "randers"])
def test_a_float_pole_is_judged_by_the_float_range_not_its_size(capsys, command):
    # flag curvature and g_y do not change when the pole and edge are scaled
    drift = ("--case", "1", "--drift", "0,0,1/2,0")
    sections = []
    for s in ("1e-10", "1e-8"):
        for pole, edge in ((f"{s},0,0,0", f"0,{s},0,0"), (f"{s},0,{s},0", f"0,{s},0,{s}")):
            code, doc, _ = run_json(capsys, command, *drift, "--pole", pole, "--edge", edge)
            assert code == 0
            sections.append({k: doc["sections"].get(k) for k in ("g_pole", "flag_curvature")})
    assert sections[0]["flag_curvature"] == -1
    assert sections[:2] == sections[2:]
    # an exact zero pole keeps its message; one whose norm underflows is refused, not raised
    zero = "flag pole must be nonzero" if command == "flag" else "y = 0"
    rounds = "rounds to 0 in float arithmetic"
    refusals = [("0,0,0,0", zero), ("0.0,0,0,0", zero), ("1e-200,0,0,0", rounds)]
    if command == "randers":  # g_y divides by g(y,y)^(3/2), which underflows first
        tiny = "1/1" + "0" * 200  # exact; sqrt(g(y,y)) = sqrt(2) tiny underflows
        refusals += [("1e-120,1e-120,1e-120,0", rounds), (f"{tiny},{tiny},0,0", rounds)]
    for pole, message in refusals:
        code, _, err = run(capsys, command, *drift, "--pole", pole, "--edge", "0,1,0,0")
        assert code == 2 and err.startswith("error: ") and message in err, (pole, err)


@pytest.mark.parametrize("command", ["flag", "randers"])
def test_exact_square_roots_past_the_float_range_are_refused(capsys, command):
    # g(y,y) = 2 * 10^400 + 1 is exact and no square; its float is past the
    # range, and 3 * 10^-400 under a nonzero drift term rounds to 0
    big, tiny = "1" + "0" * 200, "1/1" + "0" * 200
    drift = ("--case", "1", "--drift", "0,0,1/2,0", "--edge", "0,0,0,1")
    for fmt in ("text", "json"):
        code, out, err = run(capsys, command, *drift, "--pole", f"{big},{big},1,0",
                             "--format", fmt)
        assert code == 1 and out == ""
        assert err == ("error: floating result inf is not finite: the computation "
                       "left the float range\n")
        code, out, err = run(capsys, command, *drift, "--pole", f"{tiny},{tiny},{tiny},0",
                             "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "rounds to 0 in float arithmetic" in err


# --- import path ----------------------------------------------------------------


def test_cli_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import liecurv.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
