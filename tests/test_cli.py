import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liecurv.cli import MAX_GRID_POINTS, main
from liecurv.documents import MAX_DIM

ENVELOPE_KEYS = {"command", "digest", "discrepancies", "sections", "status"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


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
    parsed = json.loads(out)
    assert out.strip() == json.dumps(parsed, sort_keys=True, indent=2)


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


# --- geometry commands ----------------------------------------------------------


def test_sectional(capsys):
    code, doc, _ = run_json(capsys, "sectional", "--case", "1",
                            "--u", "1,0,0,0", "--v", "0,0,0,2")
    assert code == 0
    assert doc["sections"]["value"] == "-1"
    assert doc["sections"]["numerator"] == "-4"


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


def test_randers_edge_without_pole(capsys):
    code, _, err = run(capsys, "randers", "--case", "1",
                       "--drift", "0,0,1/2,0", "--edge", "0,1,0,0")
    assert code == 1 and "--pole" in err


def test_flag_command(capsys):
    code, out, _ = run(capsys, "flag", "--case", "2", "--drift", "0,0,0,1/2",
                       "--pole", "1,0,0,0", "--edge", "0,1,0,0")
    assert code == 0
    assert "-3/4" in out


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
    saved = json.loads(out_path.read_text())
    assert set(saved) == ENVELOPE_KEYS
    assert len(saved["sections"]["cases"]) == 21  # 5 plain + 16 grid points
    assert saved["sections"]["passed"] is True
    assert len(saved["discrepancies"]) == 1


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


def test_exponent_over_ceiling_is_an_input_error(capsys, tmp_path):
    # 3^3000000 would be a 1.4M-digit integer; the ceiling refuses it first
    path = write_doc(tmp_path, _doc_2d("alpha^3000000", params={"alpha": "3"}))
    for command in ("check", "scalar"):
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == ""
        assert err.startswith("error: document.brackets[0].coeffs[1]: exponent 3000000 "
                              "is over the ceiling 64")


# --- import path ----------------------------------------------------------------


def test_cli_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import liecurv.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
