import copy
import dataclasses
from fractions import Fraction

import pytest

from liecurv import catalog
from liecurv.algebra import Vector, bracket
from liecurv.errors import InputError

F = Fraction


def test_case_ids_and_summaries():
    assert catalog.case_ids() == [1, 2, 3, 4, 5, 6]
    rows = catalog.case_summaries()
    assert [r["id"] for r in rows] == [1, 2, 3, 4, 5, 6]
    by_id = {r["id"]: r for r in rows}
    assert by_id[2]["name"] == "[X,Y]=Z"
    assert by_id[4]["parameters"] == ["alpha", "beta"]
    assert by_id[1]["parameters"] == []


def test_get_case_range_error():
    with pytest.raises(InputError, match="valid ids"):
        catalog.get_case(7)


def test_get_case_parameter_rules():
    with pytest.raises(InputError, match="takes no parameters"):
        catalog.get_case(1, alpha=F(1))
    with pytest.raises(InputError, match="alpha and beta"):
        catalog.get_case(4)
    with pytest.raises(InputError, match="alpha and beta"):
        catalog.get_case(4, alpha=F(1))


def test_get_case_param_coercion():
    for alpha, beta in ((-1, 0), ("-1", "0"), (F(-1), F(0))):
        case = catalog.get_case(4, alpha=alpha, beta=beta)
        assert case.params == {"alpha": F(-1), "beta": F(0)}
        assert list(bracket(case.algebra, Vector.basis(4, 1), Vector.basis(4, 3))) == [-1, 0, 0, 0]


def test_get_case_keeps_float_params_exactly():
    case = catalog.get_case(4, alpha=0.1234567890123456, beta=1 / 3)
    assert case.params == {"alpha": 0.1234567890123456, "beta": 1 / 3}


def test_expected_tables_evaluate():
    case = catalog.get_case(4, alpha=F(2), beta=F(1))
    conn = case.expected_connection()
    assert (0, 2) in conn and not conn[(0, 2)].is_zero()
    curv = case.expected_curvature()
    assert all(i < j for (i, j, _) in curv)
    assert case.expected_scalar() == F(-25, 2)


def test_parallel_condition_gates_case4():
    assert catalog.get_case(4, alpha=F(-1), beta=F(0)).parallel_applicable()
    case = catalog.get_case(4, alpha=F(2), beta=F(1))
    assert not case.parallel_applicable()
    assert case.expected_parallel() == []
    assert not case.randers_applicable()


def test_drift_vars():
    assert catalog.get_case(1).drift_vars() == ["q"]
    assert catalog.get_case(3).drift_vars() == ["q1", "q2"]
    assert catalog.get_case(5).drift_vars() == []


def test_annotation_lookup():
    assert catalog.get_case(1).annotation_for("scalar") is None
    note = catalog.get_case(6).annotation_for("scalar")
    assert note is not None
    assert note["paper_value"] == "-7/2"
    assert note["computed_value"] == "-5/2"
    assert "derivation" in note and len(note["derivation"]) > 40


def test_fixture_lines_point_at_real_text():
    import importlib.resources
    text = (importlib.resources.files("liecurv") / "data" / "cases.json") \
        .read_text().splitlines()
    line = catalog.fixture_line(6, "scalar")
    assert '"scalar"' in text[line - 1]
    line = catalog.fixture_line(1, "connection[1][0]")
    assert '"i": 1, "j": 0' in text[line - 1]
    line = catalog.fixture_line(3, "fundamental.pole_pole")
    assert '"pole_pole"' in text[line - 1]


def test_reproduce_all_cases_pass():
    cases = [catalog.get_case(cid) for cid in catalog.case_ids() if cid != 4]
    cases += [catalog.get_case(4, alpha=F(-1), beta=F(0)),
              catalog.get_case(4, alpha=F(1, 2), beta=F(1, 3))]
    for case in cases:
        report = catalog.reproduce(case, samples=6, seed=5)
        assert report.passed, (case.id, [i.name for i in report.items if not i.passed])
        assert [d for d in report.discrepancies if not d.annotated] == []
        # the dense curvature table is an image built on first read; reproduce walks the rows
        assert "table" not in case.curvature.__dict__


def test_reproduce_case6_reports_annotated_scalar():
    report = catalog.reproduce(catalog.get_case(6), samples=4, seed=1)
    assert report.passed
    assert len(report.discrepancies) == 1
    d = report.discrepancies[0]
    assert (d.case, d.item) == (6, "scalar")
    assert d.paper_value == "-7/2" and d.computed_value == "-5/2"
    assert d.annotated and d.derivation
    assert d.fixture_line > 0
    as_dict = d.to_dict()
    assert as_dict["annotated"] is True


def test_reproduce_case4_off_condition_marks_randers_inapplicable():
    report = catalog.reproduce(catalog.get_case(4, alpha=F(2), beta=F(1)),
                               samples=4, seed=1)
    assert report.passed
    names = {i.name: i for i in report.items}
    assert "randers" in names
    assert "not applicable" in names["randers"].detail


def test_reproduce_deterministic():
    a = catalog.reproduce(catalog.get_case(1), samples=6, seed=9).to_dict()
    b = catalog.reproduce(catalog.get_case(1), samples=6, seed=9).to_dict()
    assert a == b


def test_case_report_dict_shape():
    report = catalog.reproduce(catalog.get_case(2), samples=4, seed=2)
    d = report.to_dict()
    assert set(d) == {"case", "name", "params", "items", "discrepancies", "passed"}
    assert d["case"] == 2 and d["passed"] is True
    assert all({"name", "passed", "detail"} == set(i) for i in d["items"])


def _plus_one(text):
    return text + "+1"


# (case, path into `expected`, change, discrepancy item, failing report item)
UNEXCUSED = {
    "connection": (1, ("connection", 0, "coeffs"), lambda c: ["0", "-2", "0", "0"],
                   "connection[1][0]", "connection"),
    "curvature": (1, ("curvature", 0, "coeffs"), lambda c: ["0", "2", "0", "0"],
                  "curvature[0][1][0]", "curvature"),
    "rvuu": (1, ("rvuu", 0), _plus_one, "rvuu", "closed_forms"),
    "sectional_numerator": (1, ("sectional_numerator",), _plus_one,
                            "sectional_numerator", "closed_forms"),
    "scalar": (1, ("scalar",), lambda s: "-5", "scalar", "scalar"),
    "annotation": (6, ("annotations", 0, "computed_value"), lambda s: "-7/2",
                   "scalar", "scalar"),
    "parallel": (1, ("parallel", "basis"), lambda b: [["0", "1", "0", "0"]],
                 "parallel", "parallel"),
    "flag_curvature": (1, ("randers", "flag_curvature"), _plus_one,
                       "flag_curvature", "randers"),
    "fundamental": (1, ("fundamental", "pole_pole"), _plus_one,
                    "fundamental.pole_pole", "randers"),
    "sign": (1, ("randers", "sign"), lambda s: "indefinite", "sign", "sign (indefinite)"),
}


@pytest.mark.parametrize("case_id, path, change, item, section",
                         UNEXCUSED.values(), ids=UNEXCUSED.keys())
def test_unexcused_mismatch_fails_its_section_only(case_id, path, change, item, section):
    case = catalog.get_case(case_id)
    expected = copy.deepcopy(case.expected)
    node = expected
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    base = catalog.reproduce(case, samples=4)
    report = catalog.reproduce(dataclasses.replace(case, expected=expected), samples=4)
    assert base.passed and not report.passed
    assert [i.name for i in report.items if not i.passed] == [section]
    new = [d for d in report.discrepancies if d not in base.discrepancies]
    assert new and all(d.item == item and not d.annotated for d in new)
    assert all(d.fixture_line == catalog.fixture_line(case_id, item) for d in new)
