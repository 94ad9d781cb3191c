import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import bracket
from liecurv import catalog, exprs
from liecurv.algebra import Vector
from liecurv.documents import _read_scalar
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
    randers = next(i for i in catalog.reproduce(case, samples=2, seed=1).items
                   if i.name == "randers")
    assert randers.detail == "not applicable at these parameters"


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
    report = catalog.reproduce(
        catalog.CatalogCase(case.document, case.id, case.name, expected), samples=4)
    assert base.passed and not report.passed
    assert [i.name for i in report.items if not i.passed] == [section]
    old = [d.to_dict() for d in base.discrepancies]
    new = [d for d in report.discrepancies if d.to_dict() not in old]
    assert new and all(d.item == item and not d.annotated for d in new)
    assert all(d.fixture_line == catalog.fixture_line(case_id, item) for d in new)


# Six closed forms of case 4 at (alpha, beta) = (-1, 0), perturbed at once: the
# ledger interleaves R(V,U)U, sectional, flag and fundamental-tensor entries at
# every sample, so an evaluation that mixed up the forms of one sample, or their
# order, changes the report.
MUTATED_FORMS = (("rvuu", 0), ("rvuu", 2), ("sectional_numerator",),
                 ("randers", "flag_curvature"), ("fundamental", "pole_pole"),
                 ("fundamental", "flag_numerator"))
MUTATED_GOLDEN = Path(__file__).parent / "golden" / "reproduce_case4_mutated_forms.json"


def mutated_case4_report() -> str:
    case = catalog.get_case(4, alpha=-1, beta=0)
    expected = copy.deepcopy(case.expected)
    for *path, key in MUTATED_FORMS:
        node = expected
        for step in path:
            node = node[step]
        node[key] = _plus_one(node[key])
    report = catalog.reproduce(catalog.CatalogCase(case.document, case.id, case.name, expected),
                               samples=20, seed=3)
    return json.dumps(report.to_dict(), indent=2) + "\n"


def test_mutated_case4_forms_match_golden():
    got = mutated_case4_report()
    assert len(json.loads(got)["discrepancies"]) == 100
    assert got == MUTATED_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":  # regenerate the golden: PYTHONPATH=src python tests/test_catalog.py
    MUTATED_GOLDEN.write_text(mutated_case4_report(), encoding="utf-8")


def test_rand_vector_is_born_with_the_old_draws_int_form():
    """catalog._rand_vector makes the same rng.randint calls in the same order as the Fraction
    construction it replaced, and is born with that construction's int form: over 2000 draws
    from several seeds, equal coefficients, equal `ints` (the lcm of the reduced denominators)
    and the same state of the generator afterwards."""
    import random

    def old(rng, dim):
        while True:
            v = Vector(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
            if not v.is_zero():
                return v

    draws = 0
    for seed in (0, 1, 7, 11, 20131017):
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        for k in range(400):
            dim = 1 + k % 6
            got, want = catalog._rand_vector(new_rng, dim), old(old_rng, dim)
            assert got._coeffs is None  # born with its int form
            assert got.ints == want.ints and got.coeffs == want.coeffs
            assert all(type(x) is Fraction for x in got.coeffs)
            draws += 1
        assert new_rng.getstate() == old_rng.getstate()
    assert draws == 2000


def test_vectors_match_reads_exact_int_forms():
    """catalog._vectors_match compares two exact vectors by their int forms, with
    approx_equal's exact verdict, and keeps approx_equal's tolerance for any float."""
    a = Vector([Fraction(1, 2), Fraction(-2, 3), 0])
    assert catalog._vectors_match(a, Vector([3, -4, 0], 6))
    assert catalog._vectors_match(a, Vector([Fraction(2, 4), Fraction(-4, 6), Fraction(0)]))
    assert not catalog._vectors_match(a, Vector([3, -4, 1], 6))
    assert not catalog._vectors_match(a, Vector([Fraction(1, 2) + Fraction(1, 10 ** 30),
                                                 Fraction(-2, 3), 0]))
    assert catalog._vectors_match(a, Vector([0.5, -2 / 3 + 1e-12, 0.0]))
    assert not catalog._vectors_match(a, Vector([0.5, -2 / 3 + 1e-6, 0.0]))


# fixture keys that hold prose or labels, not scalars
_NOT_SCALARS = {"derivation", "item", "sign"}


def _scalar_strings(node, key=None):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _scalar_strings(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _scalar_strings(v, key)
    elif isinstance(node, str) and key not in _NOT_SCALARS:
        yield node


CASE_POINTS = [(1, None, None), (2, None, None), (3, None, None), (4, F(-1), F(0)),
               (4, F(1, 2), F(1, 3)), (4, 0.5, F(2)), (5, None, None), (6, None, None)]
POINT_IDS = ["1", "2", "3", "4(-1,0)", "4(1/2,1/3)", "4(0.5,2)", "5", "6"]


@pytest.mark.parametrize("case_id, alpha, beta", CASE_POINTS, ids=POINT_IDS)
def test_fixture_strings_read_as_exprs_evaluates_them(case_id, alpha, beta):
    """The literal-first document reader gives every scalar string of the fixture the value
    and type that exprs.evaluate gives it: brackets, metric rows, and the expected block with
    its drift, closed forms and annotations, over the parameters, a pole, an edge and a drift."""
    entry = next(e for e in catalog._load()[0] if e["id"] == case_id)
    case = catalog.get_case(case_id, alpha=alpha, beta=beta)
    env = catalog._coord_env(case.params, (F(1, 3), F(-2), F(5, 7), F(1)),
                             (F(2), F(1, 5), F(-1, 2), F(3)))
    env.update(q=F(1, 4), q1=F(-1, 6), q2=F(2, 9))
    metric = entry["metric"] if isinstance(entry["metric"], list) else []
    texts = list(_scalar_strings([entry["brackets"], metric, entry["expected"]]))
    assert texts
    for text in texts:
        got, want = _read_scalar(text, "fixture", env), exprs.evaluate(text, env)
        assert type(got) is type(want) and repr(got) == repr(want), (text, got, want)


@pytest.mark.parametrize("case_id, alpha, beta", CASE_POINTS, ids=POINT_IDS)
def test_reproduce_runs_no_program_without_operator_and_name(monkeypatch, case_id, alpha, beta):
    """A literal fixture string is read by parse_rational, not run as an expression program:
    one reproduce runs exprs._run only on programs with an operator or a name."""
    run, bare = exprs._run, []

    def counted(program, env):
        if program[3] is None and not program[1]:
            bare.append(program)
        return run(program, env)

    monkeypatch.setattr(exprs, "_run", counted)
    catalog.reproduce(catalog.get_case(case_id, alpha=alpha, beta=beta))
    assert not bare


def test_a_fixture_string_past_the_float_range_names_its_case():
    """A fixture string is read as parse_document reads a document scalar, so its error names
    where it came from: at alpha = 1e155, case 4's expected scalar (4-(1+alpha)^2)/4 overflows."""
    with pytest.raises(InputError) as info:
        catalog.reproduce(catalog.get_case(4, alpha=1e155, beta=0))
    assert str(info.value) == "case 4: expression overflows a float"
