"""Six built-in Lie algebra fixtures and the pipeline that reproduces their
published geometry.

Fixtures live in data/cases.json as ordinary algebra documents plus an
`expected` block: connection and curvature tables, closed-form expressions
for R(V,U)U and the sectional numerator, the scalar curvature, the parallel
basis, the Randers drift template, the fundamental-tensor components at an
orthonormal pair, and the flag-curvature closed form. reproduce() recomputes
everything from the structure constants and diffs.

Mismatches are reported, never auto-resolved. A mismatch whose computed
value is recorded in the fixture's `annotations` block (with a hand
derivation) is flagged `annotated` and does not fail the report; anything
else does. Discrepancy entries cite the fixture line of the offending item.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources

from . import exprs
from .algebra import LieAlgebra, MetricTensor, Vector, check_jacobi
from .documents import Document, parse_document
from .errors import DegeneratePlaneError, InputError
from .linalg import orthonormal_pair, rank
from .randers import Flag, build_randers, flag_curvature, g_y, parallel_fields
from .riemann import curvature_apply, levi_civita, riemann_tensor, scalar_curvature
from .scalars import (Scalar, approx_equal, format_scalar, is_exact, is_zero,
                      parse_rational, scalar_to_json)

_EXTRAS = frozenset({"id", "name", "expected"})
_POLE_VARS = ("a", "b", "c", "d")
_EDGE_VARS = ("ta", "tb", "tc", "td")

_cache: tuple | None = None


def _load() -> tuple[list, list]:
    """(parsed fixture list, raw text lines) with module-level caching."""
    global _cache
    if _cache is None:
        text = resources.files("liecurv").joinpath("data/cases.json").read_text("utf-8")
        _cache = (json.loads(text), text.splitlines())
    return _cache


def case_ids() -> list[int]:
    return [entry["id"] for entry in _load()[0]]


def _needs_params(entry: dict) -> bool:
    names = set()
    for b in entry["brackets"]:
        for c in b["coeffs"]:
            if isinstance(c, str):
                try:
                    names |= exprs.free_names(exprs.parse_expr(c))
                except InputError:
                    pass
    return bool(names & {"alpha", "beta"})


def case_summaries() -> list[dict]:
    """One row per case for `catalog list`."""
    return [{"id": e["id"], "name": e["name"],
             "parameters": ["alpha", "beta"] if _needs_params(e) else []}
            for e in _load()[0]]


def _coerce_param(name: str, value) -> Scalar:
    if isinstance(value, str):  # the text of --alpha or --beta
        try:
            return parse_rational(value)
        except InputError as exc:
            raise InputError(f"--{name}: {exc}") from None
    if isinstance(value, bool):
        raise InputError(f"parameter {name} must be a rational or decimal")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, float)):
        return value
    raise InputError(f"parameter {name} must be a rational or decimal")


@dataclass
class CatalogCase:
    id: int
    name: str
    document: Document
    expected: dict

    @cached_property
    def algebra(self) -> LieAlgebra:
        return self.document.algebra()

    @property
    def metric(self) -> MetricTensor:
        return self.document.metric

    @property
    def params(self) -> dict:
        return self.document.params

    def _eval(self, text: str, env: dict | None = None) -> Scalar:
        full = dict(self.params)
        if env:
            full.update(env)
        return exprs.evaluate(text, full)

    def _eval_vector(self, coeffs, env: dict | None = None) -> Vector:
        return Vector(self._eval(c, env) for c in coeffs)

    def expected_connection(self) -> dict:
        return {(e["i"], e["j"]): self._eval_vector(e["coeffs"])
                for e in self.expected["connection"]}

    def expected_curvature(self) -> dict:
        return {(e["i"], e["j"], e["k"]): self._eval_vector(e["coeffs"])
                for e in self.expected["curvature"]}

    def expected_scalar(self) -> Scalar:
        return self._eval(self.expected["scalar"])

    def parallel_applicable(self) -> bool:
        cond = self.expected["parallel"]["condition"]
        if cond is None:
            return True
        return all(approx_equal(self.params.get(k, Fraction(0)),
                                exprs.evaluate(v, {})) for k, v in cond.items())

    def expected_parallel(self) -> list[Vector]:
        if not self.parallel_applicable():
            return []
        return [self._eval_vector(row) for row in self.expected["parallel"]["basis"]]

    def randers_applicable(self) -> bool:
        return (self.expected["randers"] is not None
                and bool(self.expected_parallel()))

    def drift_vars(self) -> list[str]:
        if self.expected["randers"] is None:
            return []
        names: set = set()
        for c in self.expected["randers"]["drift"]:
            names |= exprs.free_names(exprs.parse_expr(c))
        return sorted(names - set(self.params))

    def drift_vector(self, env: dict) -> Vector:
        return self._eval_vector(self.expected["randers"]["drift"], env)

    def annotation_for(self, item: str) -> dict | None:
        for note in self.expected.get("annotations", []):
            if note["item"] == item:
                return note
        return None


def get_case(case_id: int, alpha=None, beta=None) -> CatalogCase:
    """Instantiate a catalog case; alpha/beta are required exactly when the
    case's brackets reference them."""
    entry = next((e for e in _load()[0] if e["id"] == case_id), None)
    if entry is None:
        raise InputError(f"no catalog case {case_id}; valid ids: {case_ids()}")
    given = {}
    if alpha is not None:
        given["alpha"] = _coerce_param("alpha", alpha)
    if beta is not None:
        given["beta"] = _coerce_param("beta", beta)
    if _needs_params(entry):
        if set(given) != {"alpha", "beta"}:
            raise InputError(f"case {case_id} requires both alpha and beta")
        obj = dict(entry)
        obj["params"] = {k: scalar_to_json(v) for k, v in given.items()}
    else:
        if given:
            raise InputError(f"case {case_id} takes no parameters")
        obj = entry
    doc = parse_document(obj, extras=_EXTRAS)
    return CatalogCase(id=entry["id"], name=entry["name"], document=doc,
                       expected=entry["expected"])


# --- fixture line lookup ------------------------------------------------------


def _case_range(lines: list, case_id: int) -> tuple[int, int]:
    anchors = [n for n, ln in enumerate(lines) if ln.startswith('    "id": ')]
    for pos, n in enumerate(anchors):
        if lines[n].strip() == f'"id": {case_id},':
            end = anchors[pos + 1] if pos + 1 < len(anchors) else len(lines)
            return n, end
    raise InputError(f"case {case_id} not present in fixture file")


def _entry_line(lines: list, start: int, end: int, block: str, needle: str) -> int:
    block_at = next((n for n in range(start, end) if f'"{block}":' in lines[n]), start)
    for n in range(block_at, end):
        if needle in lines[n]:
            return n + 1
    return block_at + 1


def fixture_line(case_id: int, item: str) -> int:
    """1-based line in cases.json holding the expected value for `item`.

    Items look like connection[1][0], curvature[0][1][1], rvuu[2], scalar,
    parallel, fundamental.pole_pole, flag_curvature, sign. Unlisted table
    entries resolve to their block header line.
    """
    _, lines = _load()
    start, end = _case_range(lines, case_id)
    m = re.fullmatch(r"connection\[(\d+)\]\[(\d+)\]", item)
    if m:
        return _entry_line(lines, start, end, "connection",
                           f'"i": {m.group(1)}, "j": {m.group(2)}, "coeffs"')
    m = re.fullmatch(r"curvature\[(\d+)\]\[(\d+)\]\[(\d+)\]", item)
    if m:
        return _entry_line(lines, start, end, "curvature",
                           f'"i": {m.group(1)}, "j": {m.group(2)}, "k": {m.group(3)},')
    token = '"' + item.split(".")[-1].split("[")[0] + '":'
    for n in range(start, end):
        if token in lines[n]:
            return n + 1
    return start + 1


# --- reproduce ----------------------------------------------------------------


@dataclass
class Discrepancy:
    case: int
    item: str
    paper_value: str
    computed_value: str
    fixture_line: int
    annotated: bool = False
    derivation: str | None = None

    def to_dict(self) -> dict:
        out = {"case": self.case, "item": self.item,
               "paper_value": self.paper_value,
               "computed_value": self.computed_value,
               "fixture_line": self.fixture_line,
               "annotated": self.annotated}
        if self.derivation:
            out["derivation"] = self.derivation
        return out


@dataclass
class ReportItem:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class CaseReport:
    case_id: int
    name: str
    params: dict
    items: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def unannotated(self) -> list:
        return [d for d in self.discrepancies if not d.annotated]

    def to_dict(self, precision: int = 12) -> dict:
        return {
            "case": self.case_id,
            "name": self.name,
            "params": {k: scalar_to_json(v, precision) for k, v in sorted(self.params.items())},
            "passed": self.passed,
            "items": [item.to_dict() for item in self.items],
            "discrepancies": [d.to_dict() for d in self.discrepancies],
        }


def _vectors_match(a: Vector, b: Vector) -> bool:
    return all(approx_equal(x, y) for x, y in zip(a, b))


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _rand_vector(rng: random.Random, dim: int) -> Vector:
    while True:
        v = Vector(_rand_fraction(rng) for _ in range(dim))
        if not v.is_zero():
            return v


def _rand_pair(rng: random.Random, dim: int) -> tuple[Vector, Vector]:
    while True:
        u = _rand_vector(rng, dim)
        v = _rand_vector(rng, dim)
        if rank([list(u), list(v)]) == 2:
            return u, v


def _coord_env(pole, edge) -> dict:
    env = {name: value for name, value in zip(_POLE_VARS, pole)}
    env.update({name: value for name, value in zip(_EDGE_VARS, edge)})
    return env


def _sample_drift_env(rng: random.Random, names: list) -> dict:
    # keep the total norm safely below 1 for up to two components
    if len(names) == 1:
        return {names[0]: Fraction(rng.choice([-1, 1]) * rng.randint(1, 8), 9)}
    return {name: Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), 10)
            for name in names}


def _neutral_drift_env(names: list) -> dict:
    return {name: Fraction(1, 2 + 2 * pos) for pos, name in enumerate(names)}


class _Differ:
    """Collects mismatches for one report section, honoring annotations."""

    def __init__(self, case: CatalogCase, report: CaseReport):
        self.case = case
        self.report = report
        self.failed = False

    def record(self, item: str, fixture_value, computed, render=format_scalar) -> None:
        note = self.case.annotation_for(item)
        # annotations pin scalar values; a typo is only excused when the
        # recomputation agrees with the hand derivation on file
        annotated = (note is not None and not isinstance(computed, Vector)
                     and not isinstance(computed, str)
                     and approx_equal(self.case._eval(note["computed_value"]), computed))
        self.report.discrepancies.append(Discrepancy(
            case=self.case.id, item=item,
            paper_value=render(fixture_value), computed_value=render(computed),
            fixture_line=fixture_line(self.case.id, item),
            annotated=annotated,
            derivation=note["derivation"] if annotated else None))
        if not annotated:
            self.failed = True


def reproduce(case: CatalogCase, samples: int = 20, seed: int = 11) -> CaseReport:
    """Recompute the full pipeline for one case and diff against the fixture.

    Runs: Jacobi scan, Levi-Civita connection, curvature tensor, the printed
    closed forms for R(V,U)U and the sectional numerator at random rational
    pairs, scalar curvature, parallel fields, and (when a parallel drift
    exists) the Randers layer: Berwald flag, fundamental-tensor components
    and flag curvature at orthonormalized samples, and the sign claim.
    """
    rng = random.Random(seed)
    alg, metric = case.algebra, case.metric
    n = alg.dim
    labels = alg.labels
    report = CaseReport(case_id=case.id, name=case.name, params=dict(case.params))

    def describe(v: Vector) -> str:
        return v.describe(labels)

    jac = check_jacobi(alg)
    report.items.append(ReportItem(
        "jacobi", jac.passed,
        "pass" if jac.passed else f"{len(jac.violations)} violating triples"))

    conn = levi_civita(alg, metric)
    diff = _Differ(case, report)
    expected_conn = case.expected_connection()
    for i in range(n):
        for j in range(n):
            exp = expected_conn.get((i, j), Vector.zero(n))
            got = conn.nabla(i, j)
            if not _vectors_match(exp, got):
                diff.record(f"connection[{i}][{j}]", exp, got, describe)
    report.items.append(ReportItem(
        "connection", not diff.failed,
        f"{len(expected_conn)} printed entries, {n * n} derivatives checked"))

    rt = riemann_tensor(conn)
    diff = _Differ(case, report)
    expected_curv = case.expected_curvature()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                exp = expected_curv.get((i, j, k), Vector.zero(n))
                got = rt.basis_value(i, j, k)
                if not _vectors_match(exp, got):
                    diff.record(f"curvature[{i}][{j}][{k}]", exp, got, describe)
    report.items.append(ReportItem(
        "curvature", not diff.failed,
        f"{len(expected_curv)} printed entries, {n * n * (n - 1) // 2} values checked"))

    diff = _Differ(case, report)
    for _ in range(samples):
        u = _rand_vector(rng, n)
        v = _rand_vector(rng, n)
        env = _coord_env(u, v)
        got_vec = curvature_apply(rt, v, u, u)
        exp_vec = Vector(case._eval(text, env) for text in case.expected["rvuu"])
        if not _vectors_match(exp_vec, got_vec):
            diff.record("rvuu", exp_vec, got_vec, describe)
        got_num = metric.inner(got_vec, v)
        exp_num = case._eval(case.expected["sectional_numerator"], env)
        if not approx_equal(exp_num, got_num):
            diff.record("sectional_numerator", exp_num, got_num)
    report.items.append(ReportItem(
        "closed_forms", not diff.failed,
        f"R(V,U)U and sectional numerator at {samples} rational pairs"))

    diff = _Differ(case, report)
    scalar = scalar_curvature(rt, metric)
    exp_scalar = case.expected_scalar()
    if not approx_equal(exp_scalar, scalar):
        diff.record("scalar", exp_scalar, scalar)
    annotated_note = (report.discrepancies[-1].annotated
                      if report.discrepancies and report.discrepancies[-1].item == "scalar"
                      else False)
    report.items.append(ReportItem(
        "scalar", not diff.failed,
        f"computed {format_scalar(scalar)}"
        + (" (printed value differs; annotated fixture typo)" if annotated_note else "")))

    diff = _Differ(case, report)
    computed_par = parallel_fields(conn)
    expected_par = case.expected_parallel()
    rows_c = [list(v) for v in computed_par]
    rows_e = [list(v) for v in expected_par]
    spans_equal = (len(rows_c) == len(rows_e)
                   and (not rows_c or rank(rows_c) == rank(rows_e) == rank(rows_c + rows_e)))
    if not spans_equal:
        diff.record("parallel",
                    ", ".join(describe(v) for v in expected_par) or "none",
                    ", ".join(describe(v) for v in computed_par) or "none",
                    render=str)
    report.items.append(ReportItem(
        "parallel", not diff.failed, f"dimension {len(computed_par)}"))

    _reproduce_randers(case, report, conn, rt, rng, samples)
    return report


def _reproduce_randers(case: CatalogCase, report: CaseReport, conn, rt,
                       rng: random.Random, samples: int) -> None:
    if case.expected["randers"] is None:
        report.items.append(ReportItem("randers", True,
                                       "not applicable: no parallel fields"))
        return
    if not case.randers_applicable():
        report.items.append(ReportItem("randers", True,
                                       "not applicable at these parameters"))
        return
    metric = case.metric
    names = case.drift_vars()
    flag_expr = case.expected["randers"]["flag_curvature"]
    fundamental = case.expected["fundamental"]
    diff = _Differ(case, report)

    rm0 = build_randers(metric, case.drift_vector(_neutral_drift_env(names)), conn)
    berwald_ok = rm0.berwald
    values = []
    for _ in range(samples):
        drift_env = _sample_drift_env(rng, names)
        rm = build_randers(metric, case.drift_vector(drift_env), conn)
        berwald_ok = berwald_ok and rm.berwald
        while True:
            u, v = _rand_pair(rng, case.algebra.dim)
            try:
                pole, edge = orthonormal_pair(metric.gram, list(u), list(v))
                break
            except DegeneratePlaneError:
                continue
        env = _coord_env(pole, edge)
        env.update(drift_env)
        got = flag_curvature(rm, rt, Flag(Vector(pole), Vector(edge)))
        values.append(got)
        exp = case._eval(flag_expr, env)
        if not approx_equal(exp, got):
            diff.record("flag_curvature", exp, got)
        pole_v, edge_v = Vector(pole), Vector(edge)
        computed_fund = {
            "pole_pole": g_y(rm, pole_v, pole_v, pole_v),
            "pole_edge": g_y(rm, pole_v, pole_v, edge_v),
            "edge_edge": g_y(rm, pole_v, edge_v, edge_v),
            "flag_numerator": g_y(rm, pole_v,
                                  curvature_apply(rt, edge_v, pole_v, pole_v), edge_v),
        }
        for key, got_f in computed_fund.items():
            exp_f = case._eval(fundamental[key], env)
            if not approx_equal(exp_f, got_f):
                diff.record(f"fundamental.{key}", exp_f, got_f)
    report.items.append(ReportItem(
        "randers", berwald_ok and not diff.failed,
        f"berwald={berwald_ok}, flag curvature and fundamental tensor at "
        f"{samples} orthonormalized samples"))

    claim = case.expected["randers"]["sign"]
    if claim is None:
        return
    n = case.algebra.dim
    probe_rm = rm0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            values.append(flag_curvature(
                probe_rm, rt, Flag(Vector.basis(n, i), Vector.basis(n, j))))
    if claim == "nonpositive":
        ok = all(value <= 0 if is_exact(value) else value <= 1e-9 for value in values)
        detail = f"max sampled value {format_scalar(max(values), 6)}"
    elif claim == "indefinite":
        has_pos = any(value > 0 and not is_zero(value) for value in values)
        has_neg = any(value < 0 and not is_zero(value) for value in values)
        ok = has_pos and has_neg
        detail = (f"range [{format_scalar(min(values), 6)}, "
                  f"{format_scalar(max(values), 6)}]")
    else:
        raise InputError(f"unknown sign claim {claim!r} in fixture")
    item = f"sign ({claim})"
    if not ok:
        differ = _Differ(case, report)
        differ.record("sign", claim, detail, render=str)
        report.items.append(ReportItem(item, False, detail))
    else:
        report.items.append(ReportItem(item, True, detail))
