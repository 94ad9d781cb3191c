"""Six built-in Lie algebra fixtures and the pipeline that reproduces their
published geometry.

Geometry is that pipeline for one document: algebra, Jacobi scan,
Levi-Civita connection, curvature, scalar curvature and parallel fields,
each computed once, on first use. A CatalogCase is a Geometry plus its
fixture from data/cases.json: an id, a name and an `expected` block of
connection and curvature tables, closed-form expressions for R(V,U)U and
the sectional numerator, the scalar curvature, the parallel basis, the
Randers drift template, the fundamental-tensor components at an orthonormal
pair, and the flag-curvature closed form. reproduce() diffs the stages
against it.

Mismatches are reported, never auto-resolved. Every comparison that fails
records one Discrepancy in the report's ledger, citing the fixture line of
the offending item. A mismatch whose computed value is recorded in the
fixture's `annotations` block (with a hand derivation) is flagged
`annotated`. A section passes when every discrepancy it records is
annotated (and, for jacobi, randers and sign, when its own condition
holds); the report passes when every section does.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from fractions import Fraction
from functools import cache, cached_property

from . import exprs
from .algebra import JacobiReport, LieAlgebra, Vector, check_jacobi
from .documents import Document, _read_scalar, parse_document
from .errors import DegeneratePlaneError, InputError
from .linalg import orthonormal_pair, rank
from .randers import Flag, build_randers, flag_curvature, g_y, parallel_fields
from .riemann import (Connection, CurvatureTensor, curvature_apply, levi_civita,
                      plane_form, riemann_tensor, scalar_curvature)
from .scalars import (Scalar, approx_equal, format_scalar, is_zero, parse_rational,
                      scalar_to_json)

_POLE_VARS = ("a", "b", "c", "d")
_EDGE_VARS = ("ta", "tb", "tc", "td")
_FUNDAMENTAL = ("pole_pole", "pole_edge", "edge_edge", "flag_numerator")


@cache
def _load() -> tuple[list, list]:
    """(parsed fixture list, raw text lines), read once per process."""
    with open(os.path.join(os.path.dirname(__file__), "data/cases.json"), encoding="utf-8") as f:
        return json.loads(text := f.read()), text.splitlines()


def case_ids() -> list[int]:
    return [entry["id"] for entry in _load()[0]]


def _free_names(texts) -> set:
    """The names that the fixture strings among texts read."""
    return set().union(*(exprs.free_names(exprs.parse_expr(t))
                         for t in texts if isinstance(t, str)))


def _needs_params(entry: dict) -> bool:
    return bool(_free_names(c for b in entry["brackets"] for c in b["coeffs"]) & {"alpha", "beta"})


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
    if isinstance(value, (int, Fraction, float)) and not isinstance(value, bool):
        return Fraction(value) if isinstance(value, int) else value
    raise InputError(f"parameter {name} must be a rational or decimal")


class Geometry:
    """One document's stage chain; each stage runs once, on first use."""

    def __init__(self, document: Document):
        self.document, self.metric, self.params = document, document.metric, document.params

    @cached_property
    def algebra(self) -> LieAlgebra:
        return self.document.algebra()

    @cached_property
    def jacobi(self) -> JacobiReport:
        return check_jacobi(self.algebra)

    @cached_property
    def connection(self) -> Connection:
        try:
            return levi_civita(self.algebra, self.metric)
        except InputError as exc:
            # parsing made the dimensions agree, so what levi_civita refuses is the metric
            raise InputError(f"document.metric: {exc}") from None

    @cached_property
    def curvature(self) -> CurvatureTensor:
        return riemann_tensor(self.connection)

    @cached_property
    def scalar(self) -> Scalar:
        return scalar_curvature(self.curvature, self.metric)

    @cached_property
    def parallel(self) -> list[Vector]:
        return parallel_fields(self.connection)


class CatalogCase(Geometry):
    def __init__(self, document: Document, id: int, name: str, expected: dict):
        super().__init__(document)
        self.id, self.name, self.expected = id, name, expected

    def _eval(self, text: str, env: dict | None = None) -> Scalar:
        """A fixture string, read literal-first as parse_document reads the same file, over
        env, which binds the parameters too; by default them alone."""
        return _read_scalar(text, f"case {self.id}", self.params if env is None else env)

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
        return all(approx_equal(self.params.get(k, Fraction(0)), self._eval(v, {}))
                   for k, v in cond.items())

    def expected_parallel(self) -> list[Vector]:
        if not self.parallel_applicable():
            return []
        return [self._eval_vector(row) for row in self.expected["parallel"]["basis"]]

    def drift_vars(self) -> list[str]:
        if self.expected["randers"] is None:
            return []
        return sorted(_free_names(self.expected["randers"]["drift"]) - set(self.params))

    def drift_vector(self, env: dict) -> Vector:
        return self._eval_vector(self.expected["randers"]["drift"], {**self.params, **env})

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
    elif given:
        raise InputError(f"case {case_id} takes no parameters")
    obj = {k: v for k, v in entry.items() if k not in ("id", "name", "expected")}
    if given:  # 17 significant digits round-trip every float
        obj["params"] = {k: scalar_to_json(v, 17) for k, v in given.items()}
    doc = parse_document(obj)
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


class Discrepancy:
    def __init__(self, case: int, item: str, paper_value: str, computed_value: str,
                 fixture_line: int, annotated: bool = False, derivation: str | None = None):
        self.case, self.item, self.fixture_line = case, item, fixture_line
        self.paper_value, self.computed_value = paper_value, computed_value
        self.annotated, self.derivation = annotated, derivation

    def to_dict(self) -> dict:
        extra = {} if self.derivation is None else {"derivation": self.derivation}
        return {"case": self.case, "item": self.item, "paper_value": self.paper_value,
                "computed_value": self.computed_value, "fixture_line": self.fixture_line,
                "annotated": self.annotated, **extra}


class ReportItem:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class CaseReport:
    def __init__(self, case_id: int, name: str, params: dict,
                 items: list | None = None, discrepancies: list | None = None):
        self.case_id, self.name, self.params = case_id, name, params
        self.items = [] if items is None else items
        self.discrepancies = [] if discrepancies is None else discrepancies

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

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
    if (fa := a.ints) and (fb := b.ints):  # x / da == y / db as x db == y da
        return [x * fb[0] for x in fa[1]] == [y * fa[0] for y in fb[1]]
    return all(approx_equal(x, y) for x, y in zip(a, b))


def _rand_vector(rng: random.Random, dim: int) -> Vector:
    while True:  # p/q, born with its int form over the lcm of the reduced denominators
        pq = [(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
        if any(p for p, _ in pq):
            den = math.lcm(*(q // math.gcd(p, q) for p, q in pq))
            return Vector([p * den // q for p, q in pq], den)


def _coord_env(params: dict, pole, edge) -> dict:
    """The parameters, with the pole bound to a..d and the edge to ta..td."""
    env = dict(params)
    env.update(zip(_POLE_VARS, pole))
    env.update(zip(_EDGE_VARS, edge))
    return env


def _sample_drift_env(rng: random.Random, names: list) -> dict:
    # keep the total norm safely below 1 for up to two components
    if len(names) == 1:
        return {names[0]: Fraction(rng.choice([-1, 1]) * rng.randint(1, 8), 9)}
    return {name: Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), 10)
            for name in names}


def reproduce(case: CatalogCase, samples: int = 20, seed: int = 11) -> CaseReport:
    """Diff one case's cached pipeline stages against the fixture.

    Checks: Jacobi scan, Levi-Civita connection, curvature tensor, the printed
    closed forms for R(V,U)U and the sectional numerator at random rational
    pairs, scalar curvature, parallel fields, and (when a parallel drift
    exists) the Randers layer: Berwald flag, fundamental-tensor components
    and flag curvature at orthonormalized samples, and the sign claim.
    """
    rng = random.Random(seed)
    alg, metric = case.algebra, case.metric
    n = alg.dim
    report = CaseReport(case_id=case.id, name=case.name, params=dict(case.params))
    ledger = report.discrepancies
    section_start = 0

    def describe(v: Vector) -> str:
        return v.describe(alg.labels)

    def record(item: str, fixture_value, computed, render) -> bool:
        """Ledger one mismatch; True when an annotation excuses it."""
        note = case.annotation_for(item)
        # annotations pin scalar values; a typo is only excused when the
        # recomputation agrees with the hand derivation on file
        annotated = (note is not None and not isinstance(computed, (Vector, str))
                     and approx_equal(case._eval(note["computed_value"]), computed))
        ledger.append(Discrepancy(
            case=case.id, item=item,
            paper_value=render(fixture_value), computed_value=render(computed),
            fixture_line=fixture_line(case.id, item), annotated=annotated,
            derivation=note["derivation"] if annotated else None))
        return annotated

    def check(item: str, fixture_value, computed) -> bool:
        """Compare a Vector or a scalar; True when a mismatch is excused."""
        if isinstance(computed, Vector):
            if not _vectors_match(fixture_value, computed):
                return record(item, fixture_value, computed, describe)
        elif not approx_equal(fixture_value, computed):
            return record(item, fixture_value, computed, format_scalar)
        return False

    def verdict(name: str, detail: str, ok: bool = True) -> None:
        """Close a section: it passes when ok and all it recorded is annotated."""
        nonlocal section_start
        ok = ok and all(d.annotated for d in ledger[section_start:])
        section_start = len(ledger)
        report.items.append(ReportItem(name, ok, detail))

    jac = case.jacobi
    verdict("jacobi", "pass" if jac.passed else f"{len(jac.violations)} violating triples",
            jac.passed)

    expected_conn = case.expected_connection()
    for i in range(n):
        for j in range(n):
            check(f"connection[{i}][{j}]", expected_conn.get((i, j), Vector.zero(n)),
                  case.connection.nabla(i, j))
    verdict("connection", f"{len(expected_conn)} printed entries, {n * n} derivatives checked")

    rt = case.curvature
    expected_curv = case.expected_curvature()
    for i, j, k, value in rt.entries():
        check(f"curvature[{i}][{j}][{k}]", expected_curv.get((i, j, k), Vector.zero(n)), value)
    verdict("curvature", f"{len(expected_curv)} printed entries, "
            f"{n * n * (n - 1) // 2} values checked")

    closed_forms = (*case.expected["rvuu"], case.expected["sectional_numerator"])
    for _ in range(samples):
        u = _rand_vector(rng, n)
        v = _rand_vector(rng, n)
        env = _coord_env(case.params, u, v)
        got = curvature_apply(rt, v, u, u)
        *rvuu, numerator = exprs.evaluate_all(closed_forms, env)
        check("rvuu", Vector(rvuu), got)
        check("sectional_numerator", numerator, plane_form(rt, u, v)[0])
    verdict("closed_forms", f"R(V,U)U and sectional numerator at {samples} rational pairs")

    excused = check("scalar", case.expected_scalar(), case.scalar)
    verdict("scalar", f"computed {format_scalar(case.scalar)}"
            + (" (printed value differs; annotated fixture typo)" if excused else ""))

    computed_par = case.parallel
    expected_par = case.expected_parallel()
    if not (len(computed_par) == len(expected_par)
            and (not computed_par or len(computed_par) == rank(expected_par)
                 == rank(computed_par + expected_par))):
        record("parallel", ", ".join(describe(v) for v in expected_par) or "none",
               ", ".join(describe(v) for v in computed_par) or "none", str)
    verdict("parallel", f"dimension {len(computed_par)}")

    if case.expected["randers"] is None:
        verdict("randers", "not applicable: no parallel fields")
        return report
    if not expected_par:
        verdict("randers", "not applicable at these parameters")
        return report
    names = case.drift_vars()
    randers_forms = (case.expected["randers"]["flag_curvature"],
                     *(case.expected["fundamental"][key] for key in _FUNDAMENTAL))
    rm0 = build_randers(metric, case.drift_vector(
        {name: Fraction(1, 2 + 2 * pos) for pos, name in enumerate(names)}), case.connection)
    berwald_ok = rm0.berwald
    values = []
    for _ in range(samples):
        drift_env = _sample_drift_env(rng, names)
        rm = build_randers(metric, case.drift_vector(drift_env), case.connection)
        berwald_ok = berwald_ok and rm.berwald
        while True:  # redraw until the two vectors span a plane
            try:
                pole, edge = map(Vector, orthonormal_pair(
                    metric, _rand_vector(rng, n), _rand_vector(rng, n)))
                break
            except DegeneratePlaneError:
                continue
        env = _coord_env(case.params, pole, edge)
        env.update(drift_env)
        got = flag_curvature(rm, rt, Flag(pole, edge))
        values.append(got)
        printed_flag, *printed_fund = exprs.evaluate_all(randers_forms, env)
        check("flag_curvature", printed_flag, got)
        computed_fund = g_y(rm, pole, [(pole, pole), (pole, edge), (edge, edge),
                                       (curvature_apply(rt, edge, pole, pole), edge)])
        for key, printed, got_f in zip(_FUNDAMENTAL, printed_fund, computed_fund):
            check(f"fundamental.{key}", printed, got_f)
    verdict("randers", f"berwald={berwald_ok}, flag curvature and fundamental tensor at "
            f"{samples} orthonormalized samples", berwald_ok)

    claim = case.expected["randers"]["sign"]
    if claim is None:
        return report
    for i in range(n):
        for j in range(n):
            if i != j:
                values.append(flag_curvature(
                    rm0, rt, Flag(Vector.basis(n, i), Vector.basis(n, j))))
    if claim == "nonpositive":
        ok = all(value <= 0 or is_zero(value) for value in values)
        detail = f"max sampled value {format_scalar(max(values), 6)}"
    elif claim == "indefinite":
        ok = (any(value > 0 and not is_zero(value) for value in values)
              and any(value < 0 and not is_zero(value) for value in values))
        detail = (f"range [{format_scalar(min(values), 6)}, "
                  f"{format_scalar(max(values), 6)}]")
    else:
        raise InputError(f"unknown sign claim {claim!r} in fixture")
    if not ok:
        record("sign", claim, detail, str)
    verdict(f"sign ({claim})", detail, ok)
    return report
