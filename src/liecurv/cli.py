"""Command-line front end.

Commands: check, analyze, sectional, scalar, parallel, randers, flag,
report, catalog list. The first seven read one document: a JSON algebra
file or --case N for a built-in fixture (with --alpha/--beta/--drift
overrides). `main` resolves it once into a catalog.Geometry, hands that to
the command and stamps the envelope's "digest" with the sha256 of the
document read, after --drift; report and catalog list carry null. Exit
codes: 0 success, 1 input error, 2 mathematical precondition violation,
3 nonempty discrepancy ledger under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import catalog
from .algebra import Vector
from .documents import Document, document_digest, load_document
from .errors import InputError, LiecurvError, NonBerwaldError, PreconditionError
from .randers import Flag, build_randers, flag_curvature, g_y, randers_norm
from .riemann import sectional
from .scalars import format_scalar, is_zero, parse_rational, scalar_to_json, shown_literal


class CommandResult:
    def __init__(self, sections: dict, text: list, discrepancies: list | None = None,
                 status: int = 0):
        self.sections, self.text, self.status = sections, text, status
        self.discrepancies = [] if discrepancies is None else discrepancies


def _parse_vector(text: str, dim: int, flag_name: str) -> Vector:
    parts = text.split(",")
    if len(parts) != dim:
        raise InputError(f"{flag_name} needs {dim} comma-separated components")
    try:
        return Vector(parse_rational(p) for p in parts)
    except InputError as exc:
        raise InputError(f"{flag_name}: {exc}") from None


# Largest number of (alpha, beta) points `report` reproduces; each point is
# one full catalog reproduction.
MAX_GRID_POINTS = 256


def _parse_grid(text: str, flag_name: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        if not text.isascii() or "_" in text:  # int() also reads '٣' and '1_0'
            raise ValueError(text)
        lo_n, hi_n = int(lo), int(hi)
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # the int-string digit limit
            raise InputError(f"{flag_name}: integer literal too long: {exc}") from None
        raise InputError(f"{flag_name} must look like lo:hi, "
                         f"got {shown_literal(text)}") from None
    if not sep or lo_n > hi_n:
        raise InputError(f"{flag_name} must be an inclusive integer range lo:hi")
    return range(lo_n, hi_n + 1)


def _resolve_document(args) -> catalog.Geometry:
    """Load from file or catalog (a CatalogCase), apply --drift/--alpha/--beta."""
    if args.document and args.case is not None:
        raise InputError("give either a document file or --case, not both")
    if args.case is not None:
        geo = catalog.get_case(args.case, alpha=args.alpha, beta=args.beta)
    else:
        if not args.document:
            raise InputError("no input: give a document file or --case N")
        if args.alpha is not None or args.beta is not None:
            raise InputError("--alpha/--beta only apply with --case; "
                             "put params in the document instead")
        geo = catalog.Geometry(load_document(args.document))
    if args.drift is not None:
        doc = geo.document
        doc = Document(doc.dim, doc.labels, doc.brackets, doc.metric,
                       _parse_vector(args.drift, doc.dim, "--drift"), doc.params)
        geo = (catalog.CatalogCase(doc, geo.id, geo.name, geo.expected)
               if isinstance(geo, catalog.CatalogCase) else catalog.Geometry(doc))
    return geo


def _residual_line(alg, violation) -> str:
    i, j, k, res = violation
    triple = ", ".join(alg.labels[t] for t in (i, j, k))
    return f"residual on ({triple}): {res.describe(alg.labels)}"


def _lie_checked(geo: catalog.Geometry) -> catalog.Geometry:
    """geo, once its algebra passes Jacobi; a failure is an input error (exit 1)."""
    violations = geo.jacobi.violations
    if violations:
        raise InputError("not a Lie algebra: jacobi: FAIL, "
                         + _residual_line(geo.algebra, violations[0]))
    return geo


def _vector_json(v: Vector, precision: int) -> list:
    return [scalar_to_json(x, precision) for x in v]


def _entry_json(v: Vector, precision: int) -> list:
    """Coefficients of a connection or curvature entry. A float that is_zero
    reads as zero is roundoff whose digits follow summation order; it is
    written 0.0, as the text output leaves it out."""
    return [0.0 if isinstance(x, float) and is_zero(x) else scalar_to_json(x, precision)
            for x in v]


# --- commands -----------------------------------------------------------------


def cmd_check(args, geo: catalog.Geometry) -> CommandResult:
    report = geo.jacobi
    pd = geo.metric.is_positive_definite()
    passed = report.passed and pd
    sections = {
        "jacobi": report.to_dict(args.precision),
        "metric_positive_definite": pd,
        "passed": passed,
    }
    text = [f"antisymmetry: {'pass' if report.antisymmetry_ok else 'FAIL'}",
            f"jacobi: {'pass' if not report.violations else 'FAIL'}"]
    text += [f"  {_residual_line(geo.algebra, v)}" for v in report.violations]
    text.append(f"metric: {'positive definite' if pd else 'NOT positive definite'}")
    text.append(f"check: {'pass' if passed else 'FAIL'}")
    return CommandResult(sections, text, status=0 if passed else 1)


def cmd_analyze(args, geo: catalog.Geometry) -> CommandResult:
    case = geo if isinstance(geo, catalog.CatalogCase) else None
    labels, n = geo.algebra.labels, geo.document.dim
    jac, conn, rt = geo.jacobi, geo.connection, geo.curvature
    scalar, par = geo.scalar, geo.parallel
    # the nonzero entries, walked once for both the JSON and the text
    nablas = [(i, j, value) for i in range(n) for j in range(n)
              if not (value := conn.nabla(i, j)).is_zero()]
    curvatures = [entry for entry in rt.entries() if not entry[3].is_zero()]
    planes = [(i, j, *sectional(rt, geo.metric, Vector.basis(n, i), Vector.basis(n, j)))
              for i in range(n) for j in range(i + 1, n)]

    p = args.precision
    sections = {
        "jacobi_passed": jac.passed,
        "connection": [{"i": i, "j": j, "coeffs": _entry_json(value, p)}
                       for i, j, value in nablas],
        "curvature": [{"i": i, "j": j, "k": k, "coeffs": _entry_json(value, p)}
                      for i, j, k, value in curvatures],
        "sectional_basis_planes": [
            {"i": i, "j": j, "numerator": scalar_to_json(num, p),
             "value": scalar_to_json(value, p)} for (i, j, num, value) in planes],
        "scalar": scalar_to_json(scalar, p),
        "parallel": [_vector_json(v, p) for v in par],
    }
    discrepancies = []
    if case is not None:
        rep = catalog.reproduce(case)
        sections.update(case=case.id, name=case.name, reproduce=rep.to_dict(p))
        discrepancies = [d.to_dict() for d in rep.discrepancies]

    text = []
    if case is not None:
        text.append(f"case {case.id}: {case.name}")
    text.append(f"jacobi: {'pass' if jac.passed else 'FAIL'}")
    text.append("connection (nonzero covariant derivatives):")
    text += [f"  nabla_{labels[i]} {labels[j]} = {value.describe(labels, p)}"
             for i, j, value in nablas]
    text.append("curvature (nonzero R(,), first pair i<j):")
    text += [f"  R({labels[i]},{labels[j]}){labels[k]} = {value.describe(labels, p)}"
             for i, j, k, value in curvatures]
    text.append("sectional curvature of basis planes:")
    for (i, j, _, value) in planes:
        text.append(f"  K({labels[i]},{labels[j]}) = {format_scalar(value, p)}")
    text.append(f"scalar curvature: {format_scalar(scalar, p)}")
    text.append("parallel fields: "
                + (", ".join(v.describe(labels, p) for v in par) if par else "none"))
    if case is not None:
        text.append(f"fixture reproduction: {'pass' if rep.passed else 'FAIL'}"
                    + (f" ({len(discrepancies)} discrepancy entries)" if discrepancies else ""))
    return CommandResult(sections, text, discrepancies=discrepancies)


def cmd_sectional(args, geo: catalog.Geometry) -> CommandResult:
    n = geo.document.dim
    u, v = _parse_vector(args.u, n, "--u"), _parse_vector(args.v, n, "--v")
    num, value = sectional(_lie_checked(geo).curvature, geo.metric, u, v)
    p = args.precision
    sections = {"numerator": scalar_to_json(num, p), "value": scalar_to_json(value, p)}
    text = [f"numerator: {format_scalar(num, p)}",
            f"sectional curvature: {format_scalar(value, p)}"]
    return CommandResult(sections, text)


def cmd_scalar(args, geo: catalog.Geometry) -> CommandResult:
    value = _lie_checked(geo).scalar
    sections = {"scalar": scalar_to_json(value, args.precision)}
    return CommandResult(sections, [f"scalar curvature: {format_scalar(value, args.precision)}"])


def cmd_parallel(args, geo: catalog.Geometry) -> CommandResult:
    labels = _lie_checked(geo).algebra.labels
    par = geo.parallel
    sections = {"basis": [_vector_json(v, args.precision) for v in par],
                "dimension": len(par)}
    text = [f"parallel fields: dimension {len(par)}"]
    text += [f"  {v.describe(labels, args.precision)}" for v in par]
    return CommandResult(sections, text)


def cmd_randers(args, geo: catalog.Geometry) -> CommandResult:
    if args.edge is not None and args.pole is None:
        raise InputError("--edge needs --pole")
    doc = geo.document
    if doc.drift is None:
        raise InputError("randers needs a drift: give --drift or a document drift field")
    labels = _lie_checked(geo).algebra.labels
    rm = build_randers(geo.metric, doc.drift, geo.connection)
    if not rm.berwald:
        raise NonBerwaldError(
            "drift is not parallel (nabla Q != 0): not a Berwald-type metric; "
            "run `parallel` to list the admissible drifts")
    p = args.precision
    basis = [Vector.basis(doc.dim, i) for i in range(doc.dim)]
    norms = [randers_norm(rm, b) for b in basis]
    sections = {
        "drift": _vector_json(rm.drift, p),
        "drift_norm_sq": scalar_to_json(rm.drift_norm_sq, p),
        "berwald": rm.berwald,
        "parallel_basis": [_vector_json(v, p) for v in geo.parallel],
        "norms": {label: scalar_to_json(f, p) for label, f in zip(labels, norms)},
    }
    text = [f"drift: {rm.drift.describe(labels, p)}",
            f"g(Q,Q): {format_scalar(rm.drift_norm_sq, p)}",
            f"berwald: {str(rm.berwald).lower()}",
            "F on the basis: "
            + ", ".join(f"F({label}) = {format_scalar(f, p)}"
                        for label, f in zip(labels, norms))]
    if args.pole is not None:
        pole = _parse_vector(args.pole, doc.dim, "--pole")
        values = g_y(rm, pole, [(bi, bj) for bi in basis for bj in basis])
        table = [values[i:i + doc.dim] for i in range(0, len(values), doc.dim)]
        f_pole = randers_norm(rm, pole)
        sections["pole"] = _vector_json(pole, p)
        sections["g_pole"] = [[scalar_to_json(x, p) for x in row] for row in table]
        sections["f_pole"] = scalar_to_json(f_pole, p)
        text.append(f"F(pole) = {format_scalar(f_pole, p)}")
        text.append("fundamental tensor at the pole:")
        for row in table:
            text.append("  [" + ", ".join(format_scalar(x, p) for x in row) + "]")
        if args.edge is not None:
            edge = _parse_vector(args.edge, doc.dim, "--edge")
            value = flag_curvature(rm, geo.curvature, Flag(pole, edge))
            sections["flag_curvature"] = scalar_to_json(value, p)
            text.append(f"flag curvature: {format_scalar(value, p)}")
    return CommandResult(sections, text)


def cmd_flag(args, geo: catalog.Geometry) -> CommandResult:
    doc = geo.document
    if doc.drift is None:
        raise InputError("flag needs a drift: give --drift or a document drift field")
    pole = _parse_vector(args.pole, doc.dim, "--pole")
    edge = _parse_vector(args.edge, doc.dim, "--edge")
    rm = build_randers(geo.metric, doc.drift, _lie_checked(geo).connection)
    value = flag_curvature(rm, geo.curvature, Flag(pole, edge))
    sections = {"flag_curvature": scalar_to_json(value, args.precision)}
    return CommandResult(sections, [f"flag curvature: {format_scalar(value, args.precision)}"])


def cmd_report(args) -> CommandResult:
    if args.all == (args.case is not None):
        raise InputError("report needs exactly one of --all or --case N")
    takes_params = {row["id"]: bool(row["parameters"]) for row in catalog.case_summaries()}
    ids = list(takes_params) if args.all else [args.case]
    alpha_grid = _parse_grid(args.alpha_grid, "--alpha-grid")
    beta_grid = _parse_grid(args.beta_grid, "--beta-grid")
    # int arithmetic: len() of a range past sys.maxsize raises OverflowError
    points = ((alpha_grid.stop - alpha_grid.start)
              * (beta_grid.stop - beta_grid.start))
    if points > MAX_GRID_POINTS:
        raise InputError(f"--alpha-grid x --beta-grid has {points} points; "
                         f"the ceiling is {MAX_GRID_POINTS}")
    if args.out and not os.path.lexists(args.out):  # probe before any case runs
        _write_report(args.out, "x", "")
        os.remove(args.out)
    elif args.out and os.path.exists(args.out):  # "a" keeps the file; a dangling link waits
        _write_report(args.out, "a", "")
    reports = []
    for cid in ids:
        if takes_params.get(cid):  # an unknown id falls through to get_case's error
            for alpha in alpha_grid:
                for beta in beta_grid:
                    reports.append(catalog.reproduce(catalog.get_case(cid, alpha=alpha, beta=beta)))
        else:
            reports.append(catalog.reproduce(catalog.get_case(cid)))
    p = args.precision
    passed = all(r.passed for r in reports)
    discrepancies = [d.to_dict() for r in reports for d in r.discrepancies]
    sections = {"cases": [r.to_dict(p) for r in reports], "passed": passed}
    text = []
    for r in reports:
        tag = f"case {r.case_id}"
        if r.params:
            tag += " [" + ", ".join(f"{k}={format_scalar(v, p)}"
                                    for k, v in sorted(r.params.items())) + "]"
        text.append(f"{tag}: {'pass' if r.passed else 'FAIL'} ({len(r.items)} items)")
        for item in r.items:
            if not item.passed:
                text.append(f"  FAIL {item.name}: {item.detail}")
    if discrepancies:
        text.append(f"discrepancies ({len(discrepancies)}):")
        for d in discrepancies:
            note = ", annotated" if d["annotated"] else ""
            text.append(f"  case {d['case']} {d['item']}: paper {d['paper_value']}, "
                        f"computed {d['computed_value']} "
                        f"(fixture line {d['fixture_line']}{note})")
    else:
        text.append("discrepancies: none")
    text.append(f"overall: {'pass' if passed else 'FAIL'}")
    return CommandResult(sections, text, discrepancies=discrepancies)


def cmd_catalog(args) -> CommandResult:
    rows = catalog.case_summaries()
    sections = {"cases": rows}
    text = []
    for row in rows:
        suffix = ""
        if row["parameters"]:
            suffix = "  (requires --" + ", --".join(row["parameters"]) + ")"
        text.append(f"  {row['id']}  {row['name']}{suffix}")
    return CommandResult(sections, text)


# --- dispatch -----------------------------------------------------------------


def _formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's HelpFormatter at its default width, shutil.get_terminal_size().columns - 2,
    found without importing shutil, which loads bz2, lzma, zlib and fnmatch: a positive
    COLUMNS, else the width of sys.__stdout__'s terminal, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
        except (AttributeError, ValueError, OSError):
            columns = 80
    return argparse.HelpFormatter(prog, width=columns - 2)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, formatter_class=_formatter)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--precision", type=int, default=12,
                        help="significant digits for floating output")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 when the discrepancy ledger is nonempty")

    doc_input = argparse.ArgumentParser(add_help=False, formatter_class=_formatter)
    doc_input.add_argument("document", nargs="?",
                           help="path to a JSON algebra document")
    doc_input.add_argument("--case", type=int, help="built-in catalog case id")
    doc_input.add_argument("--alpha", help="case parameter (with --case)")
    doc_input.add_argument("--beta", help="case parameter (with --case)")
    doc_input.add_argument("--drift", help="drift vector, e.g. 0,0,1/2,0")

    parser = argparse.ArgumentParser(
        prog="liecurv", formatter_class=_formatter,
        description="Left-invariant Riemannian and Randers geometry from "
                    "Lie algebra structure constants.")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, formatter_class=_formatter))

    sub.add_parser("check", parents=[common, doc_input],
                   help="validate a document: antisymmetry, Jacobi, metric"
                   ).set_defaults(run=cmd_check)
    sub.add_parser("analyze", parents=[common, doc_input],
                   help="connection, curvature, sectional, scalar, parallel"
                   ).set_defaults(run=cmd_analyze)
    p = sub.add_parser("sectional", parents=[common, doc_input],
                       help="sectional curvature of span{u, v}")
    p.set_defaults(run=cmd_sectional)
    p.add_argument("--u", required=True, help="first spanning vector")
    p.add_argument("--v", required=True, help="second spanning vector")
    sub.add_parser("scalar", parents=[common, doc_input],
                   help="scalar curvature").set_defaults(run=cmd_scalar)
    sub.add_parser("parallel", parents=[common, doc_input],
                   help="basis of parallel left-invariant fields").set_defaults(run=cmd_parallel)
    p = sub.add_parser("randers", parents=[common, doc_input],
                       help="Randers metric report for a parallel drift")
    p.set_defaults(run=cmd_randers)
    p.add_argument("--pole", help="reference vector for the fundamental tensor")
    p.add_argument("--edge", help="with --pole: edge vector for flag curvature")
    p = sub.add_parser("flag", parents=[common, doc_input],
                       help="flag curvature of one flag")
    p.set_defaults(run=cmd_flag)
    p.add_argument("--pole", required=True)
    p.add_argument("--edge", required=True)
    p = sub.add_parser("report", parents=[common],
                       help="reproduce catalog fixtures and diff")
    p.set_defaults(run=cmd_report)
    p.add_argument("--all", action="store_true", help="all six cases")
    p.add_argument("--case", type=int, help="one case id")
    p.add_argument("--alpha-grid", default="-2:1", help="inclusive grid lo:hi")
    p.add_argument("--beta-grid", default="-2:1", help="inclusive grid lo:hi")
    p.add_argument("--out", help="write the JSON report to this file")
    p = sub.add_parser("catalog", parents=[common],
                       help="catalog operations")
    p.set_defaults(run=cmd_catalog)
    p.add_argument("action", choices=("list",))
    return parser


def _write_report(path: str, mode: str, text: str) -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write report {path!r}: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.precision < 1:
            raise InputError(f"--precision must be at least 1, got {args.precision}")
        if "document" in args:  # the commands built on the doc_input parser
            geo = _resolve_document(args)
            result = args.run(args, geo)
            digest = document_digest(geo.document)  # after any --drift override
        else:
            result, digest = args.run(args), None
        if args.strict and result.discrepancies and result.status == 0:
            result.status = 3
        out = getattr(args, "out", None)  # only `report` takes --out
        if args.format == "json" or out:
            envelope = json.dumps({"command": args.cmd, "digest": digest,
                                   "sections": result.sections,
                                   "discrepancies": result.discrepancies,
                                   "status": result.status}, sort_keys=True, indent=2)
        if out:
            _write_report(out, "w", envelope + "\n")
            result.text.append(f"wrote {out}")
    except LiecurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, PreconditionError) else 1
    except OverflowError:  # float() of an exact operand, where a float operation would give inf
        print("error: floating result is not finite: an exact value past the float range "
              "met a float", file=sys.stderr)
        return 1
    print(envelope if args.format == "json" else "\n".join(result.text))
    return result.status


if __name__ == "__main__":
    sys.exit(main())
