"""The JSON algebra document: the CLI input format and the fixture base format.

Schema (strict, unknown keys rejected):

    {
      "dim": 4,
      "basis": ["X", "Y", "Z", "W"],            // optional, default labels
      "brackets": [ {"i": 0, "j": 1, "coeffs": ["0", "1", "0", "0"]}, ... ],
      "metric": "identity" | [[...], ...],      // optional, default identity
      "drift": ["0", "0", "1/2", "0"],          // optional
      "params": {"alpha": "-1", "beta": "0"}    // optional
    }

dim is at most MAX_DIM. Brackets are listed for i < j only. Scalars are
integers, 'p/q' strings, or decimals; any decimal marks the document
floating-mode. When params are declared, coefficient strings may also be
expressions over the declared names ('-(1+alpha)/2'), which is how the
parameterized catalog case ships.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from . import exprs
from .algebra import LieAlgebra, MetricTensor, Vector, default_labels
from .errors import InputError
from .scalars import Scalar, parse_rational, scalar_to_json

# Largest accepted dimension. The curvature rows are O(dim^5) integer work
# once denominators are cleared: `analyze` on an exact solvable algebra
# R x_D R^(dim-1) with a dense D and a random positive-definite metric takes
# 0.17 s at dim 8, 0.28 s at dim 10 and 0.46 s at dim 12, whole CLI process,
# best of 3, on a 2-vCPU Xeon VM.
MAX_DIM = 12

_TOP_KEYS = {"dim", "basis", "brackets", "metric", "drift", "params"}
_PARAM_KEYS = {"alpha", "beta"}
_BRACKET_KEYS = {"i", "j", "coeffs"}


@dataclass
class Document:
    dim: int
    labels: tuple
    brackets: dict  # (i, j) -> tuple of Scalars, i < j
    metric: MetricTensor
    drift: Vector | None
    params: dict

    def algebra(self) -> LieAlgebra:
        return LieAlgebra.from_brackets(self.dim, self.brackets, self.labels)


def _read_scalar(value, where: str, params: dict) -> Scalar:
    """One document scalar: an int, a float, a literal or an expression over
    the declared params."""
    if isinstance(value, bool):
        raise InputError(f"{where}: booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        out = value
    elif isinstance(value, str):
        try:
            out = parse_rational(value)
        except InputError:
            out = _read_expression(value, where, params)
    else:
        raise InputError(f"{where}: expected a scalar, got {type(value).__name__}")
    if isinstance(out, float) and not math.isfinite(out):
        raise InputError(f"{where}: scalar {value!r} is not finite")
    return out


def _read_expression(text: str, where: str, params: dict) -> Scalar:
    try:
        tree = exprs.parse_expr(text)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    unknown = exprs.free_names(tree) - set(params)
    if unknown:
        raise InputError(
            f"{where}: expression uses undeclared names {sorted(unknown)}; "
            f"declare them under 'params'")
    try:
        return exprs.evaluate(tree, params)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"{where}: unknown fields {sorted(unknown)}")


def parse_document(obj: dict, extras: frozenset = frozenset()) -> Document:
    """Validate and evaluate a document dict. extras are tolerated top-level
    keys (the catalog adds id/name/expected) and are ignored here."""
    if not isinstance(obj, dict):
        raise InputError("document must be a JSON object")
    _require_keys(obj, _TOP_KEYS | set(extras), "document")

    dim = obj.get("dim")
    if not _is_int(dim) or dim < 1:
        raise InputError("document.dim must be a positive integer")
    if dim > MAX_DIM:
        raise InputError(f"document.dim is {dim}; the ceiling is {MAX_DIM}")

    labels = obj.get("basis", None)
    if labels is None:
        labels = default_labels(dim)
    else:
        if (not isinstance(labels, list) or len(labels) != dim
                or not all(isinstance(s, str) and s for s in labels)):
            raise InputError(f"document.basis must be {dim} nonempty strings")
        if len(set(labels)) != dim:
            raise InputError("document.basis labels must be distinct")
        labels = tuple(labels)

    params_obj = obj.get("params", {})
    if not isinstance(params_obj, dict):
        raise InputError("document.params must be an object")
    _require_keys(params_obj, _PARAM_KEYS, "document.params")
    params = {name: _read_scalar(value, f"document.params.{name}", {})
              for name, value in params_obj.items()}

    brackets_obj = obj.get("brackets")
    if not isinstance(brackets_obj, list):
        raise InputError("document.brackets must be a list")
    brackets: dict = {}
    for idx, entry in enumerate(brackets_obj):
        where = f"document.brackets[{idx}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where}: must be an object")
        _require_keys(entry, _BRACKET_KEYS, where)
        i, j = entry.get("i"), entry.get("j")
        if not (_is_int(i) and _is_int(j)):
            raise InputError(f"{where}: i and j must be integers")
        if not (0 <= i < j < dim):
            raise InputError(f"{where}: need 0 <= i < j < dim, got ({i}, {j})")
        if (i, j) in brackets:
            raise InputError(f"{where}: duplicate bracket pair ({i}, {j})")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise InputError(f"{where}.coeffs: need exactly {dim} scalars")
        brackets[(i, j)] = tuple(_read_scalar(c, f"{where}.coeffs[{k}]", params)
                                 for k, c in enumerate(coeffs))

    metric_obj = obj.get("metric", "identity")
    if metric_obj == "identity":
        metric = MetricTensor.identity(dim)
    else:
        if not isinstance(metric_obj, list) or len(metric_obj) != dim:
            raise InputError(f"document.metric must be 'identity' or {dim} rows")
        rows = []
        for r, row in enumerate(metric_obj):
            if not isinstance(row, list) or len(row) != dim:
                raise InputError(f"document.metric[{r}]: need {dim} entries")
            rows.append([_read_scalar(x, f"document.metric[{r}][{c}]", params)
                         for c, x in enumerate(row)])
        metric = MetricTensor(rows)

    drift_obj = obj.get("drift")
    drift = None
    if drift_obj is not None:
        if not isinstance(drift_obj, list) or len(drift_obj) != dim:
            raise InputError(f"document.drift must list {dim} scalars")
        drift = Vector(_read_scalar(x, f"document.drift[{k}]", params)
                       for k, x in enumerate(drift_obj))

    return Document(dim=dim, labels=labels, brackets=brackets, metric=metric,
                    drift=drift, params=params)


def load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read document {path!r}: {exc}") from None
    except ValueError as exc:  # bad JSON, or an int literal past the int-string limit
        raise InputError(f"document {path!r} is not valid JSON: {exc}") from None
    return parse_document(obj)


def serialize_document(doc: Document) -> dict:
    """Canonical JSON form: exact scalars as 'p/q' strings, i < j brackets,
    floats at 17 significant digits, which round-trips every float."""
    precision = 17
    out: dict = {"dim": doc.dim, "basis": list(doc.labels)}
    out["brackets"] = [
        {"i": i, "j": j, "coeffs": [scalar_to_json(c, precision) for c in coeffs]}
        for (i, j), coeffs in sorted(doc.brackets.items())
    ]
    gram = doc.metric.gram
    if all(gram[i][j] == (1 if i == j else 0) for i in range(doc.dim)
           for j in range(doc.dim)):
        out["metric"] = "identity"
    else:
        out["metric"] = [[scalar_to_json(x, precision) for x in row] for row in gram]
    if doc.drift is not None:
        out["drift"] = [scalar_to_json(x, precision) for x in doc.drift]
    if doc.params:
        out["params"] = {k: scalar_to_json(v, precision)
                         for k, v in sorted(doc.params.items())}
    return out


def document_digest(doc: Document) -> str:
    """Stable sha256 over the canonical serialization.

    serialize_document round-trips every float, so documents that differ in
    any float get different digests.
    """
    canonical = json.dumps(serialize_document(doc), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
