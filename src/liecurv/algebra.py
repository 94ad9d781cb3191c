"""Lie algebras from structure constants, metrics, and integrability checks.

Conventions: a basis e_0..e_{n-1} with [e_i, e_j] = sum_k c[i][j][k] e_k.
Structure constants are stored as a dense dim x dim x dim table; inputs list
brackets only for i < j and the antisymmetric completion is generated.
An endomorphism J is a square table of basis images, row i = J e_i, so
J w = linalg.contract(j, w) and "a after b" has rows contract(a, b[i]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import DimensionMismatchError, InputError
from .scalars import Scalar, approx_equal, format_scalar, is_zero, scalar_to_json

_DEFAULT_LABELS = ("X", "Y", "Z", "W")


def default_labels(dim: int) -> tuple[str, ...]:
    if dim <= 4:
        return _DEFAULT_LABELS[:dim]
    return tuple(f"e{i}" for i in range(dim))


class Vector:
    """A left-invariant field, i.e. constant coefficients over the basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls([Fraction(0)] * dim)

    @classmethod
    def basis(cls, dim: int, i: int) -> "Vector":
        coeffs = [Fraction(0)] * dim
        coeffs[i] = Fraction(1)
        return cls(coeffs)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i: int) -> Scalar:
        return self.coeffs[i]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(a - b for a, b in zip(self.coeffs, other.coeffs))

    def scale(self, s: Scalar) -> "Vector":
        return Vector(s * a for a in self.coeffs)

    __rmul__ = scale

    def is_zero(self) -> bool:
        return all(is_zero(a) for a in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "Vector(" + ", ".join(str(a) if isinstance(a, float) and not math.isfinite(a)
                                     else format_scalar(a) for a in self.coeffs) + ")"

    def describe(self, labels: Sequence[str]) -> str:
        """Render as a signed combination of basis labels, e.g. '3/2 W - X'."""
        parts = []
        for a, label in zip(self.coeffs, labels):
            if is_zero(a):
                continue
            mag = format_scalar(abs(a))
            text = label if mag == "1" else f"{mag} {label}"
            parts.append(("- " if (a < 0) else "+ ") + text)
        if not parts:
            return "0"
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


def as_vector(v, dim: int) -> Vector:
    if isinstance(v, Vector):
        vec = v
    else:
        vec = Vector(v)
    if vec.dim != dim:
        raise DimensionMismatchError(f"expected a vector of dimension {dim}, got {vec.dim}")
    return vec


class LieAlgebra:
    """Structure constants plus basis labels. Instances are immutable."""

    def __init__(self, structure: Sequence[Sequence[Sequence[Scalar]]],
                 labels: Sequence[str] | None = None):
        dim = len(structure)
        for block in structure:
            if len(block) != dim or any(len(row) != dim for row in block):
                raise InputError("structure constants must form a dim^3 table")
        self.dim = dim
        self.structure = tuple(tuple(tuple(row) for row in block) for block in structure)
        self.labels = tuple(labels) if labels is not None else default_labels(dim)
        if len(self.labels) != dim:
            raise InputError("need one basis label per dimension")

    @classmethod
    def from_brackets(cls, dim: int,
                      brackets: Mapping[tuple[int, int], Sequence[Scalar]],
                      labels: Sequence[str] | None = None) -> "LieAlgebra":
        """Build from brackets given for i < j only; completion is automatic."""
        table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise InputError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            if len(coeffs) != dim:
                raise InputError(f"bracket ({i}, {j}) needs {dim} coefficients")
            for k, c in enumerate(coeffs):
                table[i][j][k] = c
                table[j][i][k] = -c
        return cls(table, labels)

    def antisymmetry_violations(self) -> list[tuple[int, int, int]]:
        bad = []
        for i in range(self.dim):
            for j in range(i, self.dim):
                for k in range(self.dim):
                    if not is_zero(self.structure[i][j][k] + self.structure[j][i][k]):
                        bad.append((i, j, k))
        return bad

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, labels={self.labels})"


class MetricTensor:
    """Symmetric Gram matrix of a left-invariant metric on the basis."""

    def __init__(self, gram: Sequence[Sequence[Scalar]]):
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise InputError("metric Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if not approx_equal(gram[i][j], gram[j][i]):
                    raise InputError(f"metric is not symmetric at ({i}, {j})")
        self.dim = n
        self.gram = tuple(tuple(row) for row in gram)

    @classmethod
    def identity(cls, dim: int) -> "MetricTensor":
        return cls([[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
                    for i in range(dim)])

    @cached_property
    def float_gram(self) -> tuple:
        return tuple(tuple(map(float, row)) for row in self.gram)

    def inner(self, u, v) -> Scalar:
        """g(u, v); when u or v has only floats, on the float image of the Gram matrix."""
        u = as_vector(u, self.dim).coeffs
        v = as_vector(v, self.dim).coeffs
        floats = linalg.float_only(u) or linalg.float_only(v)
        return linalg.contract(self.float_gram if floats else self.gram, u, v)

    def norm_sq(self, v) -> Scalar:
        return self.inner(v, v)

    def is_positive_definite(self) -> bool:
        return linalg.is_positive_definite(self.gram)

    def __repr__(self) -> str:
        return f"MetricTensor(dim={self.dim})"


# --- bracket and Jacobi -----------------------------------------------------


def bracket(alg: LieAlgebra, u, v) -> Vector:
    """[u, v] extended bilinearly from the structure constants."""
    u = as_vector(u, alg.dim)
    v = as_vector(v, alg.dim)
    return Vector(linalg.contract(alg.structure, u.coeffs, v.coeffs))


@dataclass
class JacobiReport:
    """Outcome of the antisymmetry scan and the Jacobi identity scan."""

    antisymmetry_violations: list = field(default_factory=list)
    violations: list = field(default_factory=list)  # (i, j, k, residual Vector)

    @property
    def antisymmetry_ok(self) -> bool:
        return not self.antisymmetry_violations

    @property
    def passed(self) -> bool:
        return not self.antisymmetry_violations and not self.violations

    def to_dict(self, precision: int = 12) -> dict:
        return {
            "antisymmetry_ok": self.antisymmetry_ok,
            "antisymmetry_violations": [list(t) for t in self.antisymmetry_violations],
            "jacobi_ok": not self.violations,
            "violations": [
                {"triple": [i, j, k],
                 "residual": [scalar_to_json(x, precision) for x in res]}
                for (i, j, k, res) in self.violations
            ],
            "passed": self.passed,
        }


def check_jacobi(alg: LieAlgebra) -> JacobiReport:
    """Scan antisymmetry, then the Jacobi residual on every basis triple.

    Violations are data, not errors: the report lists each offending triple
    with its residual [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej].
    """
    report = JacobiReport(antisymmetry_violations=alg.antisymmetry_violations())
    if not report.antisymmetry_ok:
        return report
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                ei, ej, ek = (Vector.basis(alg.dim, t) for t in (i, j, k))
                residual = (bracket(alg, bracket(alg, ei, ej), ek)
                            + bracket(alg, bracket(alg, ej, ek), ei)
                            + bracket(alg, bracket(alg, ek, ei), ej))
                if not residual.is_zero():
                    report.violations.append((i, j, k, residual))
    return report


# --- Nijenhuis tensors and para-hypercomplex structure -----------------------


def _after(a, b) -> list:
    """The table of a after b: row i is a(b e_i)."""
    return [linalg.contract(a, row) for row in b]


def _same(a, b) -> bool:
    return all(approx_equal(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _require_square(alg: LieAlgebra, j) -> None:
    if len(j) != alg.dim or any(len(row) != alg.dim for row in j):
        raise DimensionMismatchError("endomorphism table must be dim x dim for the algebra")


def nijenhuis(alg: LieAlgebra, j, u, v) -> Vector:
    """N(u, v) = [Ju, Jv] - J([Ju, v] + [u, Jv]) + J^2 [u, v].

    j is a table of basis images, row i = J e_i, so Jw = contract(j, w).
    The last term is -[u, v] for an almost complex structure (J^2 = -Id)
    and +[u, v] for an almost product structure (J^2 = Id): one formula
    covers both, and the sign follows from J itself.
    """
    _require_square(alg, j)
    u = as_vector(u, alg.dim)
    v = as_vector(v, alg.dim)

    def apply(w: Vector) -> Vector:
        return Vector(linalg.contract(j, w.coeffs))

    ju, jv = apply(u), apply(v)
    return (bracket(alg, ju, jv) - apply(bracket(alg, ju, v) + bracket(alg, u, jv))
            + apply(apply(bracket(alg, u, v))))


def check_para_hypercomplex(alg: LieAlgebra, j1, j2) -> dict[str, list[str]]:
    """Check the para-hypercomplex axioms for (J1, J2, J3 = J1 J2).

    j1 and j2 are basis-image tables (row i = J e_i). Axioms, by code:
    j1_square J1^2 = -Id; j2_square J2^2 = Id with J2 != +-Id;
    j3_consistency J2 J1 = -J3; n1, n2, n3 the Nijenhuis tensors of J1, J2,
    J3 vanish, on basis pairs (enough by bilinearity). Returns
    {code: failures}; an empty list means the axiom holds.
    """
    _require_square(alg, j1)
    _require_square(alg, j2)
    n = alg.dim
    ident = [[int(i == k) for k in range(n)] for i in range(n)]  # rows: basis vectors
    minus = [[-x for x in row] for row in ident]
    j3 = _after(j1, j2)
    report = {"j1_square": [] if _same(_after(j1, j1), minus) else ["J1^2 != -Id"]}
    if not _same(_after(j2, j2), ident):
        report["j2_square"] = ["J2^2 != Id"]
    elif _same(j2, ident) or _same(j2, minus):
        report["j2_square"] = ["J2 is +-identity"]
    else:
        report["j2_square"] = []
    report["j3_consistency"] = ([] if _same(_after(j2, j1), [[-x for x in row] for row in j3])
                                else ["J2 J1 != -J1 J2"])
    for code, j in (("n1", j1), ("n2", j2), ("n3", j3)):
        report[code] = []
        for a in range(n):
            for b in range(a + 1, n):
                value = nijenhuis(alg, j, ident[a], ident[b])
                if not value.is_zero():
                    report[code].append(f"N({alg.labels[a]}, {alg.labels[b]}) = "
                                        f"{value.describe(alg.labels)}")
    return report
