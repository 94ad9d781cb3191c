"""Lie algebras from structure constants, metrics, and integrability checks.

Conventions: a basis e_0..e_{n-1} with [e_i, e_j] = sum_k c[i][j][k] e_k.
Structure constants are stored as a dense dim x dim x dim table; inputs list
brackets only for i < j and the antisymmetric completion is generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.coeffs)

    def scale(self, s: Scalar) -> "Vector":
        return Vector(s * a for a in self.coeffs)

    __rmul__ = scale

    def is_zero(self, tol: float | None = None) -> bool:
        if tol is None:
            return all(is_zero(a) for a in self.coeffs)
        return all(is_zero(a, tol) for a in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Vector({', '.join(format_scalar(a) for a in self.coeffs)})"

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

    def bracket_basis(self, i: int, j: int) -> Vector:
        return Vector(self.structure[i][j])

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

    def inner(self, u, v) -> Scalar:
        u = as_vector(u, self.dim)
        v = as_vector(v, self.dim)
        return linalg.contract(self.gram, u.coeffs, v.coeffs)

    def norm_sq(self, v) -> Scalar:
        return self.inner(v, v)

    def is_positive_definite(self) -> bool:
        return linalg.is_positive_definite(self.gram)

    def __repr__(self) -> str:
        return f"MetricTensor(dim={self.dim})"


class Endomorphism:
    """Linear map in basis coordinates; column j is the image of e_j."""

    def __init__(self, matrix: Sequence[Sequence[Scalar]]):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise InputError("endomorphism matrix must be square")
        self.dim = n
        self.matrix = tuple(tuple(row) for row in matrix)

    @classmethod
    def identity(cls, dim: int) -> "Endomorphism":
        return cls([[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
                    for i in range(dim)])

    @classmethod
    def from_images(cls, images: Sequence[Sequence[Scalar]]) -> "Endomorphism":
        """Build from the images of the basis vectors (row per basis vector)."""
        n = len(images)
        return cls([[images[j][i] for j in range(n)] for i in range(n)])

    def apply(self, v) -> Vector:
        v = as_vector(v, self.dim)
        return Vector(linalg.contract(tuple(zip(*self.matrix)), v.coeffs))

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        if other.dim != self.dim:
            raise DimensionMismatchError("endomorphism dimensions differ")
        n = self.dim
        return Endomorphism([[sum(self.matrix[i][k] * other.matrix[k][j]
                                  for k in range(n)) for j in range(n)]
                             for i in range(n)])

    def scale(self, s: Scalar) -> "Endomorphism":
        return Endomorphism([[s * x for x in row] for row in self.matrix])

    def equals(self, other: "Endomorphism", tol: float | None = None) -> bool:
        return all(approx_equal(a, b) if tol is None else abs(a - b) <= tol
                   for ra, rb in zip(self.matrix, other.matrix)
                   for a, b in zip(ra, rb))

    def __repr__(self) -> str:
        return f"Endomorphism(dim={self.dim})"


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


def nijenhuis(alg: LieAlgebra, endo: Endomorphism, kind: str, u, v) -> Vector:
    """N(u, v) = [Ju, Jv] - J([u, Jv] + [Ju, v]) -+ [u, v].

    kind='complex' subtracts the plain bracket (almost complex structures,
    J^2 = -Id); kind='product' adds it (almost product structures, J^2 = Id).
    The two differ only in that final sign, hence the explicit parameter.
    """
    if kind not in ("complex", "product"):
        raise InputError(f"nijenhuis kind must be 'complex' or 'product', got {kind!r}")
    u = as_vector(u, alg.dim)
    v = as_vector(v, alg.dim)
    if endo.dim != alg.dim:
        raise DimensionMismatchError("endomorphism dimension differs from algebra")
    ju, jv = endo.apply(u), endo.apply(v)
    core = bracket(alg, ju, jv) - endo.apply(bracket(alg, u, jv) + bracket(alg, ju, v))
    plain = bracket(alg, u, v)
    return core - plain if kind == "complex" else core + plain


@dataclass
class AxiomCheck:
    code: str
    description: str
    passed: bool
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"code": self.code, "description": self.description,
                "passed": self.passed, "failures": list(self.failures)}


@dataclass
class ParaHypercomplexReport:
    axioms: list

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.axioms)

    def to_dict(self, precision: int = 12) -> dict:
        return {"passed": self.passed, "axioms": [a.to_dict() for a in self.axioms]}


def check_para_hypercomplex(alg: LieAlgebra, j1: Endomorphism, j2: Endomorphism,
                            j3: Endomorphism) -> ParaHypercomplexReport:
    """Check the para-hypercomplex axioms for a candidate triple (J1, J2, J3).

    Axioms: J1^2 = -Id; J2^2 = Id with J2 != +-Id; J1 J2 = -J2 J1 = J3;
    the Nijenhuis tensors N1 (complex kind) and N2, N3 (product kind) vanish.
    Bilinearity makes basis pairs sufficient for the vanishing checks.
    """
    n = alg.dim
    for endo in (j1, j2, j3):
        if endo.dim != n:
            raise DimensionMismatchError("endomorphism dimension differs from algebra")
    ident = Endomorphism.identity(n)
    axioms = []

    axioms.append(AxiomCheck(
        "j1_square", "J1^2 = -Id",
        j1.compose(j1).equals(ident.scale(Fraction(-1)))))

    j2_sq_ok = j2.compose(j2).equals(ident)
    j2_trivial = j2.equals(ident) or j2.equals(ident.scale(Fraction(-1)))
    check = AxiomCheck("j2_square", "J2^2 = Id and J2 != +-Id",
                       j2_sq_ok and not j2_trivial)
    if j2_sq_ok and j2_trivial:
        check.failures.append("J2 is +-identity")
    axioms.append(check)

    axioms.append(AxiomCheck(
        "j3_consistency", "J1 J2 = J3 and J2 J1 = -J3",
        j1.compose(j2).equals(j3)
        and j2.compose(j1).equals(j3.scale(Fraction(-1)))))

    for code, endo, kind in (("n1", j1, "complex"), ("n2", j2, "product"),
                             ("n3", j3, "product")):
        check = AxiomCheck(code, f"Nijenhuis tensor of {code.upper()} vanishes ({kind} kind)", True)
        for i in range(n):
            for j in range(i + 1, n):
                value = nijenhuis(alg, endo, kind,
                                  Vector.basis(n, i), Vector.basis(n, j))
                if not value.is_zero():
                    check.passed = False
                    check.failures.append(
                        f"N({alg.labels[i]}, {alg.labels[j]}) = {value.describe(alg.labels)}")
        axioms.append(check)

    return ParaHypercomplexReport(axioms)
