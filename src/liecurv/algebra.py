"""Lie algebras from structure constants, metrics, and the Jacobi check.

Conventions: a basis e_0..e_{n-1} with [e_i, e_j] = sum_k c[i][j][k] e_k.
Structure constants are stored as a dense dim x dim x dim table; inputs list
brackets only for i < j and the antisymmetric completion is generated. An exact
Vector keeps its one int form, Vector.ints, which MetricTensor.inner_read(u, v) reads itself.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import linalg
from .errors import DimensionMismatchError, InputError
from .scalars import Scalar, approx_equal, format_scalar, is_zero, scalar_to_json

_DEFAULT_LABELS = ("X", "Y", "Z", "W")


def default_labels(dim: int) -> tuple[str, ...]:
    if dim <= 4:
        return _DEFAULT_LABELS[:dim]
    return tuple(f"e{i}" for i in range(dim))


class Vector:
    """A left-invariant field, i.e. constant coefficients over the basis. An exact vector
    has one int form, ints = (den, nums) with coeffs = nums / den over one positive den:
    given as Vector(nums, den) by a read-out of an int store, else formed on first read."""

    __slots__ = ("_coeffs", "_ints")

    def __init__(self, coeffs: Iterable[Scalar], den: int | None = None):
        self._coeffs, self._ints = (tuple(coeffs), None) if den is None else (None, (den, coeffs))

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls([0] * dim, 1)

    @classmethod
    def basis(cls, dim: int, i: int) -> "Vector":
        return cls([int(k == i) for k in range(dim)], 1)

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:  # Fractions, built only when read
            self._coeffs = tuple(Fraction(x, self._ints[0]) for x in self._ints[1])
        return self._coeffs

    @property
    def ints(self) -> tuple[int, list[int]] | None:
        """(den, nums), formed once; None when a coefficient is a float."""
        if self._ints is None:
            self._ints = linalg.cleared(self._coeffs) or False
        return self._ints or None

    @property
    def dim(self) -> int:
        return len(self._ints[1] if self._coeffs is None else self._coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i: int) -> Scalar:
        return self.coeffs[i]

    def __len__(self) -> int:
        return self.dim

    def is_zero(self) -> bool:
        return all(is_zero(a) for a in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "Vector(" + ", ".join(str(a) if isinstance(a, float) and not math.isfinite(a)
                                     else format_scalar(a) for a in self.coeffs) + ")"

    def describe(self, labels: Sequence[str], precision: int = 12) -> str:
        """Render as a signed combination of basis labels, e.g. '3/2 W - X'."""
        parts = []
        for a, label in zip(self.coeffs, labels):
            if is_zero(a):
                continue
            mag = format_scalar(abs(a), precision)
            text = label if mag == "1" else f"{mag} {label}"
            parts.append(("- " if (a < 0) else "+ ") + text)
        if not parts:
            return "0"
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


def as_vector(v, dim: int) -> Vector:
    vec = v if isinstance(v, Vector) else Vector(v)
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
        table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise InputError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            if len(coeffs) != dim:
                raise InputError(f"bracket ({i}, {j}) needs {dim} coefficients")
            for k, c in enumerate(coeffs):
                table[i][j][k] = c
                table[j][i][k] = -c
        return cls(table, labels)

    @cached_property
    def cleared_structure(self) -> tuple[int, list] | None:
        """(M, M * c) with M the lcm of the denominators of the structure constants c, None
        if an entry is a float: the int table that check_jacobi, levi_civita and
        riemann_tensor read, cleared once per algebra in one pass over its n^3 entries."""
        n, flat = self.dim, linalg.cleared([x for b in self.structure for row in b for x in row])
        return flat and (flat[0], [[flat[1][(i * n + j) * n:(i * n + j + 1) * n]
                                    for j in range(n)] for i in range(n)])

    def antisymmetry_violations(self) -> list[tuple[int, int, int]]:
        """(i, j, k), i <= j, where c[i][j][k] + c[j][i][k] is not zero; on the int table
        when exact."""
        c = self.cleared_structure[1] if self.cleared_structure else self.structure
        return [(i, j, k) for i in range(self.dim) for j in range(i, self.dim)
                for k in range(self.dim) if not is_zero(c[i][j][k] + c[j][i][k])]

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, labels={self.labels})"


class MetricTensor:
    """Symmetric Gram matrix of a left-invariant metric; entries, its nonzero entries for
    linalg.form; float_only: no exact nonzero entry, so exact pairs meet it as int forms."""

    entries = cached_property(lambda self: linalg.nonzero_entries(self.gram))

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
        self.float_only = all(isinstance(x, float) or not x for row in gram for x in row)

    @classmethod
    def identity(cls, dim: int) -> "MetricTensor":
        return cls([[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
                    for i in range(dim)])

    @cached_property
    def cleared_gram(self) -> tuple[int, list] | None:
        """(L, L * gram) with L the lcm of the Gram denominators, None if an entry is a float:
        the int Gram matrix of inner, levi_civita (and Connection.gram), flag_curvature,
        orthonormal_pair and cleared_inverse, cleared once per metric in one pass over n^2."""
        n, flat = self.dim, linalg.cleared([x for row in self.gram for x in row])
        return flat and (flat[0], [flat[1][i * n:i * n + n] for i in range(n)])

    @cached_property
    def cleared_inverse(self) -> tuple[int, list] | None:
        """(d, Y), Y / d = G^-1 (symmetric) for cleared_gram's G or a float gram (d = 1), from
        one linalg.positive_inverse; None if not positive definite (is_positive_definite)."""
        return linalg.positive_inverse(self.cleared_gram[1] if self.cleared_gram else self.gram)

    def inner(self, u, v) -> Scalar:
        """g(u, v) for any two vectors of the metric's dimension: inner_read."""
        return self.inner_read(as_vector(u, self.dim), as_vector(v, self.dim))

    def inner_read(self, u: Vector, v: Vector) -> Scalar:
        """g(u, v) from the int forms fu = u.ints, fv = v.ints: an exact pair on cleared_gram by
        linalg.bilinear (one Fraction), any other pair by linalg.form, on the int forms over a
        float_only gram, else on the coefficients (contract's value)."""
        if (fu := u.ints) and (fv := v.ints):
            if self.cleared_gram:
                (m, g), (du, a), (dv, b) = self.cleared_gram, fu, fv
                return Fraction(linalg.bilinear(g, a, b), m * du * dv)
            if self.float_only:
                return linalg.form(self.entries, fu[1], fv[1], fu[0] * fv[0])
        return linalg.form(self.entries, u.coeffs, v.coeffs)

    def norm_sq(self, v) -> Scalar:
        return self.inner(v, v)

    def is_positive_definite(self) -> bool:
        return self.cleared_inverse is not None

    def __repr__(self) -> str:
        return f"MetricTensor(dim={self.dim})"


# --- Jacobi -----------------------------------------------------------------


class JacobiReport:
    """Outcome of the antisymmetry scan and the Jacobi identity scan."""

    def __init__(self, antisymmetry_violations: list | None = None,
                 violations: list | None = None):
        self.antisymmetry_violations = ([] if antisymmetry_violations is None
                                        else antisymmetry_violations)
        self.violations = [] if violations is None else violations  # (i, j, k, residual Vector)

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
    with its residual [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej]. Both scans
    read the int table M c of LieAlgebra.cleared_structure when it is exact,
    the float table as it is (M = 1) otherwise. ad([e_i,e_j]), row k the
    bracket [[e_i,e_j],e_k], is one contraction per bracket; a triple's
    residual is then ad_ij[k] + ad_jk[i] - ad_ik[j], M^2 times the true one,
    so an exact violation costs one Fraction per entry.
    """
    report = JacobiReport(antisymmetry_violations=alg.antisymmetry_violations())
    if not report.antisymmetry_ok:
        return report
    n = alg.dim
    cleared = alg.cleared_structure
    m, c = cleared or (1, alg.structure)
    flat = [[x for row in block for x in row] for block in c]  # flat[a][k n + l] = c[a][k][l]
    ad = {}
    for i, j in combinations(range(n), 2):
        # a float 0.0 in [e_i, e_j] adds no term
        rows = linalg.contract(flat, [x or 0 for x in c[i][j]])
        ad[i, j] = [rows[k * n:k * n + n] for k in range(n)]
    for i, j, k in combinations(range(n), 3):
        residual = linalg.contract((ad[i, j][k], ad[j, k][i], ad[i, k][j]), (1, 1, -1))
        if not all(map(is_zero, residual)):
            report.violations.append((i, j, k, Vector(
                [Fraction(x, m * m) for x in residual] if cleared else residual)))
    return report
