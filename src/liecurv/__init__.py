"""Left-invariant Riemannian and Randers-Finsler geometry of Lie groups,
computed exactly from structure constants."""

from .algebra import LieAlgebra, MetricTensor, Vector, check_jacobi
from .catalog import CatalogCase, fixture_line, get_case, reproduce
from .documents import (Document, document_digest, load_document,
                        parse_document, serialize_document)
from .errors import (DegeneratePlaneError, DimensionMismatchError, InputError,
                     LiecurvError, NonBerwaldError, NormBoundError,
                     PreconditionError, UndefinedAtOriginError)
from .randers import (Flag, RandersMetric, build_randers, flag_curvature, g_y,
                      parallel_fields, randers_norm)
from .riemann import (Connection, CurvatureTensor, curvature_apply,
                      levi_civita, riemann_tensor, scalar_curvature, sectional)
from .scalars import TOLERANCE, Scalar

__version__ = "0.1.0"

__all__ = [
    "Connection", "CatalogCase", "CurvatureTensor", "DegeneratePlaneError",
    "DimensionMismatchError", "Document", "Flag", "InputError", "LieAlgebra",
    "LiecurvError", "MetricTensor", "NonBerwaldError", "NormBoundError",
    "PreconditionError", "RandersMetric", "Scalar", "TOLERANCE",
    "UndefinedAtOriginError", "Vector", "build_randers", "check_jacobi",
    "curvature_apply", "document_digest", "fixture_line", "flag_curvature",
    "g_y", "get_case", "levi_civita", "load_document", "parallel_fields",
    "parse_document", "randers_norm", "reproduce", "riemann_tensor",
    "scalar_curvature", "sectional", "serialize_document",
]
