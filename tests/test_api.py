"""The public surface, pinned: a change to `liecurv.__all__` shows in this list."""

import liecurv


def test_public_names_are_pinned_and_resolve():
    assert sorted(liecurv.__all__) == [
        "CatalogCase", "Connection", "CurvatureTensor", "DegeneratePlaneError",
        "DimensionMismatchError", "Document", "Flag", "InputError", "LieAlgebra", "LiecurvError",
        "MetricTensor", "NonBerwaldError", "NormBoundError", "PreconditionError", "RandersMetric",
        "Scalar", "TOLERANCE", "UndefinedAtOriginError", "Vector", "build_randers", "check_jacobi",
        "curvature_apply", "document_digest", "fixture_line", "flag_curvature", "g_y", "get_case",
        "levi_civita", "load_document", "parallel_fields", "parse_document", "randers_norm",
        "reproduce", "riemann_tensor", "scalar_curvature", "sectional", "serialize_document"]
    assert [name for name in liecurv.__all__ if not hasattr(liecurv, name)] == []
