import json
from fractions import Fraction

import pytest

from test_exact_vs_float import is_exact_document
from liecurv import catalog
from liecurv.algebra import Vector, bracket
from liecurv.documents import (document_digest, load_document, parse_document,
                               serialize_document)
from liecurv.errors import InputError
from liecurv.linalg import all_exact

F = Fraction


def minimal(**overrides):
    obj = {"dim": 4,
           "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1", "0"]}],
           "metric": "identity"}
    obj.update(overrides)
    return obj


def test_parse_minimal_document():
    doc = parse_document(minimal())
    assert doc.dim == 4
    assert doc.labels == ("X", "Y", "Z", "W")
    assert doc.metric.gram[0][0] == 1
    assert is_exact_document(doc)
    alg = doc.algebra()
    assert list(bracket(alg, Vector.basis(4, 0), Vector.basis(4, 1))) == [0, 0, 1, 0]
    assert list(bracket(alg, Vector.basis(4, 1), Vector.basis(4, 0))) == [0, 0, -1, 0]


def test_parse_with_basis_metric_drift():
    obj = minimal(basis=["a", "b", "c", "d"],
                  metric=[["2", "0", "0", "0"], ["0", "1", "0", "0"],
                          ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                  drift=["0", "0", "1/2", "0"])
    doc = parse_document(obj)
    assert doc.labels == ("a", "b", "c", "d")
    assert doc.metric.gram[0][0] == 2
    assert list(doc.drift) == [0, 0, F(1, 2), 0]


def test_unknown_fields_rejected_with_path():
    with pytest.raises(InputError, match="unknown"):
        parse_document(minimal(extra=1))
    with pytest.raises(InputError, match=r"brackets\[0\]"):
        parse_document(minimal(brackets=[
            {"i": 0, "j": 1, "coeffs": ["0"] * 4, "note": "hi"}]))


def test_extras_admit_catalog_keys():
    obj = minimal(id=1, name="x", expected={})
    with pytest.raises(InputError):
        parse_document(obj)
    doc = parse_document(obj, extras=frozenset({"id", "name", "expected"}))
    assert doc.dim == 4


def test_bracket_validation():
    with pytest.raises(InputError, match="duplicate"):
        parse_document(minimal(brackets=[
            {"i": 0, "j": 1, "coeffs": ["0"] * 4},
            {"i": 0, "j": 1, "coeffs": ["1", "0", "0", "0"]}]))
    with pytest.raises(InputError, match="i < j"):
        parse_document(minimal(brackets=[{"i": 1, "j": 0, "coeffs": ["0"] * 4}]))
    with pytest.raises(InputError, match="coeffs"):
        parse_document(minimal(brackets=[{"i": 0, "j": 1, "coeffs": ["0"] * 3}]))
    with pytest.raises(InputError, match=r"brackets\[0\]: i and j must be integers"):
        parse_document(minimal(brackets=[{"i": False, "j": True, "coeffs": ["0"] * 4}]))


def test_params_gate_free_names():
    obj = minimal(brackets=[{"i": 0, "j": 2, "coeffs": ["alpha", "beta", "0", "0"]}])
    with pytest.raises(InputError, match="params"):
        parse_document(obj)
    obj["params"] = {"alpha": "-1", "beta": "0"}
    doc = parse_document(obj)
    assert list(bracket(doc.algebra(), Vector.basis(4, 0), Vector.basis(4, 2))) == [-1, 0, 0, 0]
    assert doc.params == {"alpha": F(-1), "beta": F(0)}


def test_params_restricted_to_known_names():
    with pytest.raises(InputError):
        parse_document(minimal(params={"gamma": "1"}))


def test_float_entries_mark_floating():
    doc = parse_document(minimal(drift=[0.25, 0, 0, 0]))
    assert not all_exact(doc.drift)
    assert doc.drift[0] == 0.25


def test_scalar_forms():
    obj = minimal(brackets=[{"i": 0, "j": 1, "coeffs": [1, "1/2", "2-3", 0]}])
    doc = parse_document(obj)
    assert (list(bracket(doc.algebra(), Vector.basis(4, 0), Vector.basis(4, 1)))
            == [1, F(1, 2), -1, 0])


def test_dim_bounds():
    with pytest.raises(InputError):
        parse_document(minimal(dim=0))
    with pytest.raises(InputError):
        parse_document(minimal(dim="four"))


def test_load_document_errors(tmp_path):
    with pytest.raises(InputError):
        load_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_document(str(bad))


def test_load_document_roundtrip(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(minimal(drift=["0", "0", "1/2", "0"])))
    doc = load_document(str(path))
    assert list(doc.drift) == [0, 0, F(1, 2), 0]


def test_serialize_parse_roundtrip_identity_metric():
    doc = parse_document(minimal(drift=["0", "0", "1/2", "0"]))
    out = serialize_document(doc)
    assert out["metric"] == "identity"
    again = parse_document(out)
    assert again.algebra().structure == doc.algebra().structure
    assert again.metric.gram == doc.metric.gram
    assert list(again.drift) == list(doc.drift)


def test_catalog_documents_roundtrip():
    # serializing any built-in case and re-parsing gives the same algebra
    for cid in catalog.case_ids():
        case = catalog.get_case(cid, alpha=F(-1), beta=F(0)) if cid == 4 \
            else catalog.get_case(cid)
        doc = case.document
        again = parse_document(serialize_document(doc))
        assert again.algebra().structure == doc.algebra().structure
        assert again.metric.gram == doc.metric.gram
        assert again.labels == doc.labels
        assert document_digest(again) == document_digest(doc)


def test_digest_distinguishes_documents():
    d1 = parse_document(minimal())
    d2 = parse_document(minimal(
        brackets=[{"i": 0, "j": 1, "coeffs": ["0", "0", "2", "0"]}]))
    assert document_digest(d1) != document_digest(d2)
    assert document_digest(d1) == document_digest(parse_document(minimal()))
    assert len(document_digest(d1)) == 64
    # floats that agree to 12 significant digits still digest apart
    f1, f2 = (parse_document(minimal(
        brackets=[{"i": 0, "j": 1, "coeffs": [0, 0, x, 0]}]))
        for x in (1.0000000000001, 1.0000000000002))
    assert document_digest(f1) != document_digest(f2)
