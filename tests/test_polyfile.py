import json

import pytest

from g2cert.polyfile import (
    BUNDLED_NAMES,
    PolyFileError,
    bundled_polyfile,
    load_polyfile,
    parse_polyfile,
    serialize_polyfile,
)
from oracles import rat_evaluate


def test_bundled_names():
    assert BUNDLED_NAMES == ("frobenius2", "frobenius3")


def test_bundled_roundtrip_byte_identical():
    from importlib import resources

    for name in BUNDLED_NAMES:
        raw = (
            resources.files("g2cert").joinpath(f"data/{name}.json").read_text("utf-8")
        )
        pf = parse_polyfile(raw)
        assert serialize_polyfile(pf) == raw


def test_digests_are_frozen():
    # pinned so any edit to the bundled inputs is caught loudly
    assert bundled_polyfile("frobenius2").digest == (
        "c51312ab747825d1d3cf72738448c837e5994778f1f37e2e0e2e1e2e55cf4d7e"
    )
    assert bundled_polyfile("frobenius3").digest == (
        "b810482dc9fc143d81c70aeb585c26e1c1c793b5339d2b177a8eb26540eb4fd8"
    )


def test_bundled_polynomials_have_root_one():
    for name in BUNDLED_NAMES:
        pf = bundled_polyfile(name)
        poly = pf.poly()
        assert poly.degree == 7
        assert rat_evaluate(poly, 1) == 0
        assert pf.steinberg_prime == 5


def test_load_polyfile(tmp_path):
    src = serialize_polyfile(bundled_polyfile("frobenius2"))
    path = tmp_path / "input.json"
    path.write_text(src)
    pf = load_polyfile(path)
    assert pf.name == "frobenius2"


def test_parse_rejects_malformed_json():
    with pytest.raises(PolyFileError) as exc:
        parse_polyfile("{not json")
    assert "line" in str(exc.value)


def _valid_doc():
    return json.loads(serialize_polyfile(bundled_polyfile("frobenius2")))


def test_parse_rejects_composite_steinberg():
    doc = _valid_doc()
    doc["steinberg_prime"] = 6
    with pytest.raises(PolyFileError, match="prime"):
        parse_polyfile(json.dumps(doc))


def test_parse_rejects_non_monic():
    doc = _valid_doc()
    doc["coefficients"][-1] = "2"
    with pytest.raises(PolyFileError, match="monic"):
        parse_polyfile(json.dumps(doc))


def test_parse_rejects_bad_coefficient_with_index():
    doc = _valid_doc()
    doc["coefficients"][3] = "one half"
    with pytest.raises(PolyFileError, match="3"):
        parse_polyfile(json.dumps(doc))


def test_parse_rejects_wrong_types():
    doc = _valid_doc()
    doc["name"] = 7
    with pytest.raises(PolyFileError):
        parse_polyfile(json.dumps(doc))
    doc = _valid_doc()
    doc["steinberg_prime"] = True
    with pytest.raises(PolyFileError):
        parse_polyfile(json.dumps(doc))
    doc = _valid_doc()
    del doc["variable"]
    with pytest.raises(PolyFileError):
        parse_polyfile(json.dumps(doc))
    with pytest.raises(PolyFileError, match="^top level must be an object$"):
        parse_polyfile(json.dumps([_valid_doc()]))
    doc = _valid_doc()
    doc["coefficients"][2] = 3
    with pytest.raises(PolyFileError, match=r"^coefficients\[2\] must be a string$"):
        parse_polyfile(json.dumps(doc))


def test_digest_tracks_content():
    doc = _valid_doc()
    base = parse_polyfile(json.dumps(doc)).digest
    doc["coefficients"][0] = "-2"
    changed = parse_polyfile(json.dumps(doc)).digest
    assert base != changed


def test_bundled_polyfile_is_parsed_once_and_unknown_names_always_raise():
    assert bundled_polyfile("frobenius2") is bundled_polyfile("frobenius2")
    for _ in range(2):
        with pytest.raises(ValueError, match="no bundled polynomial 'frobenius4'"):
            bundled_polyfile("frobenius4")
