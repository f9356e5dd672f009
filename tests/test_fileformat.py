import json

import pytest

from loopspace.cli import main
from loopspace.fileformat import (
    FormatError,
    complex_from_dict,
    complex_to_dict,
    load_complex,
    load_facets,
    parse_term,
    parse_word,
    resolve_complex,
    save_complex,
)
from loopspace.simplicial import boundary_simplex, sphere_quotient, wedge_of_circles
from loopspace.words import canonical, unit


class TestComplexDocuments:
    @pytest.mark.parametrize("zx", [
        sphere_quotient(2),
        boundary_simplex(3),
        wedge_of_circles(2).z_extension(),
    ], ids=["sphere2", "bd3", "wedge2op"])
    def test_round_trip(self, zx, tmp_path):
        path = tmp_path / "c.json"
        save_complex(zx, path)
        back = load_complex(path)
        assert complex_to_dict(back) == complex_to_dict(zx)
        assert back.validate() == []

    def test_degenerate_face_entries_round_trip(self):
        doc = complex_to_dict(sphere_quotient(2))
        rec = next(r for r in doc["generators"] if r["name"] == "sigma")
        assert all(f["degeneracies"] == [0] for f in rec["faces"])
        assert complex_to_dict(complex_from_dict(doc)) == doc

    def test_missing_field(self):
        with pytest.raises(FormatError, match="basepoint"):
            complex_from_dict({"vertices": ["v"], "generators": []})

    def test_unknown_face_generator(self):
        doc = complex_to_dict(boundary_simplex(2))
        doc["generators"][0]["faces"][0]["generator"] = "nope"
        with pytest.raises(FormatError, match="nope"):
            complex_from_dict(doc)

    @pytest.mark.parametrize("degeneracies, message", [
        ([3], "degeneracy index 3 out of range for dimension 0"),
        ([0, 2], "degeneracy index 2 out of range for dimension 1"),
        ([-1], "degeneracy index -1 out of range for dimension 0"),
        (["x"], "invalid literal for int() with base 10: 'x'"),
    ], ids=["s3", "s2-after-s0", "negative", "not-an-integer"])
    def test_degeneracy_out_of_range(self, tmp_path, capsys, degeneracies, message):
        # once accepted, after which every command, validate too, failed
        # with "faces are only defined in dimension >= 1"
        doc = {"vertices": ["v"], "basepoint": "v", "generators": [
            {"name": "a", "dim": 1, "faces": [
                {"degeneracies": [], "generator": "v"},
                {"degeneracies": degeneracies, "generator": "v"}]}]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: face 1 of 'a' on 'v': {message}\n"

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [,]}')
        with pytest.raises(FormatError, match="line 1"):
            load_complex(path)


class TestFacets:
    def test_load(self, tmp_path):
        path = tmp_path / "t.facets"
        path.write_text("# a triangle\n0 1 2\n\n")
        zx = load_facets(path)
        assert zx.max_dim == 2 and len(zx.generators_of_dim(1)) == 3

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "t.facets"
        path.write_text("# nothing\n")
        with pytest.raises(FormatError, match="no facets"):
            load_facets(path)


class TestResolve:
    def test_builtins(self):
        assert len(resolve_complex("sphere:2").generators) == 2
        assert len(resolve_complex("wedge:3").generators_of_dim(1)) == 3
        assert resolve_complex("boundary-simplex:2").max_dim == 1

    def test_path_fallback(self, tmp_path):
        path = tmp_path / "c.json"
        save_complex(boundary_simplex(2), path)
        assert resolve_complex(str(path)).max_dim == 1

    def test_errors(self):
        with pytest.raises(FormatError, match="sphere:x"):
            resolve_complex("sphere:x")
        with pytest.raises(FormatError, match="no-such-thing"):
            resolve_complex("no-such-thing")


class TestWordLiterals:
    def test_terms(self, fixtures):
        zx = fixtures["sphere2"]
        assert parse_term(zx, "sigma") == zx.term("sigma")
        assert parse_term(zx, "s1.sigma") == zx.degenerate(zx.term("sigma"), 1)
        # outermost-first in the literal: s2.s0.sigma = apply s0 then s2
        t = parse_term(zx, "s2.s0.sigma")
        assert t == zx.degenerate(zx.degenerate(zx.term("sigma"), 0), 2)

    def test_unit_and_words(self, fixtures):
        zx = fixtures["bd2"]
        assert parse_word(zx, "e") == unit("0")
        assert parse_word(zx, "") == unit("0")
        w = parse_word(zx, "01;12;02^op")
        assert w == canonical(zx, (zx.term("01"), zx.term("12"), zx.term("02^op")), "0")

    def test_round_trip_via_format(self, fixtures):
        zx = fixtures["bd2"]
        w = parse_word(zx, "01;12;02^op")
        assert parse_word(zx, str(w)) == w

    def test_errors(self, fixtures):
        zx = fixtures["bd2"]
        with pytest.raises(FormatError, match="zz"):
            parse_word(zx, "01;zz")
        with pytest.raises(FormatError, match="s5"):
            parse_term(zx, "s5.01")
