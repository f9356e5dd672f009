import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopspace.cli import main
from loopspace.fileformat import (
    FormatError,
    complex_from_dict,
    load_complex,
    load_facets,
    parse_term,
    parse_word,
    resolve_complex,
)
from loopspace.simplicial import SimplicialError, boundary_simplex, sphere_quotient, wedge_of_circles
from loopspace.words import canonical, unit


DATA = Path(__file__).resolve().parent.parent / "data"


def _document(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


# the boundary of Delta^3 as a document: every face entry leaves out
# "degeneracies", which then reads as []
BD3 = {"name": "boundary-delta3", "vertices": ["0", "1", "2", "3"], "basepoint": "0",
       "generators": [{"name": s, "dim": len(s) - 1,
                       "faces": [{"generator": s[:i] + s[i + 1:]} for i in range(len(s))]}
                      for s in ("01", "02", "03", "12", "13", "23", "012", "013", "023", "123")]}


def _fields(zx):
    """Everything a document sets: the generators in each dimension in
    order, the face tables, the basepoint and the op pairs."""
    by_dim = [zx.generators_of_dim(d) for d in range(zx.max_dim + 1)]
    return zx.name, by_dim, zx.faces, zx.basepoint, zx.op_pairs


# JSON values built from the documents' own field and generator names, so
# that a drawn value often has the shape the reader expects
_FIELDS = ["name", "vertices", "basepoint", "generators", "dim", "faces", "generator",
           "degeneracies", "op_pairs"]
_NAMES = st.sampled_from([*_FIELDS, "0", "1", "01", "012", "x0", "a1", "a1^op"])
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 4) | st.integers()
            | st.floats(allow_nan=False) | _NAMES | st.text(max_size=3))
_JSON = _SCALARS | st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_NAMES, inner, max_size=4),
    max_leaves=12)


def _paths(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _kind(path) -> str:
    """What a node is: the document, a list entry, an op pair, or a field."""
    if len(path) == 1:
        return "document"
    if isinstance(path[-1], int):
        return "entry"
    return "pair" if path[-2] == "op_pairs" else path[-1]


_MISSING = object()  # in place of a value: the node is removed


def _put(root, path, value) -> None:
    """Set the node at path to value, or remove it."""
    *parent, key = path
    for k in parent:
        root = root[k]
    if value is _MISSING:
        del root[key]
    else:
        root[key] = value


@st.composite
def _mutated_documents(draw):
    """A shipped document with one or two nodes replaced by a drawn JSON
    value, or removed.  Each mutation draws a kind of node first, so that
    each field is as likely as the document itself."""
    box = [_document(draw(st.sampled_from(["triangle", "sphere2", "wedge2-inverted"])))]
    for _ in range(draw(st.integers(1, 2))):
        by_kind: dict[str, list] = {}
        for path in _paths(box):
            if path:
                by_kind.setdefault(_kind(path), []).append(path)
        path = draw(st.sampled_from(by_kind[draw(st.sampled_from(sorted(by_kind)))]))
        removed = len(path) > 1 and draw(st.integers(0, 3)) == 0
        _put(box, path, _MISSING if removed else draw(_JSON))
    return box[0]


def _read_or_refused(doc) -> None:
    """Read doc; a refusal must be a FormatError or a SimplicialError."""
    try:
        complex_from_dict(doc)
    except (FormatError, SimplicialError):
        pass


class TestComplexDocuments:
    # every field is read through a type check, so any JSON value is read
    # or refused with the reader's own errors, never another exception
    @settings(max_examples=100, deadline=None)
    @given(_mutated_documents())
    def test_reader_refuses_with_its_own_errors(self, doc):
        _read_or_refused(doc)

    @pytest.mark.parametrize("name", ["triangle", "sphere2", "wedge2-inverted"])
    def test_every_node_mistyped_or_missing(self, name):
        # each node of the document in turn: removed, or replaced by a value
        # of each JSON type
        text = (DATA / f"{name}.json").read_text()
        for path in list(_paths(json.loads(text)))[1:]:
            for value in (None, True, -1, 10**12, 1.5, "x", [], [None], {}, {"x": None}, _MISSING):
                doc = json.loads(text)
                _put(doc, path, value)
                _read_or_refused(doc)

    @pytest.mark.parametrize("doc, zx", [
        (_document("sphere2"), sphere_quotient(2)),
        (BD3, boundary_simplex(3)),
        (_document("wedge2-inverted"), wedge_of_circles(2).z_extension()),
    ], ids=["sphere2", "bd3", "wedge2op"])
    def test_round_trip(self, doc, zx, tmp_path):
        # a document of a builder's complex reads back as that complex,
        # field by field
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        back = load_complex(path)
        assert _fields(back) == _fields(zx)
        assert back.validate() == []

    def test_renamed_pairs_round_trip(self):
        # pairs are read by op_pairs alone, whatever the names
        text = (json.dumps(_document("wedge2-inverted"))
                .replace("a1^op", "b1").replace("a2^op", "b2"))
        zx = complex_from_dict(json.loads(text))
        assert zx.op_pairs == {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"}
        assert [a.name for a in zx.underlying_edges()] == ["a1", "a2"]

    def test_conflicting_pairs_refused(self):
        # read one entry at a time, the last pairing of an edge won
        doc = _document("wedge2-inverted")
        doc["op_pairs"] = {"a1": "a2", "a2": "a1^op", "a2^op": "a1"}
        with pytest.raises(FormatError, match=re.escape(
                "op pair 'a2': 'a1^op' pairs 'a2' again, after 'a1'")):
            complex_from_dict(doc)

    def test_degenerate_face_entries_round_trip(self):
        doc = _document("sphere2")
        rec = next(r for r in doc["generators"] if r["name"] == "sigma")
        assert all(f["degeneracies"] == [0] for f in rec["faces"])
        zx = complex_from_dict(doc)
        assert zx.faces == sphere_quotient(2).faces
        assert all(t.degens == (0,) and t.generator.name == "x0" for t in zx.faces["sigma"])

    def test_missing_field(self):
        with pytest.raises(FormatError, match="basepoint"):
            complex_from_dict({"vertices": ["v"], "generators": []})

    def test_unknown_face_generator(self):
        doc = _document("triangle")
        doc["generators"][0]["faces"][0]["generator"] = "nope"
        with pytest.raises(FormatError, match="nope"):
            complex_from_dict(doc)

    @pytest.mark.parametrize("degeneracies, message", [
        ([3], "degeneracy index 3 out of range for dimension 0"),
        ([0, 2], "degeneracy index 2 out of range for dimension 1"),
        ([-1], "degeneracy index -1 out of range for dimension 0"),
        (["x"], "a degeneracy has the wrong type: expected an integer, got 'x'"),
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

    @pytest.mark.parametrize("edit, message", [
        ({"vertices": "ab"}, "'vertices' has the wrong type: expected a list, got 'ab'"),
        ({"vertices": ["v", 1]}, "a vertex name has the wrong type: expected a string, got 1"),
        ({"generators": {}}, "'generators' has the wrong type: expected a list, got {}"),
        ({"generators": [["a", 1]]},
         "generator record 0 has the wrong type: expected an object, got ['a', 1]"),
        ({"dim": 1.7}, "'dim' of 'a' has the wrong type: expected an integer, got 1.7"),
        ({"dim": "x"}, "'dim' of 'a' has the wrong type: expected an integer, got 'x'"),
        ({"dim": True}, "'dim' of 'a' has the wrong type: expected an integer, got True"),
        ({"faces": "vv"}, "'faces' of 'a' has the wrong type: expected a list, got 'vv'"),
        ({"faces": [["v"], ["v"]]}, "face 0 of 'a' has the wrong type: expected an object, got ['v']"),
        ({"degeneracies": "0"},
         "'degeneracies' of face 0 of 'a' on 'v' has the wrong type: expected a list, got '0'"),
        ({"degeneracies": [False]},
         "face 0 of 'a' on 'v': a degeneracy has the wrong type: expected an integer, got False"),
        ({"op_pairs": {"ab": "zz"}}, "op pair 'ab': 'zz' names unknown generator 'ab'"),
        ({"op_pairs": {"a": "zz"}}, "op pair 'a': 'zz' names unknown generator 'zz'"),
    ], ids=["vertices-string", "vertex-name-int", "generators-object", "generator-record-list",
            "dim-float", "dim-string", "dim-bool", "faces-string", "faces-lists",
            "degeneracies-string", "degeneracy-bool", "op-pair-unknown-key", "op-pair-unknown-value"])
    def test_field_types_checked(self, edit, message):
        # once read: "ab" as the vertices a and b, 1.7 as 1, "0" one
        # character at a time; an unknown op-pair generator was reported
        # as a missing field, and a record that is a list with Python's
        # "list indices must be integers or slices, not str"
        doc = {"vertices": ["v"], "basepoint": "v", "generators": [
            {"name": "a", "dim": 1, "faces": [
                {"degeneracies": [], "generator": "v"},
                {"degeneracies": [], "generator": "v"}]}]}
        rec, face = doc["generators"][0], doc["generators"][0]["faces"][0]
        for key, value in edit.items():
            {"dim": rec, "faces": rec, "degeneracies": face}.get(key, doc)[key] = value
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            complex_from_dict(doc)

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


def _edges_doc(*names: str, vertices=("x0",)) -> dict:
    """A document with these vertices and one loop at the first per name."""
    loop = [{"generator": vertices[0]}] * 2
    return {"name": "reserved", "vertices": list(vertices), "basepoint": vertices[0],
            "generators": [{"name": n, "dim": 1, "faces": loop} for n in names]}


_COMMANDS = [["validate"], ["cells", "--degree", "0", "--max-len", "1"],
             ["boundary", "--word", "f"], ["check", "--suite", "covering"],
             ["homology", "--degree", "1"], ["group", "--compose", "f", "f"],
             ["cover", "--max-len", "1", "--out", "adj"]]


class TestReservedNames:
    # each once read and answered with exit 0: with edges e and f, "e" read
    # as the unit, so "group --compose e e" printed "composition: e", "cover
    # --max-len 1 --out adj" printed a self-loop (x0 | e) -> (x0 | e) on 4
    # lines for 5 vertices, and "cells" listed e twice; with edges a, b and
    # a;b, "cover --max-len 2 --out adj" printed 35 lines for 37 vertices
    @pytest.mark.parametrize("doc, message", [
        (_edges_doc("e", "f"), "generator name 'e' of dimension 1 is reserved for the unit word"),
        (_edges_doc("a", "b", "a;b"),
         "generator name 'a;b' contains ';', which separates the letters of a word"),
        (_edges_doc("f", ""), "generator name '' is empty or has surrounding whitespace"),
        (_edges_doc("f", " f"), "generator name ' f' is empty or has surrounding whitespace"),
        (_edges_doc("f", "f\n"), "generator name 'f\\n' is empty or has surrounding whitespace"),
        (_edges_doc("f", "s0.f"), "generator name 's0.f' starts with a degeneracy prefix s<j>."),
        (_edges_doc("f", "s12.x"), "generator name 's12.x' starts with a degeneracy prefix s<j>."),
        (_edges_doc("f", vertices=("x0", "s1.y")),
         "generator name 's1.y' starts with a degeneracy prefix s<j>."),
    ], ids=["unit", "semicolon", "empty", "leading-space", "trailing-newline", "prefix",
            "prefix-digits", "vertex-prefix"])
    def test_documents_refused_by_every_command(self, tmp_path, capsys, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for command in _COMMANDS:
            assert main([command[0], str(path), *command[1:]]) == 2, command
            assert capsys.readouterr() == ("", f"error: {message}\n"), command

    @pytest.mark.parametrize("facets, message", [
        ("a;b c\n", "generator name 'a;b' contains ';', which separates the letters of a word"),
        ("x s 0 .\n", "generator name 's0.' starts with a degeneracy prefix s<j>."),
        ("s0.x y\n", "generator name 's0.x' starts with a degeneracy prefix s<j>."),
    ], ids=["semicolon", "prefix-from-vertices", "prefix-vertex"])
    def test_facets_refused_by_every_command(self, tmp_path, capsys, facets, message):
        path = tmp_path / "t.facets"
        path.write_text(facets)
        for command in _COMMANDS:
            assert main([command[0], "--builtin", f"facets:{path}", *command[1:]]) == 2, command
            assert capsys.readouterr() == ("", f"error: {message}\n"), command

    def test_names_that_stay_readable(self, tmp_path):
        # a vertex may be called e, and e, ; and s<j>. may sit inside a name
        doc = _edges_doc("ea", "f;", "as0.", "s.x", "s0x", vertices=("e", "y"))
        doc["generators"][0]["faces"] = [{"generator": "y"}, {"generator": "e"}]
        with pytest.raises(FormatError, match="'f;' contains ';'"):
            complex_from_dict(doc)
        del doc["generators"][1]
        zx = complex_from_dict(doc)
        assert sorted(zx.generators) == ["as0.", "e", "ea", "s.x", "s0x", "y"]
        path = tmp_path / "t.facets"
        path.write_text("e f\n")
        assert sorted(load_facets(path).generators) == ["e", "ef", "f"]


class TestResolve:
    def test_builtins(self):
        assert len(resolve_complex("sphere:2").generators) == 2
        assert len(resolve_complex("wedge:3").generators_of_dim(1)) == 3
        assert resolve_complex("boundary-simplex:2").max_dim == 1

    def test_path_fallback(self, tmp_path):
        assert resolve_complex(str(DATA / "triangle.json")).max_dim == 1

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
        # and each term prints as the literal it was read from
        assert [str(parse_term(zx, s)) for s in ("sigma", "s1.sigma", "s2.s0.sigma")] == [
            "sigma", "s1.sigma", "s2.s0.sigma"]

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
