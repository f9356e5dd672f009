import json
import random
import re
import sys
from pathlib import Path

import pytest

from loopspace import cobar, suites
from loopspace.cli import main
from loopspace.fileformat import resolve_model

DATA = Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_builtin_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "--builtin", "sphere:2")
        assert code == 0 and "ok" in out

    def test_file_input(self, capsys):
        code, out, _ = run(capsys, "validate", str(DATA / "triangle.json"))
        assert code == 0 and out == "boundary-delta2+op: ok\n"

    def test_missing_complex(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 2 and "error:" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "validate", "--builtin", "torus:2")
        assert code == 2 and "torus" in err

    @pytest.mark.parametrize("argv", [
        ("--builtin", "facets:/nonexistent/facets.txt"),
        (".",),
    ], ids=["missing-facets", "directory"])
    def test_unreadable_file(self, capsys, argv):
        # both once ended in a traceback with exit 1, the "check failed" status
        code, out, err = run(capsys, "validate", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read ") and argv[-1].split(":")[-1] in err

    def test_vertex_named_like_an_edge(self, capsys, tmp_path):
        # the edge on 1 and 2 and the vertex 12 were both named '12', and
        # the file was refused: duplicate generator name '12', exit 2
        path = tmp_path / "two.facets"
        path.write_text("0 1 2\n0 2 12\n")
        code, out, _ = run(capsys, "validate", "--builtin", f"facets:{path}")
        assert code == 0 and out == "two+op: ok\n"
        code, out, _ = run(capsys, "homology", "--builtin", f"facets:{path}",
                           "--degree", "1", "--max-weight", "3")
        assert code == 0 and out.splitlines() == ["H_0  = Z^3", "H_1  = 0", "# truncated at weight 3"]

    def test_reports_non_simplicial(self, capsys, non_simplicial):
        code, out, _ = run(capsys, "validate", non_simplicial)
        assert code == 1 and "d1 d2 != d1 d1 on 012" in out


class TestCells:
    def test_cube_listing(self, capsys):
        code, out, _ = run(capsys, "cells", "--cube", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 27  # 3^(4-1)

    def test_cube_json(self, capsys):
        code, out, _ = run(capsys, "cells", "--cube", "3", "--aug", "--json")
        doc = json.loads(out)
        assert doc["augmented"] and len(doc["cells"]) == 27

    @pytest.mark.parametrize("flags, golden", [
        (("--cube", "3"), "cells_cube3.txt"),
        (("--cube", "3", "--aug"), "cells_cube3_aug.txt"),
    ])
    def test_cube_listing_golden(self, capsys, flags, golden):
        code, out, _ = run(capsys, "cells", *flags)
        assert code == 0
        assert out == (Path(__file__).parent / "golden" / golden).read_text()

    @pytest.mark.parametrize("argv, message", [
        (("--aug", "--builtin", "sphere:2", "--degree", "1"), "--aug needs --cube"),
        (("--cube", "2", "--builtin", "sphere:2"), "takes no complex"),
        (("--cube", "2", "--aug", "sphere:2"), "takes no complex"),
        (("--cube", "1", "--degree", "3"), "takes no --degree"),
        (("--cube", "1", "--aug", "--max-len", "2"), "takes no --max-len"),
    ], ids=["aug-without-cube", "cube-with-builtin", "cube-with-source", "cube-with-degree",
            "cube-with-max-len"])
    def test_ignored_flags_refused(self, capsys, argv, message):
        # each once exited 0, dropping the flag or the complex
        code, out, err = run(capsys, "cells", *argv)
        assert code == 2 and out == "" and message in err

    def test_edges_need_a_length_bound(self, capsys):
        code, out, err = run(capsys, "cells", "--builtin", "boundary-simplex:2", "--degree", "0")
        assert code == 2 and out == ""
        assert "has edges" in err and "(--max-len)" in err

    def test_word_cells(self, capsys):
        code, out, _ = run(capsys, "cells", "--builtin", "wedge:2",
                           "--degree", "0", "--max-len", "2")
        assert code == 0 and "# 17 cell(s)" in out


class TestBoundary:
    def test_sphere_generator(self, capsys):
        code, out, _ = run(capsys, "boundary", "--builtin", "sphere:2",
                           "--word", "sigma", "--variant", "norm")
        assert code == 0 and out.strip() == "0"

    def test_json_terms(self, capsys):
        code, out, _ = run(capsys, "boundary", "--builtin", "boundary-simplex:3",
                           "--word", "012;02^op", "--json")
        doc = json.loads(out)
        assert code == 0 and len(doc["boundary"]) == 2

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "boundary", "--builtin", "sphere:2",
                           "--word", "nope")
        assert code == 2 and "nope" in err
        code, out, err = run(capsys, "boundary", "--builtin", "wedge:2", "--word", "a1;;a2")
        assert (code, out, err) == (2, "", "error: cannot parse letter ''\n")


class TestCheck:
    @pytest.mark.parametrize("suite", ["cubical", "dsq", "leibniz", "theorem2", "covering"])
    def test_suites_pass(self, capsys, suite):
        # every suite records a row on sphere:2; on boundary-simplex:2 the
        # dsq and theorem2 suites check nothing, since every word has degree 0
        code, out, _ = run(capsys, "check", "--builtin", "sphere:2",
                           "--suite", suite, "--samples", "20", "--cube-n", "3",
                           "--degree", "2", "--max-len", "3")
        assert code == 0, out
        assert ": pass" in out and "vacuous" not in out

    @pytest.mark.parametrize("suite, call", [
        ("cubical", lambda zx: suites.cubical_suite(zx, 7, 3, cube_n=1)),
        ("dsq", lambda zx: suites.dsq_suite(zx, 7, 3)),
        ("leibniz", lambda zx: suites.leibniz_suite(zx, 7, 3)),
        ("theorem2", lambda zx: suites.theorem2_suite(zx, 2, 3)),
        ("covering", lambda zx: suites.covering_suite(zx, 3)),
    ], ids=["cubical", "dsq", "leibniz", "theorem2", "covering"])
    def test_flags_reach_the_suite(self, capsys, suite, call):
        # every flag a distinct value, so a flag passed in another's place
        # changes the report, which an exit status does not show
        code, out, _ = run(capsys, "check", "--builtin", "sphere:2", "--suite", suite, "--json",
                           "--samples", "7", "--seed", "3", "--cube-n", "1",
                           "--degree", "2", "--max-len", "3")
        assert code == 0
        want = call(resolve_model("sphere:2"))
        assert json.loads(out) == json.loads(json.dumps(want, default=str))

    @pytest.mark.parametrize("argv", [
        ("--builtin", "sphere:2", "--suite", "dsq", "--samples", "0"),
        ("--builtin", "wedge:2", "--suite", "theorem2", "--degree", "3"),
    ], ids=["no-row", "no-word"])
    def test_vacuous_run(self, capsys, argv):
        # both once printed "pass" after checking nothing
        code, out, _ = run(capsys, "check", *argv)
        assert code == 0 and out.splitlines()[0].endswith(": vacuous (no check ran)")
        _, out, _ = run(capsys, "check", *argv, "--json")
        doc = json.loads(out)
        assert doc["vacuous"] is True and doc["ok"] is True

    def test_theorem2_mismatch_fails(self, capsys, monkeypatch):
        # the cobar side negated: both variants report a mismatch
        original = cobar.cobar_boundary

        def flipped(zx, m, variant="de"):
            return {k: -c for k, c in original(zx, m, variant).items()}

        monkeypatch.setattr(cobar, "cobar_boundary", flipped)
        code, out, _ = run(capsys, "check", "--builtin", "boundary-simplex:3",
                           "--suite", "theorem2", "--degree", "3")
        assert code == 1
        assert out.splitlines()[0] == "boundary-delta3+op suite=theorem2: fail"
        assert "  FAIL theorem2-de: " in out and "  FAIL theorem2-normalized: " in out

    @pytest.mark.parametrize("argv, interior", [
        (("--builtin", "sphere:2"), 1),
        (("--builtin", "facets:PATH"), 3),
        (("--builtin", "wedge:2", "--max-len", "0"), 0),
    ], ids=["sphere2", "two-edge-path", "max-len-0"])
    def test_covering_interior(self, capsys, tmp_path, argv, interior):
        # every word shorter than the bound is interior; the first two once
        # skipped their longest words, though nothing was cut (sphere:2
        # checked no lift at all)
        path = tmp_path / "path.facets"
        path.write_text("0 1\n1 2\n")
        argv = [a.replace("PATH", str(path)) for a in argv]
        code, out, _ = run(capsys, "check", *argv, "--suite", "covering", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["ok"]
        assert doc["interior_vertices"] == interior
        assert doc.get("vacuous", False) == (interior == 0)

    def test_cubical_on_many_letters_per_vertex(self, capsys):
        # a vertex of the boundary of Delta^10 starts hundreds of letters, so
        # a random path cell's tail often misses the basepoint in all 60
        # draws; the run exited 2 ("no word found from 3 to 0") before the
        # tail fell back on the tree path home
        code, out, err = run(capsys, "check", "--builtin", "boundary-simplex:10",
                             "--suite", "cubical")
        assert (code, err) == (0, "") and out.startswith("boundary-delta10+op suite=cubical: pass")

    @pytest.mark.parametrize("seed", range(8))
    def test_cubical_seeds(self, capsys, seed):
        # seed 0 exited 2 with "no word found from 7 to 0"
        code, out, err = run(capsys, "check", "--builtin", "boundary-simplex:8", "--suite",
                             "cubical", "--samples", "20", "--seed", str(seed))
        assert (code, err) == (0, "") and out.startswith("boundary-delta8+op suite=cubical: pass")

    def test_deterministic_with_seed(self, capsys):
        args = ("check", "--builtin", "sphere:2", "--suite", "dsq",
                "--samples", "15", "--seed", "7", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestHomology:
    def test_sphere_table(self, capsys):
        code, out, _ = run(capsys, "homology", "--builtin", "sphere:2", "--degree", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["H_0  = Z", "H_1  = Z", "H_2  = Z"]

    def test_field_coefficients(self, capsys):
        code, out, _ = run(capsys, "homology", "--builtin", "sphere:2",
                           "--degree", "1", "--coeff", "p:5")
        assert code == 0 and "GF(5)^1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "homology", "--builtin", "sphere:3",
                           "--degree", "3", "--json")
        doc = json.loads(out)
        assert [g["free_rank"] for g in doc["groups"]] == [1, 0, 1, 0]
        assert doc["max_weight"] is None  # exact
        # the normalized bases of degrees 0..4 are the powers of sigma, and
        # every d_n is zero
        assert doc["basis_sizes"] == [1, 0, 1, 0, 1]
        assert doc["nonzeros"] == [0, 0, 0, 0, 0]

    def test_json_counts_de(self, capsys):
        # a de word of degree n >= 1 on sphere:2 is a composition of n: one
        # letter of each part's degree, with its interior duplicates
        argv = ("homology", "--builtin", "sphere:2", "--degree", "4", "--variant", "de")
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["basis_sizes"] == [1, 1, 2, 4, 8, 16]
        assert doc["nonzeros"] == [0, 0, 0, 1, 2, 6]
        _, text, _ = run(capsys, *argv)
        assert text.splitlines() == [f"H_{n:<2} = Z" for n in range(5)]

    @pytest.mark.parametrize("max_weight, ranks", [
        ("3", [4, 0, 0]),
        ("4", [4, 1, 0]),
        ("5", [3, 4, 0]),
    ], ids=["3", "4", "5"])
    def test_truncated_label(self, capsys, max_weight, ranks):
        # at length bounds 3 and 4 these printed wrong groups with no label,
        # and at 5 a negative free rank; weight bounds give a subcomplex
        argv = ("homology", "--builtin", "boundary-simplex:3", "--degree", "2",
                "--max-weight", max_weight)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == f"# truncated at weight {max_weight}"
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["max_weight"] == int(max_weight)
        assert [g["free_rank"] for g in doc["groups"]] == ranks

    @pytest.mark.parametrize("spec, reason", [
        ("p:4", "4 is not prime"),
        ("p:abc", "unknown coefficient ring"),
        ("p:", "unknown coefficient ring"),
        ("r", "unknown coefficient ring"),
    ], ids=["p4", "pabc", "p-empty", "r"])
    def test_bad_coefficients_refused_before_computing(self, capsys, monkeypatch, spec, reason):
        # p:4 once ran the whole computation before failing, and p:abc
        # printed int()'s "invalid literal" message
        def computed(*args, **kwargs):
            raise AssertionError("homology ran before the ring was parsed")

        monkeypatch.setattr("loopspace.cli.homology", computed)
        code, out, err = run(capsys, "homology", "--builtin", "sphere:3", "--degree", "12",
                             "--variant", "de", "--coeff", spec)
        assert code == 2 and out == ""
        assert repr(spec) in err and reason in err and "invalid literal" not in err

    def test_edges_need_a_bound(self, capsys):
        code, out, err = run(capsys, "homology", "--builtin", "wedge:2", "--degree", "1")
        assert code == 2 and out == ""
        assert "--max-weight" in err

    def test_non_object_document(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "homology", str(path), "--degree", "1")
        assert code == 2 and "must be a JSON object" in err

    @pytest.mark.parametrize("doc", [
        {"vertices": 5, "basepoint": "v"},
        {"vertices": ["v"], "basepoint": "v", "op_pairs": []},
    ], ids=["int-vertices", "list-op-pairs"])
    def test_field_of_wrong_type(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "homology", str(path), "--degree", "1")
        assert code == 2 and "wrong type" in err


    @pytest.mark.parametrize("bound", ["1", "3"])
    def test_non_simplicial_refused(self, capsys, non_simplicial, bound):
        # unchecked, bound 1 printed H_0 = Z, H_1 = 0 with exit 0 and
        # bound 3 failed on a word whose endpoints did not match
        code, out, err = run(capsys, "homology", non_simplicial,
                             "--degree", "1", "--max-weight", bound)
        assert code == 2 and out == ""
        assert "not a simplicial set" in err and "d1 d2 != d1 d1 on 012" in err


class TestGroup:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "group", "--builtin", "wedge:2",
                           "--count-length", "3")
        assert code == 0 and "53" in out  # 1 + 4 + 12 + 36

    def test_power_detect(self, capsys):
        code, out, _ = run(capsys, "group", "--builtin", "boundary-simplex:2",
                           "--element", "02;12^op;01^op;02;12^op;01^op",
                           "--power-detect", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["exponent"] == 2

    def test_compose_invert(self, capsys):
        code, out, _ = run(capsys, "group", "--builtin", "wedge:2",
                           "--element", "a1;a2", "--invert",
                           "--compose", "a1;a2", "a2^op;a1^op")
        assert code == 0
        assert "inverse: a2^op;a1^op" in out
        assert "composition: e" in out

    def test_degree_guard(self, capsys):
        code, _, err = run(capsys, "group", "--builtin", "sphere:2",
                           "--element", "sigma")
        assert code == 2 and "degree" in err

    @pytest.mark.parametrize("argv", [
        ("--element", "12", "--power-detect", "--invert"),
        ("--element", "01;12"),
        ("--compose", "01", "12"),
        ("--compose", "01;01^op", "12"),
    ], ids=["edge", "open-path", "compose-edges", "compose-one-edge"])
    def test_not_a_loop_at_the_basepoint(self, capsys, argv):
        # the first three printed a power, an inverse or a composition with exit 0
        code, out, err = run(capsys, "group", "--builtin", "boundary-simplex:2", *argv)
        assert code == 2 and out == ""
        assert "is not a group element, a degree-0 loop at the basepoint 0" in err

    def test_nothing_to_do(self, capsys):
        code, _, err = run(capsys, "group", "--builtin", "wedge:2")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--invert", "--power-detect"])
    def test_element_flags_need_an_element(self, capsys, flag):
        # each once printed the count, dropped the flag and exited 0
        code, out, err = run(capsys, "group", "--builtin", "wedge:2", flag, "--count-length", "2")
        assert code == 2 and out == "" and f"{flag} needs --element" in err


class TestCover:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "cover", "--builtin", "wedge:2", "--max-len", "3")
        assert code == 0 and "53 vertices" in out and "tree=True" in out

    def test_vacuous(self, capsys):
        # with no interior vertex no lift is checked; this once printed
        # covering=ok
        argv = ("cover", "--builtin", "wedge:2", "--max-len", "0")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip().endswith("covering=vacuous (no lift checked)")
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] and doc["vacuous"] is True
        assert doc["interior_vertices"] == 0
        code, out, _ = run(capsys, "cover", "--builtin", "wedge:2", "--max-len", "1", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["vacuous"] is False

    def test_dot_and_adj(self, capsys):
        code, out, _ = run(capsys, "cover", "--builtin", "boundary-simplex:2",
                           "--max-len", "2", "--out", "dot")
        assert code == 0 and out.startswith("digraph")
        code, out, _ = run(capsys, "cover", "--builtin", "boundary-simplex:2",
                           "--max-len", "2", "--out", "adj")
        assert code == 0 and "->" in out

    def test_dot_labels_are_quoted(self, capsys, tmp_path):
        # a quote in a vertex name once closed its DOT label early, exit 0
        doc = {"name": "q", "vertices": ['x"0'], "basepoint": 'x"0', "generators": [
            {"name": "a\\1", "dim": 1, "faces": [{"generator": 'x"0'}] * 2}]}
        code, out, _ = run(capsys, "cover", _document(tmp_path, doc),
                           "--max-len", "1", "--out", "dot")
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "digraph cover {" and lines[-1] == "}"
        labels = []
        for line in lines[1:-1]:
            m = re.fullmatch(r'  n\d+(?: -> n\d+)? \[label="((?:[^"\\]|\\.)*)"\];', line)
            assert m, line
            labels.append(re.sub(r"\\(.)", r"\1", m.group(1)))
        assert labels == ['x"0|e', 'x"0|a\\1', 'x"0|a\\1^op', "a\\1", "a\\1"]

    def test_non_simplicial_refused(self, capsys, non_simplicial):
        code, out, err = run(capsys, "cover", non_simplicial, "--max-len", "2")
        assert code == 2 and out == ""
        assert "not a simplicial set" in err and "d1 d2 != d1 d1 on 012" in err


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ("homology", "--builtin", "sphere:2", "--degree", "-1"),
        ("group", "--builtin", "wedge:2", "--count-length", "-1"),
        ("cover", "--builtin", "wedge:2", "--max-len", "-1"),
        ("homology", "--builtin", "wedge:2", "--degree", "1", "--max-weight", "-2"),
        ("check", "--builtin", "sphere:2", "--suite", "dsq", "--samples", "-3"),
        ("cells", "--cube", "-1"),
        ("check", "--builtin", "sphere:2", "--suite", "cubical", "--cube-n", "-1"),
    ], ids=["degree", "count-length", "max-len", "max-weight", "samples", "cube", "cube-n"])
    def test_negative_value_is_an_error(self, capsys, argv):
        # at first these printed nothing, "length <= -1: 1", a one-vertex
        # tree and a pass with zero checks, all with exit 0
        code, out, err = run(capsys, *argv)
        flag, value = argv[-2:]
        assert code == 2 and out == ""
        assert f"{flag} must be non-negative, got {value}" in err


class TestTwoComplexes:
    @pytest.mark.parametrize("argv", [
        ("homology", "--degree", "2"),
        ("check", "--suite", "theorem2"),
        ("validate",),
        ("cells", "--degree", "1"),
        ("group", "--count-length", "1"),
    ], ids=["homology", "check", "validate", "cells", "group"])
    def test_source_and_builtin_refused(self, capsys, argv):
        # --builtin used to win silently: homology printed the table of
        # Omega S^2 for the moore2 document, with exit 0
        source = str(DATA / "moore2.json")
        code, out, err = run(capsys, argv[0], source, "--builtin", "sphere:2", *argv[1:])
        assert code == 2 and out == ""
        assert source in err and "--builtin sphere:2" in err


def _document(tmp_path, doc) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestEdgePairing:
    """An edge and its formal inverse are paired by op_pairs alone, under
    any names; the covering graph takes one edge of each pair."""

    def test_renamed_pairs(self, capsys, tmp_path):
        # read by the ^op suffix, all four edges were underlying edges:
        # 32 edges, tree=False, covering=ok, exit 0
        text = ((DATA / "wedge2-inverted.json").read_text()
                .replace("a1^op", "b1").replace("a2^op", "b2"))
        code, out, _ = run(capsys, "cover", _document(tmp_path, json.loads(text)),
                           "--max-len", "2")
        assert code == 0
        assert out.strip().endswith(
            "17 vertices, 16 edges, connected=True, tree=True, covering=ok")

    def test_op_suffix_on_an_unpaired_edge(self, capsys, tmp_path):
        # an edge named b^op, before the z-extension pairs it with b^op^op,
        # was dropped by the suffix rule: 8 edges, connected=False, exit 0
        doc = {"name": "ab", "vertices": ["x0"], "basepoint": "x0", "generators": [
            {"name": name, "dim": 1, "faces": [{"generator": "x0"}, {"generator": "x0"}]}
            for name in ("a", "b^op")]}
        path = _document(tmp_path, doc)
        code, out, _ = run(capsys, "cover", path, "--max-len", "2")
        assert code == 0 and "17 vertices, 16 edges, connected=True, tree=True" in out
        code, out, _ = run(capsys, "check", path, "--suite", "covering")
        assert code == 0 and out.startswith("ab+op suite=covering: pass")

    @pytest.mark.parametrize("argv", [
        ("validate",),
        ("homology", "--degree", "0", "--max-weight", "3"),
        ("cover", "--max-len", "2"),
    ], ids=["validate", "homology", "cover"])
    def test_partial_pairing_refused(self, capsys, tmp_path, argv):
        # with a2 and a2^op unpaired, homology printed H_0 = Z^69 (Z^53 with
        # both pairs) with exit 0
        doc = json.loads((DATA / "wedge2-inverted.json").read_text())
        doc["op_pairs"] = {"a1": "a1^op"}
        code, out, err = run(capsys, argv[0], _document(tmp_path, doc), *argv[1:])
        assert code == 2 and out == ""
        assert "'a2'" in err and "pair every edge or none" in err


def _same_way_pairs(doc):
    """Pair every edge with a new one: 01 with b, which runs from 0 to 1
    as 01 does, and the others with their reversals."""
    doc["op_pairs"] = {}
    for g in list(doc["generators"]):
        other = "b" if g["name"] == "01" else g["name"] + "^op"
        faces = g["faces"] if other == "b" else g["faces"][::-1]
        doc["generators"].append({"name": other, "dim": 1, "faces": faces})
        doc["op_pairs"][g["name"]] = other


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _set_edge(key, value):
    def edit(doc):
        doc["generators"][0][key] = value
    return edit


def _huge_face(at):
    """Put a generator of dimension 10^12 with no faces at index ``at`` of
    the records, and make it the first face of the edge 01."""
    def edit(doc):
        doc["generators"][0]["faces"][0] = {"generator": "top"}
        doc["generators"].insert(at, {"name": "top", "dim": 10**12, "faces": []})
    return edit


# commands that build a model, each with the flags it requires
_MODEL_COMMANDS = (("homology", "--degree", "1", "--max-weight", "3"), ("cover", "--max-len", "2"),
                   ("check", "--suite", "covering"), ("check", "--suite", "cubical"))


_NINES = "9" * 5000


class TestRefusals:
    """Malformed input that no other test reaches: each is refused with a
    message that names the fault.  The documents are data/triangle.json
    (the edges 01, 02, 12) with one fault put in; a string in place of the
    edit is the text of a facets file, and bytes the raw text of a document."""

    @pytest.mark.parametrize("argv, edit, status, message", [
        (("boundary", "--builtin", "boundary-simplex:3", "--word", "01;23"), None, 2,
         "word not composable at 23: 1 != 2"),
        (("validate",), _set_edge("faces", [{"generator": "02"}, {"generator": "0"}]), 2,
         "face of '01' has dimension 1, expected 0"),
        (("validate",), _set("basepoint", "01"), 2, "basepoint must be a 0-generator"),
        (("validate",), _set("basepoint", "9"), 2, "unknown basepoint '9'"),
        (("validate",), lambda doc: doc["generators"].append(dict(doc["generators"][0])), 2,
         "duplicate generator name '01'"),
        (("validate",), _set_edge("dim", -1), 2, "negative dimension for '01'"),
        (("validate",), _same_way_pairs, 1, "d0(b) != d1(01)"),
        (("homology", "--degree", "1", "--max-weight", "3"), _same_way_pairs, 2,
         "d0(b) != d1(01)"),
        # trial division up to sqrt(P) ran for minutes on this P, and P**0.5
        # overflowed on one of more than 308 digits
        (("homology", "--builtin", "sphere:2", "--degree", "1",
          "--coeff", "p:1000000000000000000000000000057"), None, 2, "below 2^31"),
        (("boundary", "--builtin", "sphere:2", "--word", "sigma",
          "--coeff", f"p:{10 ** 400 + 7}"), None, 2, "below 2^31"),
        # more digits than int() converts by default
        (("homology", "--builtin", "sphere:2", "--degree", "1",
          "--coeff", "p:1" + "0" * 5000 + "7"), None, 2, "below 2^31"),
        (("validate", "--builtin", "sphere:0"), None, 2, "n must be >= 1"),
        (("validate", "--builtin", "boundary-simplex:0"), None, 2, "n must be >= 1"),
        (("validate", "--builtin", "wedge:0"), None, 2, "r must be >= 1"),
        (("validate",), "0 1 1\n", 2, "facet ['0', '1', '1'] repeats a vertex"),
        # without op_pairs, the edge-inverted extension names 01's inverse 01^op
        (("validate",), lambda doc: doc["generators"].append(
            {"name": "01^op", "dim": 1, "faces": [{"generator": "0"}, {"generator": "1"}]}),
         2, "name clash adding '01^op'"),
        # a face of dimension 10^12 was built before any check, and ran out
        # of memory; now its record, or the face that names it, is refused
        (("validate",), _huge_face(0), 2, "face table of 'top' must have 1000000000001 entries"),
        (("validate",), _huge_face(-1), 2, "face of '01' has dimension 1000000000000, expected 0"),
        # the first input above each bound; at the bound, each is built and
        # checked in a few seconds, and the cost grows faster than the input
        (("validate", "--builtin", "sphere:501"), None, 2,
         "'sphere:501': the parameter must be at most 500"),
        (("validate", "--builtin", "boundary-simplex:14"), None, 2,
         "'boundary-simplex:14': the parameter must be at most 13"),
        (("validate", "--builtin", "wedge:50001"), None, 2,
         "'wedge:50001': the parameter must be at most 50000"),
        (("validate", "--builtin", "wedge:1" + "0" * 5000), None, 2,
         "the parameter must be at most 50000"),
        (("cells", "--cube", "11"), None, 2, "--cube must be at most 10, got 11"),
        (("check", "--builtin", "sphere:2", "--suite", "cubical", "--cube-n", "8"), None, 2,
         "--cube-n must be at most 7, got 8"),
        (("validate",), " ".join("abcdefghijklmno") + "\n", 2,
         "c.facets: line 1: a facet may have at most 14 vertices, not 15"),
        # one more distinct simplex than a facet at the bound gives
        (("validate",), " ".join("abcdefghijklmn") + "\no\n", 2,
         "c.facets: a facet list may have at most 16383 distinct simplices"),
        (("check", "--builtin", "sphere:33", "--suite", "cubical"), None, 2,
         "check --suite cubical takes a complex of dimension at most 32; "
         "sphere33+op has dimension 33"),
        # a 400 kB value of the wrong type is echoed in 80 characters
        (("validate",), _set("vertices", "x" * 400_000), 2,
         "'vertices' has the wrong type: expected a list, got 'xxxxx"),
        # a document nested 200 000 levels deep, on which the JSON decoder
        # ran out of stack, and one that is not UTF-8 text
        (("validate",), b"[" * 200_000 + b"]" * 200_000, 2, "c.json: nested too deeply to read"),
        (("cover", "--max-len", "1"), random.Random(0).randbytes(300), 2,
         "c.json: not UTF-8 text"),
        # S^0 and two disjoint edges: the vertices off the basepoint's
        # component have no lift in the cover, and no word reaches them
        *((argv + ("--builtin", "boundary-simplex:1"), None, 2,
           "boundary-delta1+op is not path connected: no edge path joins vertex '1' "
           "to the basepoint '0'") for argv in _MODEL_COMMANDS),
        *((argv, "0 1\n2 3\n", 2,
           "c+op is not path connected: no edge path joins vertex '2' to the basepoint '0'")
          for argv in _MODEL_COMMANDS),
    ], ids=["word-not-composable", "face-dimension", "basepoint-on-edge", "unknown-basepoint",
            "duplicate-generator", "negative-dim", "same-way-pair-validate",
            "same-way-pair-homology", "prime-too-large-homology", "prime-too-large-boundary",
            "prime-too-many-digits", "sphere-0", "boundary-simplex-0", "wedge-0",
            "facet-repeats-a-vertex", "op-name-clash", "huge-face-table", "huge-face",
            "sphere-above-bound", "boundary-simplex-above-bound", "wedge-above-bound",
            "wedge-too-many-digits", "cube-above-bound", "cube-n-above-bound",
            "facet-above-bound", "simplices-above-bound", "cubical-dimension-above-bound",
            "long-mistyped-value", "deeply-nested-document", "binary-document",
            *(f"{name}-{command}" for name in ("s0", "two-edges")
              for command in ("homology", "cover", "covering", "cubical"))])
    def test_refused(self, capsys, tmp_path, argv, edit, status, message):
        if isinstance(edit, str):
            path = tmp_path / "c.facets"
            path.write_text(edit)
            argv = (argv[0], "--builtin", f"facets:{path}", *argv[1:])
        elif isinstance(edit, bytes):
            path = tmp_path / "c.json"
            path.write_bytes(edit)
            argv = (argv[0], str(path), *argv[1:])
        elif edit is not None:
            doc = json.loads((DATA / "triangle.json").read_text())
            edit(doc)
            argv = (argv[0], _document(tmp_path, doc), *argv[1:])
        code, out, err = run(capsys, *argv)
        assert code == status
        if status == 2:
            assert out == "" and err.startswith("error: ") and message in err
            # a message may echo the command line, never a whole document
            assert len(err) <= 200 + sum(map(len, argv)), len(err)
        else:  # validate lists every violation
            assert "4 violation(s)" in out and message in out and err == ""

    @pytest.mark.parametrize("argv", [
        ("validate", "--builtin", "wedge:" + _NINES),
        ("homology", "--builtin", "sphere:2", "--degree", "1", "--coeff", "p:" + _NINES),
        ("validate", "--builtin", "nosuch" + _NINES),
        ("validate", "nosuch" + _NINES + ".json"),
        ("boundary", "--builtin", "sphere:2", "--word", "x" + _NINES),
        ("group", "--builtin", "wedge:1", "--element", "a1;a1;x" + _NINES),
        ("homology", "--builtin", "sphere:2", "--degree", "1", "--coeff", "x" + _NINES),
        ("validate", "sphere:2", "--builtin", "wedge:" + _NINES),
        ("boundary", "--builtin", "sphere:2", "--word", "s" + _NINES + ".x0"),
        ("validate", "--builtin", "facets:nosuch" + _NINES),
    ], ids=["builtin-parameter", "prime", "unknown-builtin", "unknown-file", "letter",
            "group-element", "coefficient-ring", "two-complexes", "degeneracy-index",
            "facets-path"])
    def test_long_value_is_clipped(self, capsys, argv):
        # each echoed the whole value, in 5 to 10 kB; the file path ended in
        # a traceback, as its name is too long to look up, and the
        # degeneracy index in Python's refusal of a 5 000-digit int()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert len(err.encode()) <= 300, len(err)
        assert "Traceback" not in err and "int_max_str_digits" not in err

    def test_long_degeneracy_index_is_out_of_range(self, capsys):
        for index in ("9" * 5000, "0" * 5000 + "3", "3"):
            code, out, err = run(capsys, "boundary", "--builtin", "sphere:2",
                                 "--word", f"s{index}.x0")
            assert code == 2 and out == ""
            assert err.startswith("error: degeneracy s") and "out of range in 's" in err, err
        # leading zeros still name an index in range
        code, out, _ = run(capsys, "boundary", "--builtin", "sphere:2",
                           "--word", "s" + "0" * 5000 + ".x0")
        assert code == 0 and out

    def test_long_path_keeps_its_file_name(self, capsys, tmp_path):
        deep = tmp_path.joinpath(*["directory-name"] * 8)
        deep.mkdir(parents=True)
        for name, body in (("c.json", b"\xff"), ("c.facets", b"# nothing\n")):
            path = deep / name
            path.write_bytes(body)
            spec = str(path) if name.endswith(".json") else f"facets:{path}"
            code, _, err = run(capsys, "validate", spec)
            assert code == 2 and len(err) < 200, err
            assert "..." in err and f"directory-name/{name}: " in err, err
            assert str(tmp_path) not in err

    def test_cubical_at_the_dimension_bound(self, capsys):
        # the largest dimension the cubical suite takes; its default run on
        # sphere:32 takes about 4 s, so this one draws no sample
        code, out, _ = run(capsys, "check", "--builtin", "sphere:32", "--suite", "cubical",
                           "--samples", "0", "--cube-n", "0")
        assert code == 0 and out.startswith("sphere32+op suite=cubical: pass")


class TestClosedOutput:
    @pytest.mark.parametrize("raising", ["write", "flush"])
    def test_reader_that_left(self, capsys, monkeypatch, tmp_path, raising):
        # `cells --builtin wedge:3 --max-len 6 | head -1` ended in a
        # BrokenPipeError traceback with exit 1; a short output that sits in
        # the buffer meets the closed pipe only when it is flushed
        class Closed:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                if raising == "write":
                    raise BrokenPipeError(32, "Broken pipe")
                return len(text)

            def flush(self):
                if raising == "flush":
                    raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        with open(tmp_path / "out", "w") as sink:
            monkeypatch.setattr(sys, "stdout", Closed(sink.fileno()))
            assert main(["cells", "--builtin", "wedge:3", "--max-len", "2"]) == 141
        assert capsys.readouterr().err == ""
