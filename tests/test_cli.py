import json
from pathlib import Path

import pytest

from loopspace.cli import main
from loopspace.fileformat import save_complex
from loopspace.simplicial import boundary_simplex


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_builtin_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "--builtin", "sphere:2")
        assert code == 0 and "ok" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_complex(boundary_simplex(2), path)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0

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
    ], ids=["aug-without-cube", "cube-with-builtin", "cube-with-source"])
    def test_ignored_flags_refused(self, capsys, argv, message):
        # both once exited 0, dropping the flag or the complex
        code, out, err = run(capsys, "cells", *argv)
        assert code == 2 and out == "" and message in err

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
