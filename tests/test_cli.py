import json

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


class TestCells:
    def test_cube_listing(self, capsys):
        code, out, _ = run(capsys, "cells", "--cube", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 27  # 3^(4-1)

    def test_cube_json(self, capsys):
        code, out, _ = run(capsys, "cells", "--cube", "3", "--aug", "--json")
        doc = json.loads(out)
        assert doc["augmented"] and len(doc["cells"]) == 27

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
        code, out, _ = run(capsys, "check", "--builtin", "boundary-simplex:2",
                           "--suite", suite, "--samples", "20", "--cube-n", "3",
                           "--degree", "2", "--max-len", "3")
        assert code == 0, out
        assert "pass" in out

    def test_deterministic_with_seed(self, capsys):
        args = ("check", "--builtin", "sphere:2", "--suite", "dsq",
                "--samples", "15", "--seed", "7", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestHomology:
    def test_sphere_table(self, capsys):
        code, out, _ = run(capsys, "homology", "--builtin", "sphere:2",
                           "--degree", "2", "--max-len", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["H_0  = Z", "H_1  = Z", "H_2  = Z"]

    def test_field_coefficients(self, capsys):
        code, out, _ = run(capsys, "homology", "--builtin", "sphere:2",
                           "--degree", "1", "--max-len", "4", "--coeff", "p:5")
        assert code == 0 and "GF(5)^1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "homology", "--builtin", "sphere:3",
                           "--degree", "3", "--max-len", "2", "--json")
        doc = json.loads(out)
        assert [g["free_rank"] for g in doc["groups"]] == [1, 0, 1, 0]

    def test_negative_rank_is_an_error(self, capsys):
        # the length truncation of a complex with edges is not a subcomplex;
        # at this bound H_1 would come out with free rank -4
        code, out, err = run(capsys, "homology", "--builtin", "boundary-simplex:3",
                             "--degree", "2", "--max-len", "5")
        assert code == 2 and out == ""
        assert "H_1" in err and "-4" in err and "bound 5" in err

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

    def test_nothing_to_do(self, capsys):
        code, _, err = run(capsys, "group", "--builtin", "wedge:2")
        assert code == 2


class TestCover:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "cover", "--builtin", "wedge:2", "--max-len", "3")
        assert code == 0 and "53 vertices" in out and "tree=True" in out

    def test_dot_and_adj(self, capsys):
        code, out, _ = run(capsys, "cover", "--builtin", "boundary-simplex:2",
                           "--max-len", "2", "--out", "dot")
        assert code == 0 and out.startswith("digraph")
        code, out, _ = run(capsys, "cover", "--builtin", "boundary-simplex:2",
                           "--max-len", "2", "--out", "adj")
        assert code == 0 and "->" in out
