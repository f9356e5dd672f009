"""The scripts under scripts/, run in-process as their own __main__."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(capsys, monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    out = capsys.readouterr()
    return exit_info.value.code, out.out, out.err


def test_homology_tables(capsys, monkeypatch):
    code, out, _ = run_script(capsys, monkeypatch, "homology_tables.py", "--degree", "2",
                              "--complexes", "sphere:2", "wedge:2")
    assert code == 0
    assert "sphere:2  [normalized, exact]" in out and "  H_2 = Z   (dim_Q = 1)" in out
    assert "wedge:2  [normalized, truncated at weight 4]" in out


def test_export_cover(capsys, monkeypatch):
    code, out, _ = run_script(capsys, monkeypatch, "export_cover.py", "wedge:2", "--max-len", "2")
    assert code == 0 and out.startswith("digraph")
    assert out.splitlines()[-1].endswith("tree=True, covering=ok")


def test_run_suites(capsys, monkeypatch):
    code, out, _ = run_script(capsys, monkeypatch, "run_suites.py", "--samples", "2",
                              "--cube-n", "1")
    assert code == 0 and " fail " not in out
    assert out.count("\n") == 25  # five fixtures, five suites


@pytest.mark.parametrize("name, argv", [
    ("homology_tables.py", ("--degree", "1", "--complexes", "sphere:2", "{doc}")),
    ("export_cover.py", ("{doc}", "--max-len", "2")),
], ids=["homology_tables", "export_cover"])
def test_non_simplicial_refused(capsys, monkeypatch, non_simplicial, name, argv):
    # homology_tables ended in a WordError traceback, and export_cover
    # printed covering=ok with exit 0
    argv = [a.format(doc=non_simplicial) for a in argv]
    code, _, err = run_script(capsys, monkeypatch, name, *argv)
    assert code == 2
    assert "not a simplicial set" in err and "d1 d2 != d1 d1 on 012" in err


@pytest.mark.parametrize("name, argv", [
    ("homology_tables.py", ("--degree", "-1")),
    ("export_cover.py", ("wedge:2", "--max-len", "-1")),
    ("run_suites.py", ("--samples", "-1")),
    ("run_suites.py", ("--cube-n", "-1")),
], ids=["degree", "max-len", "samples", "cube-n"])
def test_negative_count_refused(capsys, monkeypatch, name, argv):
    code, out, err = run_script(capsys, monkeypatch, name, *argv)
    assert code == 2 and out == ""
    assert "must be non-negative" in err
