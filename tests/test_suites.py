"""The one face/degeneracy relation checker: its per-row counts, and that
it reports a wrong model."""

import json
import random
from pathlib import Path

import pytest

from loopspace.cubes import all_cells, dup_degeneracy, dup_face
from loopspace.suites import (
    _CUBE,
    _Recorder,
    _check_relations,
    _word_model,
    cubical_suite,
    random_loop_cells,
)
from loopspace.words import word_degeneracy, word_face_raw

# per-row counts recorded from the three per-model checkers it replaced
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cubical_rows.json").read_text())


class TestRowCounts:
    def test_cube_cells(self):
        report = cubical_suite(None, cube_n=3)
        assert report["ok"] and report["checks"] == GOLDEN["none"]

    @pytest.mark.parametrize("key", ["sphere2", "sphere3", "bd2", "bd3", "wedge2"])
    def test_fixture(self, fixtures, key):
        report = cubical_suite(fixtures[key], samples=20, seed=1, cube_n=1)
        assert report["ok"] and report["checks"] == GOLDEN[key]


def _failed_rows(model, cells, tag):
    rec = _Recorder()
    _check_relations(model, cells, rec, tag)
    report = rec.report()
    assert report["ok"] == (not report["failed"])
    return set(report["failed"])


def _cube_cases():
    # slot j duplicates position j - 2 in place of j - 1 (slot 1 stays)
    def degeneracy(d, j):
        return dup_degeneracy(d, max(j - 1, 1))

    # face coordinate i acts at coordinate dim + 1 - i
    def face(d, i, eps):
        return dup_face(d, d.dim + 1 - i, eps)

    return _CUBE, degeneracy, face, all_cells(4), "cube"


def _word_cases(zx):
    model = _word_model(zx)

    def degeneracy(w, j):
        return word_degeneracy(zx, w, max(j - 1, 1))

    def face(w, i, eps):
        return word_face_raw(zx, w, w.degree + 1 - i, eps)

    return model, degeneracy, face, random_loop_cells(zx, random.Random(1), 20), "word"


@pytest.fixture(params=["cube", "word-sphere2", "word-bd3"])
def case(request, fixtures):
    if request.param == "cube":
        return _cube_cases()
    return _word_cases(fixtures[request.param.split("-")[1]])


class TestCheckerFails:
    # the sound models pass on the same cells (TestRowCounts: cube_n=3 and
    # the word cells of samples=20, seed=1)
    def test_wrong_degeneracy(self, case):
        model, degeneracy, _, cells, tag = case
        failed = _failed_rows(model._replace(degeneracy_raw=degeneracy), cells, tag)
        assert {f"{tag}-A", f"{tag}-F", f"{tag}-Id"} <= failed

    def test_wrong_face(self, case):
        model, _, face, cells, tag = case
        failed = _failed_rows(model._replace(face_raw=face), cells, tag)
        assert {f"{tag}-A", f"{tag}-B", f"{tag}-Id"} <= failed

    @pytest.mark.parametrize("name", ["cube", "word-bd3"])
    def test_raising_model(self, fixtures, name):
        # a degeneracy that always uses slot 1 sends some later face index
        # out of range; the checker records the cell and goes on
        model, _, _, cells, tag = _cube_cases() if name == "cube" else _word_cases(fixtures["bd3"])
        slot_one = model._replace(degeneracy_raw=lambda c, j: model.degeneracy_raw(c, 1))
        rec = _Recorder(max_failures=10_000)
        _check_relations(slot_one, cells, rec, tag)
        report = rec.report()
        assert 1 < report["failed"][f"{tag}-error"] < len(cells)
        errors = [f for f in report["failures"] if f.startswith(f"{tag}-error: ")]
        assert all("out of range" in f for f in errors)
        assert {f.split(" ")[1] for f in errors} <= {str(c) for c in cells}  # names the cell
