"""The one face/degeneracy relation checker: its per-row counts, and that
it reports a wrong model."""

import json
import random
from collections import Counter
from functools import cache, partial
from pathlib import Path

import pytest
from cell_operators import path_degeneracy_raw, path_degeneracy_slots, path_face_raw, word_face_raw

from loopspace import suites
from loopspace.chains import VARIANTS, boundary_chain, boundary_word, is_killed, leibniz_defect, multiply
from loopspace.paths import PathCell, cube_cells, path_canonical
from loopspace.simplicial import SimplicialPresentation, boundary_simplex, standard_simplex
from loopspace.suites import (
    _Recorder,
    _check_cell,
    _check_relations,
    _pad,
    _path_model,
    _word_model,
    cubical_suite,
    dsq_suite,
    leibniz_suite,
    random_loop_cells,
    random_path_cells,
    theorem2_suite,
)
from loopspace.words import (
    canonical,
    compose,
    degeneracy_slots,
    unit,
    word_degeneracy,
    word_face,
)

# per-row counts recorded from the three per-model checkers it replaced
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cubical_rows.json").read_text())
# full reports of the wrong models below, recorded when the checker built
# each of the checked cell's operators as a row asked for it, as its
# per-cell caches do
WRONG_MODELS = json.loads((Path(__file__).parent / "golden" / "wrong_models.json").read_text())
# the reports of the differential suites on the benchmark fixtures, recorded
# when they took d of each sampled word afresh every time they needed it
DIFFERENTIAL = json.loads((Path(__file__).parent / "golden" / "differential_suites.json").read_text())


class TestRowCounts:
    def test_cube_cells(self):
        report = cubical_suite(None, cube_n=3)
        assert report["ok"] and report["checks"] == GOLDEN["none"]

    @pytest.mark.parametrize("key", ["sphere2", "sphere3", "bd2", "bd3", "wedge2"])
    def test_fixture(self, fixtures, key):
        report = cubical_suite(fixtures[key], samples=20, seed=1, cube_n=1)
        assert report["ok"] and report["checks"] == GOLDEN[key]

    def test_benchmark_cube(self):
        # the cube step of the check-suites benchmark
        report = cubical_suite(None, cube_n=5)
        assert report["ok"] and sum(report["checks"].values()) == 22_410


def _logged(m, c):
    """m with a log of its normal-form inputs, and of the face and
    degeneracy indices it is asked for on the beads of the cell c."""
    log = {"face": [], "degeneracy": [], "normal": []}
    ops = m.beads(c)[1]

    def face_raw(x, i, eps):
        if x == ops:
            log["face"].append((i, eps))
        return m.face_raw(x, i, eps)

    def degeneracy_raw(x, j):
        if x == ops:
            log["degeneracy"].append(j)
        return m.degeneracy_raw(x, j)

    def normal(*args):
        log["normal"].append(args)
        return m.normal(*args)

    return m._replace(face_raw=face_raw, degeneracy_raw=degeneracy_raw, normal=normal), log


def _cube_logs(tag, n, model):
    """Check the cells of cubical_suite(None, cube_n=3) one at a time, each
    with its own logged model; the (cell, log) pairs."""
    delta = standard_simplex(n)
    m = model(delta)
    rec = _Recorder()
    out = []
    for _, c in cube_cells(delta, tag == "cube-aug"):
        logged, log = _logged(m, c)
        _check_relations(logged, [c], rec, tag)
        out.append((c, log))
    rows = {k: v for k, v in GOLDEN["none"].items() if k.rsplit("-", 1)[0] == tag}
    assert rec.report()["ok"] and rec.counts == rows
    return out


CUBE_MODELS = [("cube", 4, _word_model), ("cube-aug", 3, _path_model)]


class TestNormalMemo:
    @pytest.mark.parametrize("tag, n, model", CUBE_MODELS)
    def test_one_normal_form_per_raw_input(self, tag, n, model):
        for c, log in _cube_logs(tag, n, model):
            assert log["normal"] and len(log["normal"]) == len(set(log["normal"])), c


class TestOperatorTable:
    # the normal-form inputs stay distinct on the same runs (TestNormalMemo)
    @pytest.mark.parametrize("tag, n, model", CUBE_MODELS)
    def test_each_operator_on_the_cell_once(self, tag, n, model):
        for c, log in _cube_logs(tag, n, model):
            assert len(log["face"]) == len(set(log["face"])), c
            assert len(log["degeneracy"]) == len(set(log["degeneracy"])), c


def _failed_rows(model, cells, tag):
    rec = _Recorder()
    _check_relations(model, cells, rec, tag)
    report = rec.report()
    assert report["ok"] == (not report["failed"])
    return set(report["failed"])


def _word_cases(zx, cells, tag):
    model = _word_model(zx)

    # slot j duplicates position j - 2 in place of j - 1 (slot 1 stays)
    def degeneracy(beads, j):
        return model.degeneracy_raw(beads, max(j - 1, 1))

    # face coordinate i acts at coordinate degree + 1 - i
    def face(beads, i, eps):
        return model.face_raw(beads, sum(t.dim - 1 for t in beads) + 1 - i, eps)

    return model, degeneracy, face, cells, tag


def _cube_cases():
    delta = standard_simplex(4)
    return _word_cases(delta, [c for _, c in cube_cells(delta, False)], "cube")


def _random_cases(zx):
    return _word_cases(zx, random_loop_cells(zx, random.Random(1), 20), "word")


def _wrong_models(cases):
    """The wrong models of a case: its wrong degeneracy, its wrong face, a
    degeneracy that always uses slot 1, and one that keeps the degree."""
    model, degeneracy, face, _, _ = cases
    return {
        "degeneracy": model._replace(degeneracy_raw=degeneracy),
        "face": model._replace(face_raw=face),
        "slot_one": model._replace(degeneracy_raw=lambda beads, j: model.degeneracy_raw(beads, 1)),
        "degree": model._replace(degeneracy_raw=lambda beads, j: beads),
    }


def _report(model, cells, tag, cap=10_000, one_at_a_time=False):
    """The checker's report on the draws, rendering up to cap failures (by
    default every one); with one_at_a_time, each draw is checked by a call
    of its own, into the same recorder."""
    rec = _Recorder()
    rec.MAX_FAILURES = cap
    for batch in ([c] for c in cells) if one_at_a_time else [cells]:
        _check_relations(model, batch, rec, tag)
    report = rec.report()
    return {k: report[k] for k in ("checks", "failed", "failures")}


@pytest.fixture(params=["cube", "word-sphere2", "word-bd3"])
def case(request, fixtures):
    if request.param == "cube":
        return _cube_cases()
    return _random_cases(fixtures[request.param.split("-")[1]])


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

    def test_wrong_degree(self, case):
        # a degeneracy of the wrong degree fails its -dim row, and the rows
        # that address its copies are skipped
        _, _, _, cells, tag = case
        report = _report(_wrong_models(case)["degree"], cells, tag)
        assert report["failed"] == {f"{tag}-dim": report["checks"][f"{tag}-dim"]}
        assert not any(k.endswith(("-A", "-B", "-Id", "-F", "-EE")) for k in report["checks"])

    @pytest.mark.parametrize("name", ["cube", "word-bd3"])
    def test_raising_model(self, fixtures, name):
        # a degeneracy that always uses slot 1 sends some later face index
        # out of range; the checker records the cell and goes on
        cases = _cube_cases() if name == "cube" else _random_cases(fixtures["bd3"])
        _, _, _, cells, tag = cases
        report = _report(_wrong_models(cases)["slot_one"], cells, tag)
        assert 1 < report["failed"][f"{tag}-error"] < len(cells)
        errors = [f for f in report["failures"] if f.startswith(f"{tag}-error: ")]
        assert all("out of range" in f for f in errors)
        assert {f.split(" ")[1] for f in errors} <= {str(c) for c in cells}  # names the cell


class TestWrongModelReports:
    # every row, pass or fail, and every failure in order, so that how the
    # checker builds and caches the checked cell's operators moves no row
    # past a raise
    @pytest.mark.parametrize("name", ["cube", "word-bd3"])
    @pytest.mark.parametrize("kind", ["degeneracy", "face", "slot_one"])
    def test_pinned(self, fixtures, name, kind):
        cases = _cube_cases() if name == "cube" else _random_cases(fixtures["bd3"])
        _, _, _, cells, tag = cases
        report = _report(_wrong_models(cases)[kind], cells, tag)
        assert report == WRONG_MODELS[f"{name}/{kind}"]


class TestEmptyTail:
    @pytest.mark.parametrize("n", [2, 3])
    def test_unpadded_path_cells(self, n):
        # every path cell of Delta^n: a tail ending at t runs in the face on
        # 0..t, so these are the augmented cube cells of each Delta^t; the
        # empty-tail ones, such as (012 | e), have no unit letter to address
        cells = [c for t in range(n + 1) for _, c in cube_cells(standard_simplex(t), True)]
        assert any(not c.tail.letters and c.base.dim == n for c in cells)
        rec = _Recorder()
        _check_relations(_path_model(standard_simplex(n)), cells, rec, "path")
        report = rec.report()
        assert report["ok"] and "path-error" not in report["checks"], report["failures"]


def _bead_cases(fixtures, augmented):
    """Each complex with cells to run the bead operators on: the cube cells
    of Delta^3, and random cells of the five fixtures, with the unit word
    or an unpadded empty-tail path cell added."""
    delta = standard_simplex(3)
    yield delta, [c for _, c in cube_cells(delta, augmented)]
    for zx in fixtures.values():
        rng, v = random.Random(5), zx.basepoint
        if augmented:
            yield zx, random_path_cells(zx, rng, 40) + [PathCell(zx.term(v), unit(v))]
        else:
            yield zx, random_loop_cells(zx, rng, 40) + [unit(v)]


def _outcome(op, *args):
    """What op returns, or the type and text of the ValueError it raises."""
    try:
        return "gives", op(*args)
    except ValueError as exc:
        return "raises", type(exc), str(exc)


class TestBeadOperators:
    # the checker runs the models' operators on beads; the public ones act
    # on cells.  They agree on every index, one past each end included, and
    # the model's normal form of a raw face is the public face
    def test_words(self, fixtures):
        units = 0
        for zx, cells in _bead_cases(fixtures, False):
            m = _word_model(zx)
            for w in cells:
                own, ops, at = m.beads(w)
                units += not own
                assert own == w.letters and m.normal(own, at) == canonical(zx, w.letters, w.start)
                for i in range(w.degree + 2):
                    for eps in (0, 1):
                        got = _outcome(m.face_raw, ops, i, eps)
                        assert got == _outcome(lambda: word_face_raw(zx, w, i, eps).letters), (w, i, eps)
                        if got[0] == "gives":
                            assert m.normal(got[1], at) == word_face(zx, w, i, eps)
                for j in range(degeneracy_slots(w) + 2):
                    got = _outcome(m.degeneracy_raw, ops, j)
                    assert got == _outcome(lambda: word_degeneracy(zx, w, j).letters), (w, j)
        assert units >= 5

    def test_path_cells(self, fixtures):
        def beads(c):
            return (c.base, *c.tail.letters)

        empty = 0
        for zx, cells in _bead_cases(fixtures, True):
            m = _path_model(zx)
            for c in cells:
                own, ops, at = m.beads(c)
                empty += not c.tail.letters
                assert own == ops == beads(c) and m.normal(own, at) == path_canonical(zx, *c)
                for i in range(c.degree + 2):
                    for eps in (0, 1):
                        got = _outcome(m.face_raw, ops, i, eps)
                        assert got == _outcome(lambda: beads(path_face_raw(zx, c, i, eps))), (c, i, eps)
                        if got[0] == "gives":
                            assert m.normal(got[1], at) == path_canonical(zx, *path_face_raw(zx, c, i, eps))
                for j in range(path_degeneracy_slots(c) + 2):
                    got = _outcome(m.degeneracy_raw, ops, j)
                    assert got == _outcome(lambda: beads(path_degeneracy_raw(zx, c, j))), (c, j)
        assert empty >= 6


def _cli_default_cells(zx):
    """The random word and path cells of ``check --suite cubical`` at its
    defaults (samples=120, seed=0), as cubical_suite draws them."""
    rng = random.Random(0)
    words = random_loop_cells(zx, rng, 120)
    return words, [_pad(zx, c) for c in random_path_cells(zx, rng, 120)]


class TestRepeatedDraws:
    # a cell drawn more than once is checked once and its rows replayed
    # for each later draw; the report is the one of checking every draw
    @pytest.mark.parametrize("key", ["sphere2", "sphere3", "bd2", "bd3", "wedge2"])
    def test_random_cells(self, fixtures, key):
        zx = fixtures[key]
        models = ((_word_model(zx), "word"), (_path_model(zx), "path"))
        for (model, tag), cells in zip(models, _cli_default_cells(zx)):
            assert len(set(cells)) < len(cells)
            report = _report(model, cells, tag)
            assert not report["failed"] and report == _report(model, cells, tag, one_at_a_time=True)

    # the repeated cells of word-bd3 pass every row; those of word-sphere2
    # and of the bd3 words at the command-line defaults fail some
    @pytest.mark.parametrize("name", ["word-bd3", "word-sphere2", "defaults-bd3"])
    @pytest.mark.parametrize("kind", ["degeneracy", "face", "slot_one"])
    @pytest.mark.parametrize("cap", [_Recorder.MAX_FAILURES, 10_000])
    def test_wrong_models(self, fixtures, name, kind, cap):
        source, key = name.split("-")
        zx = fixtures[key]
        if source == "word":
            cases = _random_cases(zx)
        else:
            cases = _word_cases(zx, _cli_default_cells(zx)[0], "word")
        cells, tag = cases[3], cases[4]
        assert len(set(cells)) < len(cells)
        model = _wrong_models(cases)[kind]
        report = _report(model, cells, tag, cap)
        assert report["failed"] and report == _report(model, cells, tag, cap, one_at_a_time=True)
        assert len(report["failures"]) == min(cap, sum(report["failed"].values()))

    @pytest.mark.parametrize("key", ["sphere3", "wedge2"])
    def test_own_faces_built_once(self, fixtures, monkeypatch, key):
        # across all draws of a cell, each of its own faces is built once
        zx = fixtures[key]
        checked = []

        def check_cell(m, c, *rest):
            checked.append(c)
            return _check_cell(m, c, *rest)

        monkeypatch.setattr(suites, "_check_cell", check_cell)
        for model, cells in zip((_word_model(zx), _path_model(zx)), _cli_default_cells(zx)):
            built = []

            def face_raw(x, i, eps, m=model):
                if x == m.beads(checked[-1])[1]:
                    built.append((x, i, eps))
                return m.face_raw(x, i, eps)

            checked.clear()
            _check_relations(model._replace(face_raw=face_raw), cells, _Recorder(), "t")
            assert len(checked) == len(set(checked)) and set(checked) == set(cells)
            assert built and len(built) == len(set(built))


class TestNormalCalls:
    @staticmethod
    def _spied(monkeypatch):
        calls = []
        for name in ("_word_model", "_path_model"):
            def spied(zx, model=getattr(suites, name)):
                m = model(zx)

                def normal(*args):
                    calls.append(args)
                    return m.normal(*args)

                return m._replace(normal=normal)

            monkeypatch.setattr(suites, name, spied)
        return calls

    # a row normalizes its two sides only when they differ as raw cells,
    # and a repeated draw is checked once; the parent checker normalized
    # both sides of every row of every draw: 1 161 calls on the cube, and
    # 2 226 with the sphere:2 samples
    @pytest.mark.parametrize("key, total", [(None, 333), ("sphere2", 722)])
    def test_pinned(self, fixtures, monkeypatch, key, total):
        calls = self._spied(monkeypatch)
        if key is None:
            report = cubical_suite(None, cube_n=3)
        else:
            report = cubical_suite(fixtures[key], 20, 1, cube_n=1)
        assert report["ok"] and report["checks"] == GOLDEN[key or "none"]
        assert len(calls) == total

    @pytest.mark.parametrize("name", ["cube", "word-bd3"])
    def test_raising_normal(self, fixtures, name):
        # each cell still normalizes itself, so a normal form that always
        # raises gives one error row per draw and no other row
        cases = _cube_cases() if name == "cube" else _random_cases(fixtures["bd3"])
        model, cells, tag = cases[0], cases[3], cases[4]

        def normal(*args):
            raise ValueError("no normal form")

        report = _report(model._replace(normal=normal), cells, tag)
        assert report["checks"] == report["failed"] == {f"{tag}-error": len(cells)}


def _memo_runs(fixtures):
    """The checker calls the simplex memo is tested on, as (zx, cells, tag,
    build), build(zx) making the call's model: the cube cells of Delta^4
    and the augmented ones of Delta^3, the random word and path cells of
    the five fixtures at the command-line defaults, and each wrong model
    on the cube words and on the random words of each fixture."""
    runs = []
    for n, aug, model, tag in ((4, False, _word_model, "cube"), (3, True, _path_model, "cube-aug")):
        delta = standard_simplex(n)
        runs.append((delta, [c for _, c in cube_cells(delta, aug)], tag, model))
    for zx in fixtures.values():
        words, paths = _cli_default_cells(zx)
        runs += [(zx, words, "word", _word_model), (zx, paths, "path", _path_model)]
    wrong = [runs[0][:3]] + [(zx, random_loop_cells(zx, random.Random(1), 20), "word")
                             for zx in fixtures.values()]
    for zx, cells, tag in wrong:
        for kind in ("degeneracy", "face", "slot_one", "degree"):
            def build(zx, cells=cells, tag=tag, kind=kind):
                return _wrong_models(_word_cases(zx, cells, tag))[kind]
            runs.append((zx, cells, tag, build))
    return runs


class TestSimplexMemo:
    # a checker model takes each face, split and degeneracy of a single
    # simplex from the presentation once, and hands every later request
    # of its checker call the same answer
    @staticmethod
    def _spied(monkeypatch):
        reached = Counter()
        for name in ("face", "split", "degenerate"):
            def spied(zx, t, i, name=name, original=getattr(SimplicialPresentation, name)):
                reached[name, t, i] += 1
                return original(zx, t, i)

            monkeypatch.setattr(SimplicialPresentation, name, spied)
        return reached

    def test_each_operator_reaches_the_presentation_once(self, fixtures, monkeypatch):
        runs = _memo_runs(fixtures)  # the random cells take degeneracies
        reached = self._spied(monkeypatch)
        for zx, cells, tag, build in runs:
            reached.clear()
            report = _report(build(zx), cells, tag)
            assert reached and max(reached.values()) == 1, (zx.name, tag, reached.most_common(1))
            assert report["checks"]
        # the memo is the model's: a second call, with a model of its own,
        # takes every one of them from the presentation again
        zx, cells, tag, build = runs[2]
        reached.clear()
        for _ in range(2):
            _report(build(zx), cells, tag)
        assert reached and set(reached.values()) == {2}

    def test_report_of_the_uncached_operators(self, fixtures, monkeypatch):
        # the same runs on models that take every simplex operator from the
        # presentation, partial(necklace_face, zx) and the like; a wrong
        # model still records its error row on every cell it raises on
        runs = _memo_runs(fixtures)
        cached = [_report(build(zx), cells, tag) for zx, cells, tag, build in runs]
        monkeypatch.setattr(suites, "_memo", lambda zx: zx)
        assert _word_model(runs[0][0]).face_raw.args == (runs[0][0],)
        errors = 0
        for (zx, cells, tag, build), report in zip(runs, cached):
            assert report == _report(build(zx), cells, tag), (zx.name, tag)
            errors += report["failed"].get(f"{tag}-error", 0)
        assert errors > 10


def _pinned_fields(report, *extra):
    out = {k: report[k] for k in ("checks", "failed", "ok", *extra)}
    if report.get("vacuous"):
        out["vacuous"] = True
    return out


class TestDifferentialSuites:
    @pytest.mark.parametrize("key", ["sphere2", "sphere3", "bd2", "bd3", "wedge2"])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_pinned(self, fixtures, key, seed):
        zx = fixtures[key]
        assert _pinned_fields(dsq_suite(zx, 300, seed=seed), "samples") == DIFFERENTIAL[f"dsq {key} {seed}"]
        assert _pinned_fields(leibniz_suite(zx, 300, seed=seed), "samples") == DIFFERENTIAL[f"leibniz {key} {seed}"]

    def test_pinned_theorem2(self):
        report = theorem2_suite(boundary_simplex(4).z_extension(), 4, 4)
        assert _pinned_fields(report, "words_checked") == DIFFERENTIAL["theorem2 bd4"]

    @pytest.mark.parametrize("suite, seed, distinct", [(dsq_suite, 2, 16), (leibniz_suite, 3, 47)])
    def test_boundary_once_per_call(self, fixtures, monkeypatch, suite, seed, distinct):
        # the samples repeat words: a suite call takes d of each distinct
        # (word, variant) once, where it took it 330 times
        zx = fixtures["sphere2"]
        asked = []

        def spy(zx, w, variant):
            asked.append((w, variant))
            return boundary_word(zx, w, variant)

        monkeypatch.setattr(suites, "boundary_word", spy)
        assert suite(zx, 300, seed=seed)["ok"]
        assert len(asked) == len(set(asked)) == distinct
        # no boundary outlives its call: a second call takes them all again
        suite(zx, 300, seed=seed)
        assert len(asked) == 2 * distinct and set(asked[distinct:]) == set(asked[:distinct])

    def test_cached_chains_stay_unchanged(self, fixtures):
        # a cached d hands the same dict to every caller, so no caller may
        # change one: each chain it hands out must still equal its first copy
        zx = fixtures["bd3"]
        cached, mul = cache(partial(boundary_word, zx)), cache(partial(compose, zx))
        handed = {}

        def d(w, variant):
            ch = cached(w, variant)
            handed.setdefault((w, variant), (ch, dict(ch)))
            return ch

        words = sorted(set(random_loop_cells(zx, random.Random(4), 200)))
        for variant in VARIANTS:
            live = [w for w in words if not is_killed(w, variant)]
            for u, v in zip(live, live[1:] + live[:1]):
                boundary_chain(d(u, variant), variant, d)
                multiply(d(u, variant), d(v, variant), variant, mul)
                leibniz_defect(u, v, variant, d, mul)
        assert len(handed) > 50 and sum(bool(first) for _, first in handed.values()) > 20
        for key, (ch, first) in handed.items():
            assert ch == first, key
