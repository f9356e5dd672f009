"""End-to-end acceptance checks: exhaustive relation suites at cube scale,
differential and comparator properties on every fixture, known loop-space
homology tables, group and covering structure, and the exact-arithmetic
matrix backend -- each with a wall-clock budget."""

import random
import time
from contextlib import contextmanager

import pytest
from snf_oracles import minors_gcd_invariants

from loopspace.homology import homology, smith_normal_form
from loopspace.paths import cover_graph, covering_report
from loopspace.simplicial import wedge_of_circles
from loopspace.suites import (
    cubical_suite,
    dsq_suite,
    leibniz_suite,
    theorem2_suite,
)
from loopspace.words import (
    compose,
    enumerate_words,
    invert,
    random_reduced_word,
    unit,
)

FIXTURE_KEYS = ("sphere2", "sphere3", "bd2", "bd3", "wedge2")


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


class TestCriterion1RelationSuites:
    def test_exhaustive_and_random(self, fixtures):
        with budget(30):
            report = cubical_suite(None, cube_n=5)  # all cells, both flavours
            assert report["ok"], report["failures"][:3]
            cells = 0
            for key in FIXTURE_KEYS:
                rep = cubical_suite(fixtures[key], samples=105, seed=1, cube_n=2)
                assert rep["ok"], (key, rep["failures"][:3])
                cells += 2 * 105  # word cells + path cells
            assert cells >= 1000


class TestCriterion2Differential:
    def test_dsq_and_leibniz(self, fixtures):
        with budget(30):
            for key in FIXTURE_KEYS:
                rep = dsq_suite(fixtures[key], samples=1000, seed=2)
                assert rep["ok"], (key, rep["failures"][:3])
                rep = leibniz_suite(fixtures[key], samples=1000, seed=3)
                assert rep["ok"], (key, rep["failures"][:3])


class TestCriterion3Comparator:
    def test_all_fixtures_both_variants(self, fixtures):
        with budget(60):
            for key in FIXTURE_KEYS:
                rep = theorem2_suite(fixtures[key], max_degree=4, max_length=4)
                assert rep["ok"], (key, rep["failures"][:3])


class TestCriterion4Sphere2Homology:
    def test_all_degrees_are_Z(self, fixtures):
        with budget(5):
            table = homology(fixtures["sphere2"], 6, "normalized", 7)
            for g in table.groups:
                assert (g.free_rank, g.torsion) == (1, ()), g


class TestCriterion5Sphere3Homology:
    def test_even_Z_odd_zero(self, fixtures):
        with budget(5):
            table = homology(fixtures["sphere3"], 8, "normalized", 5)
            for g in table.groups:
                want = 1 if g.degree % 2 == 0 else 0
                assert (g.free_rank, g.torsion) == (want, ()), g


class TestCriterion6Group:
    def test_group_axioms_random(self):
        rng = random.Random(4)
        for r in (1, 2, 3):
            zx = wedge_of_circles(r).z_extension()
            e = unit("x0")
            for _ in range(60):
                u = random_reduced_word(zx, rng, "x0", 0, 4)
                v = random_reduced_word(zx, rng, "x0", 0, 4)
                w = random_reduced_word(zx, rng, "x0", 0, 4)
                assert compose(zx, compose(zx, u, v), w) == compose(
                    zx, u, compose(zx, v, w))
                assert compose(zx, u, e) == u and compose(zx, e, u) == u
                assert compose(zx, u, invert(zx, u)) == e

    def test_reduced_word_counts(self):
        for r in (1, 2, 3):
            zx = wedge_of_circles(r).z_extension()
            for k in range(1, 7):
                ball = len(enumerate_words(zx, 0, k, "x0", "x0"))
                smaller = len(enumerate_words(zx, 0, k - 1, "x0", "x0"))
                assert ball - smaller == 2 * r * (2 * r - 1) ** (k - 1), (r, k)

    def test_triangle_ball_is_powers_of_alpha(self, fixtures):
        zx = fixtures["bd2"]
        from loopspace.fileformat import parse_word

        alpha = parse_word(zx, "02;12^op;01^op")
        powers = {unit("0")}
        pos = neg = unit("0")
        for _ in range(3):  # 2*floor(9/3)+1 = 7 elements
            pos = compose(zx, pos, alpha)
            neg = compose(zx, neg, invert(zx, alpha))
            powers.add(pos)
            powers.add(neg)
        ball = set(enumerate_words(zx, 0, 9, "0", "0"))
        assert ball == powers
        assert len(ball) == 7


class TestCriterion7Covering:
    def test_wedge_tree(self, fixtures):
        zx = fixtures["wedge2"]
        graph = cover_graph(zx, max_length=5)
        rep = covering_report(zx, graph)
        assert rep["vertices"] == 2 * 3 ** 5 - 1 == 485
        assert rep["connected"] and rep["tree"] and rep["ok"]

    def test_triangle_line(self, fixtures):
        zx = fixtures["bd2"]
        graph = cover_graph(zx, max_length=6)
        rep = covering_report(zx, graph)
        assert rep["connected"] and rep["ok"]
        degrees = [0] * graph.vertex_count
        for cell, src, tgt in graph.edges:
            degrees[src] += 1
            degrees[tgt] += 1
        max_len = max(len(v.tail.letters) for v in graph.vertices)
        for v, degree in zip(graph.vertices, degrees):
            if len(v.tail.letters) < max_len:  # away from the truncation
                assert degree == 2, v


class TestCriterion8SmithNormalForm:
    def test_against_minors_oracle(self):
        with budget(60):
            rng = random.Random(8)
            for _ in range(200):
                m, n = rng.randint(1, 6), rng.randint(1, 6)
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
                assert smith_normal_form(rows) == minors_gcd_invariants(rows), rows
