import random

import pytest
from hypothesis import given, settings, strategies as st
from word_oracles import orbit_minimum, reduce_word

from loopspace.simplicial import sphere_quotient, wedge_of_circles
from loopspace.words import (
    LoopWord,
    WordError,
    canonical,
    compose,
    degeneracy_slots,
    enumerate_words,
    invert,
    letter_pool,
    power_decompose,
    random_reduced_word,
    unit,
    word_degeneracy,
    word_face,
)


def random_raw_word(zx, rng, max_letters=3, max_degens=2):
    """A composable word with degeneracies sprinkled on the letters."""
    pool = letter_pool(zx)
    at = zx.basepoint
    letters = []
    for _ in range(rng.randrange(1, max_letters + 1)):
        options = [t for t in pool if zx.endpoints(t)[0] == at]
        if not options:
            break
        t = options[rng.randrange(len(options))]
        for _ in range(rng.randrange(max_degens + 1)):
            t = zx.degenerate(t, rng.randrange(t.dim + 1))
        letters.append(t)
        at = zx.endpoints(t)[1]
    return tuple(letters)


class TestReduce:
    def test_unit_letter_absorbed(self, fixtures):
        zx = fixtures["wedge2"]
        a = zx.term("a1")
        pad = zx.degenerate(zx.term("x0"), 0)
        w = reduce_word(zx, (a, pad, zx.term("a2")))
        assert [t.generator.name for t in w.letters] == ["a1", "a2"]

    def test_inverse_pair_cancels(self, fixtures):
        zx = fixtures["wedge2"]
        a = zx.term("a1")
        w = reduce_word(zx, (a, zx.op(a)))
        assert w == unit("x0")

    def test_nested_cancellation(self, fixtures):
        zx = fixtures["wedge2"]
        a1, a2 = zx.term("a1"), zx.term("a2")
        w = reduce_word(zx, (a1, a2, zx.op(a2), zx.op(a1)))
        assert w == unit("x0")


class TestCanonical:
    def test_unit_degeneracy_tower_is_not_unit(self, fixtures):
        zx = fixtures["wedge2"]
        e1 = word_degeneracy(zx, unit("x0"), 1)
        w = canonical(zx, e1.letters, "x0")
        assert w.degree == 1 and len(w.letters) == 1
        assert w.letters[0].generator.name == "x0"

    def test_vertex_collapse_dissolves_into_neighbour(self, fixtures):
        zx = fixtures["wedge2"]
        a = zx.term("a1")
        vc = zx.degenerate(zx.degenerate(zx.term("x0"), 0), 0)  # degree 1
        w = canonical(zx, (vc, a), "x0")
        assert len(w.letters) == 1
        assert w.letters[0].degens == (0,)
        assert w.letters[0].generator.name == "a1"

    def test_hidden_cancellation_behind_shift(self, fixtures):
        zx = fixtures["wedge2"]
        a = zx.term("a1")
        sa = zx.degenerate(zx.degenerate(a, 0), 1)  # s1.s0.a1
        w = canonical(zx, (sa, zx.op(a)), "x0")
        # after shifting the duplicates off the junction the pair cancels,
        # leaving a pure-duplicate word
        assert len(w.letters) == 1
        assert w.letters[0].generator.name == "x0"
        assert w.degree == 2

    def test_junction_duplicates_assigned_right(self, fixtures):
        zx = fixtures["wedge2"]
        a1, a2 = zx.term("a1"), zx.term("a2")
        left = (zx.degenerate(a1, 1), a2)  # top degeneracy on the left letter
        right = (a1, zx.degenerate(a2, 0))  # inner s0 on the right letter
        assert canonical(zx, left, "x0") == canonical(zx, right, "x0")
        assert canonical(zx, left, "x0").letters[1].degens == (0,)

    def test_unchanged_letters_are_reused(self, fixtures):
        # rebuilding equal letters instead costs memory on long words
        zx = fixtures["bd3"]
        t, u = zx.degenerate(zx.term("013"), 1), zx.term("03^op")
        w = canonical(zx, (t, u), "0")
        assert w.letters[0] is t and w.letters[1] is u
        # a copy of the junction vertex moves to the right-hand letter
        moved = canonical(zx, (zx.degenerate(t, 3), u), "0")
        assert moved.letters == (t, zx.degenerate(u, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from(["wedge2", "sphere2"]))
    def test_canonical_matches_orbit_minimum(self, fixtures, seed, key):
        zx = fixtures[key]
        rng = random.Random(seed)
        letters = random_raw_word(zx, rng)
        if not letters:
            return
        a = canonical(zx, letters, zx.basepoint)
        b = orbit_minimum(zx, letters, zx.basepoint)
        # same class: identical canonical forms
        assert a == canonical(zx, b.letters, b.start)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_canonical_idempotent_and_face_stable(self, fixtures, seed):
        zx = fixtures["wedge2"]
        rng = random.Random(seed)
        letters = random_raw_word(zx, rng)
        if not letters:
            return
        w = canonical(zx, letters, zx.basepoint)
        assert canonical(zx, w.letters, w.start) == w


class TestFacesAndDegeneracies:
    def test_face_face_interchange(self, fixtures):
        rng = random.Random(7)
        for key in ("wedge2", "sphere2", "sphere3", "bd3"):
            zx = fixtures[key]
            for _ in range(60):
                letters = random_raw_word(zx, rng)
                if not letters:
                    continue
                w = canonical(zx, letters, zx.basepoint)
                n = w.degree
                for j in range(1, n + 1):
                    for i in range(1, j):
                        for eps in (0, 1):
                            for om in (0, 1):
                                assert (
                                    word_face(zx, word_face(zx, w, j, om), i, eps)
                                    == word_face(zx, word_face(zx, w, i, eps), j - 1, om)
                                ), (w, i, j, eps, om)

    def test_degeneracy_slot_count(self, fixtures):
        zx = fixtures["wedge2"]
        w = canonical(zx, (zx.term("a1"), zx.term("a2")), "x0")
        assert degeneracy_slots(w) == 3
        assert degeneracy_slots(unit("x0")) == 2

    def test_face_out_of_range(self, fixtures):
        zx = fixtures["wedge2"]
        w = canonical(zx, (zx.term("a1"),), "x0")
        with pytest.raises(WordError):
            word_face(zx, w, 1, 1)  # degree 0: no faces


class TestGroup:
    def test_counts_free_group_ball(self, fixtures):
        zx = fixtures["wedge2"]
        # 1 + sum over k<=K of 2r(2r-1)^(k-1), r = 2
        for K in range(1, 5):
            words = enumerate_words(zx, 0, K, "x0", "x0")
            expected = 1 + sum(4 * 3 ** (k - 1) for k in range(1, K + 1))
            assert len(words) == expected

    def test_compose_invert_roundtrip(self, fixtures):
        zx = fixtures["wedge2"]
        rng = random.Random(1)
        for _ in range(50):
            w = random_reduced_word(zx, rng, "x0", "x0", 0, 5)
            assert compose(zx, w, invert(zx, w)) == unit("x0")
            assert compose(zx, invert(zx, w), w) == unit("x0")

    def test_power_decompose(self, fixtures):
        zx = fixtures["wedge2"]
        a1 = canonical(zx, (zx.term("a1"),), "x0")
        cube = compose(zx, compose(zx, a1, a1), a1)
        root, k = power_decompose(zx, cube)
        assert (root, k) == (a1, 3)
        assert power_decompose(zx, unit("x0"))[1] == 0

    def test_triangle_loop_powers(self, fixtures):
        zx = fixtures["bd2"]
        from loopspace.fileformat import parse_word

        alpha = parse_word(zx, "02;12^op;01^op")
        sq = compose(zx, alpha, alpha)
        root, k = power_decompose(zx, sq)
        assert root == alpha and k == 2
