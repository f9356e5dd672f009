import random

import pytest
from hypothesis import given, settings, strategies as st
from word_oracles import orbit_minimum, reduce_word

from loopspace.simplicial import (
    GeneratorId,
    SimplexTerm,
    SimplicialError,
    boundary_simplex,
    from_facets,
    sphere_quotient,
    wedge_of_circles,
)
from loopspace.words import (
    LoopWord,
    WordError,
    canonical,
    compose,
    degeneracy_slots,
    enumerate_words,
    invert,
    power_decompose,
    random_reduced_word,
    unit,
    word_degeneracy,
    word_face,
)


def random_raw_word(zx, rng, max_letters=3, max_degens=2):
    """A composable word with degeneracies sprinkled on the letters."""
    at = zx.basepoint
    letters = []
    for _ in range(rng.randrange(1, max_letters + 1)):
        options = zx.letters_from.get(at)
        if not options:
            break
        t, at = options[rng.randrange(len(options))]
        for _ in range(rng.randrange(max_degens + 1)):
            t = zx.degenerate(t, rng.randrange(t.dim + 1))
        letters.append(t)
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


class TestRefusals:
    """``canonical`` checks every letter and junction in the same pass that
    normalizes the word; a wrong declared start is reported after them."""

    @pytest.mark.parametrize("names, message", [
        (("12", "03"), "word not composable at 03: 2 != 0"),
        (("12", "2"), "letter 2 must have dimension >= 1"),
        (("12", "23"), "declared start 0 does not match word start 1"),
    ])
    def test_precedence(self, fixtures, names, message):
        zx = fixtures["bd3"]
        with pytest.raises(WordError, match=message):
            canonical(zx, tuple(zx.term(n) for n in names), "0")

    def test_unknown_generator(self, fixtures):
        zx = fixtures["bd3"]
        stray = SimplexTerm(GeneratorId("nowhere", 1), (1, 1))
        for letters in ((stray,), (zx.term("01"), stray)):
            with pytest.raises(SimplicialError, match="unknown generator 'nowhere'"):
                canonical(zx, letters, "0")
        with pytest.raises(WordError, match="the empty word needs a start vertex"):
            canonical(zx, ())


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
            w = random_reduced_word(zx, rng, "x0", 0, 5)
            assert compose(zx, w, invert(zx, w)) == unit("x0")
            assert compose(zx, invert(zx, w), w) == unit("x0")
        bd2 = fixtures["bd2"]
        edge = canonical(bd2, (bd2.term("01"),), "0")
        with pytest.raises(WordError, match="cannot compose: 1 != 0"):
            compose(bd2, edge, edge)
        sphere2 = fixtures["sphere2"]
        with pytest.raises(WordError, match="letter sigma is not an invertible edge"):
            invert(sphere2, canonical(sphere2, (sphere2.term("sigma"),), "x0"))
        # S^0: no edge path joins the other vertex to the basepoint
        s0 = boundary_simplex(1).z_extension()
        with pytest.raises(WordError, match="no edge path joins 1 to the basepoint 0"):
            random_reduced_word(s0, rng, "1", 0, 3)

    def test_random_word_falls_back_on_the_tree_path(self):
        # on the boundary of Delta^8 a vertex starts hundreds of letters, and
        # the 60 draws from 7 at seed 192 all miss the basepoint
        class Counting(random.Random):
            draws = 0

            def randint(self, a, b):
                self.draws += 1
                return super().randint(a, b)

        zx = boundary_simplex(8).z_extension()
        rng = Counting(192)
        w = random_reduced_word(zx, rng, "7", 3, 3)
        assert rng.draws == 60
        assert w == LoopWord((zx.term("07^op"),), "7", "0") and zx.home["7"] == (w.letters[0], "0")
        assert w.degree == 0 and w == canonical(zx, w.letters) and w.end == zx.basepoint
        # from the basepoint the path home is the unit: on the path 0-1-2,
        # every draw of length 2 ends at 2
        class Longest(random.Random):
            def randint(self, a, b):
                return b

        chain = from_facets([["0", "1"], ["1", "2"]], "chain").z_extension()
        assert random_reduced_word(chain, Longest(0), "0", 0, 2) == unit("0")

    def test_power_decompose(self, fixtures):
        zx = fixtures["wedge2"]
        a1 = canonical(zx, (zx.term("a1"),), "x0")
        cube = compose(zx, compose(zx, a1, a1), a1)
        root, k = power_decompose(zx, cube)
        assert (root, k) == (a1, 3)
        assert power_decompose(zx, unit("x0"))[1] == 0
        sphere2 = fixtures["sphere2"]
        with pytest.raises(WordError, match="has degree 1, not a group element"):
            power_decompose(sphere2, canonical(sphere2, (sphere2.term("sigma"),), "x0"))

    @pytest.mark.parametrize("key, max_length, count",
                             [("wedge2", 6, 1457), ("wedge3", 4, 937), ("bd3", 8, 181)])
    def test_power_decompose_brute_force(self, fixtures, key, max_length, count):
        # every degree-0 loop of the ball against the root of the largest
        # exponent found by composing each loop with itself; the ball holds
        # conjugates of proper powers, whose roots do not divide their length
        zx = fixtures[key] if key in fixtures else wedge_of_circles(3).z_extension()
        ball, roots = brute_force_roots(zx, max_length)
        assert len(ball) == count
        assert any(k > 1 and len(w.letters) % len(r.letters) for w, (r, k) in roots.items())
        for w in ball:
            assert power_decompose(zx, w) == roots[w], w

    def test_triangle_loop_powers(self, fixtures):
        zx = fixtures["bd2"]
        from loopspace.fileformat import parse_word

        alpha = parse_word(zx, "02;12^op;01^op")
        sq = compose(zx, alpha, alpha)
        root, k = power_decompose(zx, sq)
        assert root == alpha and k == 2
        # primitive: its first letter is no loop, and 2 does not divide its length 3
        assert power_decompose(zx, alpha) == (alpha, 1)


def brute_force_roots(zx, max_length):
    """The degree-0 loops at the basepoint of length <= max_length, and each
    with its root of the largest exponent: every nonempty loop of the ball
    is composed with itself until its power leaves the ball."""
    ball = enumerate_words(zx, 0, max_length, zx.basepoint, zx.basepoint)
    e = unit(zx.basepoint)
    roots = {e: (e, 0)}
    for r in ball:
        if not r.letters:
            continue
        power, k = r, 1
        while len(power.letters) <= max_length:  # a nonempty loop's powers grow
            if k > roots.get(power, (None, 0))[1]:
                roots[power] = (r, k)
            power, k = compose(zx, power, r), k + 1
    return ball, roots
