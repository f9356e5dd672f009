import random
from functools import cache, partial

import pytest

from loopspace.chains import (
    ChainError,
    add_into,
    boundary_chain,
    boundary_word,
    chain_of,
    is_killed,
    leibniz_defect,
    multiply,
)
from loopspace.words import canonical, compose, unit, word_degeneracy


def cached_operators(zx):
    """d of a word and the product of two words over zx, cached as the
    suites cache them."""
    return cache(partial(boundary_word, zx)), cache(partial(compose, zx))


def sigma_loop(zx, copies=1):
    return canonical(zx, (zx.term("sigma"),) * copies, "x0")


class TestRings:
    def test_chain_arithmetic(self, fixtures):
        zx = fixtures["sphere2"]
        w = sigma_loop(zx)
        acc = chain_of(w)
        add_into(acc, w, 2)
        assert acc == {w: 3}
        add_into(acc, w, -3)
        assert acc == {}


class TestKillRules:
    def test_normalized_kills_all_degenerate(self, fixtures):
        zx = fixtures["sphere2"]
        w = word_degeneracy(zx, sigma_loop(zx), 1)
        assert is_killed(w, "normalized")
        assert not is_killed(sigma_loop(zx), "normalized")

    def test_unit_never_killed(self):
        assert not is_killed(unit("x0"), "de")
        assert not is_killed(unit("x0"), "normalized")
        # the variant is checked before the degree, so the unit does not hide a typo
        with pytest.raises(ChainError, match="unknown variant 'dee'"):
            is_killed(unit("x0"), "dee")

    def test_de_kills_unit_degeneracies_only(self, fixtures):
        zx = fixtures["sphere2"]
        tower = word_degeneracy(zx, unit("x0"), 1)  # lone vertex-collapse
        assert is_killed(tower, "de")
        # an interior duplicate of sigma survives in the de quotient
        s1 = canonical(zx, (zx.degenerate(zx.term("sigma"), 1),), "x0")
        assert not is_killed(s1, "de")
        # but a word ending in a top degeneracy is in the ideal
        top = canonical(zx, (zx.degenerate(zx.term("sigma"), 2),), "x0")
        assert is_killed(top, "de")
        inner = canonical(
            zx, (zx.term("sigma"), zx.degenerate(zx.term("sigma"), 0)), "x0")
        assert is_killed(inner, "de")

    def test_de_kill_set_is_an_ideal(self, fixtures):
        from loopspace.words import compose

        rng = random.Random(3)
        for key in ("sphere2", "wedge2"):
            zx = fixtures[key]
            from tests.test_words import random_raw_word

            for _ in range(200):
                u = canonical(zx, random_raw_word(zx, rng) or
                              (zx.degenerate(zx.term(zx.basepoint), 0),), zx.basepoint)
                z = word_degeneracy(zx, unit(zx.basepoint), 1)
                assert is_killed(compose(zx, u, z), "de"), u
                assert is_killed(compose(zx, z, u), "de"), u


class TestBoundary:
    def test_sphere_generator_boundary_vanishes(self, fixtures):
        zx = fixtures["sphere2"]
        for variant in ("de", "normalized"):
            assert boundary_word(zx, sigma_loop(zx), variant) == {}
            assert boundary_word(zx, sigma_loop(zx, 2), variant) == {}

    def test_triangle_word_boundary(self, fixtures):
        zx = fixtures["bd3"]
        w = canonical(zx, (zx.term("012"), zx.term("02^op")), "0")
        d = boundary_word(zx, w, "normalized")
        # degree 1 word: one face coordinate, two faces
        assert len(d) == 2 and set(d.values()) == {1, -1}
        for f in d:
            assert f.degree == 0

    def test_d_squared_zero(self, fixtures):
        rng = random.Random(9)
        from tests.test_words import random_raw_word

        for key in ("sphere2", "sphere3", "bd3", "wedge2"):
            zx = fixtures[key]
            d, _ = cached_operators(zx)
            for variant in ("de", "normalized"):
                for _ in range(60):
                    letters = random_raw_word(zx, rng)
                    if not letters:
                        continue
                    w = canonical(zx, letters, zx.basepoint)
                    if is_killed(w, variant):
                        continue
                    dd = boundary_chain(d(w, variant), variant, d)
                    assert dd == {}, (key, variant, w)


class TestProduct:
    def test_unit_is_identity(self, fixtures):
        zx = fixtures["sphere2"]
        v = chain_of(sigma_loop(zx))
        e = chain_of(unit("x0"))
        _, mul = cached_operators(zx)
        assert multiply(e, v, "de", mul) == v
        assert multiply(v, e, "de", mul) == v

    def test_concatenation(self, fixtures):
        zx = fixtures["sphere2"]
        _, mul = cached_operators(zx)
        out = multiply(chain_of(sigma_loop(zx)), chain_of(sigma_loop(zx)), "de", mul)
        assert out == chain_of(sigma_loop(zx, 2))

    def test_leibniz(self, fixtures):
        from loopspace.suites import random_loop_cells

        rng = random.Random(21)
        for key in ("sphere2", "bd3", "wedge2"):
            zx = fixtures[key]
            d, mul = cached_operators(zx)
            for variant in ("de", "normalized"):
                cells = random_loop_cells(zx, rng, 120)
                for u, v in zip(cells[::2], cells[1::2]):
                    if is_killed(u, variant) or is_killed(v, variant):
                        continue
                    assert leibniz_defect(u, v, variant, d, mul) == {}, (
                        key, variant, u, v)


class TestQuotientMap:
    def test_projection_is_chain_map(self, fixtures):
        # the normalized quotient factors through the de quotient: projecting
        # the de boundary to nondegenerate words agrees with the normalized one
        rng = random.Random(5)
        from tests.test_words import random_raw_word

        for key in ("sphere2", "bd3"):
            zx = fixtures[key]
            for _ in range(80):
                letters = random_raw_word(zx, rng)
                if not letters:
                    continue
                w = canonical(zx, letters, zx.basepoint)
                if is_killed(w, "normalized"):
                    continue
                de = boundary_word(zx, w, "de")
                projected = {f: c for f, c in de.items()
                             if not is_killed(f, "normalized")}
                assert projected == boundary_word(zx, w, "normalized")
