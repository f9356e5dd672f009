import random

import pytest

from loopspace.chains import add_into
from loopspace.cobar import (
    CobarError,
    CobarMonomial,
    aw_reduced,
    cobar_boundary,
    compare_theorem2,
    d_A,
    extend_monomial,
    extended_boundary,
    group_ring_letter,
    hat_reduce,
    letter_is_zero,
    monomial,
)
from loopspace.simplicial import (
    GeneratorId,
    SimplexTerm,
    SimplicialPresentation,
    wedge_of_circles,
)
from loopspace.words import enumerate_words


def wedge_with_relator():
    """Two circles a1, a2 with a 2-cell whose boundary reads a1.a1.a2."""
    x0 = GeneratorId("x0", 0)
    a1, a2 = GeneratorId("a1", 1), GeneratorId("a2", 1)
    r = GeneratorId("r", 2)
    v = SimplexTerm(x0, (1,))
    faces = {
        "a1": (v, v),
        "a2": (v, v),
        # d0 = back edge, d1 = long edge, d2 = front edge
        "r": (SimplexTerm(a2, (1, 1)), SimplexTerm(a1, (1, 1)), SimplexTerm(a1, (1, 1))),
    }
    return SimplicialPresentation("wedge2+r", [x0, a1, a2, r], faces, "x0").z_extension()


class TestLetters:
    def test_zero_letters(self, fixtures):
        zx = fixtures["sphere2"]
        v = zx.term("x0")
        assert letter_is_zero(zx.degenerate(v, 0), "de")
        assert not letter_is_zero(zx.degenerate(zx.term("sigma"), 1), "de")
        assert letter_is_zero(zx.degenerate(zx.term("sigma"), 1), "normalized")
        assert not letter_is_zero(zx.term("sigma"), "de")

    def test_hat_reduce_cancels_inverse_pairs(self, fixtures):
        zx = fixtures["bd2"]
        a = zx.term("01")
        assert hat_reduce(zx, (a, zx.op(a))) == ()
        assert hat_reduce(zx, (a, zx.op(a), a)) == (a,)
        # degenerate edges do not cancel
        sa = zx.degenerate(a, 1)
        assert len(hat_reduce(zx, (sa, zx.op(a)))) == 2

    def test_monomial_vanishes_on_zero_letter(self, fixtures):
        zx = fixtures["sphere2"]
        z = zx.degenerate(zx.term("x0"), 0)
        assert monomial(zx, (zx.term("sigma"), z)) is None


class TestDifferentials:
    def test_d_A_on_triangle(self, fixtures):
        zx = fixtures["bd3"]
        t = zx.term("012")
        assert d_A(zx, t) == {zx.term("02"): -1}

    def test_d_A_on_edge_and_sphere_cell(self, fixtures):
        assert d_A(fixtures["bd3"], fixtures["bd3"].term("01")) == {}
        # both interior faces of sigma are degenerate vertices
        assert d_A(fixtures["sphere2"], fixtures["sphere2"].term("sigma")) == {}

    def test_aw_reduced_splittings(self, fixtures):
        zx = fixtures["bd3"]
        t = zx.term("012")
        assert aw_reduced(zx, t) == [(zx.term("01"), zx.term("12"))]
        zx4 = fixtures["sphere3"]  # need a 3-simplex: use boundary of Delta^3's filler
        from loopspace.simplicial import standard_simplex

        zd = standard_simplex(3)
        s = zd.term("0123")
        assert aw_reduced(zd, s) == [
            (zd.term("01"), zd.term("123")),
            (zd.term("012"), zd.term("23")),
        ]

    def test_cobar_d_squared_zero(self, fixtures):
        rng = random.Random(13)
        for key in ("sphere2", "sphere3", "bd3", "wedge2"):
            zx = fixtures[key]
            for variant in ("de", "normalized"):
                for degree in (1, 2, 3):
                    for w in enumerate_words(zx, degree, 3, zx.basepoint, zx.basepoint):
                        m = monomial(zx, w.letters, variant)
                        if m is None or m.letters != w.letters:
                            continue
                        acc = {}
                        for mono, c in cobar_boundary(zx, m, variant).items():
                            for m2, c2 in cobar_boundary(zx, mono, variant).items():
                                add_into(acc, m2, c * c2)
                        assert acc == {}, (key, variant, m)


class TestComparator:
    @pytest.mark.parametrize("variant", ["de", "normalized"])
    @pytest.mark.parametrize("key", ["sphere2", "sphere3", "bd2", "bd3", "wedge2"])
    def test_fixtures_agree(self, fixtures, key, variant):
        report = compare_theorem2(fixtures[key], 3, 3, variant)
        assert report["ok"], report["mismatches"][:3]
        if key not in ("bd2", "wedge2"):  # no cells above dimension 1
            assert report["checked"] > 0

    @pytest.mark.parametrize("variant", ["de", "normalized"])
    def test_relator_complex_agrees(self, variant):
        report = compare_theorem2(wedge_with_relator(), 3, 3, variant)
        assert report["ok"], report["mismatches"][:3]
        assert report["checked"] > 0


class TestExtended:
    def test_group_letters_reduce(self):
        zx = wedge_of_circles(2).z_extension()
        g = group_ring_letter(zx, ("a1", "a1^op", "a2"))
        assert g.word == ("a2",)
        with pytest.raises(CobarError):
            group_ring_letter(zx, ("x0",))

    def test_extend_merges_edge_runs(self):
        zx = wedge_with_relator()
        m = CobarMonomial((zx.term("a1"), zx.term("a2"), zx.term("r"), zx.term("a1")))
        e = extend_monomial(zx, m)
        assert len(e.slots) == 3
        assert e.slots[0].word == ("a1", "a2")
        assert e.slots[1] == zx.term("r")
        assert e.degree == 1

    def test_requires_single_vertex(self, fixtures):
        with pytest.raises(CobarError):
            extend_monomial(fixtures["bd2"], CobarMonomial(()))

    def test_inverse_pair_collapses_to_unit(self):
        zx = wedge_of_circles(2).z_extension()
        m = monomial(zx, (zx.term("a1"), zx.term("a1^op")))
        assert m is not None and m.letters == ()
        assert extend_monomial(zx, m).slots[0].word == ()

    def test_extended_boundary_of_relator(self):
        zx = wedge_with_relator()
        out = extended_boundary(zx, CobarMonomial((zx.term("r"),)))
        # d2 contributes [a1 | a2.a1... ] splittings merged into group letters;
        # d_A contributes the long edge a1.a1... every term has degree 0
        assert out
        for e, c in out.items():
            assert e.degree == 0 and c in (1, -1)
