import random
from pathlib import Path

import pytest

from loopspace import cobar as cobar_module
from loopspace.chains import add_into, boundary_word
from loopspace.cobar import (
    CobarError,
    aw_reduced,
    cobar_boundary,
    compare_theorem2,
    d_A,
    hat_reduce,
    letter_is_zero,
    monomial,
)
from loopspace.fileformat import load_complex
from loopspace.simplicial import (
    GeneratorId,
    SimplexTerm,
    SimplicialPresentation,
    boundary_simplex,
)
from loopspace.suites import theorem2_suite
from loopspace.words import enumerate_words

DATA = Path(__file__).resolve().parent.parent / "data"


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
        # s_0 x0 is the unit, in both variants; its degeneracies vanish
        zx = fixtures["sphere2"]
        unit_letter = zx.degenerate(zx.term("x0"), 0)
        for variant in ("de", "normalized"):
            assert not letter_is_zero(unit_letter, variant)
            assert letter_is_zero(zx.degenerate(unit_letter, 0), variant)
        assert not letter_is_zero(zx.degenerate(zx.term("sigma"), 1), "de")
        assert letter_is_zero(zx.degenerate(zx.term("sigma"), 1), "normalized")
        assert not letter_is_zero(zx.term("sigma"), "de")
        with pytest.raises(CobarError, match="unknown variant 'dee'"):
            letter_is_zero(zx.term("sigma"), "dee")

    def test_hat_reduce_cancels_inverse_pairs(self, fixtures):
        zx = fixtures["bd2"]
        a = zx.term("01")
        assert hat_reduce(zx, (a, zx.op(a))) == ()
        assert hat_reduce(zx, (a, zx.op(a), a)) == (a,)
        # degenerate edges do not cancel
        sa = zx.degenerate(a, 1)
        assert len(hat_reduce(zx, (sa, zx.op(a)))) == 2
        # and stay in place, keeping the pair on either side apart
        assert hat_reduce(zx, (a, sa, zx.op(a))) == (a, sa, zx.op(a))
        assert hat_reduce(zx, (a, sa, zx.op(a), a, zx.op(a))) == (a, sa, zx.op(a))

    def test_monomial_drops_unit_letters(self, fixtures):
        zx = fixtures["sphere2"]
        sigma, unit_letter = zx.term("sigma"), zx.degenerate(zx.term("x0"), 0)
        # the unit letter is dropped, not zero
        assert monomial(zx, (sigma, unit_letter)) == (sigma,)
        # and so lets the inverse pair around it cancel
        zx = fixtures["bd2"]
        a = zx.term("01")
        unit_letter = zx.degenerate(zx.term(zx.endpoints(a)[1]), 0)
        assert monomial(zx, (a, unit_letter, zx.op(a))) == ()


class TestDifferentials:
    def test_d_A_on_triangle(self, fixtures):
        zx = fixtures["bd3"]
        t = zx.term("012")
        assert d_A(zx, t, "de") == {zx.term("02"): -1}

    def test_d_A_on_edge_and_sphere_cell(self, fixtures):
        assert d_A(fixtures["bd3"], fixtures["bd3"].term("01"), "de") == {}
        # the interior face of sigma is the unit letter s_0 x0, which
        # cancels against sigma's splitting into two unit letters
        zx = fixtures["sphere2"]
        sigma, unit_letter = zx.term("sigma"), zx.degenerate(zx.term("x0"), 0)
        for variant in ("de", "normalized"):
            assert d_A(zx, sigma, variant) == {unit_letter: -1}
            assert cobar_boundary(zx, (sigma,), variant) == {}

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
                        m = monomial(zx, w.letters)
                        if m != w.letters:
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
    @pytest.mark.parametrize("n, words", [(3, 32), (4, 288)])
    def test_every_listed_word_is_checked(self, variant, n, words):
        zx = boundary_simplex(n).z_extension()
        base = zx.basepoint
        listed = sum(len(enumerate_words(zx, d, 4, base, base)) for d in range(1, 5))
        report = compare_theorem2(zx, 4, 4, variant)
        assert report["ok"] and report["checked"] == listed == words

    def test_sign_flip_is_a_mismatch(self, fixtures, monkeypatch):
        # with the cobar side negated, every word whose boundary is not 0
        # is reported, with twice its chain-side boundary as the difference
        def flipped(zx, m, variant="de"):
            return {k: -c for k, c in cobar_boundary(zx, m, variant).items()}

        monkeypatch.setattr(cobar_module, "cobar_boundary", flipped)
        zx = fixtures["bd3"]
        report = compare_theorem2(zx, 3, 3, "de")
        base = zx.basepoint
        want = []
        for d in range(1, 4):
            for w in enumerate_words(zx, d, 3, base, base):
                chain = boundary_word(zx, w, "de")
                if chain:
                    want.append((str(w), {str(f): 2 * c for f, c in
                                          sorted(chain.items(), key=lambda kv: str(kv[0]))}))
        assert want and report["mismatches"] == want
        assert not report["ok"]

    @pytest.mark.parametrize("document, degree, words", [
        ("moore2", 6, 64), ("susp-rp2", 4, 2470),
    ], ids=["moore2", "susp-rp2"])
    def test_shipped_documents_agree(self, document, degree, words):
        # both documents have faces s_0 x, which each side takes as the unit
        zx = load_complex(DATA / f"{document}.json").z_extension()
        report = theorem2_suite(zx, degree, degree)
        assert report["ok"], report["failures"]
        assert report["words_checked"] == words

    @pytest.mark.parametrize("variant", ["de", "normalized"])
    def test_relator_complex_agrees(self, variant):
        report = compare_theorem2(wedge_with_relator(), 3, 3, variant)
        assert report["ok"], report["mismatches"][:3]
        assert report["checked"] > 0

