import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from simplex_oracles import (
    degeneracy_words,
    face_reference,
    normalize_degeneracies,
    push_degeneracy,
    term_from_word,
)

from loopspace.simplicial import (
    GeneratorId,
    SimplexTerm,
    SimplicialError,
    SimplicialPresentation,
    boundary_simplex,
    from_facets,
    sphere_quotient,
    standard_simplex,
    wedge_of_circles,
)
from loopspace.fileformat import load_complex

DATA = Path(__file__).resolve().parent.parent / "data"


def apply_degeneracies(zx, t, raw):
    """s_{raw[-1]} ... s_{raw[0]} t, each index clamped to the dimension."""
    for j in raw:
        t = zx.degenerate(t, min(j, t.dim))
    return t


class TestDegeneracyWords:
    @given(st.lists(st.integers(0, 6), max_size=8))
    def test_normal_form_strictly_increasing(self, raw):
        zx = standard_simplex(2)
        t = apply_degeneracies(zx, zx.term("01"), raw)
        word = t.degens
        assert list(word) == sorted(set(word)) == sorted(word)
        assert len(word) == len(raw) and t.dim == 1 + len(raw)

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=6))
    def test_application_order_irrelevant(self, raw):
        # applying s_j one at a time gives the term of the canonical word,
        # and the derived word is that canonical word
        zx = standard_simplex(3)
        g = zx.generators["012"]
        clamped = [min(j, g.dim + k) for k, j in enumerate(raw)]
        t = apply_degeneracies(zx, zx.term("012"), clamped)
        word = normalize_degeneracies(clamped)
        assert t == term_from_word(g, word)
        assert t.degens == word

    def test_known_rewrite(self):
        # s_0 then s_0 again: s_0 s_0 = s_1 s_0
        zx = standard_simplex(1)
        v = apply_degeneracies(zx, zx.term("0"), [0, 0])
        assert v.mult == (3,) and v.degens == (0, 1)
        e = apply_degeneracies(zx, zx.term("01"), [1, 0])
        assert e.mult == (2, 2) and e.degens == (0, 2)


class TestBuilders:
    def test_standard_simplex_counts(self):
        zx = standard_simplex(3)
        assert [len(zx.generators_of_dim(d)) for d in range(4)] == [4, 6, 4, 1]

    def test_boundary_simplex_counts(self):
        zx = boundary_simplex(3)
        assert [len(zx.generators_of_dim(d)) for d in range(3)] == [4, 6, 4]
        assert zx.max_dim == 2

    def test_sphere_quotient_shape(self):
        zx = sphere_quotient(2)
        assert len(zx.generators) == 2
        t = zx.term("sigma")
        for i in range(3):
            f = zx.face(t, i)
            assert f.generator.name == "x0" and f.dim == 1

    def test_wedge_faces(self):
        zx = wedge_of_circles(2)
        a = zx.term("a1")
        assert zx.endpoints(a) == ("x0", "x0")

    def test_from_facets_rejects_disorder(self):
        with pytest.raises(SimplicialError):
            from_facets([["1", "0"], ["0", "1"]])

    def test_validate_all_builders(self):
        for zx in (standard_simplex(3), boundary_simplex(3), sphere_quotient(3),
                   wedge_of_circles(3)):
            assert zx.validate() == []
            assert zx.z_extension().validate() == []


class TestOperators:
    def test_simplicial_identity_on_degenerate_terms(self):
        zx = boundary_simplex(3)
        rng = random.Random(0)
        for _ in range(300):
            name = rng.choice(list(zx.generators))
            t = zx.term(name)
            for _ in range(rng.randrange(3)):
                t = zx.degenerate(t, rng.randrange(t.dim + 1))
            if t.dim < 2:
                continue
            j = rng.randrange(1, t.dim + 1)
            i = rng.randrange(j)
            assert zx.face(zx.face(t, j), i) == zx.face(zx.face(t, i), j - 1)

    def test_face_past_degeneracy_identity_cases(self):
        zx = standard_simplex(2)
        t = zx.degenerate(zx.term("012"), 1)  # s1.012, dim 3
        assert zx.face(t, 1) == zx.term("012")
        assert zx.face(t, 2) == zx.term("012")

    def test_endpoints_of_degenerate(self):
        zx = boundary_simplex(2)
        t = zx.degenerate(zx.term("01"), 0)
        assert zx.endpoints(t) == ("0", "1")


class TestFaceOracle:
    """``face`` and ``degenerate`` on vertex multiplicities against the
    recursive d_i s_j rewrite on degeneracy words (``simplex_oracles``)."""

    def presentations(self):
        docs = sorted(DATA.glob("*.json"))
        assert docs
        built = [boundary_simplex(3), boundary_simplex(4), sphere_quotient(3), sphere_quotient(4)]
        return built + [load_complex(p) for p in docs]

    def test_every_term_with_three_degeneracies(self):
        faces = 0
        for zx in self.presentations():
            for g in zx.generators.values():
                for word in degeneracy_words(g, 3):
                    t = term_from_word(g, word)
                    assert t.degens == word and t.dim == g.dim + len(word)
                    assert t.is_nondegenerate == (not word)
                    for j in range(t.dim + 1):
                        want = term_from_word(g, push_degeneracy(word, j))
                        assert zx.degenerate(t, j) == want, (zx.name, t, j)
                    for i in range(t.dim + 1 if t.dim else 0):
                        w, h = face_reference(zx, word, g, i)
                        assert zx.face(t, i) == term_from_word(h, w), (zx.name, t, i)
                        faces += 1
        assert faces > 4000

    def test_out_of_range(self):
        zx = sphere_quotient(2)
        t = zx.degenerate(zx.term("sigma"), 1)
        for bad in (-1, 4):
            with pytest.raises(SimplicialError):
                zx.face(t, bad)
            with pytest.raises(SimplicialError):
                zx.degenerate(t, bad)
        with pytest.raises(SimplicialError, match="dimension >= 1"):
            zx.face(zx.term("x0"), 0)


def walk_endpoints(zx, t):
    """First and last vertex of t by iterated last and zeroth faces
    (reference for the endpoint table)."""
    lo = t
    while lo.dim > 0:
        lo = zx.face(lo, lo.dim)
    hi = t
    while hi.dim > 0:
        hi = zx.face(hi, 0)
    return lo.generator.name, hi.generator.name


class TestEndpointTable:
    def presentations(self, fixtures):
        docs = sorted(DATA.glob("*.json"))
        assert docs
        return list(fixtures.values()) + [load_complex(p) for p in docs]

    def test_matches_face_walk(self, fixtures):
        # every generator and every canonical degenerate term with up to three
        # degeneracies; sphere:n is here because its faces are degenerate
        for zx in self.presentations(fixtures):
            for name in zx.generators:
                layer = {zx.term(name)}
                for _ in range(4):
                    for t in layer:
                        assert zx.endpoints(t) == walk_endpoints(zx, t), (zx.name, t)
                    layer = {zx.degenerate(t, j) for t in layer for j in range(t.dim + 1)}

    def test_unknown_generator(self, fixtures):
        zx = fixtures["sphere2"]
        for dim in (0, 1):
            with pytest.raises(SimplicialError):
                zx.endpoints(SimplexTerm(GeneratorId("nowhere", dim), (1,) * (dim + 1)))


class TestEdgeInversion:
    def test_op_boundary_swap(self):
        zx = boundary_simplex(2).z_extension()
        a = zx.term("01")
        b = zx.op(a)
        assert b.generator.name == "01^op"
        assert zx.face(b, 0) == zx.face(a, 1)
        assert zx.face(b, 1) == zx.face(a, 0)

    def test_op_is_involution(self):
        zx = boundary_simplex(2).z_extension()
        a = zx.term("01")
        assert zx.op(zx.op(a)) == a

    def test_double_extension_rejected(self):
        zx = boundary_simplex(2).z_extension()
        with pytest.raises(SimplicialError):
            zx.z_extension()

    def test_rejects_malformed_tables(self):
        x0 = GeneratorId("v", 0)
        a = GeneratorId("a", 1)
        with pytest.raises(SimplicialError):
            SimplicialPresentation("bad", [x0, a], {"a": (SimplexTerm(x0, (1,)),)}, "v")
