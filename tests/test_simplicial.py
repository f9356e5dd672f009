import copy
import itertools
import pickle
import random
import re
from pathlib import Path

import pytest
from cell_operators import path_degeneracy_raw, path_degeneracy_slots, path_face_raw, word_face_raw
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
    _push,
    boundary_simplex,
    from_facets,
    sphere_quotient,
    standard_simplex,
    wedge_of_circles,
)
from loopspace.fileformat import load_complex, load_facets
from loopspace.paths import PathCell, cube_cells, path_canonical
from loopspace.suites import random_loop_cells, random_path_cells
from loopspace.words import LoopWord, canonical, degeneracy_slots, word_degeneracy

DATA = Path(__file__).resolve().parent.parent / "data"

# complexes whose generators' faces and splits are read straight off the
# tables, and whether each is built from facets (a simplex named by its vertices)
NONDEGENERATE_CASES = [
    pytest.param(lambda: standard_simplex(6), True, id="delta6"),
    pytest.param(lambda: boundary_simplex(5), True, id="boundary-delta5"),
    pytest.param(lambda: load_complex(DATA / "susp-rp2.json"), False, id="susp-rp2"),
]


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
            from_facets([["1", "0"], ["0", "1"]], "complex")
        with pytest.raises(SimplicialError, match="n must be >= 0"):
            standard_simplex(-1)

    def test_simplex_names_keep_apart(self):
        # with per-simplex naming, the edge on 1 and 2 and the vertex 12 were
        # both named '12', and both complexes were refused as duplicates
        zx = from_facets([["0", "1", "2"], ["0", "2", "12"]], "complex")
        assert {"1,2", "12", "0,2,12"} <= set(zx.generators)
        assert zx.validate() == []
        zx = standard_simplex(12)
        assert len(zx.generators) == 2 ** 13 - 1
        assert {"12", "1,2", "0,1,2,3,4,5,6,7,8,9,10,11,12"} <= set(zx.generators)
        # one-character vertex names are concatenated, as before
        assert "0123456789" in standard_simplex(9).generators
        with pytest.raises(SimplicialError, match="duplicate generator name 'a,b'"):
            from_facets([["a", "b"], ["a,b"]], "complex")

    def test_validate_all_builders(self):
        for zx in (standard_simplex(3), boundary_simplex(3), sphere_quotient(3),
                   wedge_of_circles(3)):
            assert zx.validate() == []
            assert zx.z_extension().validate() == []


def _facet_lines(path):
    return [body.split() for line in path.read_text().splitlines()
            if (body := line.split("#", 1)[0].strip())]


def _boundary_facets(n):
    """The n + 1 facets of the boundary of Delta^n, on one-letter vertices."""
    v = "abcdefghijklmnopqrstuvwxyz"[: n + 1]
    return [list(v[:i] + v[i + 1:]) for i in reversed(range(n + 1))]


def _listings(facets):
    """Facet lists of the complex whose distinct maximal facets are these,
    each seeing the vertices first in the same order: every facet three
    times, every face after the facets as its own line, and every simplex
    as its own line by size, smallest first (so each facet comes last)."""
    faces = list(dict.fromkeys(s for f in facets for r in range(1, len(f) + 1)
                               for s in itertools.combinations(f, r)))
    return {"repeated": [f for f in facets for _ in range(3)],
            "faces": facets + [list(s) for s in faces],
            "by-size": [list(s) for s in sorted(faces, key=len)]}


class TestFromFacets:
    @pytest.mark.parametrize("facets", [
        pytest.param(_facet_lines(DATA / "tetrahedron.facets"), id="tetrahedron"),
        pytest.param(_boundary_facets(4), id="boundary-delta4"),
        pytest.param(_boundary_facets(13), id="boundary-delta13"),
        pytest.param([["v0", "v1", "v2"], ["v2", "v3"], ["w0", "w1"], ["w1", "w2", "w3"]],
                     id="two-components"),
    ])
    def test_listing_oracle(self, facets):
        # a repeated facet, or one that is a face of another, adds nothing:
        # the same generators in the same order, face tables and basepoint
        want = from_facets(facets, "complex")
        for how, listing in _listings(facets).items():
            zx = from_facets(listing, "complex")
            assert list(zx.generators.values()) == list(want.generators.values()), how
            assert zx.faces == want.faces and zx.basepoint == want.basepoint, how

    @pytest.mark.parametrize("extra, accepted", [((), True), (("o",), True), (("o", "p"), False)],
                             ids=["16382", "16383", "16384"])
    def test_simplex_bound(self, extra, accepted):
        # the 14 facets of the boundary of Delta^13 give 2^14 - 2 distinct
        # simplices, and each lone vertex one more; a list is refused above
        # 2^14 - 1, what one facet of 14 vertices gives
        facets = _boundary_facets(13) + [[v] for v in extra]
        if accepted:
            assert len(from_facets(facets, "complex").generators) == 16382 + len(extra)
        else:
            with pytest.raises(SimplicialError, match="at most 16383 distinct simplices"):
                from_facets(facets, "complex")

    def test_enumeration_spy(self, monkeypatch):
        # a repeated or covered facet is enumerated once, largest first, and
        # a facet far above the bound is refused after 2^14 subsets, not
        # the 2^40 - 1 it has
        drawn = []
        combinations = itertools.combinations

        def spy(facet, r):
            for s in combinations(facet, r):
                drawn.append(s)
                yield s

        monkeypatch.setattr(itertools, "combinations", spy)
        zx = from_facets([["0", "1"], ["0", "1", "2"], ["0", "1", "2"], ["1", "2"]], "complex")
        assert len(zx.generators) == 7
        assert len(drawn) == len(set(drawn)) == 7
        drawn.clear()
        with pytest.raises(SimplicialError, match="at most 16383 distinct simplices"):
            from_facets([[f"v{k}" for k in range(40)]], "complex")
        assert len(drawn) == 2**14

    @pytest.mark.parametrize("facets", [[], [[]], [[], []]], ids=["no-facets", "empty-facet",
                                                                    "empty-facets"])
    def test_no_vertex_refused(self, facets):
        # each once raised IndexError, which is not a ValueError
        with pytest.raises(SimplicialError, match="a complex needs a facet with at least one vertex"):
            from_facets(facets, "complex")


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

    @pytest.mark.parametrize("build, from_facets", NONDEGENERATE_CASES)
    def test_nondegenerate_terms(self, build, from_facets):
        # a generator's face is its table entry; on a complex built from
        # facets it is also the simplex on the vertices but the i-th
        zx = build()
        for g in zx.generators.values():
            t = zx.term(g.name)
            for i in range(g.dim + 1 if g.dim else 0):
                w, h = face_reference(zx, (), g, i)
                assert zx.face(t, i) == term_from_word(h, w), (zx.name, t, i)
                if from_facets:
                    assert zx.face(t, i) == zx.term(g.name[:i] + g.name[i + 1:])

    def test_refusals_keep_their_messages(self):
        # on a nondegenerate term, which reads the table at once, and on a
        # degenerate one, which finds the vertex at the position first
        zx = sphere_quotient(2)
        for t in (zx.term("sigma"), zx.degenerate(zx.term("sigma"), 1)):
            for bad in (-1, t.dim + 1):
                with pytest.raises(SimplicialError, match=re.escape(
                        f"face index {bad} out of range for dimension {t.dim}")):
                    zx.face(t, bad)
                with pytest.raises(SimplicialError, match=re.escape(
                        f"split index {bad} out of range for dimension {t.dim}")):
                    zx.split(t, bad)
        for mult in ((1, 1), (1, 2)):
            t = SimplexTerm(GeneratorId("nowhere", 1), mult)
            with pytest.raises(SimplicialError, match="unknown generator 'nowhere'"):
                zx.face(t, 0)
            with pytest.raises(SimplicialError, match="unknown generator 'nowhere'"):
                zx.split(t, 0)

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

    def test_split_out_of_range(self):
        zx = sphere_quotient(2)
        t = zx.term("sigma")
        for bad in (-1, 3):
            with pytest.raises(SimplicialError,
                               match=re.escape(f"split index {bad} out of range for dimension 2")):
                zx.split(t, bad)
        with pytest.raises(SimplicialError, match="unknown generator 'nowhere'"):
            zx.split(SimplexTerm(GeneratorId("nowhere", 0), (1,)), 0)


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


def walk_split(zx, t, i):
    """Front i-face and back (dim - i)-face of t by iterated last and
    zeroth faces (reference for the split table)."""
    front, back = t, t
    while front.dim > i:
        front = zx.face(front, front.dim)
    while back.dim > t.dim - i:
        back = zx.face(back, 0)
    return front, back


def terms_with_copies(zx, most=3):
    """Every generator of zx and every degenerate term on it with up to
    ``most`` extra vertex copies."""
    for name in zx.generators:
        layer = {zx.term(name)}
        for _ in range(most + 1):
            yield from sorted(layer)
            layer = {zx.degenerate(t, j) for t in layer for j in range(t.dim + 1)}


class TestSplitTable:
    def test_matches_face_walk(self, fixtures):
        # sphere_quotient(n) is here because its faces are degenerate
        docs = sorted(DATA.glob("*.json"))
        assert docs
        built = [sphere_quotient(3), sphere_quotient(4)]
        pairs = 0
        for zx in list(fixtures.values()) + built + [load_complex(p) for p in docs]:
            for t in terms_with_copies(zx):
                for i in range(t.dim + 1):
                    assert zx.split(t, i) == walk_split(zx, t, i), (zx.name, t, i)
                    pairs += 1
        assert pairs > 2500

    @pytest.mark.parametrize("build, from_facets", NONDEGENERATE_CASES)
    def test_nondegenerate_terms(self, build, from_facets):
        # a generator's split is its table entry; on a complex built from
        # facets it is also the simplices on the vertices up to and from the i-th
        zx = build()
        for g in zx.generators.values():
            t = zx.term(g.name)
            for i in range(g.dim + 1):
                assert zx.split(t, i) == walk_split(zx, t, i) == zx._splits[g.name][i]
                if from_facets:
                    assert zx.split(t, i) == (zx.term(g.name[:i + 1]), zx.term(g.name[i:]))


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
        with pytest.raises(SimplicialError, match="unknown generator 'nowhere'"):
            zx.term("nowhere")
        with pytest.raises(SimplicialError, match="unknown generator 'nowhere'"):
            zx.face(SimplexTerm(GeneratorId("nowhere", 1), (1, 1)), 0)


class TestGeneratorRecords:
    def test_agree_with_endpoints_and_op_pairs(self, fixtures):
        # the one record per generator that the normal form reads per letter
        built = [sphere_quotient(2), sphere_quotient(3), boundary_simplex(2),
                 boundary_simplex(3), wedge_of_circles(2)]
        built += [load_complex(p) for p in sorted(DATA.glob("*.json"))]
        plain = [zx for zx in built if not zx.op_pairs]
        assert len(plain) > 5
        records = 0
        for zx in built + [zx.z_extension() for zx in plain] + list(fixtures.values()):
            assert set(zx._records) == set(zx.generators)
            for name, g in zx.generators.items():
                ends, inverse = zx._records[name]
                assert ends == zx.endpoints(zx.term(name)), (zx.name, name)
                assert inverse == zx.op_pairs.get(name), (zx.name, name)
                assert (inverse is None) == (not zx.has_op_partner(zx.term(name)))
                records += 1
        assert records > 100


class TestStoredDimension:
    """A simplex stores its dimension at construction; every operator, and
    ``_replace``, must hand back one whose dim is sum(mult) - 1."""

    def test_every_operator(self, fixtures):
        made = 0
        for zx in fixtures.values():
            for t in terms_with_copies(zx, 2):
                out = [t, t._replace(mult=(*t.mult[:-1], t.mult[-1] + 1)),
                       t._replace(generator=t.generator)]
                out += [zx.degenerate(t, j) for j in range(t.dim + 1)]
                out += [zx.face(t, i) for i in range(t.dim + 1) if t.dim]
                out += [half for i in range(t.dim + 1) for half in zx.split(t, i)]
                for f in zx.faces.get(t.generator.name, ()):
                    out += [_push(f, (1,) * k + (3,) + (1,) * (f.dim - k), f.dim + 2)
                            for k in range(f.dim + 1)]
                for x in out:
                    assert type(x) is SimplexTerm and x.dim == sum(x.mult) - 1, (zx.name, t, x)
                made += len(out)
        assert made > 2000

    def test_copies_keep_the_dimension(self, fixtures):
        # copy, deepcopy and pickle rebuild a simplex from __getnewargs__,
        # which must give __new__ its two fields, not the stored dim too
        for zx in fixtures.values():
            for t in terms_with_copies(zx, 2):
                for x in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
                    assert type(x) is SimplexTerm and x == t, (zx.name, t, x)
                    assert x.dim == sum(x.mult) - 1 == t.dim

    def test_cells_built_without_a_constructor_frame(self, fixtures):
        # the raw operators and normal forms build their cells, and their
        # letters, with tuple.__new__; each must equal, field for field and
        # type for type, the cell the public constructors build
        def spelled(x):
            if isinstance(x, tuple):
                return (type(x).__name__, *map(spelled, x))
            return x

        def public(x):
            if type(x) is SimplexTerm:
                return SimplexTerm(x.generator, x.mult)
            if type(x) is LoopWord:
                return LoopWord(tuple(map(public, x.letters)), x.start, x.end)
            return PathCell(public(x.base), public(x.tail))

        cases = [(zx, random_loop_cells(zx, random.Random(5), 30), random_path_cells(zx, random.Random(6), 30))
                 for zx in fixtures.values()]
        delta = standard_simplex(3)
        cases.append((delta, [c for _, c in cube_cells(delta, False)],
                      [c for _, c in cube_cells(delta, True)]))
        made = 0
        for zx, words, cells in cases:
            for w in words:
                out = [canonical(zx, w.letters, w.start)]
                out += [word_face_raw(zx, w, i, eps) for i in range(1, w.degree + 1) for eps in (0, 1)]
                out += [word_degeneracy(zx, w, j) for j in range(1, degeneracy_slots(w) + 1)]
                out += [canonical(zx, x.letters, x.start) for x in out[1:]]
                made += len(out)
                for x in out:
                    assert spelled(x) == spelled(public(x)), (zx.name, w, x)
            for c in cells:
                out = [path_face_raw(zx, c, i, eps) for i in range(1, c.degree + 1) for eps in (0, 1)]
                out += [path_degeneracy_raw(zx, c, j) for j in range(1, path_degeneracy_slots(c) + 1)]
                out += [path_canonical(zx, x.base, x.tail) for x in out]
                made += len(out)
                for x in out:
                    assert spelled(x) == spelled(public(x)), (zx.name, c, x)
        assert made > 5000


class TestHome:
    """The edge-path tree: one step (edge letter, next vertex) toward the
    basepoint for each vertex an edge path joins to it."""

    def test_simplex_boundary(self):
        zx = boundary_simplex(3).z_extension()
        assert zx.home == {v: (zx.term(f"0{v}^op"), "0") for v in "123"}

    def test_chain_depths(self, tmp_path):
        # the depth of a vertex in the tree is its distance along the chain
        n = 30
        path = tmp_path / "chain.facets"
        path.write_text("".join(f"{v} {v + 1}\n" for v in range(n)))
        zx = load_facets(path).z_extension()
        assert len(zx.home) == n
        for v in range(1, n + 1):
            at, depth = str(v), 0
            while at != zx.basepoint:
                t, nxt = zx.home[at]
                assert t.dim == 1 and zx.endpoints(t) == (at, nxt)
                at, depth = nxt, depth + 1
            assert depth == v

    def test_leaves_out_another_component(self, tmp_path):
        path = tmp_path / "two.facets"
        path.write_text("0 1\n2 3\n")
        zx = load_facets(path).z_extension()
        assert zx.home == {"1": (zx.term("01^op"), "0")}


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

    def test_underlying_edges(self, fixtures):
        zx = fixtures["bd2"]
        assert [a.name for a in zx.underlying_edges()] == ["01", "02", "12"]
        assert [a.name for a in boundary_simplex(2).underlying_edges()] == ["01", "02", "12"]

    @pytest.mark.parametrize("pairs, message", [
        ({"a": "zz", "zz": "a"}, "op pair 'a': 'zz' names 'a', not a 1-generator"),
        ({"e": "x", "x": "e"}, "op pair 'e': 'x' names 'x', not a 1-generator"),
        ({"e": "e"}, "op pair 'e': 'e' pairs an edge with itself"),
        ({"e": "f", "f": "g", "g": "f"}, "op-pairing is not an involution at 'e'"),
    ], ids=["unknown", "vertex", "self", "not-involution"])
    def test_malformed_pairs(self, pairs, message):
        # an unknown name raised a bare KeyError
        x = GeneratorId("x", 0)
        gens, faces = [x], {}
        if "e" in pairs:
            gens += [GeneratorId(n, 1) for n in "efg"]
            faces = {n: (SimplexTerm(x, (1,)),) * 2 for n in "efg"}
        with pytest.raises(SimplicialError, match=re.escape(message)):
            SimplicialPresentation("t", gens, faces, "x", pairs)

    def test_double_extension_rejected(self):
        zx = boundary_simplex(2).z_extension()
        with pytest.raises(SimplicialError):
            zx.z_extension()
        # a degenerate edge has no formal inverse
        with pytest.raises(SimplicialError, match="s0.01 has no op-partner"):
            zx.op(zx.degenerate(zx.term("01"), 0))

    def test_rejects_malformed_tables(self):
        x0 = GeneratorId("v", 0)
        a = GeneratorId("a", 1)
        with pytest.raises(SimplicialError):
            SimplicialPresentation("bad", [x0, a], {"a": (SimplexTerm(x0, (1,)),)}, "v")
        stray = SimplexTerm(GeneratorId("w", 0), (1,))
        with pytest.raises(SimplicialError, match="face of 'a' uses unknown generator 'w'"):
            SimplicialPresentation("bad", [x0, a], {"a": (stray, SimplexTerm(x0, (1,)))}, "v")
        # a document's face dimensions are checked before it is built, so
        # only a presentation built here reaches this refusal
        s0v = SimplexTerm(x0, (2,))  # s_0 v, of dimension 1
        with pytest.raises(SimplicialError, match="face of 'a' has dimension 1, expected 0"):
            SimplicialPresentation("bad", [x0, a], {"a": (s0v, SimplexTerm(x0, (1,)))}, "v")
