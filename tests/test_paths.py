import random
import sys
from pathlib import Path

import pytest
from cell_operators import path_degeneracy_raw, path_degeneracy_slots, path_face_raw, word_face_raw
from hypothesis import given, settings, strategies as st
from word_oracles import canonical_reference, path_canonical_reference

from loopspace import cli, cubes, paths, simplicial, words
from loopspace.fileformat import parse_word, resolve_model
from loopspace.paths import (
    CoverGraph,
    PathCell,
    PathError,
    act,
    cover_graph,
    covering_report,
    cube_cells,
    path_canonical,
    to_adjacency,
    to_dot,
)
from loopspace.simplicial import from_facets, standard_simplex
from loopspace.suites import random_loop_cells, random_path_cells
from loopspace.words import (
    canonical,
    degeneracy_slots,
    enumerate_words,
    random_reduced_word,
    unit,
    word_degeneracy,
)

ROOT = Path(__file__).resolve().parent.parent


def path_face(zx, c, i, eps):
    """The face of c at coordinate i: the normal form of its raw face."""
    return path_canonical(zx, *path_face_raw(zx, c, i, eps))


class TestCells:
    def test_degree_and_canonical_base(self, fixtures):
        zx = fixtures["bd2"]
        c = path_canonical(zx, zx.term("01"), unit("1"))
        assert c.degree == 1 and c.tail == unit("1")

    def test_top_degeneracy_moves_to_tail(self, fixtures):
        zx = fixtures["bd2"]
        t = zx.degenerate(zx.term("01"), 1)  # s1.01
        c = path_canonical(zx, t, unit("1"))
        assert c.base == zx.term("01")
        assert c.tail.degree == 1  # one unit-degeneracy absorbed into the tail

    def test_tail_endpoint_checked(self, fixtures):
        zx = fixtures["bd2"]
        with pytest.raises(PathError):
            path_canonical(zx, zx.term("01"), unit("0"))


class TestFaces:
    def test_edge_faces(self, fixtures):
        zx = fixtures["bd2"]
        c = path_canonical(zx, zx.term("01"), unit("1"))
        src = path_face(zx, c, 1, 0)
        tgt = path_face(zx, c, 1, 1)
        assert tgt == PathCell(zx.term("1"), unit("1"))
        assert src.base == zx.term("0")
        assert [t.generator.name for t in src.tail.letters] == ["01"]

    def test_face_face_interchange(self, fixtures):
        rng = random.Random(11)
        for key in ("bd3", "sphere3", "wedge2"):
            zx = fixtures[key]
            gens = [g for g in zx.generators.values() if g.dim >= 1]
            for _ in range(40):
                g = gens[rng.randrange(len(gens))]
                t = zx.term(g.name)
                for _ in range(rng.randrange(2)):
                    t = zx.degenerate(t, rng.randrange(t.dim + 1))
                tail = random_reduced_word(zx, rng, zx.endpoints(t)[1], 0, 2)
                c = path_canonical(zx, t, tail)
                n = c.degree
                for j in range(1, n + 1):
                    for i in range(1, j):
                        for eps in (0, 1):
                            for om in (0, 1):
                                assert (
                                    path_face(zx, path_face(zx, c, j, om), i, eps)
                                    == path_face(zx, path_face(zx, c, i, eps), j - 1, om)
                                ), (c, i, j, eps, om)

    def test_degeneracy_raises_degree(self, fixtures):
        zx = fixtures["bd3"]
        c = path_canonical(zx, zx.term("012"),
                           canonical(zx, (zx.term("23"), zx.term("03^op")), "2"))
        for j in range(1, path_degeneracy_slots(c) + 1):
            assert path_degeneracy_raw(zx, c, j).degree == c.degree + 1


class TestAction:
    def test_act_composes_tail(self, fixtures):
        zx = fixtures["bd2"]
        c = path_canonical(zx, zx.term("01"),
                           canonical(zx, (zx.term("12"), zx.term("02^op")), "1"))
        w = parse_word(zx, "02;12^op;01^op")
        moved = act(zx, c, w)
        assert moved.base == c.base
        # (12)(02^op) . (02)(12^op)(01^op) cancels down to (01^op)
        assert [t.generator.name for t in moved.tail.letters] == ["01^op"]


@st.composite
def connected_graphs(draw):
    """Facets of a connected graph on 2 to 6 vertices: a random spanning
    tree and up to four more edges, which close cycles.  Each vertex comes
    first as its own facet, so that the vertex order is 0, 1, 2, ..."""
    n = draw(st.integers(2, 6))
    tree = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    extra = draw(st.lists(st.sampled_from([(i, j) for j in range(n) for i in range(j)]),
                          max_size=4))
    return [[str(v)] for v in range(n)] + [[str(i), str(j)] for i, j in sorted({*tree, *extra})]


class TestCovering:
    def test_wedge_cover_is_tree(self, fixtures):
        zx = fixtures["wedge2"]
        g = cover_graph(zx, max_length=5)
        report = covering_report(zx, g)
        assert report["vertices"] == 485  # 1 + sum 4*3^(k-1), k<=5
        assert report["edges"] == 484
        assert report["tree"] and report["connected"] and report["ok"]

    def test_cycle_is_connected_but_not_a_tree(self, fixtures):
        zx = fixtures["wedge2"]
        star = cover_graph(zx, max_length=1)  # the unit joined to 4 leaves
        hub, leaves = 0, range(1, star.vertex_count)
        assert all(hub in (src, tgt) for _, src, tgt in star.edges)
        chord = (star.edges[0][0], leaves[0], leaves[1])  # closes a triangle
        report = covering_report(zx, CoverGraph(star.vertices, star.edges + (chord,), 1))
        assert report["edges"] == report["vertices"]
        assert report["connected"] and not report["tree"]

    def test_two_components_are_not_a_tree(self, fixtures):
        # as many edges as a tree has, but one leaf cut off and a cycle
        # closed elsewhere: the count alone does not make a tree
        zx = fixtures["wedge2"]
        star = cover_graph(zx, max_length=1)
        (cell, src, tgt), kept = star.edges[0], star.edges[1:]
        cut = src if src != 0 else tgt
        others = [k for k in range(1, star.vertex_count) if k != cut]
        chord = (cell, others[0], others[1])
        report = covering_report(zx, CoverGraph(star.vertices, kept + (chord,), 1))
        assert report["edges"] == report["vertices"] - 1
        assert not report["connected"] and not report["tree"]

    @pytest.mark.parametrize("key", ["wedge2", "bd2"])
    def test_lists_no_words(self, fixtures, monkeypatch, key):
        # the tails grow as a tree, each level from the last, so no word is
        # listed, neither through words nor through a name bound in paths
        listed = []

        def counting(*args):
            listed.append(args)
            return enumerate_words(*args)

        for module in (words, paths):
            monkeypatch.setattr(module, "enumerate_words", counting, raising=False)
        g = cover_graph(fixtures[key], max_length=3)
        assert g.edge_count and listed == []

    @pytest.mark.parametrize("key", ["wedge2", "bd2"])
    def test_edge_cells_are_not_recanonicalized(self, fixtures, monkeypatch, key):
        # both ends of an edge cell are read off its word, so no face and
        # no normal form is taken; the edge cell is canonical as built
        # (test_edge_cells_are_canonical)
        zx = fixtures[key]
        calls = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((paths, "path_canonical"), (paths, "_normal_word"),
                             (words, "_normal_word"), (simplicial.SimplicialPresentation, "face"),
                             (simplicial.SimplicialPresentation, "split")):
            counting(module, name)
        # the bead face, under every name a module of the library binds it to
        for module in [m for k, m in sys.modules.items() if k.startswith("loopspace.")]:
            for name in [k for k, v in vars(module).items() if v is cubes.necklace_face]:
                counting(module, name)
        g = cover_graph(zx, max_length=3)
        considered = sum(
            len(enumerate_words(zx, 0, 3, zx.endpoints(zx.term(a.name))[1], zx.basepoint))
            for a in zx.underlying_edges()
        )
        assert considered and g.edge_count and calls == []
        if key == "wedge2":
            assert (considered, g.edge_count) == (106, 52)

    @pytest.mark.parametrize("spec", ["wedge:2", "wedge:3", "boundary-simplex:2",
                                      "boundary-simplex:3", "data/triangle.json",
                                      "data/wedge2-inverted.json", "sphere:2"])
    def test_matches_both_faces_graph(self, spec):
        zx = resolve_model(str(ROOT / spec) if spec.startswith("data/") else spec)
        for n in range(6):
            g = cover_graph(zx, max_length=n)
            vertices, edges = both_faces_graph(zx, n)
            assert g.vertices == vertices, (spec, n)
            assert g.edges == edges, (spec, n)
            assert g.max_length == n

    def test_source_cancels_the_inverse(self, fixtures):
        # the edge a1 with the word a1^op;a2: the source necklace
        # (x0; a1, a1^op, a2) cancels to (x0, a2), and the target is the word
        zx = fixtures["wedge2"]
        g = cover_graph(zx, max_length=3)
        w = parse_word(zx, "a1^op;a2")
        ends = {cell.tail: (src, tgt) for cell, src, tgt in g.edges
                if cell.base == zx.term("a1")}
        src, tgt = ends[w]
        assert g.vertices[src] == PathCell(zx.term("x0"), parse_word(zx, "a2"))
        assert g.vertices[tgt] == PathCell(zx.term("x0"), w)

    def test_source_past_the_bound_drops_the_edge(self, fixtures):
        # at the bound, the edge a1 keeps a word starting with a1^op (its
        # source is shorter) and drops any other (its source a1;w is longer)
        zx = fixtures["wedge2"]
        g = cover_graph(zx, max_length=2)
        tails = {cell.tail for cell, _, _ in g.edges if cell.base == zx.term("a1")}
        assert parse_word(zx, "a1^op;a2") in tails
        assert parse_word(zx, "a2;a1") not in tails
        assert parse_word(zx, "a2") in tails  # below the bound: a1;a2 is a vertex

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs())
    def test_matches_both_faces_graph_on_random_graphs(self, facets):
        zx = from_facets(facets, "graph").z_extension()
        for n in range(5):
            g = cover_graph(zx, max_length=n)
            assert (g.vertices, g.edges) == both_faces_graph(zx, n), (facets, n)

    @pytest.mark.parametrize("how, counts", [("missing", (1, 0)), ("doubled", (1, 2))])
    def test_failed_lift(self, fixtures, capsys, monkeypatch, how, counts):
        # an edge from a length-1 vertex (interior at the bound 2) to a
        # length-2 one (on the boundary) is dropped or doubled, so that one
        # lift fails at the length-1 end and no other vertex is checked
        zx = fixtures["wedge2"]
        whole = cover_graph(zx, max_length=2)
        k, (cell, src, tgt) = next(
            (k, e) for k, e in enumerate(whole.edges)
            if sorted(len(whole.vertices[v].tail.letters) for v in e[1:]) == [1, 2])
        v, end = (src, 0) if len(whole.vertices[src].tail.letters) == 1 else (tgt, 1)

        def broken(zx, max_length):
            g = cover_graph(zx, max_length)
            edges = g.edges[:k] + g.edges[k + 1:] if how == "missing" else g.edges + (g.edges[k],)
            return CoverGraph(g.vertices, edges, max_length)

        report = covering_report(zx, broken(zx, 2))
        want = {(a, e): (1, 1) for a in ("a1", "a2") for e in (0, 1)}
        want[(cell.base.generator.name, end)] = counts
        assert report["ok"] is False and report["vacuous"] is False
        assert report["covering_failures"] == [(str(whole.vertices[v]), want)]
        monkeypatch.setattr(cli, "cover_graph", broken)
        assert cli.main(["cover", "--builtin", "wedge:2", "--max-len", "2"]) == 1
        assert capsys.readouterr().out.rstrip().endswith("covering=FAIL")

    @pytest.mark.parametrize("key", ["wedge2", "bd3"])
    def test_edge_cells_are_canonical(self, fixtures, key):
        zx = fixtures[key]
        g = cover_graph(zx, max_length=4)
        assert g.edges
        for cell, _, _ in g.edges:
            assert path_canonical(zx, cell.base, cell.tail) == cell

    def test_empty_graph(self, fixtures):
        # no vertex to seed the connectivity search at
        report = covering_report(fixtures["wedge2"], CoverGraph((), (), 0))
        assert report["connected"] is True and report["tree"] is False
        assert report["vacuous"] is True and report["ok"]

    def test_triangle_cover_is_line(self, fixtures):
        zx = fixtures["bd2"]
        g = cover_graph(zx, max_length=3)
        report = covering_report(zx, g)
        # the 1-skeleton of the triangle unwinds to a line: 3 vertices per
        # turn of the hexagon, words of length <= 3 over 3 base vertices
        assert report["connected"] and report["ok"]
        degrees = {}
        for cell, src, tgt in g.edges:
            degrees[src] = degrees.get(src, 0) + 1
            degrees[tgt] = degrees.get(tgt, 0) + 1
        interior = [v for v, d in degrees.items() if d == 2]
        assert len(interior) >= report["vertices"] - 2

    def test_triangle_fiber_words(self, fixtures):
        zx = fixtures["bd2"]
        g = cover_graph(zx, max_length=3)
        fiber = sorted(
            str(v.tail) for v in g.vertices if v.base.generator.name == "0")
        expected = sorted(
            str(parse_word(zx, s)) for s in ("e", "01;12;02^op", "02;12^op;01^op"))
        assert fiber == expected

    def test_exports(self, fixtures):
        zx = fixtures["bd2"]
        g = cover_graph(zx, max_length=2)
        dot = to_dot(g)
        assert dot.startswith("digraph") and dot.endswith("}")
        adj = to_adjacency(g)
        assert len(adj) == g.vertex_count
        assert sum(len(v) for v in adj.values()) == g.edge_count


def both_faces_graph(zx, max_length):
    """The covering graph's vertices and edges with both faces of every
    edge cell taken as normalized raw faces, an edge kept when both are
    vertices (reference for ``cover_graph``, which reads both ends off the
    edge cell's word)."""
    tails = {v.name: enumerate_words(zx, 0, max_length, v.name, zx.basepoint)
             for v in zx.generators_of_dim(0)}
    vertices = tuple(PathCell(zx.term(v), w) for v, ws in tails.items() for w in ws)
    index = {c: k for k, c in enumerate(vertices)}
    edges = []
    for a in zx.underlying_edges():
        t = zx.term(a.name)
        for w in tails[zx.endpoints(t)[1]]:
            cell = PathCell(t, w)
            ends = [index.get(path_face(zx, cell, 1, eps)) for eps in (0, 1)]
            if None not in ends:
                edges.append((cell, *ends))
    return vertices, tuple(edges)


class TestNormalFormOracle:
    @pytest.mark.parametrize("key", ["sphere2", "sphere3", "bd2", "bd3", "wedge2", "delta4"])
    def test_face_is_normal_form_of_raw_face(self, fixtures, key):
        # a face is path_canonical of path_face_raw: checked against the
        # reference normal form on every face of the cube cells and of
        # random cells
        if key == "delta4":
            zx = standard_simplex(4)
            cells = [c for _, c in cube_cells(zx, True)]
        else:
            zx = fixtures[key]
            cells = random_path_cells(zx, random.Random(7), 40)
        faces = 0
        for c in cells:
            for i in range(1, c.degree + 1):
                for eps in (0, 1):
                    r = path_face_raw(zx, c, i, eps)
                    assert (path_face(zx, c, i, eps)
                            == path_canonical_reference(zx, r.base, r.tail)), (c, i, eps)
                    faces += 1
        assert faces

    @pytest.mark.parametrize("key", ["sphere2", "sphere3", "bd2", "bd3", "wedge2"])
    def test_agrees_with_separate_routines(self, fixtures, key):
        zx = fixtures[key]
        rng = random.Random(5)
        for c in random_path_cells(zx, rng, 40):
            raws = [path_face_raw(zx, c, i, eps)
                    for i in range(1, c.degree + 1) for eps in (0, 1)]
            raws += [path_degeneracy_raw(zx, c, j)
                     for j in range(1, path_degeneracy_slots(c) + 1)]
            for r in raws + [path_degeneracy_raw(zx, r, 1) for r in raws]:
                assert (path_canonical(zx, r.base, r.tail)
                        == path_canonical_reference(zx, r.base, r.tail)), r
        for w in random_loop_cells(zx, rng, 40):
            raws = [word_face_raw(zx, w, i, eps)
                    for i in range(1, w.degree + 1) for eps in (0, 1)]
            raws += [word_degeneracy(zx, w, j) for j in range(1, degeneracy_slots(w) + 1)]
            for r in raws:
                assert (canonical(zx, r.letters, r.start)
                        == canonical_reference(zx, r.letters, r.start)), r


def field_tuple(x):
    """x as nested plain tuples of its fields: the order a frozen dataclass
    with ``order=True`` compares by."""
    return tuple(map(field_tuple, x)) if isinstance(x, tuple) else x


class TestValueTypes:
    """Simplices, loop words and path cells are immutable values, ordered by
    their field tuples, and no two kinds of them compare equal."""

    def values(self, fixtures):
        zx = fixtures["bd2"]
        terms = [zx.term(g) for g in zx.generators]
        terms += [zx.degenerate(t, j) for t in terms for j in range(t.dim + 1)]
        words = [w for d in range(3) for w in enumerate_words(zx, d, 3, "0", "0")]
        words += random_loop_cells(zx, random.Random(2), 30)
        cells = random_path_cells(zx, random.Random(3), 30)
        cells += [c for _, c in cube_cells(standard_simplex(3), True)]
        return terms, words, cells

    def test_immutable(self, fixtures):
        for kind in self.values(fixtures):
            x = kind[-1]
            for name in x._fields:
                with pytest.raises(AttributeError):
                    setattr(x, name, getattr(x, name))

    def test_sorted_by_field_tuples(self, fixtures):
        rng = random.Random(4)
        for kind in self.values(fixtures):
            shuffled = kind[:]
            rng.shuffle(shuffled)
            assert sorted(shuffled) == sorted(kind, key=field_tuple)
        zx = fixtures["bd3"]
        for d in range(3):
            ws = enumerate_words(zx, d, 3, "0", "0")
            assert ws == sorted(ws, key=lambda w: (len(w.letters), field_tuple(w.letters)))

    def test_no_equality_across_kinds(self, fixtures):
        terms, words, cells = self.values(fixtures)
        for a, b in ((terms, words), (terms, cells), (words, cells)):
            assert not any(x == y for x in a for y in b)
            assert not set(a) & set(b)
