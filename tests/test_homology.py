import random
from collections import Counter
from functools import cache, partial
from heapq import heapify, heappop
from itertools import combinations
from pathlib import Path

import pytest
from snf_oracles import dense_smith_normal_form, minors_gcd_invariants, rank

from loopspace import homology as homology_module
from loopspace.chains import boundary_word, is_killed
from loopspace.fileformat import load_complex, parse_word
from loopspace.homology import (
    HomologyError,
    SparseIntMatrix,
    boundary_matrix,
    chain_homology,
    degree_bases,
    degree_basis,
    field_dimensions,
    homology,
    smith_normal_form,
    tensor_bases,
)
from loopspace.simplicial import (
    GeneratorId,
    SimplexTerm,
    SimplicialPresentation,
    boundary_simplex,
    sphere_quotient,
)
from loopspace.words import LoopWord, canonical, degeneracy_slots, enumerate_words, word_degeneracy

DATA = Path(__file__).resolve().parent.parent / "data"


def letter_boundary(zx, variant):
    """d of each letter over zx in the variant, cached as ``homology``
    caches it for ``boundary_matrix``."""
    return cache(partial(homology_module._letter_terms, zx, variant))


def skeleton_quotient(n):
    """Delta^n with its 1-skeleton collapsed to one vertex x0: no edges, a
    triangle on every three vertices, and every face of dimension >= 2
    kept.  It is a wedge of n(n-1)/2 - n + 1 2-spheres."""
    x0 = GeneratorId("x0", 0)
    gens, faces = [x0], {}
    for r in range(3, n + 2):
        for s in combinations(map(str, range(n + 1)), r):
            gens.append(GeneratorId("".join(s), r - 1))
            faces["".join(s)] = tuple(
                SimplexTerm(x0, (2,)) if r == 3
                else SimplexTerm(GeneratorId("".join(s[:i] + s[i + 1:]), r - 2), (1,) * (r - 1))
                for i in range(r))
    return SimplicialPresentation(f"delta{n}/1-skeleton", gens, faces, "x0")


def unit_seam_complex():
    """Edges a: x -> y and b: y -> x, and a triangle t with faces
    (b, s_0 x, a).  d(t) holds the unit word, so d of a word with t in it
    has terms where the letters on either side of t meet at a seam."""
    x, y = GeneratorId("x", 0), GeneratorId("y", 0)
    a, b = GeneratorId("a", 1), GeneratorId("b", 1)
    faces = {
        "a": (SimplexTerm(y, (1,)), SimplexTerm(x, (1,))),
        "b": (SimplexTerm(x, (1,)), SimplexTerm(y, (1,))),
        "t": (SimplexTerm(b, (1, 1)), SimplexTerm(x, (2,)), SimplexTerm(a, (1, 1))),
    }
    return SimplicialPresentation("unit-seam", [x, y, a, b, GeneratorId("t", 2)], faces, "x")


@pytest.fixture(scope="module")
def complexes(fixtures):
    """The standard fixtures plus sphere4, bd4, sk4 (``skeleton_quotient``)
    and seam (``unit_seam_complex``), edge-inverted."""
    return {**fixtures,
            "sphere4": sphere_quotient(4).z_extension(),
            "bd4": boundary_simplex(4).z_extension(),
            "sk4": skeleton_quotient(4).z_extension(),
            "seam": unit_seam_complex().z_extension()}


def inverse_at_seam(zx, front, piece, back):
    """Whether an inverse edge pair meets at a seam where piece is put
    between front and back: (front[-1], piece[0]) and (piece[-1], back[0]),
    or (front[-1], back[0]) when piece is empty.  front and back are a
    prefix and a suffix of a canonical word and piece a term of d(t), so
    each is canonical, and their concatenation is canonical unless this
    holds."""
    def inverse(a, b):
        return zx.op_pairs.get(a.generator.name) == b.generator.name

    if not piece:
        return bool(front and back) and inverse(front[-1], back[0])
    return bool(front) and inverse(front[-1], piece[0]) or bool(back) and inverse(piece[-1], back[0])


def weight(w):
    return w.degree + len(w.letters)


def closure_basis(zx, degree, variant, max_weight):
    """Basis of one degree built from scratch: every E_d (d <= degree) of
    weight <= max_weight closed under degree - d rounds of degeneracies,
    then filtered by weight (reference for the directly listed bases of
    ``degree_bases``).  ``max_weight`` None means no bound, for complexes
    without edges."""
    base = zx.basepoint
    if variant == "normalized":
        bound = None if max_weight is None else max_weight - degree
        return enumerate_words(zx, degree, bound, base, base)
    seen = set()
    for d in range(degree + 1):
        bound = None if max_weight is None else max_weight - d
        layer = set(enumerate_words(zx, d, bound, base, base))
        for _ in range(degree - d):
            nxt = set()
            for w in layer:
                for j in range(1, degeneracy_slots(w) + 1):
                    raw = word_degeneracy(zx, w, j)
                    nxt.add(canonical(zx, raw.letters, raw.start))
            layer = nxt
        seen.update(layer)
    out = [w for w in seen if w.degree == degree and not is_killed(w, variant)
           and (max_weight is None or weight(w) <= max_weight)]
    out.sort(key=lambda w: (len(w.letters), w.letters))
    return out


class TestSmithNormalForm:
    def test_known_matrix(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
        assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
        assert smith_normal_form([[0, 0], [0, 0]]) == ()

    def test_divisibility_chain(self):
        rng = random.Random(17)
        for _ in range(100):
            rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
                    for _ in range(rng.randint(1, 5))]
            rows = [r[: len(rows[0])] for r in rows]
            width = min(len(r) for r in rows)
            rows = [r[:width] for r in rows]
            inv = smith_normal_form(rows)
            for a, b in zip(inv, inv[1:]):
                assert b % a == 0

    def test_against_minors_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            want = minors_gcd_invariants(rows)
            assert smith_normal_form(rows) == dense_reference(rows) == want

    def test_local_ranks_on_larger_matrices(self):
        # sizes where the minors oracle is out of reach, and where reducing
        # without a modulus grew entries past a thousand digits
        rng = random.Random(31)
        for _ in range(40):
            m, n = rng.randint(15, 25), rng.randint(15, 40)
            rows = [[rng.randint(-3, 3) if rng.random() < 0.2 else 0 for _ in range(n)]
                    for _ in range(m)]
            inv = smith_normal_form(rows)
            assert len(inv) == rank(rows), rows
            for a, b in zip(inv, inv[1:]):
                assert b % a == 0
            for p in (2, 3, 5, 7):
                assert sum(1 for d in inv if d % p) == rank(rows, p), (p, rows)

    def test_sparse_input(self):
        m = SparseIntMatrix(2, 2, {(0, 0): 2, (1, 1): 3})
        assert smith_normal_form(m) == (1, 6)

    def test_ragged_rows_rejected(self):
        with pytest.raises(HomologyError, match="row 1 has 1 entries"):
            smith_normal_form([[1, 2], [3]])
        with pytest.raises(HomologyError, match="row 0 has 1 entries"):
            smith_normal_form([[1], [2, 3]])


def dense_reference(rows):
    """The dense reduction of the whole matrix: the reference for the
    sparse elimination."""
    return dense_smith_normal_form([r[:] for r in rows])


def as_sparse(rows, cols):
    return SparseIntMatrix(len(rows), cols,
                           {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v})


def planted_udv(rng, rows, cols, factors):
    """U.D.V with D = diag(factors) and U, V products of random unimodular
    row and column operations and permutations."""
    m = [[0] * cols for _ in range(rows)]
    for k, d in enumerate(factors):
        m[k][k] = d
    for _ in range(rows + cols):
        s = rng.choice((1, -1))
        if rng.random() < 0.5:
            a, b = rng.sample(range(rows), 2)
            m[b] = [x + s * y for x, y in zip(m[b], m[a])]
        else:
            a, b = rng.sample(range(cols), 2)
            for r in m:
                r[b] += s * r[a]
    rng.shuffle(m)
    perm = rng.sample(range(cols), cols)
    return [[r[j] for j in perm] for r in m]


@pytest.fixture
def queued(monkeypatch):
    """One [rows queued, pops] pair per ``smith_normal_form`` call, in call
    order: the rows its one ``heapify`` gets, and how many times it pops
    the queue."""
    calls = []

    def spy_heapify(queue):
        calls.append([len(queue), 0])
        heapify(queue)

    def spy_heappop(queue):
        calls[-1][1] += 1
        return heappop(queue)

    monkeypatch.setattr(homology_module, "heapify", spy_heapify)
    monkeypatch.setattr(homology_module, "heappop", spy_heappop)
    return calls


def nonzero_rows(rows):
    return sum(1 for r in rows if any(r))


class TestUnitPivotElimination:
    def test_random_sparse_against_dense(self):
        rng = random.Random(31)
        for _ in range(80):
            m, n = rng.randint(1, 25), rng.randint(1, 40)
            rows = [[rng.randint(-3, 3) if rng.random() < 0.2 else 0 for _ in range(n)]
                    for _ in range(m)]
            want = dense_reference(rows)
            assert smith_normal_form(rows) == want, rows
            assert smith_normal_form(as_sparse(rows, n)) == want, rows

    def test_no_unit_entries_against_dense(self):
        # every pivot is a non-unit at first, so the Euclidean steps, the
        # row reduction and the final ordering all run
        rng = random.Random(37)
        for _ in range(60):
            m, n = rng.randint(1, 12), rng.randint(1, 16)
            density = rng.uniform(0.1, 0.9)
            rows = [[rng.choice((-5, -4, -3, -2, 2, 3, 4, 5)) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(m)]
            want = dense_reference(rows)
            assert smith_normal_form(rows) == want, rows
            assert smith_normal_form(as_sparse(rows, n)) == want, rows

    def test_non_unit_pivots_in_divisibility_order(self, monkeypatch):
        # diag(2, 4, 6, 9): the exponents of 2 and of 3 are each sorted
        rows = [[0] * 4 for _ in range(4)]
        for k, d in enumerate((6, 4, 9, 2)):
            rows[k][3 - k] = d
        assert smith_normal_form(rows) == minors_gcd_invariants(rows) == (1, 2, 6, 36)
        # pivots that already form a chain are ordered without a gcd
        calls = []
        monkeypatch.setattr(homology_module, "gcd", lambda a, b: calls.append((a, b)))
        chain = SparseIntMatrix(3000, 3000, {(k, k): 2 if k % 7 else 6 for k in range(3000)})
        assert smith_normal_form(chain) == (2,) * 2571 + (6,) * 429
        assert calls == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_factors(self, seed, queued):
        rng = random.Random(seed)
        factors = (1,) * 12 + (2, 6, 12, 60)
        rows = planted_udv(rng, 20, 30, factors)
        assert dense_reference(rows) == factors
        assert smith_normal_form(rows) == factors
        assert smith_normal_form(as_sparse(rows, 30)) == factors
        # both inputs queue every nonzero row and pop the queue as often
        assert queued == [[nonzero_rows(rows), queued[0][1]]] * 2, queued

    def test_units_made_by_row_operations_are_queued(self):
        # the second unit exists only after the first pivot: 3 - 2 = 1
        assert smith_normal_form([[1, 2], [1, 3]]) == (1, 1)
        # here it is fill-in in a row that keeps its length, in a column
        # that keeps two rows: row 1 becomes (0, -1, 2), and its unit pivots
        # only because the changed row is queued again under its new key
        assert smith_normal_form([[1, 1, 0], [1, 0, 2], [0, 2, 2]]) == (1, 1, 6)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_planted_factors_at_scale(self, seed, queued):
        rng = random.Random(seed)
        factors = (1,) * 296 + (2, 6, 12, 60)
        rows = planted_udv(rng, 512, 1024, factors)
        assert smith_normal_form(rows) == factors
        # the queue holds rows, and a row goes back only when an elimination
        # changes its key: 3.2 and 3.5 pops per nonzero row here (1 438 and
        # 1 537 for 443 and 433 rows), where a queue of entries that kept
        # its dead ones made 17.6 and 20.3
        assert sum(pops for _, pops in queued) <= 5 * nonzero_rows(rows), queued

    def test_no_unit_entry_goes_whole_to_phase_2(self, queued):
        rng = random.Random(5)
        rows = [[2 * rng.randint(-3, 3) for _ in range(7)] for _ in range(6)]
        rows[0][0] = 4  # at least one nonzero entry
        want = dense_reference(rows)
        assert all(t % 2 == 0 for t in want)
        assert smith_normal_form(rows) == want
        # one queue, of every nonzero row
        assert [size for size, _ in queued] == [nonzero_rows(rows)]

    def test_permutation_and_empty_shapes(self, queued):
        rows = [[0] * 6 for _ in range(6)]
        for i, j in enumerate(random.Random(9).sample(range(6), 6)):
            rows[i][j] = (-1) ** i
        assert dense_reference(rows) == (1,) * 6
        assert smith_normal_form(rows) == (1,) * 6
        assert smith_normal_form(as_sparse(rows, 6)) == (1,) * 6
        # each row is one unit, popped once
        assert queued == [[6, 6], [6, 6]]
        assert smith_normal_form([[0] * 4 for _ in range(3)]) == ()
        assert smith_normal_form(SparseIntMatrix(3, 4)) == ()
        assert smith_normal_form([]) == ()
        assert smith_normal_form([[], []]) == ()
        assert smith_normal_form(SparseIntMatrix(0, 5)) == ()
        assert smith_normal_form(SparseIntMatrix(5, 0)) == ()


def cellular(*matrices):
    """The ranks of a cellular chain complex and its d_1, d_2, ... from
    dense matrices, each given with its column count (a matrix may have no
    rows), and a boundary function that records the n it is asked for."""
    sizes = [len(matrices[0][0])] + [cols for _, cols in matrices]
    mats = [as_sparse(rows, cols) for rows, cols in matrices]
    calls = []

    def boundary(n):
        calls.append(n)
        return mats[n - 1]

    return sizes, boundary, calls


class TestChainHomology:
    # cellular chain complexes with textbook homology: chain_homology
    # knows no words, only ranks and boundary matrices
    @pytest.mark.parametrize("d, groups, nonzeros", [
        # RP^2: one cell in each dimension, d_2 = 2
        ([([[0]], 1), ([[2]], 1), ([[]], 0)], ["Z", "Z/2", "0"], (0, 0, 1, 0)),
        # the torus: a, b and the square aba^-1b^-1
        ([([[0, 0]], 2), ([[0], [0]], 1), ([[]], 0)], ["Z", "Z^2", "Z"], (0, 0, 0, 0)),
        # the Klein bottle: the square aba^-1b
        ([([[0, 0]], 2), ([[0], [2]], 1), ([[]], 0)], ["Z", "Z + Z/2", "0"], (0, 0, 1, 0)),
        # the 2-sphere as a point and a 2-cell: degree 1 has rank 0
        ([([[]], 0), ([], 1), ([[]], 0)], ["Z", "0", "Z"], (0, 0, 0, 0)),
        # the boundary of a triangle: three vertices and three edges
        ([([[-1, 0, 1], [1, -1, 0], [0, 1, -1]], 3), ([[], [], []], 0)], ["Z", "Z"],
         (0, 6, 0)),
    ], ids=["rp2", "torus", "klein-bottle", "sphere2", "circle"])
    def test_textbook_complexes(self, d, groups, nonzeros):
        sizes, boundary, calls = cellular(*d)
        table = chain_homology("X", sizes, boundary)
        assert [str(g) for g in table.groups] == groups
        assert [g.degree for g in table.groups] == list(range(len(groups)))
        assert table.max_weight is None
        assert table.basis_sizes == tuple(sizes)
        assert table.nonzeros == nonzeros
        assert calls == list(range(1, len(sizes)))  # once each, in order

    @pytest.mark.parametrize("sizes, d, match", [
        ((1, 1, 1), [SparseIntMatrix(1, 1, {(0, 0): 1}), SparseIntMatrix(1, 1, {(0, 0): 1})],
         "d_1 d_2 is not zero on X"),
        # without the shape check, this d_1 would leave H_1 free rank -1
        ((1, 0, 0), [SparseIntMatrix(1, 2, {(0, 0): 1, (0, 1): 1}), SparseIntMatrix(0, 0)],
         r"d_1 on X is 1x2, not 1x0 \(the ranks of degrees 0 and 1\)"),
        ((1, 2, 1), [SparseIntMatrix(1, 2), SparseIntMatrix(1, 1)],
         r"d_2 on X is 1x1, not 2x1 \(the ranks of degrees 1 and 2\)"),
    ], ids=["d-d-not-zero", "d1-shape", "d2-shape"])
    def test_refusals(self, sizes, d, match):
        with pytest.raises(HomologyError, match=match):
            chain_homology("X", sizes, lambda n: d[n - 1])


def fibonacci(n):
    """F_n, with F_0 = 0 and F_1 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def stars_and_bars_duplicates(w, extra):
    """The words made from the reduced word w by ``extra`` more duplicates
    of the interior vertices of its letters, one word per placement of the
    duplicates on all of w's interior vertices at once (reference for the
    ``de`` letter table that ``degree_bases`` walks)."""
    if not extra:
        return [w]
    slots = w.degree  # a letter of dimension m has m - 1 interior vertices
    if not slots:
        return []
    out = []
    width = extra + slots - 1
    for bars in combinations(range(width), slots - 1):
        counts = iter([b - a - 1 for a, b in zip((-1, *bars), (*bars, width))])
        letters = []
        for t in w.letters:
            mult = (1, *(1 + next(counts) for _ in range(t.dim - 1)), 1)
            letters.append(SimplexTerm(t.generator, mult))
        out.append(LoopWord(tuple(letters), w.start, w.end))
    return out


def stars_and_bars_de_bases(zx, top):
    """The ``de`` bases of degrees 0..top of a complex without edges, each
    reduced word of degree d <= n given n - d duplicates by
    ``stars_and_bars_duplicates``."""
    base = zx.basepoint
    reduced = [enumerate_words(zx, d, None, base, base) for d in range(top + 1)]
    bases = []
    for n in range(top + 1):
        basis = [u for d in range(n + 1) for w in reduced[d]
                 for u in stars_and_bars_duplicates(w, n - d)]
        basis.sort(key=lambda w: (len(w.letters), w.letters))
        bases.append(basis)
    return bases


class TestBases:
    def test_normalized_degree0_is_group_ball(self, fixtures):
        zx = fixtures["wedge2"]
        assert len(degree_basis(zx, 0, "normalized", 2)) == 1 + 4 + 12

    def test_de_basis_contains_normalized(self, fixtures):
        zx = fixtures["sphere2"]
        for degree in (2, 3):
            norm = set(degree_basis(zx, degree, "normalized", None))
            de = set(degree_basis(zx, degree, "de", None))
            assert norm <= de

    @pytest.mark.parametrize("variant", ["de", "normalized"])
    @pytest.mark.parametrize("name, top, max_weight", [
        ("sphere2", 6, None),
        ("sphere3", 7, None),
        ("sphere4", 7, None),
        ("bd2", 3, 3),
        ("bd3", 3, 3),
        ("bd4", 3, 5),
        ("wedge2", 2, 5),
    ])
    def test_tower_matches_closure_oracle(self, complexes, name, top, max_weight, variant):
        zx = complexes[name]
        tower = degree_bases(zx, top, variant, max_weight)
        assert len(tower) == top + 1
        for d, basis in enumerate(tower):
            assert basis == closure_basis(zx, d, variant, max_weight), (name, d)
        assert degree_basis(zx, top, variant, max_weight) == tower[top]

    @pytest.mark.parametrize("document, top, sizes", [
        ("susp-rp2", 5, {"de": [1, 5, 35, 240, 1645, 11275],
                         "normalized": [1, 5, 30, 175, 1025, 6000]}),
        # M(Z/2, 2): in degree n >= 1, F_2n de words and F_n+1 normalized words
        ("moore2", 11, {"de": [1] + [fibonacci(2 * n) for n in range(1, 12)],
                        "normalized": [1] + [fibonacci(n + 1) for n in range(1, 12)]}),
    ], ids=["susp-rp2-5", "moore2-11"])
    def test_de_bases_of_documents(self, document, top, sizes):
        # triangles and tetrahedra in one word: the duplicates are split
        # among letters of different dimensions
        zx = load_complex(DATA / f"{document}.json").z_extension()
        tower = degree_bases(zx, top, "de", None)
        assert tower == stars_and_bars_de_bases(zx, top)
        assert [len(b) for b in tower] == sizes["de"]
        assert [len(b) for b in degree_bases(zx, top, "normalized", None)] == sizes["normalized"]

    def test_complex_without_edges_ignores_the_bound(self, fixtures):
        zx = fixtures["sphere3"]
        assert degree_bases(zx, 5, "de", 2) == degree_bases(zx, 5, "de", None)

    def test_boundary_matrix_shapes(self, fixtures):
        zx = fixtures["sphere2"]
        tower = degree_bases(zx, 2, "normalized", None)
        m, dom, cod = boundary_matrix(zx, tower[2], tower[1], letter_boundary(zx, "normalized"), None)
        assert (m.rows, m.cols) == (len(cod), len(dom))
        assert (dom, cod) == (tower[2], tower[1])

    @pytest.mark.parametrize("variant", ["de", "normalized"])
    @pytest.mark.parametrize("name, top, max_weight", [
        ("sphere2", 6, None),
        ("sphere3", 7, None),
        ("bd3", 5, 6),
        ("bd4", 4, 5),
        ("wedge2", 2, 5),
        # the unit term of d(t) at a seam, at an inverse pair in some words
        ("seam", 2, 6),
    ])
    def test_columns_match_face_sum(self, complexes, name, top, max_weight, variant):
        # the Leibniz-rule assembly against the face-sum definition of d,
        # one basis word at a time
        zx = complexes[name]
        tower = degree_bases(zx, top, variant, max_weight)
        d = letter_boundary(zx, variant)
        for n in range(1, top + 1):
            m, dom, cod = boundary_matrix(zx, tower[n], tower[n - 1], d, None)
            columns = [{} for _ in dom]
            for (i, j), v in m.entries.items():
                columns[j][cod[i]] = v
            for w, column in zip(dom, columns):
                assert column == boundary_word(zx, w, variant), (name, n, str(w))

    @pytest.mark.parametrize("variant, word, max_weight, want", [
        # back seam: d(013) holds the split term 01;13, which meets 13^op and
        # then 01^op, so the term of 013;13^op;01^op cancels to the unit word
        *(pytest.param(v, "013;13^op;01^op", 4, {"e": 1, "03;13^op;01^op": -1}, id=v)
          for v in ("de", "normalized")),
        # front seam: the split term 12;23 of d(123) meets 12^op in front of it
        *(pytest.param(v, "02;12^op;123;03^op", 5,
                       {"02;12^op;13;03^op": -1, "02;23;03^op": 1}, id=f"front-seam-{v}")
          for v in ("de", "normalized")),
    ])
    def test_junction_cancellation_is_canonicalized(self, fixtures, monkeypatch,
                                                    variant, word, max_weight, want):
        zx = fixtures["bd3"]
        calls = []

        def spy(*args):
            calls.append(args)
            return canonical(*args)

        monkeypatch.setattr(homology_module, "canonical", spy)
        w = parse_word(zx, word)
        tower = degree_bases(zx, 1, variant, max_weight)
        assert w in tower[1]
        m, dom, cod = boundary_matrix(zx, [w], tower[0], letter_boundary(zx, variant), None)
        column = {str(cod[i]): v for (i, _), v in m.entries.items()}
        assert column == want
        assert len(calls) == 1

    @pytest.mark.parametrize("name, top, variant, max_weight", [
        ("bd3", 5, "normalized", 10), ("bd3", 5, "de", 10), ("bd4", 4, "normalized", 8)])
    def test_only_seam_terms_are_normalized(self, complexes, monkeypatch,
                                            name, top, variant, max_weight):
        # the word path normalizes a term only when it is not a codomain
        # word; those are exactly the terms where an inverse edge pair meets
        # at a seam, as the pieces around it are canonical
        zx = complexes[name]
        calls = Counter()

        def spy(zx, letters, start):
            calls[letters] += 1
            return canonical(zx, letters, start)

        monkeypatch.setattr(homology_module, "canonical", spy)
        homology(zx, top, variant, max_weight)
        bases = degree_bases(zx, top + 1, variant, max_weight)
        d = letter_boundary(zx, variant)
        seams = Counter(w.letters[:k] + piece + w.letters[k + 1:]
                        for basis in bases[1:] for w in basis for k, t in enumerate(w.letters)
                        for piece, _ in d(t)
                        if inverse_at_seam(zx, w.letters[:k], piece, w.letters[k + 1:]))
        assert calls == seams and seams

    def test_letter_boundary_once_per_call(self, fixtures, monkeypatch):
        # d is a derivation, so homology takes d of each distinct letter of
        # the domains of d_1..d_9 once, for all nine matrices
        zx = fixtures["sphere3"]
        letters = []

        def spy(zx, w, variant):
            letters.extend(w.letters)
            return boundary_word(zx, w, variant)

        monkeypatch.setattr(homology_module, "boundary_word", spy)
        homology(zx, 8, "de")
        domains = degree_bases(zx, 9, "de", None)[1:]
        distinct = {t for basis in domains for w in basis for t in w.letters}
        assert sorted(letters) == sorted(distinct)
        assert len(letters) == 36
        # no letter boundary outlives its call: a second call takes them all again
        homology(zx, 8, "de")
        assert sorted(letters) == sorted([*distinct, *distinct])
        assert len(letters) == 72

    def test_term_outside_codomain_raises(self, fixtures):
        zx = fixtures["bd3"]
        tower = degree_bases(zx, 1, "normalized", 3)
        with pytest.raises(HomologyError, match="outside the codomain basis"):
            boundary_matrix(zx, tower[1], tower[0][:1], letter_boundary(zx, "normalized"), None)


def word_path_table(zx, top, variant):
    """The table of H_0..H_top from the word-keyed bases and matrices
    (``degree_bases`` and ``boundary_matrix`` without tensor bases, called
    by the imported name, which the ``assembled`` fixture does not wrap),
    with the bases and matrices: the reference for the index path."""
    bases = degree_bases(zx, top + 1, variant, None)
    d = letter_boundary(zx, variant)
    mats = [boundary_matrix(zx, bases[n], bases[n - 1], d, None)[0] for n in range(1, top + 2)]
    table = chain_homology(zx.name, [len(b) for b in bases], lambda n: mats[n - 1])
    return table, bases, mats


def keyed(m, dom, cod):
    """A matrix's entries keyed by (codomain word, domain word)."""
    return {(cod[i], dom[j]): v for (i, j), v in m.entries.items()}


@pytest.fixture
def assembled(monkeypatch):
    """The (matrix, domain, codomain) of every call of the module name
    ``boundary_matrix``, in call order, as a caller that wraps it sees them
    (the benchmark's d.d and shared-basis gate does)."""
    calls = []
    original = homology_module.boundary_matrix

    def watched(*args):
        out = original(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(homology_module, "boundary_matrix", watched)
    return calls


class TestTensorAssembly:
    # on a complex without edges, homology lists prefix-major bases and
    # assembles d_n by index arithmetic; the word path is its oracle.  Only
    # sk4 has a letter whose d holds a product of two letters (the
    # 4-simplex splits into two triangles)
    @pytest.mark.parametrize("variant", ["de", "normalized"])
    @pytest.mark.parametrize("name, top", [
        ("sphere2", 7), ("sphere3", 7), ("sphere4", 7), ("moore2", 8), ("susp-rp2", 4),
        ("sk4", 3),
    ])
    def test_index_path_matches_word_path(self, complexes, assembled, name, top, variant):
        if name in complexes:
            zx = complexes[name]
        else:
            zx = load_complex(DATA / f"{name}.json").z_extension()
        want, word_bases, word_mats = word_path_table(zx, top, variant)
        assert homology(zx, top, variant) == want
        assert len(assembled) == top + 1
        tensor_basis_lists = [assembled[0][2]] + [dom for _, dom, _ in assembled]
        for basis, words in zip(tensor_basis_lists, word_bases):
            assert sorted(basis, key=lambda w: (len(w.letters), w.letters)) == words
        for (m, dom, cod), w, n in zip(assembled, word_mats, range(1, top + 2)):
            assert keyed(m, dom, cod) == keyed(w, word_bases[n], word_bases[n - 1]), n

    def test_wedge_of_spheres(self, complexes):
        # Delta^4 / 1-skeleton is a wedge of six 2-spheres: H_n = Z^(6^n)
        # (Bott-Samelson)
        zx = complexes["sk4"]
        assert zx.validate() == []
        table = homology(zx, 3, "normalized")
        assert [(g.free_rank, g.torsion) for g in table.groups] == [(6 ** n, ()) for n in range(4)]

    def test_prefix_major_order(self, fixtures):
        # B_n is t.B_{n-|t|} over the letters in table order
        zx = fixtures["sphere2"]
        tensor = tensor_bases(zx, 3, "de")
        x, x1, x2 = tensor.letters  # the triangle, with 0, 1 and 2 duplicates
        assert [t.dim for t in tensor.letters] == [2, 3, 4]
        assert [w.letters for w in tensor.bases[3]] == [(x, x, x), (x, x1), (x1, x), (x2,)]
        assert tensor.offsets[3] == [0, 2, 3]

    def test_refusals(self, fixtures):
        with pytest.raises(HomologyError, match="has edges"):
            tensor_bases(fixtures["bd3"], 2, "de")
        with pytest.raises(HomologyError, match="unknown variant"):
            tensor_bases(fixtures["sphere2"], 2, "dee")
        tensor = tensor_bases(fixtures["sphere2"], 2, "de")
        with pytest.raises(HomologyError, match="assemble d_1 next"):
            boundary_matrix(fixtures["sphere2"], tensor.bases[2], tensor.bases[1],
                            letter_boundary(fixtures["sphere2"], "de"), tensor)

    @pytest.mark.parametrize("middle, match", [
        (None, "has a unit term"),
        # the triangle with two interior duplicates is no letter of B_0..B_2
        (3, "outside the codomain basis"),
    ], ids=["unit-term", "foreign-letter"])
    def test_letter_boundary_refusals(self, fixtures, middle, match):
        # d_1 from a letter boundary that no complex without edges gives
        zx = fixtures["sphere2"]
        tensor = tensor_bases(zx, 2, "de")
        x = tensor.letters[0]
        piece = () if middle is None else (SimplexTerm(x.generator, (1, middle, 1)),)
        with pytest.raises(HomologyError, match=match):
            boundary_matrix(zx, tensor.bases[1], tensor.bases[0], lambda t: [(piece, 1)], tensor)

    @pytest.mark.parametrize("name, top, variant, max_weight", [
        ("sphere3", 8, "de", None),
        ("bd3", 3, "normalized", 6),
    ], ids=["index-path", "word-path"])
    def test_boundary_matrix_sees_every_matrix(self, fixtures, assembled,
                                              name, top, variant, max_weight):
        # one call per d_n, each with both bases, whichever path assembles
        table = homology(fixtures[name], top, variant, max_weight)
        assert len(assembled) == top + 1
        for m, dom, cod in assembled:
            assert (m.rows, m.cols) == (len(cod), len(dom))
        for (_, dom, _), (_, _, cod) in zip(assembled, assembled[1:]):
            assert dom == cod
        assert table.basis_sizes == (len(assembled[0][2]), *(len(d) for _, d, _ in assembled))
        assert table.nonzeros == (0, *(len(m.entries) for m, _, _ in assembled))


class TestWeightTruncation:
    # boundary-simplex:3 is a 2-sphere with edges: the words of weight <= N
    # are a subcomplex, so homology assembles every d_n with no term leaving
    # the bases, and checks d_n d_{n+1} = 0
    @pytest.mark.parametrize("variant", ["de", "normalized"])
    @pytest.mark.parametrize("max_weight", range(7))
    def test_bd3_subcomplex(self, fixtures, max_weight, variant):
        zx = fixtures["bd3"]
        table = homology(zx, 3, variant, max_weight)
        assert table.max_weight == max_weight
        assert all(g.free_rank >= 0 for g in table.groups), table
        tower = degree_bases(zx, 3, variant, max_weight)
        for d, basis in enumerate(tower):
            assert all(weight(w) <= max_weight for w in basis)
            assert basis == closure_basis(zx, d, variant, max_weight), d

    def test_broken_coefficient_raises(self, fixtures, monkeypatch):
        assembled = []
        original = homology_module.boundary_matrix

        def broken(*args):
            m, dom, cod = original(*args)
            if assembled:  # d_2: double an entry in a row whose word d_1 keeps
                d1 = assembled[0]
                (i, j), v = next(((i, j), v) for (i, j), v in m.entries.items()
                                 if any(k == i for _, k in d1.entries))
                m.entries[(i, j)] = 2 * v
            assembled.append(m)
            return m, dom, cod

        monkeypatch.setattr(homology_module, "boundary_matrix", broken)
        with pytest.raises(HomologyError, match="d_1 d_2 is not zero"):
            homology(fixtures["bd3"], 1, "normalized", 6)

    def test_edges_need_a_bound(self, fixtures):
        with pytest.raises(HomologyError, match="--max-weight"):
            homology(fixtures["wedge2"], 1, "normalized")
        with pytest.raises(HomologyError, match="--max-weight"):
            degree_bases(fixtures["bd3"], 1, "de", None)


class TestLoopHomology:
    def test_sphere2(self, fixtures):
        # based loops on S^2: H_n = Z for every n
        table = homology(fixtures["sphere2"], 4, "normalized")
        assert table.max_weight is None  # exact
        for g in table.groups:
            assert (g.free_rank, g.torsion) == (1, ()), g

    def test_sphere2_de_variant_agrees(self, fixtures):
        de = homology(fixtures["sphere2"], 3, "de")
        norm = homology(fixtures["sphere2"], 3, "normalized")
        assert de.groups == norm.groups

    def test_sphere3(self, fixtures):
        # based loops on S^3: Z in even degrees, 0 in odd; a bound is ignored
        table = homology(fixtures["sphere3"], 5, "normalized", 3)
        assert table.max_weight is None
        for g in table.groups:
            want = 1 if g.degree % 2 == 0 else 0
            assert (g.free_rank, g.torsion) == (want, ()), g

    def test_wedge_is_discrete_free_group(self, fixtures):
        # loops on a wedge of circles: H_0 counts the truncated group ball,
        # higher homology vanishes
        table = homology(fixtures["wedge2"], 2, "normalized", 3)
        assert table.max_weight == 3
        assert table.groups[0].free_rank == 1 + 4 + 12 + 36
        for g in table.groups[1:]:
            assert (g.free_rank, g.torsion) == (0, ())

    @pytest.mark.parametrize("name, top, step", [
        ("sphere2", 10, 1),
        ("sphere3", 12, 2),
        ("sphere4", 12, 3),
    ])
    def test_spheres_deep_de(self, complexes, name, top, step):
        # Bott-Samelson: H(Omega S^n) = Z[x] with |x| = n - 1
        table = homology(complexes[name], top, "de")
        for g in table.groups:
            want = 1 if g.degree % step == 0 else 0
            assert (g.free_rank, g.torsion) == (want, ()), g

    @pytest.mark.parametrize("document, variant, top", [
        ("moore2", "normalized", 12), ("moore2", "de", 8),
        ("susp-rp2", "normalized", 4), ("susp-rp2", "de", 4),
    ], ids=["normalized-12", "de-8", "susp-rp2-normalized-4", "susp-rp2-de-4"])
    def test_moore_space(self, document, variant, top):
        # M(Z/2, 2) is Sigma RP^2 up to homotopy.  No d_n of moore2 has a
        # unit entry; susp-rp2, a quotient of the suspension of a
        # triangulated RP^2 with five triangles and five tetrahedra, has
        # units and 2-torsion together.  Bott-Samelson gives H_n =
        # (Z/2)^F_n for n >= 1, F_n the Fibonacci numbers with F_1 = F_2 = 1
        zx = load_complex(DATA / f"{document}.json")
        table = homology(zx.z_extension(), top, variant)
        fib = [0, 1]
        while len(fib) <= top:
            fib.append(fib[-1] + fib[-2])
        assert table.max_weight is None
        assert [(g.free_rank, g.torsion) for g in table.groups] == \
            [(1, ())] + [(0, (2,) * fib[n]) for n in range(1, top + 1)]
        assert list(field_dimensions(table, 2).values())[:5] == [1, 1, 2, 3, 5]
        assert field_dimensions(table, None) == {0: 1, **dict.fromkeys(range(1, top + 1), 0)}

    def test_negative_degree_raises(self, fixtures):
        zx = fixtures["sphere2"]
        with pytest.raises(HomologyError, match="max_degree must be non-negative"):
            homology(zx, -1, "de")
        # these once returned [] and raised a bare IndexError
        with pytest.raises(HomologyError, match="degree must be non-negative, got -1"):
            degree_bases(zx, -1, "de", None)
        with pytest.raises(HomologyError, match="degree must be non-negative, got -1"):
            degree_basis(zx, -1, "normalized", None)

    def test_basis_sizes_and_nonzeros(self, fixtures):
        zx = fixtures["sphere3"]
        table = homology(zx, 3, "de")
        tower = degree_bases(zx, 4, "de", None)
        assert table.basis_sizes == tuple(len(b) for b in tower)
        d = letter_boundary(zx, "de")
        nonzeros = [0] + [len(boundary_matrix(zx, tower[n], tower[n - 1], d, None)[0].entries)
                          for n in range(1, 5)]
        assert table.nonzeros == tuple(nonzeros)

    def test_truncated_label(self, fixtures):
        # at length bound 5 this complex once gave H_1 free rank -4; at
        # weight 5 it is a subcomplex, and its table says it is truncated
        table = homology(fixtures["bd3"], 2, "normalized", 5)
        assert table.max_weight == 5
        assert [g.free_rank for g in table.groups] == [3, 4, 0]


class TestFieldCoefficients:
    def test_free_part_only(self, fixtures):
        table = homology(fixtures["sphere2"], 3, "normalized")
        dims = field_dimensions(table, None)
        assert dims == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_torsion_counts_twice(self):
        from loopspace.homology import HomologyGroup, HomologyTable

        table = HomologyTable(None, (
            HomologyGroup(0, 1, ()),
            HomologyGroup(1, 0, (2,)),
            HomologyGroup(2, 0, ()),
        ), (), ())
        assert field_dimensions(table, 2) == {0: 1, 1: 1, 2: 1}
        assert field_dimensions(table, 3) == {0: 1, 1: 0, 2: 0}
