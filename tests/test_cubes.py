"""The cube on a standard simplex, as necklaces and path cells of
standard_simplex(n): the listing, its labels, and the word and path-cell
operators on it, checked against the separate block-label normal form."""

import pytest
from word_oracles import dup_canonical_reference

from loopspace.cli import _cube_label
from loopspace.cubes import dup_canonical, face_coordinates
from loopspace.paths import (
    PathCell,
    cube_cells,
    path_canonical,
    path_degeneracy_raw,
    path_degeneracy_slots,
    path_face_raw,
)
from loopspace.simplicial import SimplexTerm, standard_simplex
from loopspace.words import (
    LoopWord,
    canonical,
    degeneracy_slots,
    word_degeneracy,
    word_face_raw,
)


def cells(n, augmented=False):
    return [c for _, c in cube_cells(standard_simplex(n), augmented)]


def term(zx, vertices, mult=None):
    t = zx.term("".join(map(str, vertices)))
    return t if mult is None else SimplexTerm(t.generator, mult)


class _Ops:
    """The word operators on plain cube cells, the path-cell operators on
    augmented ones."""

    def __init__(self, n, augmented):
        self.zx = zx = standard_simplex(n)
        self.augmented = augmented
        if augmented:
            self.face = lambda c, i, eps: path_face_raw(zx, c, i, eps)
            self.degeneracy = lambda c, j: path_degeneracy_raw(zx, c, j)
            self.slots = path_degeneracy_slots
            self.normal = lambda c: path_canonical(zx, c.base, c.tail)
        else:
            self.face = lambda w, i, eps: word_face_raw(zx, w, i, eps)
            self.degeneracy = lambda w, j: word_degeneracy(zx, w, j)
            self.slots = degeneracy_slots
            self.normal = lambda w: canonical(zx, w.letters, w.start)

    def beads(self, c):
        if self.augmented:
            return (c.base, *c.tail.letters)
        return c.letters

    def positions(self, c):
        dims = [t.dim for t in self.beads(c)]
        return face_coordinates(dims, head=self.augmented)

    def blocks(self, c):
        """The vertex labels of each bead, a vertex repeated by its multiplicity."""
        out = []
        for t in self.beads(c):
            name = t.generator.name
            verts = name.split(",") if "," in name else list(name)
            out.append(tuple(int(v) for v, m in zip(verts, t.mult) for _ in range(m)))
        return tuple(out)


class TestLabels:
    def test_dimension_formula(self):
        # degree = positions - blocks - 1, and - 0 for augmented cells
        assert cells(4)[0].degree == 3
        assert cells(4, augmented=True)[0].degree == 4
        for n, aug in ((4, False), (5, False), (4, True)):
            for blocks, c in cube_cells(standard_simplex(n), aug):
                positions = sum(len(b) for b in blocks) - (len(blocks) - 1)
                assert c.degree == positions - len(blocks) - (0 if aug else 1)

    def test_augmented_rendering(self):
        assert _cube_label(((0, 1, 2), (2, 3)), False) == "[0,1,2][2,3]"
        assert _cube_label(((0, 2), (2, 3)), True) == "0,2][2,3]"
        assert _cube_label(((2,),), True) == "2]"

    def test_invariants_enforced(self):
        # increasing blocks sharing their junctions, from 0 (plain) to n,
        # each block the vertices of its bead
        for n, aug in ((4, False), (3, True)):
            ops = _Ops(n, aug)
            for blocks, c in cube_cells(ops.zx, aug):
                assert all(list(b) == sorted(set(b)) for b in blocks)
                assert all(a[-1] == b[0] for a, b in zip(blocks, blocks[1:]))
                assert blocks[-1][-1] == n and (aug or blocks[0][0] == 0)
                assert ops.blocks(c) == blocks

    def test_cell_counts(self):
        # 3^(n-1) nondegenerate cells of the cube on the n-simplex, 3^n augmented
        assert len(cells(4)) == 27
        assert len(cells(5)) == 81
        assert len(cells(4, augmented=True)) == 81
        for n in range(1, 7):
            assert len(set(cells(n))) == 3 ** (n - 1)
        for n in range(6):
            assert len(set(cells(n, augmented=True))) == 3 ** n

    def test_psi_projection(self):
        # an augmented cell projects to the face of the simplex its base
        # cuts out, from the first to the last vertex of its first block
        zx = standard_simplex(3)
        for blocks, c in cube_cells(zx, augmented=True):
            assert isinstance(c, PathCell)
            assert c.base == term(zx, blocks[0])
            assert zx.endpoints(c.base) == (str(blocks[0][0]), str(blocks[0][-1]))
            assert c.tail.start == str(blocks[0][-1]) and c.tail.end == "3"


class TestStrictCalculus:
    """Faces of duplicate-free cells, which stay duplicate-free."""

    def test_face_dimensions(self):
        for n, aug in ((4, False), (3, True)):
            ops = _Ops(n, aug)
            for c in cells(n, aug):
                for i in range(1, c.degree + 1):
                    for eps in (0, 1):
                        f = ops.face(c, i, eps)
                        assert f.degree == c.degree - 1 and ops.normal(f) == f

    def test_face_face_interchange_exhaustive(self):
        for n, aug in ((5, False), (4, True)):
            face = _Ops(n, aug).face
            for c in cells(n, aug):
                for j in range(1, c.degree + 1):
                    for i in range(1, j):
                        for eps in (0, 1):
                            for om in (0, 1):
                                assert (face(face(c, j, om), i, eps)
                                        == face(face(c, i, eps), j - 1, om))

    def test_top_cell_faces_split_or_delete(self):
        zx = standard_simplex(3)
        c = cells(3)[0]
        assert c == LoopWord((term(zx, (0, 1, 2, 3)),), "0", "3")
        assert word_face_raw(zx, c, 1, 1).letters == (term(zx, (0, 2, 3)),)
        assert word_face_raw(zx, c, 1, 0).letters == (term(zx, (0, 1)), term(zx, (1, 2, 3)))


class TestDuplicateCalculus:
    def test_strict_cells_are_canonical(self):
        for aug in (False, True):
            ops = _Ops(4, aug)
            for c in cells(4, aug):
                assert ops.normal(c) == c

    def test_constant_bead_dissolves(self):
        # a length-2 constant bead dissolves outright, its single duplicate
        # absorbed with it; a length-3 one leaves a free duplicate, which
        # canonical form assigns to the right-hand bead
        zx = standard_simplex(2)
        a, b = term(zx, (0, 1)), term(zx, (1, 2))
        assert canonical(zx, (a, term(zx, (1,), (2,)), b)).letters == (a, b)
        assert canonical(zx, (a, term(zx, (1,), (3,)), b)).letters == (
            a, term(zx, (1, 2), (2, 1)))

    def test_base_only_duplicates_synthesize_tail(self):
        # free duplicates on a bare augmented base become a constant tail
        zx = standard_simplex(1)
        raw = PathCell(term(zx, (0, 1), (1, 3)), LoopWord((), "1", "1"))
        out = path_canonical(zx, raw.base, raw.tail)
        assert _Ops(1, True).blocks(out) == ((0, 1), (1, 1, 1, 1))
        assert out.degree == raw.degree

    def test_degeneracy_raises_dim(self):
        for n, aug in ((4, False), (3, True)):
            ops = _Ops(n, aug)
            for c in cells(n, aug):
                for j in range(1, ops.slots(c) + 1):
                    assert ops.degeneracy(c, j).degree == c.degree + 1

    def test_face_positions_cover_dim(self):
        for n, aug in ((4, False), (3, True)):
            ops = _Ops(n, aug)
            for c in cells(n, aug):
                assert len(ops.positions(c)) == c.degree


def _check_relation_rows(ops, cells):
    """Face/degeneracy rows classified by the position of the face
    coordinate relative to the two copies a degeneracy creates."""
    face, degeneracy, normal = ops.face, ops.degeneracy, ops.normal
    for d in cells:
        n = d.degree
        for j in range(1, ops.slots(d) + 1):
            ed = degeneracy(d, j)
            fps = ops.positions(ed)
            assert ed.degree == n + 1 and len(fps) == n + 1
            for idx, (p, _, _) in enumerate(fps, start=1):
                for eps in (0, 1):
                    left = normal(face(ed, idx, eps))
                    if p < j - 1:
                        right = normal(degeneracy(face(d, idx, eps), j - eps))
                        assert left == right, (d, j, idx, eps)
                    elif p > j:
                        right = normal(degeneracy(face(d, idx - 1, eps), j))
                        assert left == right, (d, j, idx, eps)
                    elif eps == 1:
                        assert left == normal(d), (d, j, idx)
            copies = [idx for idx, (p, _, _) in enumerate(fps, start=1) if p in (j - 1, j)]
            if len(copies) == 2:
                assert normal(face(ed, copies[0], 0)) == normal(face(ed, copies[1], 0)), (d, j)
            for i in range(j + 1, ops.slots(ed) + 1):
                assert (normal(degeneracy(ed, i))
                        == normal(degeneracy(degeneracy(d, i - 1), j))), (d, j, i)


class TestRelationRows:
    def test_rows_on_cube(self):
        _check_relation_rows(_Ops(4, False), cells(4))

    def test_rows_on_augmented_cube(self):
        # empty-tail cells included: their last slot duplicates the base's
        # last vertex
        _check_relation_rows(_Ops(3, True), cells(3, augmented=True))


def _raw_neighbours(ops, d):
    """Every face and degeneracy of d, uncanonicalized."""
    out = [ops.face(d, i, eps) for i in range(1, d.degree + 1) for eps in (0, 1)]
    out += [ops.degeneracy(d, j) for j in range(1, ops.slots(d) + 1)]
    return out


class TestNormalFormOracle:
    @pytest.mark.parametrize("n, aug", [(4, False), (3, True)], ids=["cube", "augmented"])
    def test_agrees_with_separate_routine(self, n, aug):
        # faces and degeneracies of the cells, and of their degeneracies,
        # which carry duplicates at junctions, ends and interiors
        ops = _Ops(n, aug)
        for c in cells(n, aug):
            for d in _raw_neighbours(ops, c):
                for e in [d] + _raw_neighbours(ops, d):
                    want = dup_canonical_reference(aug, ops.blocks(e))
                    assert ops.blocks(ops.normal(e)) == want, e
                    assert dup_canonical(aug, ops.blocks(e)) == want, e
