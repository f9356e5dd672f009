import pytest
from word_oracles import dup_canonical_reference

from loopspace.cubes import (
    CubeError,
    all_cells,
    dup_canonical,
    dup_degeneracy,
    dup_degeneracy_slots,
    dup_face,
    dup_face_positions,
    DupCell,
    psi,
    top_cell,
)


class TestLabels:
    def test_dimension_formula(self):
        assert top_cell(4).dim == 3
        assert top_cell(4, augmented=True).dim == 4
        c = DupCell(False, ((0, 1, 2), (2, 3)))
        assert c.dim == 1
        assert str(c) == "[0,1,2][2,3]"

    def test_augmented_rendering(self):
        c = DupCell(True, ((0, 2), (2, 3)))
        assert str(c) == "0,2][2,3]"

    def test_invariants_enforced(self):
        with pytest.raises(CubeError):
            DupCell(False, ((0, 2), (3,)))  # junction mismatch
        with pytest.raises(CubeError):
            DupCell(False, ((1, 2),))  # must start at 0

    def test_cell_counts(self):
        # 3^(n-1) nondegenerate cells of the cube on the n-simplex
        assert len(all_cells(4)) == 27
        assert len(all_cells(5)) == 81
        assert len(all_cells(4, augmented=True)) == 81

    def test_psi_projection(self):
        c = DupCell(True, ((0, 2), (2, 3)))
        assert psi(c) == (0, 2)
        with pytest.raises(CubeError):
            psi(top_cell(3))


class TestStrictCalculus:
    """Faces of duplicate-free cells, which stay duplicate-free."""

    def test_face_dimensions(self):
        for c in all_cells(4) + all_cells(3, augmented=True):
            for i in range(1, c.dim + 1):
                for eps in (0, 1):
                    assert dup_face(c, i, eps).dim == c.dim - 1

    def test_face_face_interchange_exhaustive(self):
        for c in all_cells(5) + all_cells(4, augmented=True):
            for j in range(1, c.dim + 1):
                for i in range(1, j):
                    for eps in (0, 1):
                        for om in (0, 1):
                            assert (
                                dup_face(dup_face(c, j, om), i, eps)
                                == dup_face(dup_face(c, i, eps), j - 1, om)
                            )

    def test_top_cell_faces_split_or_delete(self):
        c = top_cell(3)
        assert dup_face(c, 1, 1).blocks == ((0, 2, 3),)
        assert dup_face(c, 1, 0).blocks == ((0, 1), (1, 2, 3))


class TestDuplicateCalculus:
    def test_strict_cells_are_canonical(self):
        for c in all_cells(4) + all_cells(4, augmented=True):
            assert dup_canonical(c) == c

    def test_constant_bead_dissolves(self):
        # a length-2 constant bead dissolves outright, its single duplicate
        # absorbed with it; a length-3 one leaves a free duplicate, which
        # canonical form assigns to the right-hand block
        assert dup_canonical(DupCell(False, ((0, 1), (1, 1), (1, 2)))) == DupCell(
            False, ((0, 1), (1, 2))
        )
        assert dup_canonical(DupCell(False, ((0, 1), (1, 1, 1), (1, 2)))) == DupCell(
            False, ((0, 1), (1, 1, 2))
        )

    def test_base_only_duplicates_synthesize_tail(self):
        # free duplicates on a bare augmented base become a constant tail
        d = DupCell(True, ((0, 1, 1, 1),))
        out = dup_canonical(d)
        assert out.blocks == ((0, 1), (1, 1, 1, 1))
        assert out.dim == d.dim

    def test_degeneracy_raises_dim(self):
        for d in all_cells(4):
            for j in range(1, dup_degeneracy_slots(d) + 1):
                assert dup_degeneracy(d, j).dim == d.dim + 1

    def test_face_positions_cover_dim(self):
        for d in all_cells(4) + all_cells(3, augmented=True):
            assert len(dup_face_positions(d)) == d.dim


def _check_relation_rows(cells):
    """Face/degeneracy rows classified by the position of the face
    coordinate relative to the two copies a degeneracy creates."""
    for d in cells:
        n = d.dim
        for j in range(1, dup_degeneracy_slots(d) + 1):
            ed = dup_degeneracy(d, j)
            fps = dup_face_positions(ed)
            assert ed.dim == n + 1 and len(fps) == n + 1
            for idx, (p, _, _) in enumerate(fps, start=1):
                for eps in (0, 1):
                    left = dup_canonical(dup_face(ed, idx, eps))
                    if p < j - 1:
                        right = dup_canonical(
                            dup_degeneracy(dup_face(d, idx, eps), j - eps))
                        assert left == right, (d, j, idx, eps)
                    elif p > j:
                        right = dup_canonical(
                            dup_degeneracy(dup_face(d, idx - 1, eps), j))
                        assert left == right, (d, j, idx, eps)
                    elif eps == 1:
                        assert left == dup_canonical(d), (d, j, idx)
            copies = [idx for idx, (p, _, _) in enumerate(fps, start=1)
                      if p in (j - 1, j)]
            if len(copies) == 2:
                assert (dup_canonical(dup_face(ed, copies[0], 0))
                        == dup_canonical(dup_face(ed, copies[1], 0))), (d, j)
            for i in range(j + 1, dup_degeneracy_slots(ed) + 1):
                assert (dup_canonical(dup_degeneracy(ed, i))
                        == dup_canonical(dup_degeneracy(dup_degeneracy(d, i - 1), j))), (d, j, i)


class TestRelationRows:
    def test_rows_on_cube(self):
        _check_relation_rows(all_cells(4))

    def test_rows_on_augmented_cube(self):
        _check_relation_rows(all_cells(3, augmented=True))


def _raw_neighbours(d):
    """Every face and degeneracy of d, uncanonicalized."""
    out = [dup_face(d, i, eps) for i in range(1, d.dim + 1) for eps in (0, 1)]
    out += [dup_degeneracy(d, j) for j in range(1, dup_degeneracy_slots(d) + 1)]
    return out


class TestNormalFormOracle:
    @pytest.mark.parametrize("cells", [all_cells(4), all_cells(3, augmented=True)],
                             ids=["cube", "augmented"])
    def test_agrees_with_separate_routine(self, cells):
        # faces and degeneracies of the cells, and of their degeneracies,
        # which carry duplicates at junctions, ends and interiors
        for c in cells:
            for d in _raw_neighbours(c):
                for e in [d] + _raw_neighbours(d):
                    assert dup_canonical(e) == dup_canonical_reference(e), e
