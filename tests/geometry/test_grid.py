"""Unit tests for the hierarchical quad-grid."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geometry.grid import Cell, GridLevel, HierarchicalGrid
from repro.geometry.primitives import BoundingBox
from repro.geometry.zcurve import z_decode


@pytest.fixture
def box():
    return BoundingBox(0.0, 0.0, 64.0, 64.0)


@pytest.fixture
def grid(box):
    return HierarchicalGrid(box, depth=4)  # 16 x 16 leaves


class TestStructure:
    def test_level_count(self, grid):
        assert len(grid.levels) == 4
        assert grid.level(1).side == 2
        assert grid.level(4).side == 16

    def test_bad_depth_raises(self, box):
        with pytest.raises(ValueError):
            HierarchicalGrid(box, depth=0)

    def test_level_out_of_range_raises(self, grid):
        with pytest.raises(ValueError):
            grid.level(0)
        with pytest.raises(ValueError):
            grid.level(5)


class TestLocate:
    def test_locate_leaf_contains_point(self, grid):
        for p in [(0.1, 0.1), (63.9, 63.9), (32.0, 16.0), (7.3, 55.5)]:
            cell = grid.locate_leaf(p)
            assert cell.level == 4
            assert grid.rect(cell).contains_point(p)

    def test_locate_any_level_contains_point(self, grid):
        p = (40.5, 22.25)
        for lvl in range(1, 5):
            cell = grid.locate(p, lvl)
            assert grid.rect(cell).contains_point(p)

    def test_points_outside_box_clamp(self, grid):
        cell = grid.locate_leaf((-5.0, 100.0))
        assert cell.level == 4  # clamped, no crash
        assert 0 <= cell.code < 256

    def test_locate_consistent_with_ancestors(self, grid):
        p = (13.0, 59.0)
        leaf = grid.locate_leaf(p)
        for lvl in range(1, 4):
            assert grid.locate(p, lvl) == grid.cell_of_leaf_at(leaf.code, lvl)


class TestLocateMany:
    """``locate_many`` is ``locate`` over an array — the scalar method stays
    the definition, and the codes are equal with ``==``: a point that lands
    one cell off posts its trajectory under the wrong ITL list."""

    finite = st.floats(-1e4, 1e4, allow_nan=False)
    extent = st.floats(1e-3, 1e4, allow_nan=False)

    @given(finite, finite, extent, extent, st.integers(1, 16), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    @example(0.0, 0.0, 1.0, 1.0, 8, random.Random(0))
    def test_equals_locate_exactly(self, min_x, min_y, width, height, level, rng):
        box = BoundingBox(min_x, min_y, min_x + width, min_y + height)
        grid_level = GridLevel(box, level)
        corner = grid_level.rect(rng.randrange(grid_level.n_cells))
        points = [
            (rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y))
            for _ in range(20)
        ]
        points += [
            # on the box edges and corners, and clamped from outside them
            (box.min_x, box.min_y),
            (box.max_x, box.max_y),
            (box.max_x, box.min_y),
            (box.min_x - 3.0 * width, box.max_y + 0.5 * height),
            (box.max_x + 1e9, box.min_y - 1e-9),
            # on a corner four cells share
            (corner.max_x, corner.min_y),
            (corner.min_x, corner.max_y),
        ]
        codes = grid_level.locate_many(np.array(points))
        assert codes.dtype == np.int64
        assert codes.tolist() == [grid_level.locate(p) for p in points]

    def test_no_points(self, grid):
        assert grid.leaf_level.locate_many(np.empty((0, 2))).tolist() == []


class TestHierarchyLinks:
    def test_parent_rect_contains_child_rect(self, grid):
        cell = grid.locate_leaf((10.0, 10.0))
        child_rect = grid.rect(cell)
        parent = cell.parent()
        assert grid.rect(parent).contains_rect(child_rect)

    def test_children_partition_parent(self, grid):
        parent = Cell(2, 5)
        kids = parent.children()
        assert len(kids) == 4
        total_area = sum(grid.rect(k).area for k in kids)
        assert total_area == pytest.approx(grid.rect(parent).area)
        for k in kids:
            assert grid.rect(parent).contains_rect(grid.rect(k))

    def test_level1_has_no_parent(self):
        with pytest.raises(ValueError):
            Cell(1, 0).parent()

    def test_ancestors_walk_to_root_level(self, grid):
        leaf = grid.locate_leaf((1.0, 1.0))
        chain = list(grid.ancestors(leaf))
        assert [c.level for c in chain] == [3, 2, 1]


class TestMinDist:
    def test_zero_inside(self, grid):
        p = (33.0, 33.0)
        cell = grid.locate_leaf(p)
        assert grid.min_dist(p, cell) == 0.0

    def test_child_min_dist_at_least_parent(self, grid):
        # MINDIST is monotone up the hierarchy: the traversal relies on it.
        p = (1.0, 1.0)
        far_leaf = grid.locate_leaf((60.0, 60.0))
        d_leaf = grid.min_dist(p, far_leaf)
        for anc in grid.ancestors(far_leaf):
            assert grid.min_dist(p, anc) <= d_leaf + 1e-12

    def test_cell_of_leaf_at_validates(self, grid):
        with pytest.raises(ValueError):
            grid.cell_of_leaf_at(0, 9)


def _combine(dx, dy):
    """The best-first walk's MINDIST from two gap-table reads: the combine
    ``min_dist_to_box`` ends with."""
    return dy if dx == 0.0 else dx if dy == 0.0 else math.hypot(dx, dy)


class TestCellMinDist:
    """Cell MINDIST — :meth:`GridLevel.min_dist` and the walk's
    :meth:`GridLevel.axis_gaps` combine — is the ``Rect`` MINDIST: equal
    with ``==``, never ``isclose`` — it orders the best-first heap, and a
    last-bit difference reorders pops."""

    finite = st.floats(-1e4, 1e4, allow_nan=False)
    extent = st.floats(1e-3, 1e4, allow_nan=False)
    where = st.sampled_from(["inside", "outside", "beside", "edge"])

    @staticmethod
    def _point(box, grid_level, rng, where):
        width, height = box.max_x - box.min_x, box.max_y - box.min_y
        if where == "inside":
            return (rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y))
        if where == "outside":
            return (
                box.min_x - rng.uniform(0.0, 2.0) * width,
                box.max_y + rng.uniform(0.0, 2.0) * height,
            )
        if where == "beside":  # outside along x only, on either side
            offset = rng.uniform(0.0, 2.0) * width
            x = rng.choice([box.min_x - offset, box.max_x + offset])
            return (x, rng.uniform(box.min_y, box.max_y))
        # A corner shared by cells: dx or dy is exactly 0 for its neighbours.
        corner = grid_level.rect(rng.randrange(grid_level.n_cells))
        return (corner.max_x, corner.min_y)

    @given(finite, finite, extent, extent, st.integers(1, 8), st.randoms(use_true_random=False), where)
    @settings(max_examples=300, deadline=None)
    @example(0.0, 0.0, 1.0, 1.0, 8, random.Random(0), "edge")
    def test_equals_rect_min_dist_exactly(self, min_x, min_y, width, height, level, rng, where):
        box = BoundingBox(min_x, min_y, min_x + width, min_y + height)
        grid_level = GridLevel(box, level)
        code = rng.randrange(grid_level.n_cells)
        point = self._point(box, grid_level, rng, where)
        expected = grid_level.rect(code).min_dist(point)
        assert grid_level.min_dist(point, code) == expected
        gx, gy = grid_level.axis_gaps(point)
        cx, cy = z_decode(code, level)
        assert _combine(gx[cx], gy[cy]) == expected

    @given(finite, finite, extent, extent, st.integers(1, 5), st.randoms(use_true_random=False), where)
    @settings(max_examples=60, deadline=None)
    @example(0.0, 0.0, 1.0, 1.0, 5, random.Random(0), "edge")
    @example(-3.7, 11.1, 0.3, 1e4, 5, random.Random(1), "edge")
    def test_axis_gaps_at_every_cell_of_every_level(self, min_x, min_y, width, height, depth, rng, where):
        """The gap tables of each level, combined, at every one of its cells."""
        box = BoundingBox(min_x, min_y, min_x + width, min_y + height)
        grid = HierarchicalGrid(box, depth)
        point = self._point(box, rng.choice(grid.levels), rng, where)
        for grid_level in grid.levels:
            gx, gy = grid_level.axis_gaps(point)
            assert len(gx) == len(gy) == grid_level.side
            for code in range(grid_level.n_cells):
                cx, cy = z_decode(code, grid_level.level)
                assert _combine(gx[cx], gy[cy]) == grid_level.rect(code).min_dist(point)

    def test_children_share_parent_coordinates(self, grid):
        # Child 4·code + j of cell (cx, cy) sits at (2cx + (j & 1), 2cy + (j >> 1)).
        parent = grid.locate((40.0, 10.0), 2)
        cx, cy = z_decode(parent.code, 2)
        for j, child in enumerate(parent.children()):
            assert z_decode(child.code, 3) == (2 * cx + (j & 1), 2 * cy + (j >> 1))
