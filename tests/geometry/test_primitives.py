"""Unit tests for rectangles, bounding boxes and MINDIST."""

import math

import pytest

from repro.geometry.primitives import BoundingBox, Rect, min_dist_to_box


class TestRectConstruction:
    def test_from_points_is_tight(self):
        r = Rect.from_points([(0, 0), (4, 1), (2, 5), (-1, 2)])
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (-1, 0, 4, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)

    def test_geometry_accessors(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4
        assert r.height == 2
        assert r.center == (2.0, 1.0)


class TestRectUnion:
    def test_union(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(2, 3, 4, 5)
        u = a.union(b)
        assert (u.min_x, u.min_y, u.max_x, u.max_y) == (0, 0, 4, 5)

    @pytest.mark.parametrize(
        "a, b",
        [
            (Rect(0, 0, 4, 4), Rect(1, 1, 2, 2)),  # nested
            (Rect(0, 0, 2, 2), Rect(1, -1, 3, 1)),  # overlapping
            (Rect(1, 1, 1, 1), Rect(-2, 5, -2, 5)),  # two degenerate points
        ],
    )
    def test_union_is_the_tight_box_of_both(self, a, b):
        corners = [
            (r.min_x, r.min_y) for r in (a, b)
        ] + [(r.max_x, r.max_y) for r in (a, b)]
        assert a.union(b) == b.union(a) == Rect.from_points(corners)

    def test_degenerate_point_is_valid(self):
        p = Rect(3.0, 4.0, 3.0, 4.0)
        assert p.width == p.height == 0.0
        assert p.center == (3.0, 4.0)
        assert p.min_dist((3.0, 4.0)) == 0.0
        assert p.min_dist((0.0, 0.0)) == pytest.approx(5.0)


class TestMinDistToBox:
    """The scalar MINDIST kernel: one query point in each of the nine
    regions around (and inside) the box ``[0, 2] x [0, 2]``."""

    @pytest.mark.parametrize("qx", [-3.0, 1.0, 5.0])
    @pytest.mark.parametrize("qy", [-4.0, 0.5, 6.0])
    def test_matches_clamped_distance_and_rect_method(self, qx, qy):
        cx = min(max(qx, 0.0), 2.0)
        cy = min(max(qy, 0.0), 2.0)
        got = min_dist_to_box((qx, qy), 0.0, 0.0, 2.0, 2.0)
        assert got == pytest.approx(math.hypot(qx - cx, qy - cy), rel=1e-15)
        # The Rect method is a thin wrapper: bit-identical.
        assert got == Rect(0.0, 0.0, 2.0, 2.0).min_dist((qx, qy))

    def test_single_axis_gap_is_exact(self):
        # dx == 0 or dy == 0 returns the other gap without a hypot round.
        assert min_dist_to_box((0.1, 7.3), 0.0, 0.0, 1.0, 1.0) == 7.3 - 1.0
        assert min_dist_to_box((-2.5, 0.5), 0.0, 0.0, 1.0, 1.0) == 2.5


class TestMinDist:
    def test_inside_is_zero(self):
        r = Rect(0, 0, 2, 2)
        assert r.min_dist((1, 1)) == 0.0
        assert r.min_dist((0, 0)) == 0.0  # boundary

    def test_axis_aligned_gap(self):
        r = Rect(0, 0, 2, 2)
        assert r.min_dist((5, 1)) == pytest.approx(3.0)
        assert r.min_dist((1, -4)) == pytest.approx(4.0)

    def test_corner_gap(self):
        r = Rect(0, 0, 2, 2)
        assert r.min_dist((5, 6)) == pytest.approx(math.hypot(3, 4))

    def test_min_dist_lower_bounds_any_inner_point(self):
        r = Rect(1, 1, 3, 4)
        q = (-2.0, 0.5)
        for cx in (r.min_x, r.max_x):
            for cy in (r.min_y, r.max_y):
                assert r.min_dist(q) <= math.hypot(q[0] - cx, q[1] - cy) + 1e-12


class TestBoundingBox:
    def test_requires_positive_extent(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 1)

    def test_from_points_pads(self):
        box = BoundingBox.from_points([(0, 0), (10, 10)])
        assert box.min_x < 0 < 10 < box.max_x
        assert box.min_y < 0 < 10 < box.max_y

    def test_normalise_in_unit_square(self):
        box = BoundingBox(0, 0, 10, 20)
        for p in [(0, 0), (10, 20), (5, 5), (-3, 25)]:  # clamps out-of-range
            nx, ny = box.normalise(p)
            assert 0.0 <= nx < 1.0
            assert 0.0 <= ny < 1.0

    @pytest.mark.parametrize(
        "point, want",
        [((0, 0), (0.0, 0.0)), ((5, 10), (0.5, 0.5)), ((2.5, 15), (0.25, 0.75))],
    )
    def test_normalise_interior_is_affine(self, point, want):
        box = BoundingBox(0, 0, 10, 20)
        assert box.normalise(point) == pytest.approx(want)

    def test_from_points_pad_scales_with_extent(self):
        box = BoundingBox.from_points([(0, 0), (1000, 1)])
        assert 0 - box.min_x == pytest.approx(1000 * 1e-6)
        assert box.width > 1000 and box.height > 1

    def test_normalise_is_monotone(self):
        box = BoundingBox(0, 0, 10, 10)
        ax, _ = box.normalise((2, 5))
        bx, _ = box.normalise((7, 5))
        assert ax < bx
