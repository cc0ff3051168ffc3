"""Property-based tests for the index substrates."""

import random

from hypothesis import given, settings, strategies as st

from repro.geometry.primitives import BoundingBox, Rect
from repro.geometry.zcurve import z_decode, z_encode, z_parent
from rect_oracle import contains_point, contains_rect
from sketch_oracle import TrajectorySketch, optimal_intervals


class TestZCurveProperties:
    @given(
        st.integers(min_value=1, max_value=10),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, depth, rng):
        cx = rng.randrange(1 << depth)
        cy = rng.randrange(1 << depth)
        assert z_decode(z_encode(cx, cy, depth), depth) == (cx, cy)

    @given(st.integers(min_value=2, max_value=10), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_parent_halves_coordinates(self, depth, rng):
        cx = rng.randrange(1 << depth)
        cy = rng.randrange(1 << depth)
        z = z_encode(cx, cy, depth)
        assert z_decode(z_parent(z), depth - 1) == (cx >> 1, cy >> 1)


class TestRectProperties:
    rect_st = st.tuples(
        st.floats(-100, 100), st.floats(-100, 100), st.floats(0, 50), st.floats(0, 50)
    ).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))
    point_st = st.tuples(st.floats(-150, 150), st.floats(-150, 150))

    @given(rect_st, rect_st)
    @settings(max_examples=200, deadline=None)
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert contains_rect(u, a) and contains_rect(u, b)

    @given(rect_st, point_st)
    @settings(max_examples=200, deadline=None)
    def test_min_dist_zero_iff_contained(self, r, p):
        if contains_point(r, p):
            assert r.min_dist(p) == 0.0
        else:
            assert r.min_dist(p) > 0.0

    @given(rect_st, rect_st, point_st)
    @settings(max_examples=200, deadline=None)
    def test_min_dist_monotone_in_containment(self, a, b, p):
        u = a.union(b)
        assert u.min_dist(p) <= a.min_dist(p) + 1e-12


class TestTASProperties:
    ids_st = st.frozensets(st.integers(min_value=0, max_value=300), min_size=1, max_size=25)

    @given(ids_st, st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_no_false_dismissals(self, ids, m):
        sketch = TrajectorySketch.from_activities(ids, m)
        assert sketch.covers_all(ids)

    @given(ids_st, st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_intervals_sorted_and_disjoint(self, ids, m):
        intervals = optimal_intervals(sorted(ids), m)
        assert len(intervals) <= m
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert lo1 <= hi1 < lo2 <= hi2

    @given(ids_st)
    @settings(max_examples=100, deadline=None)
    def test_span_decreases_with_m(self, ids):
        spans = [
            TrajectorySketch.from_activities(ids, m).total_span() for m in (1, 2, 4)
        ]
        assert spans[0] >= spans[1] >= spans[2]
