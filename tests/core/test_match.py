"""Unit tests for the point-match machinery beyond the paper examples."""

import math

import pytest
from match_oracles import mpm_oracle_mask_dp, mpm_oracle_subset_enum

from repro.core.match import (
    INFINITY,
    PointMatchTable,
    minimum_point_match,
    minimum_point_match_distance,
)
from repro.model.distance import EuclideanDistance
from repro.model.point import TrajectoryPoint


def _pts(specs):
    """specs: [(x, activities)] -> [(pos, point)] with y = 0."""
    return [
        (i, TrajectoryPoint(float(x), 0.0, frozenset(acts)))
        for i, (x, acts) in enumerate(specs)
    ]


EUCLID = EuclideanDistance()
ORIGIN = (0.0, 0.0)


class TestPointMatchTable:
    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            PointMatchTable([])

    def test_zero_mask_is_noop(self):
        t = PointMatchTable([1, 2])
        t.add(0, 1.0)
        assert t.best() == INFINITY

    def test_single_point_cover(self):
        t = PointMatchTable([1, 2])
        t.add(t.overlap_mask(frozenset({1, 2})), 5.0)
        assert t.best() == 5.0

    def test_two_point_cover(self):
        t = PointMatchTable([1, 2])
        t.add(t.overlap_mask(frozenset({1})), 2.0)
        t.add(t.overlap_mask(frozenset({2})), 3.0)
        assert t.best() == 5.0

    def test_single_beats_pair_when_cheaper(self):
        t = PointMatchTable([1, 2])
        t.add(t.overlap_mask(frozenset({1})), 2.0)
        t.add(t.overlap_mask(frozenset({2})), 3.0)
        t.add(t.overlap_mask(frozenset({1, 2})), 4.0)
        assert t.best() == 4.0

    def test_insertion_order_does_not_matter(self):
        """The table must be exact under arbitrary insertion order — the
        order-sensitive DP adds points right-to-left by position."""
        masks = [({1}, 5.0), ({2}, 1.0), ({1, 2}, 4.5), ({3}, 2.0), ({2, 3}, 2.5)]
        import itertools

        results = set()
        for perm in itertools.permutations(masks):
            t = PointMatchTable([1, 2, 3])
            for acts, d in perm:
                t.add(t.overlap_mask(frozenset(acts)), d)
            results.add(t.best())
        assert results == {6.5}  # {1,2}@4.5 + {3}@2.0, regardless of order

    def test_match_positions_requires_tracking(self):
        t = PointMatchTable([1])
        with pytest.raises(RuntimeError):
            t.match_positions()

    def test_match_positions_empty_when_no_cover(self):
        t = PointMatchTable([1], track_matches=True)
        assert t.match_positions() == ()


class TestMinimumPointMatchDistance:
    def test_no_points_returns_inf(self):
        assert (
            minimum_point_match_distance(ORIGIN, frozenset({1}), [], EUCLID) == INFINITY
        )

    def test_nearest_covering_point_wins(self):
        pts = _pts([(5, {1}), (2, {1}), (9, {1})])
        assert minimum_point_match_distance(ORIGIN, frozenset({1}), pts, EUCLID) == 2.0

    def test_combined_cover(self):
        pts = _pts([(1, {1}), (2, {2}), (10, {1, 2})])
        assert minimum_point_match_distance(ORIGIN, frozenset({1, 2}), pts, EUCLID) == 3.0

    def test_duplicate_activity_sets(self):
        pts = _pts([(4, {1}), (4, {1}), (6, {2})])
        assert minimum_point_match_distance(ORIGIN, frozenset({1, 2}), pts, EUCLID) == 10.0

    def test_reconstruction_positions_sorted(self):
        pts = _pts([(3, {2}), (1, {1})])
        dist, positions = minimum_point_match(ORIGIN, frozenset({1, 2}), pts, EUCLID)
        assert dist == 4.0
        assert positions == (0, 1)

    def test_reconstruction_cost_matches_distance(self):
        pts = _pts([(1, {1, 2}), (2, {2, 3}), (3, {3, 1}), (4, {1, 2, 3})])
        q = frozenset({1, 2, 3})
        dist, positions = minimum_point_match(ORIGIN, q, pts, EUCLID)
        covered = set()
        cost = 0.0
        for pos in positions:
            covered |= pts[pos][1].activities
            cost += EUCLID(ORIGIN, pts[pos][1].coord)
        assert q <= covered
        assert cost == pytest.approx(dist)


class TestOracles:
    def test_oracles_agree_on_table2(self):
        scored = [
            (10.0, frozenset({0})),
            (11.0, frozenset({1, 2})),
            (13.0, frozenset({0, 1})),
            (15.0, frozenset({3})),
            (17.0, frozenset({2, 3})),
            (26.0, frozenset({0, 1, 2})),
            (31.0, frozenset({0, 1, 2, 3})),
        ]
        q = frozenset({0, 1, 2, 3})
        assert mpm_oracle_mask_dp(scored, q) == 30.0
        assert mpm_oracle_subset_enum(scored, q) == 30.0

    def test_subset_enum_caps_input(self):
        scored = [(1.0, frozenset({0}))] * 20
        with pytest.raises(ValueError):
            mpm_oracle_subset_enum(scored, frozenset({0}))

    def test_oracle_inf_when_uncoverable(self):
        scored = [(1.0, frozenset({0}))]
        assert mpm_oracle_mask_dp(scored, frozenset({0, 1})) == INFINITY
