"""Unit tests for Algorithm 4 beyond the paper example."""

import math

import pytest
from order_oracles import dmom_oracle_enum, order_feasible_strict

from repro.core.order_match import (
    minimum_order_match,
    minimum_order_match_distance,
    order_feasible,
    relevant_points,
)
from repro.core.query import Query, QueryPoint
from repro.model.distance import EuclideanDistance
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory

INF = math.inf
EUCLID = EuclideanDistance()


def _tr(specs, tid=0):
    """specs: [(x, activities)] with y = 0."""
    return ActivityTrajectory(
        tid,
        [TrajectoryPoint(float(x), 0.0, frozenset(a)) for x, a in specs],
    )


def _q(specs):
    """specs: [(x, activities)] with y = 1 (distance = hypot(dx, 1))."""
    return Query([QueryPoint(float(x), 1.0, frozenset(a)) for x, a in specs])


class TestBasicCases:
    def test_single_query_point_equals_dmpm(self):
        tr = _tr([(0, {1}), (5, {1})])
        q = _q([(0, {1})])
        assert minimum_order_match_distance(q, tr, EUCLID) == pytest.approx(1.0)

    def test_order_constraint_changes_result(self):
        # Activities: 1 appears late, 2 appears early -> out-of-order query
        # must use the expensive assignments.
        tr = _tr([(0, {2}), (10, {1})])
        in_order = _q([(0, {2}), (10, {1})])
        out_of_order = _q([(0, {1}), (10, {2})])
        assert minimum_order_match_distance(in_order, tr, EUCLID) == pytest.approx(2.0)
        assert minimum_order_match_distance(out_of_order, tr, EUCLID) == INF

    def test_shared_boundary_point_allowed(self):
        """Definition 7 allows P_i and P_{i+1} to share a point index."""
        tr = _tr([(5, {1, 2})])
        q = _q([(5, {1}), (5, {2})])
        # Both query points match the same single point: 1 + 1.
        assert minimum_order_match_distance(q, tr, EUCLID) == pytest.approx(2.0)

    def test_no_match_when_activity_missing(self):
        tr = _tr([(0, {1})])
        q = _q([(0, {1}), (1, {2})])
        assert minimum_order_match_distance(q, tr, EUCLID) == INF

    def test_multi_point_match_within_segment(self):
        tr = _tr([(0, {1}), (1, {2}), (2, {3})])
        q = _q([(1, {1, 2, 3})])
        d = minimum_order_match_distance(q, tr, EUCLID)
        expected = math.hypot(1, 1) + 1.0 + math.hypot(1, 1)
        assert d == pytest.approx(expected)


class TestCompression:
    def test_relevant_points_filters(self):
        tr = _tr([(0, {1}), (1, {}), (2, {9}), (3, {2})])
        q = _q([(0, {1}), (3, {2})])
        refs = relevant_points(tr, q)
        assert [pos for pos, _p in refs] == [0, 3]

    def test_compression_equivalence_randomised(self):
        import random

        rng = random.Random(31)
        for trial in range(30):
            n = rng.randint(3, 10)
            tr = _tr(
                [
                    (rng.uniform(0, 10), set(rng.sample(range(5), rng.randint(0, 3))))
                    for _ in range(n)
                ],
                tid=trial,
            )
            m = rng.randint(1, 3)
            q = _q(
                [
                    (rng.uniform(0, 10), set(rng.sample(range(5), rng.randint(1, 2))))
                    for _ in range(m)
                ]
            )
            full = minimum_order_match_distance(q, tr, EUCLID, compress=False)
            fast = minimum_order_match_distance(q, tr, EUCLID, compress=True)
            assert full == pytest.approx(fast) or (full == INF and fast == INF)


class TestAgainstOracle:
    def test_random_agreement_with_enumeration(self):
        import random

        rng = random.Random(77)
        for trial in range(25):
            n = rng.randint(2, 7)
            tr = _tr(
                [
                    (rng.uniform(0, 8), set(rng.sample(range(4), rng.randint(0, 2))))
                    for _ in range(n)
                ],
                tid=trial,
            )
            m = rng.randint(1, 3)
            q = _q(
                [
                    (rng.uniform(0, 8), set(rng.sample(range(4), rng.randint(1, 2))))
                    for _ in range(m)
                ]
            )
            got = minimum_order_match_distance(q, tr, EUCLID)
            want = dmom_oracle_enum(q, tr, EUCLID)
            if want == INF:
                assert got == INF
            else:
                assert got == pytest.approx(want)


class TestReconstruction:
    def test_positions_are_ordered_across_query_points(self):
        tr = _tr([(0, {1}), (2, {2}), (4, {1}), (6, {2})])
        q = _q([(0, {1}), (6, {2})])
        dist, matches = minimum_order_match(q, tr, EUCLID)
        assert dist < INF
        assert len(matches) == 2
        assert max(matches[0]) <= min(matches[1])

    def test_reconstruction_cost_equals_distance(self):
        tr = _tr([(0, {1, 2}), (1, {2}), (2, {1}), (3, {3}), (4, {2, 3})])
        q = _q([(0, {1, 2}), (3, {2, 3})])
        dist, matches = minimum_order_match(q, tr, EUCLID)
        total = 0.0
        for qp, match in zip(q, matches):
            covered = set()
            for pos in match:
                covered |= tr[pos].activities
                total += EUCLID(qp.coord, tr[pos].coord)
            assert qp.activities <= covered
        assert total == pytest.approx(dist)

    def test_no_match_returns_empty(self):
        tr = _tr([(0, {1})])
        q = _q([(0, {2})])
        assert minimum_order_match(q, tr, EUCLID) == (INF, ())


class TestFeasibilityChecks:
    def test_strict_implies_paper_check(self):
        """order_feasible is necessary, order_feasible_strict is exact, so
        strict-feasible must imply paper-feasible."""
        import random

        rng = random.Random(5)
        for trial in range(50):
            n = rng.randint(2, 8)
            tr = _tr(
                [
                    (rng.uniform(0, 5), set(rng.sample(range(4), rng.randint(0, 2))))
                    for _ in range(n)
                ],
                tid=trial,
            )
            q = _q(
                [
                    (rng.uniform(0, 5), set(rng.sample(range(4), 1)))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            if order_feasible_strict(tr, q):
                assert order_feasible(tr, q)

    def test_strict_matches_dp_feasibility(self):
        import random

        rng = random.Random(6)
        for trial in range(40):
            n = rng.randint(2, 7)
            tr = _tr(
                [
                    (rng.uniform(0, 5), set(rng.sample(range(4), rng.randint(0, 2))))
                    for _ in range(n)
                ],
                tid=trial,
            )
            q = _q(
                [
                    (rng.uniform(0, 5), set(rng.sample(range(4), rng.randint(1, 2))))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            dp_feasible = minimum_order_match_distance(q, tr, EUCLID) < INF
            assert order_feasible_strict(tr, q) == dp_feasible
