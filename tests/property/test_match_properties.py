"""Property-based tests (hypothesis) for the minimum point match."""

import math

from hypothesis import given, settings, strategies as st
from match_oracles import mpm_oracle_mask_dp, mpm_oracle_subset_enum

from repro.core.match import (
    INFINITY,
    PointMatchTable,
    minimum_point_match,
    minimum_point_match_distance,
)
from repro.model.distance import EuclideanDistance
from repro.model.point import TrajectoryPoint

EUCLID = EuclideanDistance()
ORIGIN = (0.0, 0.0)

# A candidate point: distance in [0, 100], activity subset of a 5-universe.
point_st = st.tuples(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.frozensets(st.integers(min_value=0, max_value=4), max_size=4),
)
points_st = st.lists(point_st, max_size=10)
query_st = st.frozensets(st.integers(min_value=0, max_value=4), min_size=1, max_size=4)


def _as_trajectory_points(scored):
    return [
        (i, TrajectoryPoint(d, 0.0, acts)) for i, (d, acts) in enumerate(scored)
    ]


@given(points_st, query_st)
@settings(max_examples=300, deadline=None)
def test_algorithm3_matches_mask_dp_oracle(scored, query):
    got = minimum_point_match_distance(
        ORIGIN, query, _as_trajectory_points(scored), EUCLID
    )
    want = mpm_oracle_mask_dp(scored, query)
    if want == INFINITY:
        assert got == INFINITY
    else:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-9)


@given(st.lists(point_st, max_size=7), query_st)
@settings(max_examples=150, deadline=None)
def test_algorithm3_matches_subset_enumeration(scored, query):
    got = minimum_point_match_distance(
        ORIGIN, query, _as_trajectory_points(scored), EUCLID
    )
    want = mpm_oracle_subset_enum(scored, query)
    if want == INFINITY:
        assert got == INFINITY
    else:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-9)


@given(points_st, query_st, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_table_insertion_order_invariance(scored, query, rng):
    """The incremental table must be exact under any insertion order —
    Algorithm 4 relies on right-to-left insertion."""
    baseline = None
    order = list(scored)
    for _trial in range(3):
        rng.shuffle(order)
        t = PointMatchTable(query)
        for d, acts in order:
            t.add(t.overlap_mask(acts), d)
        if baseline is None:
            baseline = t.best()
        else:
            assert t.best() == baseline or math.isclose(t.best(), baseline, rel_tol=1e-12)


@given(points_st, query_st)
@settings(max_examples=150, deadline=None)
def test_reconstruction_is_a_valid_minimum_match(scored, query):
    pts = _as_trajectory_points(scored)
    dist, positions = minimum_point_match(ORIGIN, query, pts, EUCLID)
    if dist == INFINITY:
        assert positions == ()
        return
    covered = set()
    cost = 0.0
    for pos in positions:
        covered |= pts[pos][1].activities
        cost += EUCLID(ORIGIN, pts[pos][1].coord)
    assert query <= covered  # it is a point match (Definition 3)
    assert math.isclose(cost, dist, rel_tol=1e-12, abs_tol=1e-9)  # and minimal


@given(points_st, query_st, point_st)
@settings(max_examples=150, deadline=None)
def test_adding_points_never_increases_distance(scored, query, extra):
    """Monotonicity: a superset of candidate points can only help."""
    base = minimum_point_match_distance(
        ORIGIN, query, _as_trajectory_points(scored), EUCLID
    )
    more = minimum_point_match_distance(
        ORIGIN, query, _as_trajectory_points(scored + [extra]), EUCLID
    )
    assert more <= base + 1e-9
