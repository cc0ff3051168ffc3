"""Property-based tests for the order-sensitive match (Algorithm 4) and the
paper's lemmas."""

import math

from hypothesis import given, settings, strategies as st
from order_oracles import dmom_oracle_enum, order_feasible_strict

from repro.core.evaluator import MatchEvaluator
from repro.core.match import INFINITY
from repro.core.order_match import (
    minimum_order_match_distance,
    order_feasible,
)
from repro.core.query import Query, QueryPoint
from repro.model.distance import EuclideanDistance
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory

EUCLID = EuclideanDistance()

coord_st = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
acts_st = st.frozensets(st.integers(min_value=0, max_value=3), max_size=3)
nonempty_acts_st = st.frozensets(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=2
)

trajectory_st = st.lists(st.tuples(coord_st, coord_st, acts_st), min_size=1, max_size=7)
query_st = st.lists(
    st.tuples(coord_st, coord_st, nonempty_acts_st), min_size=1, max_size=3
)


def _tr(spec):
    return ActivityTrajectory(
        0, [TrajectoryPoint(x, y, a) for x, y, a in spec]
    )


def _q(spec):
    return Query([QueryPoint(x, y, a) for x, y, a in spec])


@given(trajectory_st, query_st)
@settings(max_examples=120, deadline=None)
def test_algorithm4_matches_enumeration_oracle(tr_spec, q_spec):
    tr, q = _tr(tr_spec), _q(q_spec)
    got = minimum_order_match_distance(q, tr, EUCLID)
    want = dmom_oracle_enum(q, tr, EUCLID)
    if want == INFINITY:
        assert got == INFINITY
    else:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-9)


@given(trajectory_st, query_st)
@settings(max_examples=120, deadline=None)
def test_lemma3_dmm_lower_bounds_dmom(tr_spec, q_spec):
    tr, q = _tr(tr_spec), _q(q_spec)
    ev = MatchEvaluator()
    dmm = ev.dmm(q, tr)
    dmom = minimum_order_match_distance(q, tr, EUCLID)
    if dmom != INFINITY:
        assert dmm <= dmom + 1e-9


@given(trajectory_st, query_st)
@settings(max_examples=120, deadline=None)
def test_lemma2_dbm_lower_bounds_dmm(tr_spec, q_spec):
    tr, q = _tr(tr_spec), _q(q_spec)
    ev = MatchEvaluator()
    dmm = ev.dmm(q, tr)
    if dmm != INFINITY:
        assert ev.best_match_distance(q, tr) <= dmm + 1e-9


@given(trajectory_st, query_st)
@settings(max_examples=120, deadline=None)
def test_compression_equivalence(tr_spec, q_spec):
    tr, q = _tr(tr_spec), _q(q_spec)
    full = minimum_order_match_distance(q, tr, EUCLID, compress=False)
    fast = minimum_order_match_distance(q, tr, EUCLID, compress=True)
    if full == INFINITY:
        assert fast == INFINITY
    else:
        assert math.isclose(full, fast, rel_tol=1e-12, abs_tol=1e-9)


@given(trajectory_st, query_st)
@settings(max_examples=120, deadline=None)
def test_mib_check_is_sound(tr_spec, q_spec):
    """order_feasible (the paper's MIB check) must never reject a
    trajectory that has a finite Dmom."""
    tr, q = _tr(tr_spec), _q(q_spec)
    dmom = minimum_order_match_distance(q, tr, EUCLID)
    if dmom != INFINITY:
        assert order_feasible(tr, q)


@given(trajectory_st, query_st)
@settings(max_examples=120, deadline=None)
def test_strict_feasibility_is_exact(tr_spec, q_spec):
    tr, q = _tr(tr_spec), _q(q_spec)
    dmom = minimum_order_match_distance(q, tr, EUCLID)
    assert order_feasible_strict(tr, q) == (dmom != INFINITY)


@given(trajectory_st, query_st, st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=120, deadline=None)
def test_threshold_early_exit_is_sound(tr_spec, q_spec, threshold):
    """With a threshold, the DP may return inf instead of a value above the
    threshold, but must never corrupt values at or below it."""
    tr, q = _tr(tr_spec), _q(q_spec)
    exact = minimum_order_match_distance(q, tr, EUCLID)
    gated = minimum_order_match_distance(q, tr, EUCLID, threshold=threshold)
    if exact <= threshold:
        assert math.isclose(gated, exact, rel_tol=1e-12, abs_tol=1e-9)
    else:
        assert gated == INFINITY or math.isclose(gated, exact, rel_tol=1e-12)


@given(trajectory_st, st.lists(st.tuples(coord_st, coord_st, nonempty_acts_st), min_size=2, max_size=3))
@settings(max_examples=100, deadline=None)
def test_dropping_a_query_point_never_hurts(tr_spec, q_spec):
    """Monotonicity in the query (Lemma 4 property 2, reformulated):
    matching a prefix of the query costs no more than the whole query."""
    tr = _tr(tr_spec)
    whole = minimum_order_match_distance(_q(q_spec), tr, EUCLID)
    prefix = minimum_order_match_distance(_q(q_spec[:-1]), tr, EUCLID)
    if whole != INFINITY:
        assert prefix <= whole + 1e-9
