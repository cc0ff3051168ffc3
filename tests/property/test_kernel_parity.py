"""Property-based parity: the array kernels vs the scalar oracles.

Randomized trajectories and queries drive both implementations of every
kernelised quantity — the pairwise distance matrices, the set-cover
(`PointMatchTable` vs the array DP), ``Dmm``, ``Dmom``, and whole engine
executions — and require agreement: exact for the pure-combinatorics
covers (same additions in the same order), last-ulp (1e-9 relative is
orders of magnitude looser) wherever NumPy's elementwise rounding or the
Dmom scan's re-association can differ from the scalar fold.
"""

import math

import pytest
from dense_dmom_oracle import dense_dmom_prepared
from hypothesis import example, given, settings, strategies as st

from repro.core import kernels
from repro.core.kernels import (
    CandidateArrays,
    QueryKernel,
    min_cover_cost,
    resolve_kernel,
)
from repro.core.evaluator import MatchEvaluator
from repro.core.match import INFINITY, PointMatchTable
from repro.core.order_match import minimum_order_match_distance
from repro.core.query import Query, QueryPoint
from repro.model.distance import EuclideanDistance
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory

EUCLID = EuclideanDistance()

coord_st = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
acts_st = st.frozensets(st.integers(min_value=0, max_value=5), max_size=3)
point_st = st.tuples(coord_st, coord_st, acts_st)
trajectory_st = st.lists(point_st, min_size=1, max_size=12)
qpoint_st = st.tuples(
    coord_st,
    coord_st,
    st.frozensets(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
)
query_st = st.lists(qpoint_st, min_size=1, max_size=4)


def _trajectory(raw, tid=0):
    return ActivityTrajectory(
        tid, [TrajectoryPoint(x, y, acts) for x, y, acts in raw]
    )


def _query(raw):
    return Query([QueryPoint(x, y, acts) for x, y, acts in raw])


def _close(a, b):
    if a == INFINITY or b == INFINITY:
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# ----------------------------------------------------------------------
# Kernel resolution
# ----------------------------------------------------------------------
def test_resolve_kernel(capsys):
    assert kernels.KERNELS == ("scalar", "block")
    assert resolve_kernel("scalar") == "scalar"
    assert resolve_kernel("block") == "block"
    # The "auto" alias and the per-candidate "vectorized" tier are gone.
    for unknown in ("simd", "auto", "vectorized"):
        with pytest.raises(ValueError, match=r"\('scalar', 'block'\)"):
            resolve_kernel(unknown)

    from repro.cli import main

    with pytest.raises(SystemExit):  # rejected by the parser, before any I/O
        main(["query", "unread.jsonl", "--kernel", "vectorized"])
    assert "choose from 'scalar', 'block'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Distance matrices vs per-pair metric calls
# ----------------------------------------------------------------------
@given(query_st, trajectory_st)
@settings(max_examples=100, deadline=None)
def test_euclidean_matrix_matches_metric(qraw, traw):
    query, trajectory = _query(qraw), _trajectory(traw)
    qk = QueryKernel(query, EUCLID)
    positions = list(range(len(trajectory)))
    rows = qk.distance_rows(trajectory, positions)
    for i, q in enumerate(query):
        for j, p in enumerate(trajectory.points):
            want = EUCLID(q.coord, p.coord)
            assert math.isclose(rows[i][j], want, rel_tol=1e-12, abs_tol=1e-12)


# ----------------------------------------------------------------------
# Array set-cover vs PointMatchTable
# ----------------------------------------------------------------------
cover_entries_st = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=0, max_value=15),
    ),
    max_size=10,
)


@given(cover_entries_st, st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_min_cover_cost_matches_point_match_table(entries, n_bits):
    table = PointMatchTable(range(n_bits))
    mask_cap = (1 << n_bits) - 1
    clipped = [(d, pm & mask_cap) for d, pm in entries]
    for d, pm in clipped:
        table.add(pm, d)
    got = min_cover_cost(clipped, n_bits)
    assert got == table.best()  # exact: same additions in the same order


# ----------------------------------------------------------------------
# Dmm / Dmom: the default evaluator's per-candidate array path vs scalar
# ----------------------------------------------------------------------
@given(query_st, trajectory_st)
@settings(max_examples=150, deadline=None)
def test_dmm_parity(qraw, traw):
    query, trajectory = _query(qraw), _trajectory(traw)
    scalar = MatchEvaluator(kernel="scalar")
    vector = MatchEvaluator()
    a = scalar.dmm(query, trajectory)
    b = vector.dmm(query, trajectory)
    assert _close(a, b)
    assert scalar.stats.point_match_points == vector.stats.point_match_points
    assert scalar.stats.dmm_evaluations == vector.stats.dmm_evaluations


@given(query_st, trajectory_st)
@settings(max_examples=150, deadline=None)
def test_dmom_parity(qraw, traw):
    query, trajectory = _query(qraw), _trajectory(traw)
    scalar = MatchEvaluator(kernel="scalar")
    vector = MatchEvaluator()
    a = scalar.dmom(query, trajectory)
    b = vector.dmom(query, trajectory)
    assert _close(a, b)
    assert scalar.stats.dmom_evaluations == vector.stats.dmom_evaluations
    assert scalar.stats.dmm_evaluations == vector.stats.dmm_evaluations


@given(query_st, trajectory_st, st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=100, deadline=None)
def test_dmom_threshold_parity(qraw, traw, threshold):
    """The Lemma-4 row early-exit fires identically under both kernels."""
    query, trajectory = _query(qraw), _trajectory(traw)
    a = MatchEvaluator(kernel="scalar").dmom(query, trajectory, threshold=threshold)
    b = MatchEvaluator().dmom(query, trajectory, threshold=threshold)
    # At a threshold landing exactly on the distance the two kernels'
    # last-ulp values may fall on opposite sides; hypothesis never finds
    # such a tie with continuous floats, so equality is required.
    assert _close(a, b)


@given(query_st, trajectory_st)
@settings(max_examples=100, deadline=None)
def test_dmom_prepared_matches_scalar_dp(qraw, traw):
    """dmom_prepared against the raw Algorithm 4 (no gates), including
    trajectories with no relevant points."""
    query, trajectory = _query(qraw), _trajectory(traw)
    want = minimum_order_match_distance(query, trajectory, EUCLID)
    qk = QueryKernel(query, EUCLID)
    cand = kernels.prepare_candidate(qk, trajectory)
    got = INFINITY if cand is None else kernels.dmom_prepared(qk, cand)
    assert _close(got, want)


# ----------------------------------------------------------------------
# The column-skipping Dmom DP vs the dense scan it replaced — exact
# ----------------------------------------------------------------------
#: Small integer grids beside continuous floats: repeated coordinates give
#: zero distances and exact ``base + d == best`` ties.
tie_coord_st = st.one_of(st.integers(min_value=-3, max_value=3).map(float), coord_st)
dense_query_st = st.lists(
    st.tuples(
        tie_coord_st,
        tie_coord_st,
        st.frozensets(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=4,
)
dense_trajectory_st = st.lists(
    st.tuples(
        tie_coord_st,
        tie_coord_st,
        st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
    ),
    min_size=1,
    max_size=14,
)


def _pt(x, y, *acts):
    return (float(x), float(y), frozenset(acts))


@given(
    dense_query_st,
    dense_trajectory_st,
    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
)
@settings(max_examples=400, deadline=None)
# ``base + d == best``: the second point ties the first one's full cover
# and must not be folded (nor change anything if it were).
@example([_pt(0, 0, 1, 2)], [_pt(3, 0, 1, 2), _pt(3, 0, 1, 2), _pt(0, 3, 2, 1)], 3.0)
# Threshold exactly on the final value (3 + 4): the value comes back, not inf.
@example([_pt(0, 0, 1), _pt(0, 0, 2, 3)], [_pt(3, 0, 1), _pt(0, 4, 2, 3)], 7.0)
# Row 2's winning cover {p3, p4} (cost 0 + 1 + 2) starts only after row 1's
# value has dropped from 5 to 0 at p2; the cover begun at p1 costs 5 + 0 + 1.
@example(
    [_pt(0, 0, 1), _pt(10, 0, 2, 3)],
    [_pt(5, 0, 1), _pt(10, 0, 2), _pt(0, 0, 1), _pt(10, 1, 3), _pt(10, 2, 2)],
    4.0,
)
# A single-activity row (the two-state table, one pair) between two
# multi-activity rows.
@example(
    [_pt(0, 0, 1, 2), _pt(1, 1, 3), _pt(2, 2, 2, 4)],
    [_pt(0, 1, 1), _pt(0, 2, 2, 3), _pt(1, 2, 3), _pt(2, 3, 4, 2), _pt(3, 3, 2)],
    9.5,
)
# Row 2 is never coverable: activity 5 occurs nowhere.
@example([_pt(0, 0, 1, 2), _pt(1, 0, 2, 5)], [_pt(0, 1, 1, 2), _pt(1, 1, 2), _pt(2, 1, 1)], 50.0)
def test_dmom_prepared_equals_dense_scan_at_every_threshold(qraw, traw, arbitrary):
    """``dmom_prepared`` leaves out the folds that cannot matter; the dense
    scan performs them all.  The two must return ``==`` values — not close
    ones — at every threshold: none, the value itself (which must survive),
    one ulp either side of it, every row's own last entry and its
    neighbours (the Lemma-4 exit's boundary), the ``Dmm`` gate the engine
    actually passes first, zero, and an arbitrary float."""
    query, trajectory = _query(qraw), _trajectory(traw)
    qk = QueryKernel(query, EUCLID)
    cand = kernels.prepare_candidate(qk, trajectory)
    if cand is None:
        return
    exact = dense_dmom_prepared(qk, cand)
    assert kernels.dmom_prepared(qk, cand) == exact
    if exact != INFINITY:
        assert kernels.dmom_prepared(qk, cand, exact) == exact

    pivots = {exact, kernels.dmm_prepared(qk, cand), arbitrary, 0.0}
    for rows in range(1, len(query)):  # G(i, n): where row i's exit flips
        prefix_qk = QueryKernel(Query(query.points[:rows]), EUCLID)
        prefix_cand = kernels.prepare_candidate(prefix_qk, trajectory)
        if prefix_cand is not None:
            pivots.add(dense_dmom_prepared(prefix_qk, prefix_cand))
    thresholds = {INFINITY}
    for pivot in pivots:
        thresholds |= {
            pivot,
            math.nextafter(pivot, -INFINITY),
            math.nextafter(pivot, INFINITY),
        }
    for threshold in thresholds:
        got = kernels.dmom_prepared(qk, cand, threshold)
        want = dense_dmom_prepared(qk, cand, threshold)
        assert got == want, (threshold, got, want)


def test_dmom_prepared_single_rows_in_a_mixed_query_are_the_scalar_dp():
    """No width-1 special case is left in the mixed DP: a single-activity
    row between multi-activity ones still scores exactly like the scalar
    Algorithm 4 on shared distances (and a query of *only* single-activity
    points, pushed through the list-form DP, like its array fast path)."""
    metric = _TabulatedEuclid()
    trajectory = _trajectory(
        [_pt(0, 1, 1), _pt(0, 2, 2, 3), _pt(1, 2, 3), _pt(2, 3, 4, 2), _pt(3, 3, 2)]
    )
    mixed = _query([_pt(0, 0, 1, 2), _pt(1, 1, 3), _pt(2, 2, 2, 4)])
    qk = QueryKernel(mixed, metric)
    cand = kernels.prepare_candidate(qk, trajectory)
    assert cand.mask_matrix is None and 1 in qk.n_bits
    assert _close(
        kernels.dmom_prepared(qk, cand),
        minimum_order_match_distance(mixed, trajectory, metric),
    )

    single = _query([_pt(0, 0, 1), _pt(1, 1, 3), _pt(2, 2, 2)])
    sqk = QueryKernel(single, metric)
    array_form = kernels.prepare_candidate(sqk, trajectory)
    assert array_form.mask_matrix is not None
    list_form = CandidateArrays(
        array_form.positions,
        dist_rows=array_form.dist_matrix.tolist(),
        mask_rows=array_form.mask_matrix.astype(int).tolist(),
    )
    want = minimum_order_match_distance(single, trajectory, metric)
    assert kernels.dmom_prepared(sqk, list_form) == want
    assert kernels.dmom_prepared(sqk, array_form) == want


# ----------------------------------------------------------------------
# All-array Dmom (single-activity query points)
# ----------------------------------------------------------------------
class _TabulatedEuclid:
    """Euclidean distance behind an opaque type: QueryKernel falls back to
    per-pair metric calls (its 'generic' mode), so the scalar DP and the
    array row scan see *identical* distances and any difference would
    come from the recurrence itself."""

    def __call__(self, a, b):
        return EUCLID(a, b)


single_act_query_st = st.lists(
    st.tuples(coord_st, coord_st, st.integers(min_value=0, max_value=5)),
    min_size=1,
    max_size=4,
)


@given(single_act_query_st, trajectory_st)
@settings(max_examples=150, deadline=None)
def test_dmom_single_activity_queries_exact_vs_scalar_oracle(qraw, traw):
    """End to end, a query of single-activity points (the all-array
    fast path) scores every trajectory exactly like the scalar Algorithm 4
    when both paths share per-pair distances."""
    metric = _TabulatedEuclid()
    query = Query([QueryPoint(x, y, frozenset({a})) for x, y, a in qraw])
    trajectory = _trajectory(traw)
    want = minimum_order_match_distance(query, trajectory, metric)
    qk = QueryKernel(query, metric)
    cand = kernels.prepare_candidate(qk, trajectory)
    got = INFINITY if cand is None else kernels.dmom_prepared(qk, cand)
    assert got == want  # exact, not approximate
