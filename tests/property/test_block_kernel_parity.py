"""Property-based parity: the block kernel vs the per-candidate kernels.

Randomized trajectories and queries drive whole validation rounds through
the round-batched block entries (``prepare_block`` + ``block_dmm`` /
``block_dmom`` / ``block_dmm_all_single``) and through the per-candidate
array and scalar paths, and require:

* identical ``Dmm`` / ``Dmom`` values — exact where the block performs
  the same float operations (single-activity rows, the batched DP, the
  duplicated-layout ``Dmm``), last-ulp (1e-9 relative is orders looser)
  where the partition-decomposed cover may re-associate 3+-term sums;
* *exactly* identical evaluator counters (``dmm_evaluations`` /
  ``dmom_evaluations`` / ``point_match_points``), abandonment
  notwithstanding — the accounting is mask-derived by construction;
* whole-engine agreement: identical top-k ids, distances, and every
  ``SearchStats`` counter (disk reads included) across
  ``kernel='block'|'scalar'``, for mixed activity sets and ragged
  trajectory lengths.

Threshold abandonment is also exercised directly: with a finite running
k-th threshold, a block value may flip to ``inf`` but only when the exact
value exceeds the threshold — never the other way around.

The block *build* has an oracle of its own: ``prepare_block`` gathers the
round from the APL row store with array ops, and must equal — field by
field — the dict-walking builder it replaced, kept verbatim in
``dict_block_oracle.py``.  So has the block ``Dmm``: ``block_dmm`` must
equal — ``np.array_equal``, same ``point_match_points`` — the per-row /
per-group loop it replaced, kept verbatim in ``group_loop_dmm_oracle.py``.
"""

import math

import numpy as np
import pytest
from dict_block_oracle import dict_prepare_block
from group_loop_dmm_oracle import loop_block_dmm
from hypothesis import example, given, settings, strategies as st
from python_fold_oracle import python_block_dmom

from repro.core import kernels
from repro.core.evaluator import MatchEvaluator
from repro.core.kernels import INFINITY, QueryKernel
from repro.core.query import Query, QueryPoint
from repro.index.gat.apl import APLStore
from repro.model.distance import EuclideanDistance
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.storage.disk import SimulatedDisk

EUCLID = EuclideanDistance()

coord_st = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
acts_st = st.frozensets(st.integers(min_value=0, max_value=5), max_size=3)
point_st = st.tuples(coord_st, coord_st, acts_st)
#: Ragged lengths: rounds mix 1-point and 15-point trajectories.
trajectory_st = st.lists(point_st, min_size=1, max_size=15)
round_st = st.lists(trajectory_st, min_size=1, max_size=8)
qpoint_st = st.tuples(
    coord_st,
    coord_st,
    st.frozensets(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
)
query_st = st.lists(qpoint_st, min_size=1, max_size=4)
single_query_st = st.lists(
    st.tuples(coord_st, coord_st, st.integers(min_value=0, max_value=5)),
    min_size=1,
    max_size=4,
)
threshold_st = st.one_of(
    st.just(INFINITY), st.floats(min_value=0.0, max_value=300.0)
)


def _round(raws):
    return [
        (ActivityTrajectory(tid, [TrajectoryPoint(x, y, a) for x, y, a in raw]), None)
        for tid, raw in enumerate(raws)
    ]


def _query(raw):
    return Query([QueryPoint(x, y, acts) for x, y, acts in raw])


def _posted(query, items, grown=False):
    """*items* as the round the engine would hand the block kernel: a
    :class:`PostingRound` over a small store built from the raw
    trajectories, against the query's sorted activities.  *grown* builds
    the store from the first trajectory and inserts the rest one by one."""
    trajectories = [trajectory for trajectory, _p in items]
    if grown:
        store = APLStore.build(trajectories[:1], SimulatedDisk())
        for trajectory in trajectories[1:]:
            store.store(trajectory)
    else:
        store = APLStore.build(trajectories, SimulatedDisk())
    return store.round(
        [store.row_of(trajectory.trajectory_id) for trajectory in trajectories],
        np.array(sorted(query.all_activities), dtype=np.int64),
    )


def _close(a, b):
    if a == INFINITY or b == INFINITY:
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class _Stats:
    def __init__(self):
        self.point_match_points = 0


# ----------------------------------------------------------------------
# The columnar block build vs the dict-walking builder it replaced
# ----------------------------------------------------------------------
def _assert_same_block(got, want):
    assert got.n == want.n
    assert got.total == want.total
    assert got.lengths.tolist() == want.lengths
    assert got.seg_of.tolist() == want.seg_of
    assert got.flat_ids == want.flat_ids
    assert got.seg_starts == want.seg_starts
    for c in range(want.n):
        s, n = got.seg_of[c], got.lengths[c]
        assert got.positions[s : s + n].tolist() == list(want.positions[c])
    assert got.big.shape == want.big.shape
    assert np.array_equal(got.big, want.big)  # bit-identical, not close
    assert got.mask.dtype == want.mask.dtype
    assert np.array_equal(got.mask, want.mask)
    assert np.array_equal(got.rel, want.rel)
    assert {(c, i) for c, i in got.missing_rows.tolist()} == set(want.missing_rows)


def _pt(acts, x=1.0, y=2.0):
    return (x, y, frozenset(acts))


@given(query_st, round_st)
@settings(max_examples=200, deadline=None)
# Points with an empty activity set between and around relevant ones (an
# offsets-``reduceat`` over points breaks on their empty slices).
@example([_pt({1})], [[_pt(()), _pt({1}), _pt(()), _pt(()), _pt({1, 2}), _pt(())]])
# A candidate with no relevant point between two that have some.
@example([_pt({1, 2})], [[_pt({1})], [_pt({4}), _pt(())], [_pt({2, 1})]])
# No candidate is relevant: total == 0.
@example([_pt({1}), _pt({2, 3})], [[_pt({4})], [_pt(())], [_pt({5}), _pt({0})]])
# One activity asked for by several query points (and one of them twice over).
@example(
    [_pt({1, 2}), _pt({1}, 3.0), _pt({2, 1, 3}, 4.0)],
    [[_pt({1}), _pt({2, 3})], [_pt({3}), _pt({1, 2, 3})]],
)
# Row 1's activity 3 never occurs in candidate 0, which rows 0 and 2 match.
@example(
    [_pt({1}), _pt({2, 3}), _pt({2})],
    [[_pt({1}), _pt({2})], [_pt({1, 3}), _pt({2})]],
)
def test_columnar_build_equals_dict_builder(qraw, raws):
    query = _query(qraw)
    items = _round(raws)
    qk = QueryKernel(query, EUCLID)
    want = dict_prepare_block(qk, items)
    _assert_same_block(kernels.prepare_block(qk, _posted(query, items)), want)
    _assert_same_block(kernels.prepare_block(qk, _posted(query, items, grown=True)), want)


def test_columnar_build_keeps_the_generic_metric_fill(fig1):
    """A non-stock metric has no array formula: its distances stay
    per-pair Python calls, over positions from the same array build."""
    qk = QueryKernel(fig1.query, fig1.metric)
    items = [(fig1.tr1, None), (fig1.tr2, None)]
    _assert_same_block(
        kernels.prepare_block(qk, _posted(fig1.query, items)),
        dict_prepare_block(qk, items),
    )


# ----------------------------------------------------------------------
# Block Dmm vs per-candidate Dmm
# ----------------------------------------------------------------------
@given(query_st, round_st)
@settings(max_examples=150, deadline=None)
def test_block_dmm_values_and_counts(qraw, raws):
    query = _query(qraw)
    items = _round(raws)
    qk = QueryKernel(query, EUCLID)

    block_stats = _Stats()
    block = kernels.prepare_block(qk, _posted(query, items))
    got = kernels.block_dmm(qk, block, block_stats)

    cand_stats = _Stats()
    for c, (trajectory, _p) in enumerate(items):
        cand = kernels.prepare_candidate(qk, trajectory)
        want = (
            INFINITY
            if cand is None
            else kernels.dmm_prepared(qk, cand, cand_stats)
        )
        assert _close(float(got[c]), want), (c, float(got[c]), want)
    assert block_stats.point_match_points == cand_stats.point_match_points


#: Rows of up to five activities (52 partitions) over points carrying up
#: to five, from a seven-activity universe: every row width, and queries
#: mixing them, turn up.
wide_point_st = st.tuples(
    coord_st, coord_st, st.frozensets(st.integers(min_value=0, max_value=6), max_size=5)
)
wide_round_st = st.lists(
    st.lists(wide_point_st, min_size=1, max_size=15), min_size=1, max_size=8
)
wide_query_st = st.lists(
    st.tuples(
        coord_st,
        coord_st,
        st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
    ),
    min_size=1,
    max_size=4,
)


def _assert_block_dmm_equals_group_loop(qraw, raws):
    query = _query(qraw)
    qk = QueryKernel(query, EUCLID)
    block = kernels.prepare_block(qk, _posted(query, _round(raws)))
    got_stats, want_stats = _Stats(), _Stats()
    got = kernels.block_dmm(qk, block, got_stats)
    want = loop_block_dmm(qk, block, want_stats)
    assert np.array_equal(got, want), (got.tolist(), want.tolist())  # bits, not close
    assert got_stats.point_match_points == want_stats.point_match_points
    return qk, block, got


@given(wide_query_st, wide_round_st)
@settings(max_examples=200, deadline=None)
# Two five-activity rows: 52 partitions each, sums of up to five groups.
@example(
    [_pt({0, 1, 2, 3, 4}, 0.5, 0.25), _pt({2, 3, 4, 5, 6}, -7.0, 3.0)],
    [
        [_pt({0, 1}, 1.0), _pt({2}, 2.5), _pt({3, 4, 5}, 0.1), _pt({6, 2}, 4.0), _pt({0, 1, 2, 3, 4}, 9.0)],
        [_pt({4, 3}, -2.0), _pt({0}, 1.5), _pt({1, 2, 5, 6}, 3.5), _pt({2, 3}, 0.0)],
        [_pt({0, 1, 2, 3, 4, 5, 6}, 30.0), _pt({5}, 0.2), _pt({6}, 0.3)],
    ],
)
# One-, two- and four-activity rows in one query: three widths, one fold.
@example(
    [_pt({3}, 1.0), _pt({1, 2}, 2.0), _pt({0, 1, 2, 3}, 3.0), _pt({4}, 4.0)],
    [
        [_pt({3, 1}), _pt({2, 0}, 5.0), _pt({4}, 6.0), _pt({1, 3}, 0.5)],
        [_pt({0, 1, 2, 3, 4}, 2.0), _pt({2}, 1.0)],
        [_pt({4, 3}, 1.0), _pt({1}, 2.0), _pt({2}, 3.0), _pt({0}, 4.0)],
    ],
)
# Candidates without any relevant point, first, in the middle and last.
@example(
    [_pt({1, 2}), _pt({2, 3}, 3.0)],
    [[_pt({5})], [_pt({1, 2}), _pt({3}, 4.0)], [_pt(()), _pt({6})], [_pt({3, 2, 1}, 5.0)], [_pt({0})]],
)
# ``missing_rows``: row 1's activity 3 never occurs in candidate 0, though
# activity 2 gives the row relevant points there.
@example(
    [_pt({1}), _pt({2, 3}), _pt({2})],
    [[_pt({1}), _pt({2})], [_pt({1, 3}), _pt({2})]],
)
def test_block_dmm_equals_the_group_loop(qraw, raws):
    """The one-transform covers against the per-group loop they replaced:
    the same group minima, the same partition fold order, so the same
    bits — and the same mask-derived counter."""
    _assert_block_dmm_equals_group_loop(qraw, raws)


def test_block_dmm_wide_row_equals_the_group_loop():
    """A nine-activity row — 511 groups, Bell(9) = 21 147 partitions —
    beside a two-activity one: bitmasks above 255 (nothing may narrow them
    to a byte), and the partition sums go through in candidate chunks."""
    wide = frozenset(range(9))
    raws = [
        [_pt({a, (a + 4) % 9}, float(a), 1.0) for a in range(9)],
        [_pt(wide, 2.0), _pt({8}, 0.5), _pt({0, 8}, 0.25)],
        [_pt(range(8), 1.0)],  # never covers activity 8: a missing row
        [_pt({9})],  # no relevant point at all
        [_pt({8, 7}, 3.0), _pt(range(7), 4.0), _pt({10, 8}, 1.0)],
    ] * 2
    qraw = [_pt(wide, 0.5, 0.5), _pt({8, 0}, 1.5, -2.0)]
    qk, block, got = _assert_block_dmm_equals_group_loop(qraw, raws)
    assert max(qk.n_bits) == 9 and int(block.mask.max()) > 255
    chunk = kernels._COVER_CHUNK_ELEMENTS // len(kernels._set_partitions(9))
    assert chunk < len(block.flat_ids)  # more than one chunk of candidates
    assert np.isfinite(got).tolist() == [True, True, False, False, True] * 2


@given(single_query_st, round_st)
@settings(max_examples=150, deadline=None)
# A point with an empty activity set between relevant ones.
@example([(0.0, 0.0, 1)], [[_pt(()), _pt({1}), _pt(()), _pt({1, 2}, 3.0), _pt(())]])
# A candidate carrying none of the query's activities, between two that do.
@example([(0.0, 0.0, 1), (5.0, 5.0, 2)], [[_pt({1, 2})], [_pt({4}), _pt(())], [_pt({2}), _pt({1})]])
# Two query rows asking the same activity.
@example([(0.0, 0.0, 1), (9.0, 9.0, 1), (2.0, 2.0, 3)], [[_pt({1}), _pt({3, 1}, 4.0)], [_pt({1})]])
# A point carrying two query activities: one column per activity.
@example([(0.0, 0.0, 1), (1.0, 1.0, 2)], [[_pt({1, 2}), _pt({2}, 7.0)], [_pt({2, 1, 5}, -3.0)]])
def test_all_single_fast_dmm_is_bit_identical(qraw, raws):
    """The duplicated-layout Dmm equals the per-candidate all-single path
    exactly — same masked minima, same left-to-right row fold — over a
    store built in one go and over one grown row by row, back to front."""
    query = Query([QueryPoint(x, y, frozenset({a})) for x, y, a in qraw])
    items = _round(raws)
    qk = QueryKernel(query, EUCLID)
    assert qk.all_single

    cand_stats = _Stats()
    want = []
    for trajectory, _p in items:
        cand = kernels.prepare_candidate(qk, trajectory)
        want.append(
            INFINITY if cand is None else kernels.dmm_prepared(qk, cand, cand_stats)
        )

    for grown in (False, True):
        fast_stats = _Stats()
        got = kernels.block_dmm_all_single(qk, _posted(query, items, grown), fast_stats)
        assert got.tolist() == want  # exact, not approximate
        assert fast_stats.point_match_points == cand_stats.point_match_points


@given(query_st, round_st, threshold_st)
@settings(max_examples=100, deadline=None)
def test_block_dmom_matches_gated_per_candidate_path(qraw, raws, threshold):
    """block_dmom vs evaluator.dmom per candidate (``check_order=False``:
    the MIB check is the validation chain's) at the same round-start
    threshold: identical counters always; identical values except that
    block abandonment may turn an over-threshold value into inf."""
    query = _query(qraw)
    items = _round(raws)

    block_eval = MatchEvaluator(kernel="block")
    got = block_eval.dmom_batch(query, _posted(query, items), threshold)

    cand_eval = MatchEvaluator()
    for c, (trajectory, _p) in enumerate(items):
        want = cand_eval.dmom(query, trajectory, threshold=threshold, check_order=False)
        if _close(got[c], want):
            continue
        # Abandonment: block may report inf where the per-candidate path
        # computed a finite value — but only above the threshold, where
        # the top-k collector would have rejected it anyway.
        assert got[c] == INFINITY and want > threshold, (c, got[c], want)
    assert block_eval.stats.dmom_evaluations == cand_eval.stats.dmom_evaluations
    assert block_eval.stats.dmm_evaluations == cand_eval.stats.dmm_evaluations
    assert (
        block_eval.stats.point_match_points == cand_eval.stats.point_match_points
    )


@given(
    st.one_of(query_st, single_query_st.map(lambda raw: [(x, y, {a}) for x, y, a in raw])),
    round_st,
    threshold_st,
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
@settings(max_examples=150, deadline=None)
# Two candidates tied on Dmom with k = 1: the tie must not abandon either.
@example([(0.0, 0.0, {1})], [[_pt({1}, 3.0, 0.0)], [_pt({1}, 0.0, 3.0)]], INFINITY, 1)
# Equal gates (Dmm 0); the first candidate's Dmom 0 tightens the threshold,
# so the second (Dmom 5: its only activity-1 point comes after its first
# {2, 3} point) is abandoned mid-DP.
@example(
    [(0.0, 0.0, {1}), (10.0, 0.0, {2, 3})],
    [
        [_pt({1}, 0.0, 0.0), _pt({2, 3}, 10.0, 0.0)],
        [_pt({2, 3}, 10.0, 0.0), _pt({1}, 0.0, 0.0), _pt({2, 3}, 10.0, 5.0)],
    ],
    INFINITY,
    1,
)
def test_block_dmom_equals_the_python_fold(qraw, raws, threshold, k):
    """The C fold against ``block_dmom`` as it ran in Python: without *k*
    every value is ``==``; with *k* the C fold also tightens the threshold
    on all-single-activity queries (which the Python version ran untightened,
    batched), so there the k smallest ``(value, candidate)`` pairs — the
    ranking the top-k collector keeps — must be ``==`` and everything else
    must stay above the k-th value."""
    query = _query(qraw)
    qk = QueryKernel(query, EUCLID)
    block = kernels.prepare_block(qk, _posted(query, _round(raws)))
    got_stats, want_stats = _Stats(), _Stats()
    got = kernels.block_dmom(qk, block, got_stats, threshold, k=k)
    want = python_block_dmom(qk, block, want_stats, threshold, k=k)
    assert got_stats.point_match_points == want_stats.point_match_points
    if k is None or not qk.all_single:
        assert got.tolist() == want.tolist()
        return
    top = sorted((v, c) for c, v in enumerate(want.tolist()) if v != INFINITY)[:k]
    assert sorted((v, c) for c, v in enumerate(got.tolist()) if v != INFINITY)[:k] == top
    assert all(
        v == want[c] or (v == INFINITY and len(top) == k and want[c] >= top[-1][0])
        for c, v in enumerate(got.tolist())
    )


@given(query_st, round_st)
@settings(max_examples=100, deadline=None)
def test_dmm_batch_counters_match_per_candidate_loop(qraw, raws):
    query = _query(qraw)
    items = _round(raws)

    batch_eval = MatchEvaluator(kernel="block")
    got = batch_eval.dmm_batch(query, _posted(query, items))

    loop_eval = MatchEvaluator()
    for c, (trajectory, _p) in enumerate(items):
        want = loop_eval.dmm(query, trajectory)
        assert _close(got[c], want), (c, got[c], want)
    assert batch_eval.stats.dmm_evaluations == loop_eval.stats.dmm_evaluations
    assert (
        batch_eval.stats.point_match_points == loop_eval.stats.point_match_points
    )


# ----------------------------------------------------------------------
# Whole-engine agreement across kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order_sensitive", [False, True])
@pytest.mark.parametrize("kernel", ["scalar"])
def test_engine_block_agreement(small_db, kernel, order_sensitive):
    from dataclasses import fields

    from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
    from repro.core.engine import GATSearchEngine
    from repro.index.gat.index import GATConfig, GATIndex

    index = GATIndex.build(small_db, GATConfig(depth=4, memory_levels=3))
    gen = QueryWorkloadGenerator(
        small_db, WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=23)
    )
    queries = gen.queries(6)

    def run(k):
        engine = GATSearchEngine(index, apl_cache_size=0, kernel=k)
        answers, stats = [], []
        for q in queries:
            index.hicl.clear_cache()
            ctx = engine.execute(q, 5, order_sensitive=order_sensitive)
            answers.append([(r.trajectory_id, r.distance) for r in ctx.ranked])
            stats.append({f.name: getattr(ctx.stats, f.name) for f in fields(ctx.stats)})
        return answers, stats

    block_ans, block_stats = run("block")
    other_ans, other_stats = run(kernel)
    assert [[t for t, _ in q] for q in block_ans] == [
        [t for t, _ in q] for q in other_ans
    ]
    for qa, qb in zip(block_ans, other_ans):
        for (_, da), (_, db) in zip(qa, qb):
            assert math.isclose(da, db, rel_tol=1e-9, abs_tol=1e-12)
    assert block_stats == other_stats


@pytest.mark.parametrize("order_sensitive", [False, True])
def test_trajectory_inserted_after_the_first_query_is_scored(tiny_db, order_sensitive):
    """The block reads the APL row store, which an insert extends by one
    row: a trajectory inserted between queries is scored — and ranked
    first, being an exact match — with the same ids and counters as under
    the scalar kernel."""
    import copy
    from dataclasses import asdict

    from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
    from repro.core.engine import GATSearchEngine
    from repro.index.gat.index import GATConfig, GATIndex

    db = copy.deepcopy(tiny_db)
    index = GATIndex.build(db, GATConfig(depth=4, memory_levels=3))
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=5)
    )
    query = gen.queries(1)[0]
    engines = {
        kernel: GATSearchEngine(index, apl_cache_size=0, kernel=kernel)
        for kernel in ("block", "scalar")
    }

    distances = {}

    def run():
        out = {}
        for kernel, engine in engines.items():
            index.hicl.clear_cache()
            ctx = engine.execute(query, 5, order_sensitive=order_sensitive)
            out[kernel] = ([r.trajectory_id for r in ctx.ranked], asdict(ctx.stats))
            distances[kernel] = [r.distance for r in ctx.ranked]
        return out

    before = run()
    assert before["block"] == before["scalar"]

    new_tid = max(tr.trajectory_id for tr in db) + 1
    points = [TrajectoryPoint(q.x, q.y, q.activities) for q in query]
    points.insert(1, TrajectoryPoint(query[0].x, query[0].y, frozenset()))
    index.insert_trajectory(ActivityTrajectory(new_tid, points))

    after = run()
    assert after["block"] == after["scalar"]
    assert after["block"][0][0] == new_tid
    assert distances["block"][0] == distances["scalar"][0] == 0.0
