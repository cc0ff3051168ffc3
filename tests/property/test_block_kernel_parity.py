"""Property-based parity: the block kernel vs the per-candidate kernels.

Randomized trajectories and queries drive whole validation rounds through
the round-batched block entries (``prepare_block`` + ``block_dmm`` /
``block_dmom`` / ``block_dmm_all_single``) and through the per-candidate
NumPy path the evaluator ran before it scored one-row rounds
(``per_candidate_oracle.py``), the evaluator's per-candidate entries and
the scalar path, and require:

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
round from the APL row store in C, and must equal — field by field — the
dict-walking ``dict_prepare_block`` that preceded the array build, kept
verbatim in ``dict_block_oracle.py``.  So has the block ``Dmm``: ``block_dmm`` must
equal — ``np.array_equal``, same ``point_match_points`` — the per-row /
per-group loop that came before the partition covers, kept verbatim in
``group_loop_dmm_oracle.py`` (both read the block as
``numpy_round_oracle.py`` builds it; ``test_round_differential.py``
compares the C round with that NumPy round).
"""

import math

import numpy as np
import pytest
from dict_block_oracle import dict_prepare_block
from group_loop_dmm_oracle import loop_block_dmm
from hypothesis import example, given, settings, strategies as st
from numpy_round_oracle import numpy_prepare_block
from per_candidate_oracle import dmm_prepared, prepare_candidate
from python_fold_oracle import python_block_dmom

from repro.core import kernels
from repro.core.context import ExecutionContext
from repro.core.evaluator import MatchEvaluator
from repro.core.kernels import INFINITY, QueryKernel
from repro.core.pipeline import MIBFilter
from repro.core.query import Query, QueryPoint
from repro.index.gat.apl import APLStore
from repro.model.distance import EuclideanDistance
from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.vocabulary import Vocabulary
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
    db = TrajectoryDatabase(trajectories[:1] if grown else trajectories, Vocabulary())
    store = APLStore(db, SimulatedDisk())
    if grown:
        for trajectory in trajectories[1:]:
            db.add(trajectory)
            store.extend()
    return store.round(
        [db.row_of(trajectory.trajectory_id) for trajectory in trajectories],
        QueryKernel(query, EUCLID),
    )


def _close(a, b):
    if a == INFINITY or b == INFINITY:
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class _Stats:
    def __init__(self):
        self.point_match_points = 0
        self.distances = 0


# ----------------------------------------------------------------------
# The columnar block build vs the dict-walking builder it replaced
# ----------------------------------------------------------------------
def _assert_same_block(qk, got, want):
    """*got* (a C build) equals *want* (a full-matrix builder) in every
    array; its distances after a ``threshold = inf`` cover, which writes
    every entry some cover reads (``mask != 0``) and leaves the rest
    ``inf`` — unless a generic metric filled them all in the build."""
    kernels.block_dmm(qk, got)
    assert got.n == want.n
    assert got.total == want.total
    assert got.lengths.tolist() == want.lengths
    assert got.seg_of.tolist() == want.seg_of
    for c in range(want.n):
        s, n = got.seg_of[c], got.lengths[c]
        assert got.positions[s : s + n].tolist() == list(want.positions[c])
    assert got.big.shape == want.big.shape
    read = want.mask != 0
    assert np.array_equal(got.big[read], want.big[read])  # bit-identical, not close
    if qk.euclidean:
        assert np.all(got.big[~read] == INFINITY)
    assert got.mask.dtype == want.mask.dtype
    assert np.array_equal(got.mask, want.mask)
    assert {(c, i) for c, i in np.argwhere(got.missing).tolist()} == set(want.missing_rows)


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
    _assert_same_block(qk, kernels.prepare_block(qk, _posted(query, items)), want)
    _assert_same_block(qk, kernels.prepare_block(qk, _posted(query, items, grown=True)), want)


def test_columnar_build_keeps_the_generic_metric_fill(fig1):
    """A non-stock metric has no array formula: its distances stay
    per-pair Python calls, over positions from the same array build."""
    qk = QueryKernel(fig1.query, fig1.metric)
    items = [(fig1.tr1, None), (fig1.tr2, None)]
    got, want = kernels.prepare_block(qk, _posted(fig1.query, items)), dict_prepare_block(qk, items)
    _assert_same_block(qk, got, want)
    assert np.array_equal(got.big, want.big)  # every entry, read or not


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
        cand = prepare_candidate(qk, trajectory)
        want = (
            INFINITY
            if cand is None
            else dmm_prepared(qk, cand, cand_stats)
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
    posted = _posted(query, _round(raws))
    block = numpy_prepare_block(qk, posted)
    got_stats, want_stats = _Stats(), _Stats()
    got = kernels.block_dmm(qk, kernels.prepare_block(qk, posted), got_stats)
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
# A six-activity row (203 partitions, the first width past the paper's
# five) beside a one-activity row.
@example(
    [_pt({0, 1, 2, 3, 4, 5}, 1.0, -1.0), _pt({6}, 4.0, 2.0)],
    [
        [_pt({0, 3}, 2.0), _pt({1, 4, 6}, -1.0), _pt({2, 5}, 0.5), _pt({0, 1, 2}, 3.0)],
        [_pt({0, 1, 2, 3, 4, 5}, 6.0), _pt({5, 4}, 1.0), _pt({3}, 1.5), _pt({6}, 0.0)],
        [_pt({0}), _pt({1}, 1.0), _pt({2}, 2.0), _pt({3}, 3.0), _pt({4}, 4.0), _pt({5, 6}, 5.0)],
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
    to a byte), and every partition summed in the group loop's order."""
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
    assert np.isfinite(got).tolist() == [True, True, False, False, True] * 2


def test_the_widest_row_is_pinned():
    """A row of :data:`~repro.core.kernels.WIDEST_ROW` activities — Bell(10)
    = 115 975 partitions, read off a Bell(11)-int32 table — equals the group
    loop; one activity more is a table the covers refuse to allocate."""
    assert kernels.WIDEST_ROW == 10
    wide = frozenset(range(kernels.WIDEST_ROW))
    raws = [
        [_pt({a, (a + 3) % 10}, float(a), 0.5) for a in range(10)],
        [_pt(wide, 3.0), _pt({9}, 0.25)],
    ]
    qk, _block, got = _assert_block_dmm_equals_group_loop([_pt(wide, 0.5, 0.5)], raws)
    assert max(qk.n_bits) == 10 and np.isfinite(got).all()
    wider = frozenset(range(kernels.WIDEST_ROW + 1))
    query = _query([_pt(wider)])
    qk = QueryKernel(query, EUCLID)
    block = kernels.prepare_block(qk, _posted(query, _round([[_pt(wider)]])))
    with pytest.raises(MemoryError):
        kernels.block_dmm(qk, block)
    with pytest.raises(MemoryError):
        kernels.block_dmom(qk, block)


def _in_round_kth(values, threshold, k):
    """What ``block_dmm`` at *k* returns, from its exact values at ``k = 0``
    and ``τ = inf``: a candidate keeps its value while it is ``<=`` the
    threshold, which tightens to the k-th smallest finite value so far."""
    tau, kept, out = threshold, [], []
    for value in values:
        out.append(value if value <= tau else INFINITY)
        if out[-1] != INFINITY:
            kept = sorted(kept + [value])[:k]
            if len(kept) == k:
                tau = min(tau, kept[-1])
    return out


@given(query_st, round_st, threshold_st, st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
# Three candidates with one Dmm: a tie at the k-th survives (strict >).
@example([_pt({1, 2})], [[_pt({1, 2}, 4.0)]] * 3, INFINITY, 1)
def test_in_round_kth_abandons_only_what_k_candidates_beat(qraw, raws, threshold, k):
    """With *k* set, a candidate above the k-th smallest ``Dmm`` the round
    has scored before it comes back ``inf``; every other value is the
    ``k = 0`` value bit for bit, and the counter does not move."""
    query = _query(qraw)
    qk = QueryKernel(query, EUCLID)
    posted = _posted(query, _round(raws))
    exact = kernels.block_dmm(qk, kernels.prepare_block(qk, posted)).tolist()
    plain_stats, kth_stats = _Stats(), _Stats()
    plain = kernels.block_dmm(qk, kernels.prepare_block(qk, posted), plain_stats, threshold)
    got = kernels.block_dmm(qk, kernels.prepare_block(qk, posted), kth_stats, threshold, k=k)
    assert got.tolist() == _in_round_kth(exact, threshold, k)
    assert all(g == p for g, p in zip(got.tolist(), plain.tolist()) if g != INFINITY)
    assert kth_stats.point_match_points == plain_stats.point_match_points
    assert kth_stats.distances <= plain_stats.distances


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
        cand = prepare_candidate(qk, trajectory)
        want.append(
            INFINITY if cand is None else dmm_prepared(qk, cand, cand_stats)
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
    posted = _posted(query, _round(raws))
    got_stats, want_stats = _Stats(), _Stats()
    got = kernels.block_dmom(qk, kernels.prepare_block(qk, posted), got_stats, threshold, k=k)
    want = python_block_dmom(qk, numpy_prepare_block(qk, posted), want_stats, threshold, k=k)
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


@given(
    st.one_of(wide_query_st, single_query_st.map(lambda raw: [(x, y, {a}) for x, y, a in raw])),
    wide_round_st,
    st.integers(min_value=0, max_value=7),
    threshold_st,
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
# A five-activity row covered by three points: the partition covers and
# Algorithm 3's scan add the three distances in different orders, and the
# sums differ in the last bit — so must the evaluator follow the round.
@example(
    [(-19.44, 20.93, frozenset({0, 1, 2, 3, 4}))],
    [[(-47.85, -49.01, frozenset({3, 4})), (36.26, -34.58, frozenset({0, 1})),
      (-32.04, -35.04, frozenset({2}))]],
    0, INFINITY, True, False,
)
# The same at row 1 of the database, and as a standalone record.
@example(
    [(49.44, -45.38, frozenset({1, 2, 3})), (2.0, 1.0, frozenset({4}))],
    [[_pt({1, 2, 3, 4})],
     [(-40.48, -10.03, frozenset({3, 4})), (25.06, 47.34, frozenset({2})),
      (-3.74, 7.99, frozenset({3})), (21.49, -16.99, frozenset({1}))]],
    1, 500.0, False, True,
)
def test_per_candidate_entries_are_the_engine_round(
    qraw, raws, pick, threshold, check_order, standalone
):
    """``MatchEvaluator().dmm`` / ``.dmom`` on one trajectory — a database
    view at any row, or a standalone record of the same points — return
    ``==`` what the engine's round returns for that trajectory's row
    (``dmm_batch`` / ``dmom_batch`` over the store's image, the MIB filter
    first when *check_order*), with equal :class:`EvaluatorStats`: every
    searcher reports the same distance for the same trajectory."""
    query = _query(qraw)
    items = _round(raws)
    db = TrajectoryDatabase([trajectory for trajectory, _p in items], Vocabulary())
    store = APLStore(db, SimulatedDisk())
    row = pick % len(items)
    trajectory = items[row][0] if standalone else db[row]
    ctx = ExecutionContext(query, 3, True, MatchEvaluator())
    posted = store.round([row], ctx.query_kernel)

    single, engine = MatchEvaluator(), MatchEvaluator()
    assert single.dmm(query, trajectory) == engine.dmm_batch(query, posted)[0]
    if not check_order or MIBFilter().admits(ctx, posted)[0]:
        want = engine.dmom_batch(query, posted, threshold)[0]
    else:  # the filter drops it; the evaluator counts the evaluation
        want = INFINITY
        engine.stats.dmom_evaluations += 1
    assert single.dmom(query, trajectory, threshold, check_order) == want
    assert single.stats == engine.stats


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
