"""Differential test: the validation round in C vs the NumPy round.

Section (d) of ``repro/native/gat.c`` runs a validation round: the key
lookup, the TAS / APL / MIB masks, the block build and the ``Dmm`` covers,
with the ``Dmom`` fold after them.  ``numpy_round_oracle.py`` keeps the
NumPy round it replaced.  Random databases, rounds (rows in any order, any
subset, empty included) and queries go through both, and everything must
agree with ``np.array_equal`` / ``==``: the lookup, the three masks, the
block's columns, positions, bitmasks, distances and missing rows, every
``Dmm`` and ``point_match_points``, and ``Dmom`` at every threshold the
round's gates suggest and every ``k``.

Every C entry returns -1 when it runs out of memory, which the Python side
raises as :class:`MemoryError`; the last tests drive that path.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy_round_oracle import (
    numpy_apl_covered,
    numpy_block_dmm,
    numpy_block_dmm_all_single,
    numpy_block_dmom,
    numpy_covers_all,
    numpy_lookup,
    numpy_mib,
    numpy_prepare_block,
)

from repro.core import kernels
from repro.core.context import ExecutionContext
from repro.core.evaluator import MatchEvaluator
from repro.core.kernels import INFINITY, QueryKernel
from repro.core.pipeline import APLFilter, MIBFilter, TASFilter
from repro.core.query import Query, QueryPoint
from repro.index.gat.apl import APLStore, trajectory_round
from repro.index.gat.tas import SketchTable
from repro.model.database import TrajectoryDatabase
from repro.model.distance import EuclideanDistance
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.vocabulary import Vocabulary
from repro.storage.disk import SimulatedDisk

EUCLID = EuclideanDistance()

coord_st = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
#: Points carry up to five of seven activities; queries also ask for 7,
#: which no point carries.
point_st = st.tuples(
    coord_st, coord_st, st.frozensets(st.integers(min_value=0, max_value=6), max_size=5)
)
db_st = st.lists(st.lists(point_st, min_size=1, max_size=12), min_size=1, max_size=8)
picks_st = st.lists(st.integers(min_value=0, max_value=7), max_size=8)
query_st = st.lists(
    st.tuples(
        coord_st,
        coord_st,
        st.frozensets(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
    ),
    min_size=1,
    max_size=4,
)
sketch_st = st.integers(min_value=1, max_value=3)


class _Stats:
    def __init__(self):
        self.point_match_points = 0
        self.distances = 0


def _pt(acts, x=1.0, y=2.0):
    return (x, y, frozenset(acts))


def _round(db_raw, picks, qraw, m):
    """The store, its sketches, the query's context and kernel, and the
    round of rows *picks* (modulo the database, first pick of a row wins)."""
    trajectories = [
        ActivityTrajectory(10 + 3 * i, [TrajectoryPoint(x, y, a) for x, y, a in raw])
        for i, raw in enumerate(db_raw)
    ]
    store = APLStore(TrajectoryDatabase(trajectories, Vocabulary()), SimulatedDisk())
    query = Query([QueryPoint(x, y, acts) for x, y, acts in qraw])
    ctx = ExecutionContext(query, 3, True, MatchEvaluator())
    rows = list(dict.fromkeys(p % len(db_raw) for p in picks))
    posted = store.round(rows, ctx.query_kernel)
    return store, SketchTable(store, m), ctx, QueryKernel(query, EUCLID), posted


def _dmm_pair(c_fn, numpy_fn, qk, got, want):
    got_stats, want_stats = _Stats(), _Stats()
    values = c_fn(qk, got, got_stats)
    assert np.array_equal(values, numpy_fn(qk, want, want_stats))  # bits, not close
    assert got_stats.point_match_points == want_stats.point_match_points
    return values


@given(db_st, picks_st, query_st, sketch_st)
@settings(max_examples=200, deadline=None)
# An empty round.
@example([[_pt({1})]], [], [_pt({1})], 1)
# A candidate with no relevant column between two that have some.
@example([[_pt({1, 2})], [_pt({4}), _pt(())], [_pt({2, 1}, 3.0)]], [0, 1, 2], [_pt({1, 2})], 2)
# Row 1's activity 3 never occurs in candidate 0, though activity 2 gives
# the row relevant columns there: a missing row.
@example(
    [[_pt({1}), _pt({2})], [_pt({1, 3}), _pt({2})]], [0, 1], [_pt({1}), _pt({2, 3}), _pt({2})], 3
)
# A point carrying two query activities: one deduplicated column.
@example(
    [[_pt({1, 2}), _pt({2}, 7.0)], [_pt({2, 1, 5}, -3.0)]], [1, 0], [_pt({1}), _pt({2}, 1.0)], 1
)
# Rows of widths one, two and four in one query.
@example(
    [[_pt({3, 1}), _pt({2, 0}, 5.0), _pt({4}, 6.0), _pt({1, 3}, 0.5)],
     [_pt({0, 1, 2, 3, 4}, 2.0), _pt({2}, 1.0)],
     [_pt({4, 3}, 1.0), _pt({1}, 2.0), _pt({2}, 3.0), _pt({0}, 4.0)]],
    [2, 0, 1],
    [_pt({3}, 1.0), _pt({1, 2}, 2.0), _pt({0, 1, 2, 3}, 3.0), _pt({4}, 4.0)],
    2,
)
# |q.Φ| = 5: 52 set partitions per row.
@example(
    [[_pt({0, 1}, 1.0), _pt({2}, 2.5), _pt({3, 4, 5}, 0.1), _pt({6, 2}, 4.0),
      _pt({0, 1, 2, 3, 4}, 9.0)],
     [_pt({4, 3}, -2.0), _pt({0}, 1.5), _pt({1, 2, 5, 6}, 3.5), _pt({2, 3}, 0.0)]],
    [0, 1],
    [_pt({0, 1, 2, 3, 4}, 0.5, 0.25), _pt({2, 3, 4, 5, 6}, -7.0, 3.0)],
    3,
)
# An all-single query, two rows asking the same activity.
@example(
    [[_pt({1}), _pt({3, 1}, 4.0)], [_pt({1})], [_pt({3})]],
    [0, 1, 2],
    [_pt({1}, 0.0), _pt({1}, 9.0), _pt({3})],
    1,
)
# A base + d == best tie in the fold: the second {2} point at the first's
# place folds a floor equal to the row's best; equal gates besides.
@example(
    [[_pt({1}, 0.0, 0.0), _pt({2}, 10.0, 0.0), _pt({2}, 10.0, 0.0)],
     [_pt({1}, 0.0, 0.0), _pt({2}, 10.0, 0.0)]],
    [1, 0],
    [_pt({1}, 0.0, 0.0), _pt({2}, 10.0, 0.0)],
    1,
)
# Equal gates (Dmm 0), Dmom 0 and 5: visited in candidate order, the first
# tightens k = 1's threshold and the second is abandoned mid-fold.
@example(
    [[_pt({1}, 0.0, 0.0), _pt({2, 3}, 10.0, 0.0)],
     [_pt({2, 3}, 10.0, 0.0), _pt({1}, 0.0, 0.0), _pt({2, 3}, 10.0, 5.0)]],
    [0, 1],
    [_pt({1}, 0.0, 0.0), _pt({2, 3}, 10.0, 0.0)],
    1,
)
def test_the_c_round_equals_the_numpy_round(db_raw, picks, qraw, m):
    store, sketches, ctx, qk, posted = _round(db_raw, picks, qraw, m)

    lookup = posted.lookup()
    assert np.array_equal(lookup, numpy_lookup(posted))
    assert np.array_equal(
        TASFilter(sketches).admits(ctx, posted),
        numpy_covers_all(sketches.intervals, posted.rows, posted.query.sorted_activities),
    )
    assert np.array_equal(APLFilter(store).admits(ctx, posted), numpy_apl_covered(posted, lookup))
    slots, starts = ctx.query_kernel.point_slots
    mib = numpy_mib(posted, lookup, slots, starts[:-1])
    assert np.array_equal(MIBFilter().admits(ctx, posted), mib)

    got, want = kernels.prepare_block(qk, posted), numpy_prepare_block(qk, posted)
    assert (got.n, got.total) == (want.n, want.total)
    assert np.array_equal(got.lengths, want.lengths)
    assert np.array_equal(got.seg_of, want.seg_of)
    assert np.array_equal(got.positions, want.positions)
    assert got.mask.dtype == want.mask.dtype and np.array_equal(got.mask, want.mask)
    missing = np.zeros((want.n, qk.m), dtype=bool)
    missing[want.missing_rows[:, 0], want.missing_rows[:, 1]] = True
    assert np.array_equal(got.missing, missing)

    gates = _dmm_pair(kernels.block_dmm, numpy_block_dmm, qk, got, want)
    # The C build evaluates no distance; the threshold = inf cover above
    # wrote every entry a cover reads, and left the others inf.
    read = want.mask != 0
    assert got.big.shape == want.big.shape
    assert np.array_equal(got.big[read], want.big[read]) and np.all(got.big[~read] == INFINITY)
    if qk.all_single and len(posted):
        _dmm_pair(kernels.block_dmm_all_single, numpy_block_dmm_all_single, qk, posted, posted)

    thresholds = {INFINITY, 0.0} | {g for g in gates.tolist() if g != INFINITY}
    for threshold in sorted(thresholds):
        for k in (None, 1, 2, 3):
            got_stats, want_stats = _Stats(), _Stats()
            assert (
                kernels.block_dmom(qk, got, got_stats, threshold, k).tolist()
                == numpy_block_dmom(qk, want, want_stats, threshold, k).tolist()
            ), (threshold, k)
            assert got_stats.point_match_points == want_stats.point_match_points


def test_a_cover_table_that_cannot_be_allocated_raises_memory_error():
    """A 50-activity row's cover table (2^50 states) cannot be allocated:
    the C entries return -1 and the callers raise :class:`MemoryError`."""
    wide = frozenset(range(50))
    _store, _sketches, _ctx, qk, posted = _round(
        [[_pt(wide), _pt({0, 1})]], [0], [_pt(wide), _pt({3})], 1
    )
    block = kernels.prepare_block(qk, posted)
    assert int(block.mask.max()) == (1 << 50) - 1
    with pytest.raises(MemoryError):
        kernels.block_dmm(qk, block)
    with pytest.raises(MemoryError):
        kernels.block_dmom(qk, block, threshold=math.inf, k=1)


def test_every_out_of_memory_return_raises_memory_error(monkeypatch):
    """Each C entry that allocates answers -1 when malloc fails; each
    caller turns that into :class:`MemoryError`."""
    store, _sketches, _ctx, qk, posted = _round([[_pt({1, 2}), _pt({2})]], [0], [_pt({1, 2})], 1)
    block = kernels.prepare_block(qk, posted)
    trajectory = store.db[0]
    one_row = kernels.prepare_block(qk, trajectory_round(trajectory, qk))
    failing = SimpleNamespace(**{
        name: (lambda *args: -1) for name in ("gat_round_block", "gat_block_dmm", "gat_block_dmom")
    })
    monkeypatch.setattr(kernels, "lib", failing)
    for call in (
        lambda: kernels.prepare_block(qk, posted),
        lambda: kernels.block_dmm(qk, block),
        lambda: kernels.block_dmom(qk, block),
        lambda: kernels.block_dmom(qk, one_row),
        lambda: MatchEvaluator().dmm(qk.query, trajectory),
        lambda: MatchEvaluator().dmom(qk.query, trajectory),
    ):
        with pytest.raises(MemoryError):
            call()
