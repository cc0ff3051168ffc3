"""The C handles: one per APL image, one per query, one per HICL
publication.

An image's ``gat_image`` handle is published with the image, so a round
keeps the image it started with across an insert; a query's
``gat_query`` handle is built once.  The HICL's in-memory rows and their
``gat_levels`` handle are published together and replaced by an insert,
so a walk keeps the rows it started with.  Neither the round nor the scorers
wrap an image or query array per call, which the call budget pins.
"""

from dataclasses import asdict

import numpy as np
import pytest

import repro.core.pipeline
import repro.native
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core import kernels
from repro.core.context import ExecutionContext
from repro.core.engine import GATSearchEngine
from repro.core.evaluator import MatchEvaluator
from repro.core.pipeline import CandidateRetriever, TASFilter
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory


def _scored(index, ctx, posted):
    """What a round answers: its lookup, its TAS mask and its ``Dmm``."""
    qk = ctx.query_kernel
    return (
        posted.lookup().copy(),
        TASFilter(index.sketches).admits(ctx, posted),
        kernels.block_dmm(qk, kernels.prepare_block(qk, posted)),
    )


def test_a_round_keeps_the_image_it_started_with(small_db):
    """A round built before an insert looks up and scores from the old
    image after it; a query after the insert finds the new row, with the
    scalar oracle's answer (ids exactly, distances to the last-ulp
    sources the kernels module lists)."""
    db = TrajectoryDatabase(list(small_db.trajectories), small_db.vocabulary)
    index = GATIndex.build(db, GATConfig(depth=5, memory_levels=3))
    (query,) = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=4)
    ).queries(1)
    ctx = ExecutionContext(query, 3, False, MatchEvaluator())
    rows = list(range(len(db)))
    want = _scored(index, ctx, index.apl.round(rows, ctx.query_kernel))
    before, image = index.apl.round(rows, ctx.query_kernel), index.apl.image

    newcomer = ActivityTrajectory(
        424_242, [TrajectoryPoint(q.x, q.y, frozenset(q.activities)) for q in query]
    )
    index.insert_trajectory(newcomer)
    assert before.image is image and index.apl.image is not image
    assert index.apl.image.handle.n_keys > image.handle.n_keys
    got = _scored(index, ctx, before)
    for mine, theirs in zip(got, want):
        assert np.array_equal(mine, theirs)

    block, scalar = GATSearchEngine(index), GATSearchEngine(index, kernel="scalar")
    for order_sensitive in (False, True):
        got = block.execute(query, 3, order_sensitive=order_sensitive).ranked
        want = scalar.execute(query, 3, order_sensitive=order_sensitive).ranked
        assert got[0].trajectory_id == 424_242 and got[0].distance == 0.0
        assert [r.trajectory_id for r in got] == [r.trajectory_id for r in want]
        assert [r.distance for r in got] == pytest.approx([r.distance for r in want], rel=1e-9)


def test_a_walk_keeps_the_hicl_rows_it_started_with(small_db, monkeypatch):
    """An insert right after a query's walk starts sets new bits for one of
    the query's activities at in-memory HICL levels; it publishes new row
    arrays, and the walk — which builds each level's union on first
    expansion, after the insert — reads the ones it took: the query
    returns exactly the answer and every counter it returns without the
    insert."""

    def build():
        db = TrajectoryDatabase(list(small_db.trajectories), small_db.vocabulary)
        return GATIndex.build(db, GATConfig(depth=5, memory_levels=5))

    (query,) = QueryWorkloadGenerator(
        small_db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=4)
    ).queries(1)
    want = GATSearchEngine(build()).execute(query, 3)

    index = build()
    old = index.hicl.levels
    activity = min(query[0].activities)
    slot = old.activities.tolist().index(activity)
    before = [None if rows is None else rows[slot].copy() for rows in old.rows]
    leaf = index.grid.leaf_level
    bits = np.unpackbits(before[5], bitorder="little")
    empty = [code for code in range(leaf.n_cells) if not bits[code]]
    points = [leaf.rect(code).center for code in empty[:: max(1, len(empty) // 6)]]
    newcomer = ActivityTrajectory(
        424_242, [TrajectoryPoint(x, y, frozenset(query[0].activities)) for x, y in points]
    )
    inserted = []
    retrieve = CandidateRetriever.retrieve

    def insert_after_the_first_call(self, *args, **kwargs):
        rows = retrieve(self, *args, **kwargs)
        if not inserted:
            index.insert_trajectory(newcomer)
            inserted.append(index.hicl.levels)
        return rows

    monkeypatch.setattr(CandidateRetriever, "retrieve", insert_after_the_first_call)
    got = GATSearchEngine(index).execute(query, 3)
    (new,) = inserted
    new_slot = new.activities.tolist().index(activity)
    changed = [level for level in range(1, 6)
               if not np.array_equal(new.rows[level][new_slot], before[level])]
    assert changed[-3:] == [3, 4, 5], changed  # new bits the walk had not expanded yet
    assert [(r.trajectory_id, r.distance) for r in got.ranked] == [
        (r.trajectory_id, r.distance) for r in want.ranked
    ]
    assert asdict(got.stats) == asdict(want.stats)


def test_block_views_outlive_the_block(small_db):
    """A block's NumPy views are made from its ``gat_columns`` fields, and
    each keeps the C buffer alive: reading one after the block is gone
    reads what the block held."""
    import gc

    index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=3))
    query, other = QueryWorkloadGenerator(
        small_db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=4)
    ).queries(2)
    rows = list(range(len(small_db)))
    qk = ExecutionContext(query, 3, False, MatchEvaluator()).query_kernel
    block = kernels.prepare_block(qk, index.apl.round(rows, qk))
    views = [getattr(block, name) for name in kernels._VIEWS]
    want = [view.copy() for view in views]
    del block
    gc.collect()
    qk = ExecutionContext(other, 3, False, MatchEvaluator()).query_kernel
    for _ in range(50):  # other blocks reuse freed memory, if any was freed
        kernels.prepare_block(qk, index.apl.round(rows[::-1], qk)).big[...] = -1.0
    for view, copy in zip(views, want):
        assert np.array_equal(view, copy)


class _CountingFFI:
    """``ffi`` with its ``from_buffer`` calls counted."""

    def __init__(self, ffi) -> None:
        self._ffi = ffi
        self.calls = 0

    def from_buffer(self, *args, **kwargs):
        self.calls += 1
        return self._ffi.from_buffer(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ffi, name)


def test_buffer_wraps_per_block_query_are_bounded(tiny_db, monkeypatch):
    """Image and query arrays are wrapped once per image and per query, so a
    block query wraps at most a few arrays per round: a round's rows, its
    lookup and the filters' and scorers' outputs.  Wrapping every array at
    every call (the per-call ``c_array`` the handles replaced) costs about
    three times as many."""
    index = GATIndex.build(tiny_db, GATConfig(depth=4, memory_levels=4))
    engine = GATSearchEngine(index)
    queries = QueryWorkloadGenerator(
        tiny_db, WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=9)
    ).queries(6)
    counting = _CountingFFI(repro.native.ffi)
    monkeypatch.setattr(repro.native, "ffi", counting)
    monkeypatch.setattr(repro.core.pipeline, "ffi", counting)
    for query in queries:
        for order_sensitive in (False, True):
            counting.calls = 0
            ctx = engine.execute(query, 5, order_sensitive=order_sensitive)
            # Per query: the walk's ITL arrays (3) and the query handle's
            # (4) — the HICL rows are all in memory here, read through the
            # HICL's own handle; per round the rows and lookup of each round
            # object, the filters' and the scorer's outputs and the LRU's
            # misses.
            bound = 7 + 10 * ctx.stats.rounds
            assert 0 < counting.calls <= bound, (counting.calls, ctx.stats.rounds)
