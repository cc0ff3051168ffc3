"""Tests for dynamic GAT insertion (extension).

The gold standard: after inserting trajectories one by one, every query
must return exactly what a freshly built index over the final database
returns.
"""

import random

import pytest

from repro.core.engine import GATSearchEngine
from repro.core.query import Query, QueryPoint
from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory


def _make_db(seed, n_users=60):
    return CheckInGenerator(
        GeneratorConfig(
            n_users=n_users,
            n_venues=150,
            vocabulary_size=80,
            width_km=10.0,
            height_km=8.0,
            checkins_per_user_mean=7.0,
            seed=seed,
        )
    ).generate()


def _query(db, seed):
    rng = random.Random(seed)
    while True:
        tr = db.trajectories[rng.randrange(len(db))]
        pts = [p for p in tr if p.activities]
        if len(pts) >= 2:
            return Query(
                [
                    QueryPoint(p.x, p.y, frozenset(rng.sample(sorted(p.activities), 1)))
                    for p in rng.sample(pts, 2)
                ]
            )


class TestInsertTrajectory:
    def test_insert_equals_rebuild(self):
        full = _make_db(21)
        # Start the incremental index from the first 40 trajectories...
        base = TrajectoryDatabase(
            full.trajectories[:40], full.vocabulary, name="base"
        )
        config = GATConfig(depth=4, memory_levels=3)
        # ...over a grid that covers the final universe (the documented
        # insertion constraint).
        incremental = GATIndex.build(base, config, bounding_box=full.bounding_box)

        for tr in full.trajectories[40:]:
            incremental.insert_trajectory(tr)

        fresh = GATIndex.build(full, config)
        engine_inc = GATSearchEngine(incremental)
        engine_fresh = GATSearchEngine(fresh)
        for seed in range(6):
            q = _query(full, seed)
            a = [(r.trajectory_id, round(r.distance, 9)) for r in engine_inc.atsq(q, 5)]
            b = [(r.trajectory_id, round(r.distance, 9)) for r in engine_fresh.atsq(q, 5)]
            assert a == b

    def test_duplicate_id_rejected(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=4, memory_levels=3))
        with pytest.raises(ValueError):
            index.insert_trajectory(small_db.trajectories[0])

    def test_out_of_box_rejected(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=4, memory_levels=3))
        far = ActivityTrajectory(
            10_000, [TrajectoryPoint(1e6, 1e6, frozenset({0}))]
        )
        with pytest.raises(ValueError):
            index.insert_trajectory(far)

    def test_inserted_trajectory_is_findable(self, small_db):
        import copy

        db = TrajectoryDatabase(
            list(small_db.trajectories), small_db.vocabulary, name="copy"
        )
        index = GATIndex.build(db, GATConfig(depth=4, memory_levels=3))
        engine = GATSearchEngine(index)
        box = db.bounding_box
        cx = (box.min_x + box.max_x) / 2
        cy = (box.min_y + box.max_y) / 2
        rare = frozenset({len(db.vocabulary) - 1, len(db.vocabulary) - 2})
        new_tr = ActivityTrajectory(
            99_999,
            [
                TrajectoryPoint(cx, cy, rare),
                TrajectoryPoint(cx + 0.1, cy + 0.1, frozenset({0})),
            ],
        )
        index.insert_trajectory(new_tr)
        q = Query([QueryPoint(cx, cy, rare)])
        results = engine.atsq(q, 3)
        assert any(r.trajectory_id == 99_999 for r in results)

    def test_insert_updates_disk_components(self, small_db):
        db = TrajectoryDatabase(
            list(small_db.trajectories), small_db.vocabulary, name="copy2"
        )
        index = GATIndex.build(db, GATConfig(depth=5, memory_levels=3))
        box = db.bounding_box
        new_tr = ActivityTrajectory(
            77_777,
            [TrajectoryPoint((box.min_x + box.max_x) / 2, (box.min_y + box.max_y) / 2, frozenset({0}))],
        )
        index.insert_trajectory(new_tr)
        assert 77_777 in index.apl
        assert index.apl.fetch(77_777) == new_tr.posting_lists
        assert index.sketches[77_777].covers(0)


# ----------------------------------------------------------------------
# An insert appends one row to the APL array store and the sketch table
# ----------------------------------------------------------------------
def _newcomers(db, box, ids):
    """Three trajectories inside *box* under the three *ids*: one carrying
    an activity id larger than any seen, one with an all-empty-activity
    point in the middle, one ordinary — a burst of three."""
    anchor = next(tr for tr in db if sum(bool(p.activities) for p in tr) >= 3)
    pts = [p for p in anchor if p.activities][:3]
    cx, cy = (box.min_x + box.max_x) / 2, (box.min_y + box.max_y) / 2
    unseen = max(a for tr in db for a in tr.activity_union) + 1000
    return [
        ActivityTrajectory(
            ids[0],
            [
                TrajectoryPoint(pts[0].x, pts[0].y, pts[0].activities | {unseen}),
                TrajectoryPoint(cx, cy, frozenset({unseen})),
            ],
        ),
        ActivityTrajectory(
            ids[1],
            [
                TrajectoryPoint(pts[0].x, pts[0].y, pts[0].activities),
                TrajectoryPoint(cx, cy, frozenset()),
                TrajectoryPoint(pts[1].x, pts[1].y, pts[1].activities),
            ],
        ),
        ActivityTrajectory(
            ids[2], [TrajectoryPoint(p.x, p.y, p.activities) for p in reversed(pts)]
        ),
    ]


def _queries_over(trajectories):
    """Queries that name the newcomers' own points, in and out of order."""
    out = []
    for trajectory in trajectories:
        pts = [p for p in trajectory if p.activities]
        out.append(Query([QueryPoint(p.x, p.y, p.activities) for p in pts]))
        out.append(Query([QueryPoint(p.x, p.y, p.activities) for p in reversed(pts)]))
    return out


def _assert_equals_rebuild(grown: GATIndex, queries):
    """*grown* (built, then inserted into) answers, counts and reads exactly
    like an index built from scratch over its database and grid box — and
    holds the same arrays."""
    import numpy as np

    fresh_db = TrajectoryDatabase(grown.db.trajectories, grown.db.vocabulary)
    fresh = GATIndex.build(fresh_db, grown.config, bounding_box=grown.grid.box)
    for name, mine, theirs in zip(grown.apl.image._fields, grown.apl.image, fresh.apl.image):
        assert np.array_equal(mine, theirs), name
    assert np.array_equal(grown.sketches.intervals, fresh.sketches.intervals)
    assert grown.disk_cost_bytes() == fresh.disk_cost_bytes()
    engines = [GATSearchEngine(index, apl_cache_size=0) for index in (grown, fresh)]
    for query in queries:
        for order_sensitive in (False, True):
            for engine in engines:
                engine.index.hicl.clear_cache()
            got, want = (
                engine.execute(query, 4, order_sensitive=order_sensitive)
                for engine in engines
            )
            assert [(r.trajectory_id, r.distance) for r in got.ranked] == [
                (r.trajectory_id, r.distance) for r in want.ranked
            ]
            assert got.stats == want.stats  # tas / apl / mib pruned, disk_reads, …


class TestInsertAppendsARow:
    def test_single_index_burst_equals_rebuild(self, tiny_db):
        import copy

        db = copy.deepcopy(tiny_db)
        index = GATIndex.build(db, GATConfig(depth=4, memory_levels=3))
        engine = GATSearchEngine(index)
        warm = _query(db, 3)
        engine.atsq(warm, 3)  # a reader has seen the pre-insert arrays
        newcomers = _newcomers(db, index.grid.box, (50_000, 50_001, 50_002))
        image_before = index.apl.image
        for trajectory in newcomers:
            index.insert_trajectory(trajectory)
        assert index.apl.image is not image_before  # published, not edited
        assert len(image_before.point_offsets) - 1 == len(db) - 3  # N + 1 offsets
        assert [index.apl.row_of(tr.trajectory_id) for tr in newcomers] == [
            len(db) - 3,
            len(db) - 2,
            len(db) - 1,
        ]
        assert index.apl.fetch(50_001) == newcomers[1].posting_lists
        top = engine.atsq(_queries_over(newcomers[:1])[0], 1)
        assert (top[0].trajectory_id, top[0].distance) == (50_000, 0.0)
        _assert_equals_rebuild(
            index, _queries_over(newcomers) + [_query(db, s) for s in range(4)]
        )

    def test_two_shard_inserts_equal_rebuild_shard_by_shard(self, tiny_db):
        """In-box inserts extend a shard's arrays; one that overflows its
        shard's box goes through ``_rebuild_expanded`` first."""
        import copy

        from repro.shard import ShardedGATIndex

        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(
            db, n_shards=2, config=GATConfig(depth=4, memory_levels=3)
        )
        fresh_ids = range(max(tr.trajectory_id for tr in db) + 1, 10**6)
        inserted = []
        for sid in (0, 1):
            shard = sharded.shards[sid]
            ids = [tid for tid in fresh_ids[:40] if sharded.shard_of(tid) == sid]
            newcomers = _newcomers(shard.db, shard.grid.box, ids)
            if sid == 1:  # … and one past the shard's corner: a rebuild
                box = shard.grid.box
                far = TrajectoryPoint(box.max_x + 1.0, box.max_y + 1.0, frozenset({0}))
                newcomers.append(ActivityTrajectory(ids[3], [far, *newcomers[2]]))
            for trajectory in newcomers:
                sharded.insert_trajectory(trajectory)
            inserted.append(newcomers)
        assert sharded.shards[1].grid.box.max_x >= inserted[1][-1][0].x  # rebuilt
        for sid in (0, 1):
            shard = sharded.shards[sid]
            _assert_equals_rebuild(
                shard, _queries_over(inserted[sid]) + [_query(shard.db, s) for s in range(3)]
            )

    def test_activity_ids_must_fit_the_key(self, tiny_db):
        from repro.index.gat.apl import APLStore
        from repro.storage.disk import SimulatedDisk

        too_wide = ActivityTrajectory(1, [TrajectoryPoint(0.0, 0.0, frozenset({1 << 32}))])
        with pytest.raises(ValueError, match="32"):
            APLStore.build([too_wide], SimulatedDisk())
        widest = ActivityTrajectory(1, [TrajectoryPoint(0.0, 0.0, frozenset({(1 << 32) - 1}))])
        assert APLStore.build([widest], SimulatedDisk()).fetch(1) == widest.posting_lists
