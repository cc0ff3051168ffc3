"""Unit tests for the Inverted Trajectory List and Activity Posting List."""

import numpy as np
import pytest

from repro.geometry.grid import HierarchicalGrid
from repro.index.gat.apl import APLStore
from repro.index.gat.itl import ITL
from repro.model.database import TrajectoryDatabase
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def db():
    return TrajectoryDatabase.from_raw(
        [
            [(1.0, 1.0, ["a"]), (9.0, 9.0, ["b"]), (1.1, 1.05, ["a", "c"])],
            [(1.05, 1.02, ["a"]), (5.0, 5.0, [])],
        ]
    )


@pytest.fixture
def grid(db):
    return HierarchicalGrid(db.bounding_box, depth=3)


class TestITL:
    def test_trajectories_with_activity_in_cell(self, db, grid):
        itl = ITL.build(db, grid)
        a = db.vocabulary.id_of("a")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        tids = itl.trajectories_with(leaf, a)
        assert set(tids) == {0, 1}  # both trajectories have 'a' near (1,1)

    def test_lists_sorted(self, db, grid):
        itl = ITL.build(db, grid)
        a = db.vocabulary.id_of("a")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        tids = itl.trajectories_with(leaf, a)
        assert list(tids) == sorted(tids)

    def test_activity_absent_from_cell(self, db, grid):
        itl = ITL.build(db, grid)
        b = db.vocabulary.id_of("b")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        assert itl.trajectories_with(leaf, b) == ()

    def test_trajectories_with_any(self, db, grid):
        itl = ITL.build(db, grid)
        a, c = db.vocabulary.id_of("a"), db.vocabulary.id_of("c")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        assert itl.trajectories_with_any(leaf, [a, c]) == {0, 1}
        assert itl.trajectories_with_any(leaf, [999]) == set()

    def test_activities_in_cell(self, db, grid):
        itl = ITL.build(db, grid)
        leaf = grid.leaf_level.locate((9.0, 9.0))
        assert itl.activities_in(leaf) == frozenset({db.vocabulary.id_of("b")})

    def test_empty_cell(self, db, grid):
        itl = ITL.build(db, grid)
        empty_leaf = grid.leaf_level.locate((5.0, 9.0))
        assert not itl.has_cell(empty_leaf)
        assert itl.activities_in(empty_leaf) == frozenset()

    def test_memory_cost_positive(self, db, grid):
        itl = ITL.build(db, grid)
        assert itl.memory_cost_bytes() > 0
        assert itl.n_cells() >= 2


class TestAPL:
    def test_build_and_fetch(self, db):
        disk = SimulatedDisk()
        apl = APLStore.build(db, disk)
        assert len(apl) == 2
        posting = apl.fetch(0)
        a = db.vocabulary.id_of("a")
        assert posting[a] == (0, 2)

    def test_fetch_matches_trajectory_posting_lists(self, db):
        apl = APLStore.build(db, SimulatedDisk())
        for tr in db:
            assert apl.fetch(tr.trajectory_id) == tr.posting_lists

    def test_fetch_counts_disk_reads(self, db):
        disk = SimulatedDisk()
        apl = APLStore.build(db, disk)
        disk.reset_stats()
        apl.fetch(0)
        apl.fetch(1)
        assert disk.stats.reads == 2

    def test_fetch_unknown_raises(self, db):
        apl = APLStore.build(db, SimulatedDisk())
        with pytest.raises(KeyError):
            apl.fetch(42)

    def test_contains(self, db):
        apl = APLStore.build(db, SimulatedDisk())
        assert 0 in apl and 1 in apl and 7 not in apl

    def test_covers_query(self, db):
        """The exact validation of Section V-C: a posting list must exist
        for every query activity — no lookup may land on the sentinel."""
        apl = APLStore.build(db, SimulatedDisk())
        ids = db.vocabulary

        def covers(activities):
            candidates = apl.round([0], np.array(sorted(activities)))
            return bool((candidates.lookup() != candidates.image.n_keys).all())

        assert covers([ids.id_of("a"), ids.id_of("b")])
        assert not covers([ids.id_of("a"), 999])

    def test_candidate_positions_sorted_union(self, db):
        """``CP`` for one query point: the union of the position slices its
        activities look up (Algorithm 3, line 1)."""
        apl = APLStore.build(db, SimulatedDisk())
        ids = db.vocabulary

        def positions(activities):
            candidates = apl.round([0], np.array(sorted(activities)))
            image = candidates.image
            slices = [
                image.positions[image.offsets[key] : image.offsets[key + 1]].tolist()
                for key in candidates.lookup()[0]
            ]
            return tuple(sorted(set().union(*slices)))

        assert positions([ids.id_of("a"), ids.id_of("c")]) == (0, 2)
        assert positions([ids.id_of("a"), ids.id_of("b")]) == (0, 1, 2)
        assert positions([999]) == ()
