"""Unit tests for the Hierarchical Inverted Cell List (HICL)."""

import pytest

from repro.core.context import SearchStats
from repro.geometry.grid import HierarchicalGrid
from repro.core.query import Query, QueryPoint
from repro.index.gat.apl import APLStore
from repro.index.gat.hicl import HICL, QueryBitmaps, memory_level_budget
from repro.model.database import TrajectoryDatabase
from repro.storage.disk import SimulatedDisk


def build_hicl(db, grid, **kwargs):
    """``HICL.build`` over *db*'s leaf postings, as ``GATIndex.build`` feeds it."""
    image = APLStore.build(db, SimulatedDisk()).image
    codes, activities, _starts, _rows = image.leaf_lists(grid.leaf_level)
    return HICL.build(codes, activities, grid, **kwargs)


@pytest.fixture
def db():
    # Two trajectories in a unit-ish square with known activity placement.
    return TrajectoryDatabase.from_raw(
        [
            [(1.0, 1.0, ["a"]), (9.0, 9.0, ["b"])],
            [(1.2, 1.1, ["a", "b"]), (5.0, 5.0, [])],
        ]
    )


@pytest.fixture
def grid(db):
    return HierarchicalGrid(db.bounding_box, depth=4)


class TestBuild:
    def test_all_in_memory(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a = db.vocabulary.id_of("a")
        cells = hicl.cells_with_activity(a, 4)
        assert cells  # a exists somewhere at leaf level
        # Both 'a' points are near (1,1): one or two leaf cells.
        assert 1 <= len(cells) <= 2

    def test_leaf_membership_matches_point_location(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a = db.vocabulary.id_of("a")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        assert leaf in hicl.cells_with_activity(a, 4)

    def test_parent_aggregation(self, db, grid):
        """A cell contains alpha at level L-1 iff one of its children does."""
        hicl = build_hicl(db, grid, memory_levels=4)
        for name in ("a", "b"):
            act = db.vocabulary.id_of(name)
            for level in range(1, 4):
                parents = hicl.cells_with_activity(act, level)
                children = hicl.cells_with_activity(act, level + 1)
                assert parents == {code >> 2 for code in children}

    def test_empty_activity_points_ignored(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        mid_leaf = grid.leaf_level.locate((5.0, 5.0))
        a = db.vocabulary.id_of("a")
        b = db.vocabulary.id_of("b")
        assert mid_leaf not in hicl.cells_with_activity(a, 4)
        assert mid_leaf not in hicl.cells_with_activity(b, 4)

    def test_unknown_activity_empty(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        assert hicl.cells_with_activity(999, 4) == frozenset()

    def test_level_bounds_checked(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        with pytest.raises(ValueError):
            hicl.cells_with_activity(0, 0)
        with pytest.raises(ValueError):
            hicl.cells_with_activity(0, 5)


class TestDiskResidence:
    def test_requires_disk_for_low_levels(self, db, grid):
        with pytest.raises(ValueError):
            HICL(grid, memory_levels=2, disk=None)

    def test_disk_levels_round_trip(self, db, grid):
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        full = build_hicl(db, grid, memory_levels=4)
        for name in ("a", "b"):
            act = db.vocabulary.id_of(name)
            for level in (3, 4):
                assert hicl.cells_with_activity(act, level) == full.cells_with_activity(
                    act, level
                )

    def test_disk_reads_counted_once_per_query_with_cache(self, db, grid):
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        disk.reset_stats()
        a = db.vocabulary.id_of("a")
        hicl.cells_with_activity(a, 4)
        hicl.cells_with_activity(a, 4)
        hicl.cells_with_activity(a, 4)
        assert disk.stats.reads == 1  # cached after the first read
        hicl.clear_cache()
        hicl.cells_with_activity(a, 4)
        assert disk.stats.reads == 2

    def test_memory_levels_do_not_touch_disk(self, db, grid):
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        disk.reset_stats()
        hicl.cells_with_activity(db.vocabulary.id_of("a"), 1)
        hicl.cells_with_activity(db.vocabulary.id_of("a"), 2)
        assert disk.stats.reads == 0

    def test_cache_is_lru_bounded(self, db, grid):
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk, cache_capacity=1)
        disk.reset_stats()
        a, b = db.vocabulary.id_of("a"), db.vocabulary.id_of("b")
        hicl.cells_with_activity(a, 4)  # load a
        hicl.cells_with_activity(b, 4)  # evicts a (capacity 1)
        hicl.cells_with_activity(a, 4)  # re-read from disk
        assert disk.stats.reads == 3

    def test_cache_capacity_zero_disables_caching(self, db, grid):
        """cache_capacity=0 = every lookup is a counted read (mirrors the
        engine's apl_cache_size=0 convention)."""
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk, cache_capacity=0)
        disk.reset_stats()
        a = db.vocabulary.id_of("a")
        for _ in range(3):
            hicl.cells_with_activity(a, 4)
        assert disk.stats.reads == 3
        # No cache, no cache lookups to count.
        stats = SearchStats()
        hicl.bitmap(a, 4, stats)
        assert (stats.hicl_cache_hits, stats.hicl_cache_lookups) == (0, 0)
        hicl.clear_cache()  # no-op, must not raise

    def test_cache_stats_exposed(self, db, grid):
        """A lookup of a disk-resident list counts on the asking query's
        stats; memory-resident levels make no cache lookup."""
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        a = db.vocabulary.id_of("a")
        stats = SearchStats()
        hicl.bitmap(a, 4, stats)
        hicl.bitmap(a, 4, stats)
        hicl.bitmap(a, 2, stats)
        assert stats.hicl_cache_hits == 1
        assert stats.hicl_cache_lookups - stats.hicl_cache_hits == 1


class TestWarmCacheAcrossQueries:
    """Regression for the cross-query cache thrash: the engine used to
    call ``clear_cache()`` at the start of every query, so back-to-back
    queries re-read every disk-resident cell list."""

    def _engine_and_query(self, small_db):
        from repro.core.engine import GATSearchEngine
        from repro.core.query import Query, QueryPoint
        from repro.index.gat.index import GATConfig, GATIndex

        # memory_levels < depth so leaf lookups hit the simulated disk.
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=3))
        engine = GATSearchEngine(index)
        tr = next(t for t in small_db if sum(1 for p in t if p.activities) >= 2)
        pts = [p for p in tr if p.activities][:2]
        query = Query(
            [QueryPoint(p.x, p.y, frozenset(list(p.activities)[:2])) for p in pts]
        )
        return engine, query

    def test_back_to_back_queries_reuse_warm_cells(self, small_db):
        engine, query = self._engine_and_query(small_db)
        first = engine.execute(query, k=3).stats
        second = engine.execute(query, k=3).stats
        # Identical answers and pruning work either way...
        assert second.tas_pruned == first.tas_pruned
        assert second.apl_pruned == first.apl_pruned
        # ...but the repeat query is served from the warm caches: every
        # one of its HICL lookups hits.
        assert second.disk_reads < first.disk_reads
        assert second.hicl_cache_lookups == first.hicl_cache_lookups > 0
        assert second.hicl_cache_hits == second.hicl_cache_lookups

    def test_cold_cache_restores_seed_io(self, small_db):
        """clear_cache() + a cache-less engine reproduces the seed's
        one-read-per-(activity,level)-per-query accounting."""
        from repro.core.engine import GATSearchEngine

        engine, query = self._engine_and_query(small_db)
        cold = GATSearchEngine(engine.index, apl_cache_size=0)
        engine.index.hicl.clear_cache()
        first = cold.execute(query, k=3).stats
        engine.index.hicl.clear_cache()
        second = cold.execute(query, k=3).stats
        assert second.disk_reads == first.disk_reads


class TestQueries:
    """The per-query bitmap view (``QueryBitmaps``) — what the retriever
    and Algorithm 2 read.  The ``frozenset`` walkers it replaced live in
    ``tests/property/frozenset_hicl_oracle.py``; the differential test
    there compares the two over whole retrievals."""

    @staticmethod
    def _view(hicl, *activity_sets):
        return QueryBitmaps(
            hicl, Query([QueryPoint(1.0, 1.0, frozenset(acts)) for acts in activity_sets])
        )

    def test_cells_with_any_unions(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a, b = db.vocabulary.id_of("a"), db.vocabulary.id_of("b")
        view = self._view(hicl, {a, b})
        union = hicl.cells_with_activity(a, 4) | hicl.cells_with_activity(b, 4)
        assert hicl.bitmap(a, 4) | hicl.bitmap(b, 4) == sum(1 << code for code in union)
        # Every leaf cell shows up in its parent's nibble, and nothing else does.
        children = {
            (parent << 2) + j
            for parent in range(4**3)
            for j in range(4)
            if view.child_nibble(0, 4, parent) >> j & 1
        }
        assert children == union

    def test_cell_activity_overlap(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a, b = db.vocabulary.id_of("a"), db.vocabulary.id_of("b")
        leaf = grid.leaf_level.locate((1.2, 1.1))  # has a and b via Tr2
        view = self._view(hicl, {a, b, 999})
        mask = view.overlap_mask(0, 4, leaf)
        overlap = {act for j, act in enumerate(view.activities[0]) if mask >> j & 1}
        assert overlap == {a, b}

    def test_children_with_any_filters(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a = db.vocabulary.id_of("a")
        view = self._view(hicl, {a})
        # Walk from the level-1 cell containing (1,1) down: every level must
        # offer at least one child containing 'a'.
        cell = grid.locate((1.0, 1.0), 1)
        code, level = cell.code, cell.level
        assert view.child_nibble(0, 1, 0) >> code & 1  # a root child itself
        while level < 4:
            nibble = view.child_nibble(0, level + 1, code)
            assert nibble
            kids = [(code << 2) + j for j in range(4) if nibble >> j & 1]
            assert set(kids) <= hicl.cells_with_activity(a, level + 1)
            code, level = kids[0], level + 1

    def test_cell_has_any(self, db, grid):
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        a = db.vocabulary.id_of("a")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        disk.reset_stats()
        view = self._view(hicl, {a}, {999})
        assert view.child_nibble(0, 4, leaf >> 2) >> (leaf & 3) & 1
        assert view.overlap_mask(0, 4, leaf) == 1
        assert view.child_nibble(1, 4, leaf >> 2) == 0
        assert view.overlap_mask(1, 4, leaf) == 0
        # One lookup per (level, activity) of each query point, however
        # many cells are probed: a's list, and a counted miss for 999.
        assert disk.stats.reads == 2


class TestMemoryCost:
    """Figure 8's model — 8 bytes per (activity, cell) entry + 16 per list
    of the memory-resident levels — read off popcounts.  The numbers are
    what the ``frozenset`` HICL returned for this fixture."""

    def test_all_levels_in_memory(self, db, grid):
        assert build_hicl(db, grid, memory_levels=4).memory_cost_bytes() == 224

    def test_disk_levels_not_charged(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=2, disk=SimulatedDisk())
        assert hicl.memory_cost_bytes() == 112
        hicl.add_point(grid.leaf_level.locate((5.0, 5.0)), [0, 7])
        assert hicl.memory_cost_bytes() == 176


def test_memory_level_budget_formula():
    # h = log4(3B/(4C) + 1): with B = 4^1*C*...  check monotonicity + exact point.
    assert memory_level_budget(4 * 100, 100) == 1  # exactly level 1 fits
    assert memory_level_budget((4 + 16) * 100, 100) == 2
    assert memory_level_budget(10, 1_000_000) == 0
    with pytest.raises(ValueError):
        memory_level_budget(0, 10)
