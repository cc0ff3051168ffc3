"""Unit tests for the assembled GAT index."""

import pytest

from repro.index.gat.index import GATConfig, GATIndex
from repro.storage.disk import SimulatedDisk


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = GATConfig()
        assert cfg.depth == 8  # 256 x 256 cells (Section VII-A)
        assert cfg.memory_levels == 6  # levels 7-8 on disk

    def test_validation(self):
        with pytest.raises(ValueError):
            GATConfig(depth=0)
        with pytest.raises(ValueError):
            GATConfig(depth=4, memory_levels=5)
        with pytest.raises(ValueError):
            GATConfig(sketch_intervals=0)


class TestBuild:
    def test_components_present(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
        assert index.grid.depth == 5
        assert len(index.sketches) == len(small_db)
        assert len(index.apl) == len(small_db)
        assert index.itl.memory_cost_bytes() > 0

    def test_build_resets_disk_stats(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
        assert index.disk.stats.reads == 0
        assert index.disk.stats.writes == 0

    def test_shared_disk(self, small_db):
        disk = SimulatedDisk()
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4), disk=disk)
        assert index.disk is disk
        assert len(disk) > 0

    def test_memory_cost_grows_with_depth(self, small_db):
        small = GATIndex.build(small_db, GATConfig(depth=4, memory_levels=4))
        large = GATIndex.build(small_db, GATConfig(depth=6, memory_levels=6))
        assert large.memory_cost_bytes() > small.memory_cost_bytes()

    def test_sketches_cover_unions(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
        for tr in small_db:
            assert index.sketches[tr.trajectory_id].covers_all(tr.activity_union)
