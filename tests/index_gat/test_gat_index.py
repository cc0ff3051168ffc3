"""Unit tests for the assembled GAT index."""

import pytest
from sketch_oracle import TrajectorySketch

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

    def test_depth_limit_keeps_itl_keys_in_int64(self):
        """An ITL key is ``(leaf code << 32) | activity``: at depth 16 a leaf
        code reaches 4**16 - 1, and shifting it by 32 overflows int64."""
        assert GATConfig(depth=15, memory_levels=6).depth == 15
        assert ((4**15 - 1) << 32 | (2**32 - 1)) < 2**63 <= (4**16 - 1) << 32
        with pytest.raises(ValueError, match="<= 15"):
            GATConfig(depth=16, memory_levels=6)


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
            sketch = TrajectorySketch(index.sketches[tr.trajectory_id])
            assert sketch.covers_all(tr.activity_union)
