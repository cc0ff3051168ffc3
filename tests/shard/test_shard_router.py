"""Unit tests for the trajectory-id shard router."""

import pytest

from repro.shard.router import ShardRouter


def _router(strategy, ids, n_shards):
    """A router of either strategy over *ids*; the spatial one gets a
    directory that is not ``mod`` (consecutive ids share a shard)."""
    if strategy == "hash":
        return ShardRouter(n_shards)
    ids = sorted(ids)
    directory = {tid: (i * n_shards) // len(ids) for i, tid in enumerate(ids)}
    return ShardRouter(n_shards, directory)


class TestConstruction:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    def test_rejects_unknown_strategy(self, tiny_db):
        with pytest.raises(ValueError, match="unknown strategy"):
            ShardRouter.for_database(tiny_db, 2, "rendezvous")


class TestRouting:
    @pytest.mark.parametrize("strategy", ["hash", "spatial"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_partition_is_total_and_disjoint(self, strategy, n_shards):
        ids = list(range(0, 100, 3))
        router = _router(strategy, ids, n_shards)
        parts = router.partition(ids)
        assert len(parts) == n_shards
        flat = [tid for part in parts for tid in part]
        assert sorted(flat) == sorted(ids)  # every id in exactly one shard
        for sid, part in enumerate(parts):
            assert all(router.shard_of(tid) == sid for tid in part)

    def test_hash_is_modulo(self):
        router = ShardRouter(4)
        assert [router.shard_of(t) for t in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_ids_outside_the_directory_route_by_modulo(self):
        router = ShardRouter(3, {10: 2, 11: 2})
        assert [router.shard_of(t) for t in (10, 11)] == [2, 2]
        assert [router.shard_of(t) for t in (9, 12, 1000)] == [0, 0, 1]

    def test_stability(self):
        """shard_of never changes for a given router — the whole exactness
        argument rests on a trajectory living in exactly one shard."""
        router = _router("spatial", range(50), 3)
        first = [router.shard_of(t) for t in range(80)]
        assert first == [router.shard_of(t) for t in range(80)]
