"""Engine-level kernel parity and the `EngineConfig` surface.

The `EngineConfig.kernel` switch must be invisible in everything a query
returns: same top-k ids in the same order, distances to the last ulp, and
every :class:`SearchStats` counter — including disk reads — exactly equal.
"""

import math
from dataclasses import fields

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import EngineConfig, GATSearchEngine
from repro.index.gat.index import GATConfig, GATIndex


@pytest.fixture(scope="module")
def index(small_db):
    return GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))


@pytest.fixture(scope="module")
def queries(small_db):
    gen = QueryWorkloadGenerator(
        small_db, WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=17)
    )
    return gen.queries(8)


def _stat_dict(stats):
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _run(index, queries, **kwargs):
    engine = GATSearchEngine(index, apl_cache_size=0, **kwargs)
    answers, stats = [], []
    for i, q in enumerate(queries):
        index.hicl.clear_cache()
        ctx = engine.execute(q, 5, order_sensitive=(i % 2 == 1))
        answers.append([(r.trajectory_id, r.distance) for r in ctx.ranked])
        stats.append(_stat_dict(ctx.stats))
    return answers, stats


def _assert_answer_parity(a, b):
    assert [[t for t, _ in q] for q in a] == [[t for t, _ in q] for q in b]
    for qa, qb in zip(a, b):
        for (_, da), (_, db) in zip(qa, qb):
            assert math.isclose(da, db, rel_tol=1e-9, abs_tol=1e-12)


class TestKernelParity:
    def test_block_vs_scalar(self, index, queries):
        scalar_ans, scalar_stats = _run(index, queries, kernel="scalar")
        block_ans, block_stats = _run(index, queries, kernel="block")
        _assert_answer_parity(scalar_ans, block_ans)
        assert scalar_stats == block_stats


    def test_block_vs_scalar_under_lru_eviction(self, index, queries):
        """A 2-entry APL LRU evicts inside every round, so the counted
        reads follow the candidate *order* — ascending row within a leaf
        pop, one retriever for both kernels: rankings, every ``SearchStats``
        field and the disk's own counters still agree."""

        def run(kernel):
            engine = GATSearchEngine(index, apl_cache_size=2, kernel=kernel)
            index.hicl.clear_cache()
            index.disk.reset_stats()
            answers, stats = [], []
            for i, q in enumerate(queries):
                ctx = engine.execute(q, 5, order_sensitive=(i % 2 == 1))
                answers.append([(r.trajectory_id, r.distance) for r in ctx.ranked])
                stats.append(_stat_dict(ctx.stats))
            hits = sum(s["apl_cache_hits"] for s in stats)
            lookups = sum(s["apl_cache_lookups"] for s in stats)
            return answers, stats, _stat_dict(index.disk.stats), (hits, lookups)

        scalar_ans, scalar_stats, scalar_disk, scalar_cache = run("scalar")
        block_ans, block_stats, block_disk, block_cache = run("block")
        _assert_answer_parity(scalar_ans, block_ans)
        assert scalar_stats == block_stats
        assert scalar_disk == block_disk
        assert scalar_cache == block_cache
        hits, lookups = scalar_cache
        assert hits and lookups - hits > 2  # misses beyond the LRU's capacity

    def test_block_vs_scalar_cache_counts(self, index, queries):
        """The four per-query cache counts, warm caches shared across the
        run: equal under both kernels query by query, and not vacuous."""
        counts = ("hicl_cache_hits", "hicl_cache_lookups", "apl_cache_hits", "apl_cache_lookups")

        def run(kernel):
            engine = GATSearchEngine(index, kernel=kernel)
            index.hicl.clear_cache()
            return [
                {name: getattr(engine.execute(q, 5).stats, name) for name in counts}
                for q in queries + queries
            ]

        scalar, block = run("scalar"), run("block")
        assert scalar == block
        for name in counts:
            assert sum(row[name] for row in block) > 0, name


class TestEngineConfig:
    def test_defaults_roundtrip(self, index):
        engine = GATSearchEngine(index)
        assert engine.config == EngineConfig()
        assert engine.kernel == "block"

    def test_fields_are_pinned(self, index):
        """Every field is a choice with two production callers; a new one
        (or a retired one coming back) has to edit this list."""
        assert [f.name for f in fields(EngineConfig)] == [
            "retrieval_batch",
            "lb_cells",
            "use_tas",
            "use_tight_lower_bound",
            "apl_cache_size",
            "kernel",
        ]
        with pytest.raises(TypeError):
            EngineConfig(io_workers=2)
        with pytest.raises(TypeError):
            GATSearchEngine(index, batch_io=False)

    def test_kwargs_override_config(self, index):
        config = EngineConfig(retrieval_batch=64, kernel="scalar")
        engine = GATSearchEngine(index, config=config, retrieval_batch=16)
        assert engine.retrieval_batch == 16
        assert engine.kernel == "scalar"
        assert engine.config.kernel == "scalar"

    def test_invalid_values_rejected(self, index):
        with pytest.raises(ValueError):
            GATSearchEngine(index, retrieval_batch=0)
        with pytest.raises(ValueError):
            GATSearchEngine(index, kernel="simd")
        with pytest.raises(ValueError, match=r"\('scalar', 'block'\)"):
            GATSearchEngine(index, kernel="vectorized")

    def test_scalar_kernel_always_available(self, index, queries):
        engine = GATSearchEngine(index, kernel="scalar")
        ctx = engine.execute(queries[0], 3)
        assert ctx.ranked is not None
