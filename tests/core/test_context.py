"""Per-query execution state: SearchStats and ExecutionContext."""

import pytest

from repro.core.context import ExecutionContext
from repro.core.engine import GATSearchEngine
from repro.index.gat.index import GATConfig, GATIndex


class TestExecutionContext:
    @pytest.fixture(scope="class")
    def engine(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
        return GATSearchEngine(index)

    def _query(self, db):
        from repro.core.query import Query, QueryPoint

        tr = next(t for t in db if sum(1 for p in t if p.activities) >= 2)
        pts = [p for p in tr if p.activities][:2]
        return Query(
            [QueryPoint(p.x, p.y, frozenset(list(p.activities)[:2])) for p in pts]
        )

    def test_execute_returns_completed_context(self, engine, small_db):
        q = self._query(small_db)
        ctx = engine.execute(q, k=3)
        assert isinstance(ctx, ExecutionContext)
        assert ctx.ranked is not None
        assert ctx.stats.rounds >= 1
        assert ctx.latency_s > 0.0
        assert ctx.ranked == engine.atsq(q, 3)

    def test_context_threshold_tracks_topk(self, engine, small_db):
        q = self._query(small_db)
        ctx = engine.execute(q, k=1)
        if ctx.ranked:
            assert ctx.threshold() == pytest.approx(ctx.ranked[0].distance)

    def test_contexts_are_independent(self, engine, small_db):
        """Two executions never share counters — the engine holds no
        per-query mutable state."""
        q = self._query(small_db)
        ctx1 = engine.execute(q, k=3)
        ctx2 = engine.execute(q, k=3)
        assert ctx1.stats is not ctx2.stats
        assert ctx1.results is not ctx2.results
        assert ctx1.evaluator is not ctx2.evaluator
        # Same query, same index: identical answers and pruning work.
        assert ctx1.ranked == ctx2.ranked
        assert ctx1.stats.tas_pruned == ctx2.stats.tas_pruned
        assert ctx1.stats.apl_pruned == ctx2.stats.apl_pruned
        assert ctx1.stats.mib_pruned == ctx2.stats.mib_pruned
