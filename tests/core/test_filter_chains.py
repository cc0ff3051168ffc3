"""Custom validation chains through ``engine.execute(filters=...)``.

The ablation bench composes chains instead of branching on flags, but no
tier-1 test did: the four chains it sweeps must return the paper chain's
top-k, bump only the counters of the filters they contain, and — with the
APL LRU off and the HICL in memory — read the disk exactly once per
candidate reaching the APL filter.
"""

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import GATSearchEngine
from repro.core.pipeline import APLFilter, MIBFilter, TASFilter
from repro.index.gat.index import GATConfig, GATIndex


@pytest.fixture(scope="module")
def index(small_db):
    # memory_levels == depth: no HICL reads, so disk_reads counts APL fetches.
    return GATIndex.build(small_db, GATConfig(depth=4, memory_levels=4))


@pytest.fixture(scope="module")
def queries(small_db):
    gen = QueryWorkloadGenerator(
        small_db, WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=11)
    )
    return gen.queries(6)


def _chains(index):
    tas, apl, mib = TASFilter(index.sketches), APLFilter(index.apl, None), MIBFilter()
    return {
        "TAS->APL->MIB": [tas, apl, mib],
        "APL->MIB": [apl, mib],
        "TAS->APL": [tas, apl],
        "APL->TAS->MIB": [apl, tas, mib],
    }


@pytest.mark.parametrize("kernel", ["block", "scalar"])
def test_chains_agree_on_answers_and_count_only_their_filters(index, queries, kernel):
    engine = GATSearchEngine(index, apl_cache_size=0, kernel=kernel)
    for query in queries:
        runs = {
            label: engine.execute(query, 5, order_sensitive=True, filters=chain)
            for label, chain in _chains(index).items()
        }
        paper = runs["TAS->APL->MIB"]
        # The engine's own chain is the paper's.
        assert engine.execute(query, 5, order_sensitive=True).stats == paper.stats
        for label, ctx in runs.items():
            assert [(r.trajectory_id, r.distance) for r in ctx.ranked] == [
                (r.trajectory_id, r.distance) for r in paper.ranked
            ], label
            stats = ctx.stats
            assert stats.candidates_retrieved == paper.stats.candidates_retrieved
            assert stats.validated == stats.candidates_retrieved - (
                stats.tas_pruned + stats.apl_pruned + stats.mib_pruned
            )
            # One counted read per candidate reaching the APL filter.
            before_apl = stats.tas_pruned if label.startswith("TAS") else 0
            assert stats.disk_reads == stats.candidates_retrieved - before_apl, label
        assert runs["APL->MIB"].stats.tas_pruned == 0
        assert runs["TAS->APL"].stats.mib_pruned == 0
        # Dropping a filter hands its rejections to the next one or to the DP …
        assert runs["APL->MIB"].stats.apl_pruned == (
            paper.stats.tas_pruned + paper.stats.apl_pruned
        )
        assert runs["TAS->APL"].stats.validated == (
            paper.stats.validated + paper.stats.mib_pruned
        )
        # … and TAS after APL has nothing left to reject (no false dismissals).
        assert runs["APL->TAS->MIB"].stats.tas_pruned == 0


def test_filter_without_stat_field_goes_uncounted(index, queries):
    class DropOddIds:  # no stat_field: rejections are nobody's counter
        def admits(self, ctx, candidates):
            return candidates.ids % 2 == 0

    engine = GATSearchEngine(index, apl_cache_size=0)
    chain = [DropOddIds(), *_chains(index)["TAS->APL->MIB"]]
    for query in queries:
        ctx = engine.execute(query, 5, order_sensitive=True, filters=chain)
        stats = ctx.stats
        assert all(r.trajectory_id % 2 == 0 for r in ctx.ranked)
        counted = stats.tas_pruned + stats.apl_pruned + stats.mib_pruned
        assert stats.validated + counted < stats.candidates_retrieved
        assert stats.disk_reads == stats.validated + stats.apl_pruned + stats.mib_pruned
