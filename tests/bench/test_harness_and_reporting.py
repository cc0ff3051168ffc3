"""Unit tests for the experiment harness and the table renderer."""

import pytest

from repro.bench.harness import ExperimentHarness, MethodTiming, SweepResult
from repro.bench.reporting import format_series_table, format_stat_table
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.index.gat.index import GATConfig


@pytest.fixture(scope="module")
def harness(tiny_db):
    return ExperimentHarness(tiny_db, gat_config=GATConfig(depth=4, memory_levels=4))


@pytest.fixture(scope="module")
def queries(tiny_db):
    gen = QueryWorkloadGenerator(
        tiny_db,
        WorkloadConfig(n_query_points=2, n_activities_per_point=1, seed=2),
    )
    return gen.queries(2)


class TestHarness:
    def test_builds_all_methods(self, harness):
        assert set(harness.searchers) == {"IL", "RT", "IRT", "GAT"}

    def test_method_subset(self, tiny_db):
        h = ExperimentHarness(tiny_db, methods=("IL",))
        assert set(h.searchers) == {"IL"}

    def test_run_batch_counts(self, harness, queries):
        timings = harness.run_batch(queries, k=3)
        for name, t in timings.items():
            assert t.n_queries == len(queries)
            assert t.total_seconds >= 0.0
            assert t.avg_seconds >= 0.0

    def test_run_batch_order_sensitive(self, harness, queries):
        timings = harness.run_batch(queries, k=2, order_sensitive=True)
        assert set(timings) == {"IL", "RT", "IRT", "GAT"}

    def test_sweep(self, harness, queries):
        results = harness.sweep(
            "k",
            [1, 3],
            make_queries=lambda _k: queries,
            k_of=lambda k: int(k),
        )
        assert [r.x_value for r in results] == [1, 3]
        assert all(set(r.timings) == {"IL", "RT", "IRT", "GAT"} for r in results)

    def test_avg_seconds_empty(self):
        assert MethodTiming(method="X").avg_seconds == 0.0


class TestReporting:
    def _fake_results(self):
        timing = MethodTiming(method="IL", total_seconds=1.0, n_queries=2, candidates=10)
        return [
            SweepResult(x_label="k", x_value=5, timings={"IL": timing}),
            SweepResult(x_label="k", x_value=10, timings={"IL": timing}),
        ]

    def test_series_table_contains_values(self):
        out = format_series_table("T", self._fake_results(), methods=("IL",))
        assert "0.5000" in out  # 1.0 s / 2 queries
        assert "k" in out and "IL" in out

    def test_series_table_missing_method_dash(self):
        out = format_series_table("T", self._fake_results(), methods=("IL", "GAT"))
        assert "-" in out

    def test_series_table_candidates_mode(self):
        out = format_series_table(
            "T", self._fake_results(), methods=("IL",), value="candidates"
        )
        assert "5.0" in out  # 10 candidates / 2 queries

    def test_stat_table(self):
        out = format_stat_table("Stats", [("#trajectory", 42), ("#venue", 7)])
        assert "#trajectory" in out and "42" in out

    def test_alignment(self):
        out = format_stat_table("T", [("a", 1), ("long-statistic-name", 12345)])
        lines = [l for l in out.splitlines() if l]
        widths = {len(l) for l in lines[2:]}  # header + separator + rows align
        assert len(widths) <= 2  # rows padded to equal width
