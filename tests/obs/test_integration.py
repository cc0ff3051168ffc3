"""Observability wired through the serving stack, end to end.

Three layers, matching how a query actually travels:

* the single-engine :class:`QueryService` — ``query`` roots with stage
  children and disk events;
* the in-process replicated sharded service under injected disk errors —
  one connected tree per query with retried ``shard_task`` spans;
* the acceptance scenario — a process-fleet query that survives a
  SIGKILLed worker (retry + hedge + replica failover) must come back as
  ONE connected span tree whose shard-task spans carry
  shard/replica/attempt/hedge/breaker attributes, with the worker-side
  spans adopted across the process boundary.
"""

import copy
import os

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import GATSearchEngine
from repro.faults import FaultInjector, FaultRule, kill_fleet_workers
from repro.index.gat.index import GATConfig, GATIndex
from repro.obs import Observability, parse_prometheus_text, validate_spans
from repro.service import QueryService
from repro.shard import FaultPolicy, ShardedGATIndex, ShardedQueryService
from repro.storage.disk import SimulatedDisk

CONFIG = GATConfig(depth=4, memory_levels=3)
K = 5
N_SHARDS = 2


@pytest.fixture()
def db(tiny_db):
    return copy.deepcopy(tiny_db)


@pytest.fixture()
def queries(db):
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=17)
    )
    return gen.queries(3)


def _records(obs):
    """Drain the tracer into validated plain dicts."""
    return validate_spans([s.to_dict() for s in obs.tracer.drain()])


# ----------------------------------------------------------------------
# Single-engine QueryService
# ----------------------------------------------------------------------
class TestQueryServiceTracing:
    def test_query_span_with_stage_children_and_disk_events(self, db, queries):
        obs = Observability.enabled()
        index = GATIndex.build(db, CONFIG)
        with QueryService(
            GATSearchEngine(index), result_cache_size=0, obs=obs
        ) as service:
            response = service.search(queries[0], k=K)
        records = _records(obs)
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "query"
        root = roots[0]
        assert root["attrs"]["k"] == K
        assert root["attrs"]["rounds"] == response.stats.rounds
        assert root["attrs"]["disk_reads"] == response.stats.disk_reads
        stages = {r["name"] for r in records if r["parent_id"] == root["span_id"]}
        assert {"retrieve", "validate", "score", "lower_bound"} <= stages
        # The termination test: tested rounds, the min-cover runs among them.
        (bound,) = [r for r in records if r["name"] == "lower_bound"]
        assert 1 <= bound["attrs"]["evaluated"] <= response.stats.rounds
        assert 0 <= bound["attrs"]["exact"] <= bound["attrs"]["evaluated"]
        assert bound["attrs"]["busy_s"] > 0.0
        # Block assembly nests under scoring: a part of its in-stage time.
        (score,) = [r for r in records if r["name"] == "score"]
        (assemble,) = [r for r in records if r["name"] == "assemble"]
        assert assemble["parent_id"] == score["span_id"]
        assert 0.0 < assemble["attrs"]["busy_s"] <= score["attrs"]["busy_s"]
        assert score["start_s"] <= assemble["start_s"] <= assemble["end_s"] <= score["end_s"]
        assert assemble["attrs"]["columns"] > 0
        disk_events = [
            ev
            for r in records
            for ev in r["events"]
            if ev["name"].startswith("disk_read")
        ]
        assert disk_events, "bound disks must attach read events to spans"
        assert {r["trace_id"] for r in records} == {root["trace_id"]}

    def test_cache_hit_marks_the_span_and_skips_stages(self, db, queries):
        """The front owns the lookup, so a request answered from the
        result cache leaves the same ``query`` span on either service."""

        def single(obs):
            engine = GATSearchEngine(GATIndex.build(db, CONFIG))
            return QueryService(engine, result_cache_size=8, obs=obs)

        def sharded(obs):
            index = ShardedGATIndex.build(db, n_shards=N_SHARDS, config=CONFIG)
            return ShardedQueryService(
                index, executor="serial", result_cache_size=8, obs=obs
            )

        for build in (single, sharded):
            obs = Observability.enabled()
            with build(obs) as service:
                service.search(queries[0], k=K)
                service.search(queries[0], k=K)
            records = _records(obs)
            roots = [r for r in records if r["parent_id"] is None]
            assert len(roots) == 2, build.__name__
            assert "cache_hit" not in roots[0]["attrs"]
            assert roots[1]["attrs"]["cache_hit"] is True
            assert roots[1]["attrs"]["k"] == K
            assert not [r for r in records if r["parent_id"] == roots[1]["span_id"]]
            snap = obs.metrics_snapshot()
            assert snap["repro_result_cache_hits_total"] == 1.0
            assert snap["repro_result_cache_lookups_total"] == 2.0

    def test_disabled_tracer_collects_metrics_but_no_spans(self, db, queries):
        obs = Observability.disabled()
        index = GATIndex.build(db, CONFIG)
        with QueryService(
            GATSearchEngine(index), result_cache_size=0, obs=obs
        ) as service:
            service.search_many(queries, k=K)
        assert obs.tracer.drain() == []
        samples = parse_prometheus_text(obs.prometheus())
        assert samples["repro_queries_total"] == float(len(queries))
        assert samples["repro_query_latency_seconds_count"] == float(len(queries))
        assert samples["repro_disk_reads_total"] > 0


class TestSharedRegistry:
    def test_fresh_service_on_a_reused_handle_reports_zero(self, db, queries):
        """The registry outlives the services counting into it; a service
        built on a used handle starts its own epoch at construction."""
        obs = Observability.disabled()
        index = GATIndex.build(db, CONFIG)

        def service():
            return QueryService(GATSearchEngine(index), result_cache_size=8, obs=obs)

        with service() as first:
            first.search_many(queries, k=K)
            first.search(queries[0], k=K)  # a result-cache hit
        with service() as second:
            stats = second.stats()
            assert (stats.queries, stats.disk_reads, stats.wall_seconds) == (0, 0, 0.0)
            assert (stats.result_cache_hits, stats.result_cache_lookups) == (0, 0)
            assert stats.hicl_cache_hit_rate == stats.apl_cache_hit_rate == 0.0
            assert stats.latency_p50_s == stats.latency_mean_s == 0.0
            second.search(queries[1], k=K)
            stats = second.stats()
            assert (stats.queries, stats.result_cache_lookups) == (1, 1)
        samples = parse_prometheus_text(obs.prometheus())
        assert samples["repro_queries_total"] == float(len(queries) + 2)
        assert samples["repro_result_cache_lookups_total"] == float(len(queries) + 2)


# ----------------------------------------------------------------------
# In-process sharded fan-out under injected faults
# ----------------------------------------------------------------------
class TestShardedTracing:
    def test_faulted_query_yields_one_connected_tree(self, db, queries):
        obs = Observability.enabled()
        # The first read on every shard's disk errors: each primary
        # attempt dies and the supervisor retries through the router.
        sharded = ShardedGATIndex.build(
            db,
            n_shards=N_SHARDS,
            config=CONFIG,
            disk_factory=lambda: SimulatedDisk(
                fault_injector=FaultInjector(FaultRule(error_rate=1.0, max_errors=1))
            ),
        )
        with ShardedQueryService(
            sharded,
            executor="thread",
            n_replicas=2,
            fault_policy=FaultPolicy(max_retries=2),
            result_cache_size=0,
            obs=obs,
        ) as service:
            response = service.search(queries[0], k=K)
            stats = service.stats()
        assert response.complete
        assert stats.task_retries >= 1

        records = _records(obs)
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "query"
        root = roots[0]
        assert {r["trace_id"] for r in records} == {root["trace_id"]}
        assert root["attrs"]["complete"] is True
        assert root["attrs"]["shards_total"] == N_SHARDS

        shard_tasks = [r for r in records if r["name"] == "shard_task"]
        assert len(shard_tasks) >= N_SHARDS + stats.task_retries
        for rec in shard_tasks:
            assert rec["parent_id"] == root["span_id"]
            for attr in ("shard", "replica", "attempt", "hedge", "breaker"):
                assert attr in rec["attrs"], f"shard_task missing {attr!r}"
        assert {rec["attrs"]["shard"] for rec in shard_tasks} == set(range(N_SHARDS))
        assert any(rec["attrs"]["attempt"] >= 1 for rec in shard_tasks)
        # The injected errors surface as events on the failed attempts.
        fault_events = [
            ev
            for rec in shard_tasks
            for ev in rec["events"]
            if ev["name"] == "fault_error"
        ]
        assert len(fault_events) >= 1
        # Engine stages nest under the shard tasks they ran in.
        task_ids = {rec["span_id"] for rec in shard_tasks}
        stages = [
            r for r in records if r["name"] in ("retrieve", "validate", "score", "lower_bound")
        ]
        assert stages and all(r["parent_id"] in task_ids for r in stages)
        # ... and each block-assembly span under its own task's score span.
        by_id = {r["span_id"]: r for r in records}
        assembles = [r for r in records if r["name"] == "assemble"]
        assert assembles
        for rec in assembles:
            score = by_id[rec["parent_id"]]
            assert score["name"] == "score"
            assert rec["attrs"]["busy_s"] <= score["attrs"]["busy_s"]

    def test_obs_none_service_stays_untraced(self, db, queries):
        sharded = ShardedGATIndex.build(db, n_shards=N_SHARDS, config=CONFIG)
        with ShardedQueryService(
            sharded, executor="thread", n_replicas=2, result_cache_size=0
        ) as service:
            response = service.search(queries[0], k=K)
        assert response.complete  # the default path carries zero obs state


# ----------------------------------------------------------------------
# Acceptance: process fleet, killed worker, retry + hedge + failover
# ----------------------------------------------------------------------
class TestProcessFleetAcceptance:
    def test_killed_fleet_query_produces_one_connected_tree(self, db, queries):
        obs = Observability.enabled()
        sharded = ShardedGATIndex.build(db, n_shards=N_SHARDS, config=CONFIG)
        try:
            with ShardedQueryService(
                sharded,
                executor="process",
                n_replicas=2,
                fault_policy=FaultPolicy(max_retries=2, hedge_after_s=0.005),
                result_cache_size=0,
                obs=obs,
            ) as service:
                executor = service._executor
                executor.warm_up()
                kill_fleet_workers(executor, count=1, seed=11)
                response = service.search(queries[0], k=K)
                stats = service.stats()
            assert response.complete
            assert executor.pool_repairs >= 1, "the kill must break the pool"
            assert stats.task_retries >= 1, "dead futures must be retried"
            # The healed pool rebuilds worker engines from the spec, which
            # dwarfs the 5ms hedge delay: the retry gets hedged.
            assert stats.task_hedges >= 1
        finally:
            sharded.close()

        records = _records(obs)
        # ONE connected tree: a single trace, a single query root, every
        # span transitively reaching it.
        assert len({r["trace_id"] for r in records}) == 1
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "query"
        root = roots[0]
        by_id = {r["span_id"]: r for r in records}
        for rec in records:
            node = rec
            for _ in range(len(records)):
                if node["parent_id"] is None:
                    break
                node = by_id[node["parent_id"]]
            assert node is root, f"span {rec['span_id']} not connected to root"

        shard_tasks = [r for r in records if r["name"] == "shard_task"]
        assert {rec["attrs"]["shard"] for rec in shard_tasks} == set(range(N_SHARDS))
        for rec in shard_tasks:
            attrs = rec["attrs"]
            for attr in ("shard", "replica", "attempt", "hedge", "breaker"):
                assert attr in attrs, f"shard_task missing {attr!r}: {attrs}"
            assert rec["parent_id"] == root["span_id"]
        # A failed original attempt cannot win its shard, so with
        # task_retries >= 1 at least one winner is a re-submission: a
        # rerouted retry (attempt >= 1) or a hedge launched before the
        # failure was recorded (hedge=True, attempt still 0).
        assert any(
            rec["attrs"]["attempt"] >= 1 or rec["attrs"]["hedge"]
            for rec in shard_tasks
        )
        # Worker provenance: the spans crossed the process boundary.
        worker_pids = {rec["attrs"].get("pid") for rec in shard_tasks}
        assert worker_pids and os.getpid() not in worker_pids

        samples = parse_prometheus_text(obs.prometheus())
        assert samples["repro_queries_total"] == 1.0
        assert samples["repro_task_retries_total"] >= 1.0
        assert samples["repro_task_hedges_total"] >= 1.0
