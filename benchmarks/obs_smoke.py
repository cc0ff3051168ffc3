#!/usr/bin/env python
"""CI observability smoke: a faulted, traced, sharded batch end to end.

Builds a small replicated sharded service over disks wearing a
:class:`~repro.faults.FaultInjector` (every shard's first read errors, so
the supervised fan-out must retry), serves a batch with tracing enabled,
then checks the two export surfaces the observability layer promises:

* the JSONL span dump round-trips through ``write_spans_jsonl`` /
  ``read_spans_jsonl`` and passes :func:`repro.obs.validate_spans`
  (unique span ids, parent links that resolve, trace-id consistency, and
  end timestamps that never precede their starts), plus the smoke's own
  stricter shape asserts: every span ended, one ``query`` root per
  served query, every ``shard_task`` span carrying
  shard/replica/attempt/hedge/breaker attributes, and child spans
  starting no earlier than their parents (one process, one clock);
* the Prometheus text snapshot parses strictly
  (:func:`repro.obs.parse_prometheus_text`) and agrees with the registry
  on the served-query count.

Run from the repo root (CI does)::

    PYTHONPATH=src python benchmarks/obs_smoke.py
"""

import sys

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.faults import FaultInjector, FaultRule
from repro.index.gat.index import GATConfig
from repro.obs import (
    Observability,
    parse_prometheus_text,
    read_spans_jsonl,
    validate_spans,
    write_spans_jsonl,
)
from repro.shard import FaultPolicy, ShardedGATIndex, ShardedQueryService
from repro.storage.disk import SimulatedDisk

N_QUERIES = 6
K = 5
N_SHARDS = 2
SPANS_PATH = "obs_smoke_spans.jsonl"


def _faulted_disk() -> SimulatedDisk:
    # Exactly the first read on each shard's disk fails: deterministic,
    # so the batch always exercises the retry path.
    injector = FaultInjector(FaultRule(error_rate=1.0, max_errors=1))
    return SimulatedDisk(fault_injector=injector)


def main() -> int:
    config = GeneratorConfig(
        n_users=60,
        n_venues=150,
        vocabulary_size=80,
        width_km=10.0,
        height_km=8.0,
        n_hotspots=4,
        checkins_per_user_mean=8.0,
        activities_per_checkin_mean=2.0,
        seed=99,
    )
    db = CheckInGenerator(config).generate(name="obs-smoke")
    sharded = ShardedGATIndex.build(
        db,
        n_shards=N_SHARDS,
        config=GATConfig(depth=4, memory_levels=3),
        disk_factory=_faulted_disk,
    )
    obs = Observability.enabled()
    workload = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=17)
    )
    with ShardedQueryService(
        sharded,
        executor="thread",
        n_replicas=2,
        fault_policy=FaultPolicy(max_retries=2),
        result_cache_size=0,
        obs=obs,
    ) as service:
        responses = service.search_many(workload.queries(N_QUERIES), k=K)
        stats = service.stats()
    assert len(responses) == N_QUERIES
    assert all(r.complete for r in responses), "retries should heal the batch"
    assert stats.task_retries >= 1, "the injected errors must force retries"

    # --- JSONL span dump --------------------------------------------------
    n_written = write_spans_jsonl(SPANS_PATH, obs.tracer.drain())
    records = validate_spans(read_spans_jsonl(SPANS_PATH))
    assert len(records) == n_written and n_written > 0
    by_id = {rec["span_id"]: rec for rec in records}
    roots = [rec for rec in records if rec["parent_id"] is None]
    assert len(roots) == N_QUERIES, f"{len(roots)} roots for {N_QUERIES} queries"
    assert all(rec["name"] == "query" for rec in roots)
    shard_tasks = [rec for rec in records if rec["name"] == "shard_task"]
    assert len(shard_tasks) >= N_QUERIES * N_SHARDS + stats.task_retries
    for rec in shard_tasks:
        for attr in ("shard", "replica", "attempt", "hedge", "breaker"):
            assert attr in rec["attrs"], f"shard_task missing {attr}: {rec}"
    retried = [rec for rec in shard_tasks if rec["attrs"]["attempt"] > 0]
    assert retried, "no retry attempt shows in the trace"
    fault_events = [
        ev
        for rec in records
        for ev in rec["events"]
        if ev["name"].startswith("fault_")
    ]
    assert fault_events, "injected faults must attach events to spans"
    for rec in records:
        assert rec["end_s"] is not None, f"span left open: {rec['span_id']}"
        parent = by_id.get(rec["parent_id"])
        if parent is not None:
            # One process, one clock: children start after their parents.
            assert rec["start_s"] >= parent["start_s"] - 1e-6

    # --- Prometheus snapshot ----------------------------------------------
    text = obs.prometheus()
    samples = parse_prometheus_text(text)
    assert samples["repro_queries_total"] == float(N_QUERIES)
    assert samples["repro_task_retries_total"] == float(stats.task_retries)
    assert samples["repro_query_latency_seconds_count"] == float(N_QUERIES)

    print(
        f"obs smoke ok: {len(records)} spans ({len(shard_tasks)} shard tasks, "
        f"{len(retried)} retried, {len(fault_events)} fault events), "
        f"{len(samples)} prometheus samples, "
        f"{stats.task_retries} retries healed {N_QUERIES} queries"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
