"""Replica serving — batched throughput at 2 replicas/shard, emitting
BENCH_replicas.json.

Not a paper figure: this measures the replica tier, the read-scaling axis
beyond shards (ROADMAP "Replica routing").  The cost model is the paper's
cold-I/O protocol (every surviving candidate pays a counted APL read on
its shard's simulated disk) with one crucial addition: each disk serves
**one latency-bearing read at a time** (``concurrent_reads=1`` — a
spinning-disk arm).  Under that model the unreplicated fleet is bound by
one arm per shard no matter how many worker threads fan out; a second
replica of every shard is a second physical copy on a second arm, so
batched throughput should roughly double.  That is precisely the regime
replica routing targets — the contention-free disk of
``bench_sharded_scaling.py`` would (correctly) show no replica win at
all, because a latency-only disk already overlaps infinitely.

One workload of mixed ATSQ/OATSQ queries is served by a
:class:`ShardedQueryService` with one copy per shard (the baseline) and
with ``n_replicas=2`` copies per shard (round-robin over the healthy
copies — the one router there is), both on the cold-I/O **thread**
backend.  Every HICL cache is cleared before every timed run so no row
inherits another's warm cache.  Rankings are asserted byte-identical
across both rows, and the acceptance bar is ≥1.3× batched throughput at
2 replicas/shard (measured ~1.8-2×; the margin absorbs the replicas' own
cold-HICL reads and scheduling noise).

``BENCH_replicas.json`` rows: replica count, wall seconds, QPS, speedup
vs the 1-copy baseline, and disk reads; gated by
``check_bench_regressions.py`` against the committed baseline.
"""

import json
import time

import pytest

from repro.bench.workloads import (
    QueryWorkloadGenerator,
    WorkloadConfig,
    mixed_order_requests,
)
from repro.core.engine import EngineConfig
from repro.shard import ShardedGATIndex, ShardedQueryService
from repro.storage.disk import SimulatedDisk

from conftest import bench_gat_config, bench_scale, usable_cores

#: HDD-class random read, scaled down so the serialized-arm model keeps
#: CI wall time in seconds (the *ratio* between rows is the metric, and
#: every row pays the same per-read price).
READ_LATENCY_S = 2e-3
#: One latency-bearing read at a time per disk: the single arm that makes
#: "one copy of each shard" a real throughput ceiling.
CONCURRENT_READS = 1
N_QUERIES = 16
K = 8
N_SHARDS = 2
N_REPLICAS = 2

#: The figure harness's cold protocol: every surviving candidate is one
#: counted, latency-bearing APL read.
ENGINE_CONFIG = EngineConfig(apl_cache_size=0)

BENCH_JSON = "BENCH_replicas.json"


@pytest.fixture(scope="module")
def workload(la_db):
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=bench_scale().seed))
    return mixed_order_requests(gen.queries(N_QUERIES), K)


def _disk_factory():
    return SimulatedDisk(
        read_latency_s=READ_LATENCY_S, concurrent_reads=CONCURRENT_READS
    )


def _run(service, indexes, workload):
    # Uniformly cold HICL caches: replicas must not be penalised for the
    # primary's warmth (or vice versa).
    for index in indexes:
        index.hicl.clear_cache()
    t0 = time.perf_counter()
    responses = service.search_many(workload)
    wall = time.perf_counter() - t0
    return wall, responses


def _rankings(responses):
    return [
        [(r.trajectory_id, r.distance) for r in resp.results] for resp in responses
    ]


@pytest.mark.benchmark(group="replica-scaling")
def test_replica_scaling_speedup_and_parity(benchmark, la_db, workload):
    report = {}

    def run():
        sharded = ShardedGATIndex.build(
            la_db,
            n_shards=N_SHARDS,
            config=bench_gat_config(),
            disk_factory=_disk_factory,
        )
        rows = []
        baseline = None
        for n_replicas in (1, N_REPLICAS):
            service = ShardedQueryService(
                sharded,
                engine_config=ENGINE_CONFIG,
                executor="thread",
                n_replicas=n_replicas,
                result_cache_size=0,
            )
            try:
                served = [engine.index for bank in service.placement.banks for engine in bank]
                wall, responses = _run(service, served, workload)
            finally:
                service.close()
            if baseline is None:
                baseline = {"wall": wall, "rankings": _rankings(responses)}
            # Exactness: whichever replicas served it, the ranking is the
            # unreplicated one, byte for byte.
            assert _rankings(responses) == baseline["rankings"], n_replicas
            rows.append(
                {
                    "replicas": n_replicas,
                    "executor": "thread",
                    "queries": len(responses),
                    "wall_s": round(wall, 4),
                    "qps": round(len(responses) / wall, 2),
                    "speedup_vs_1replica": round(baseline["wall"] / wall, 3),
                    "disk_reads": sum(r.stats.disk_reads for r in responses),
                }
            )
        report["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = report["rows"]
    with open(BENCH_JSON, "w") as fh:
        json.dump(
            {
                "n_queries": N_QUERIES,
                "k": K,
                "n_shards": N_SHARDS,
                "read_latency_s": READ_LATENCY_S,
                "concurrent_reads": CONCURRENT_READS,
                "cores": usable_cores(),
                "rows": rows,
            },
            fh,
            indent=2,
        )
    print(f"\nreplica scaling ({N_QUERIES} mixed ATSQ/OATSQ, k={K}, "
          f"{N_SHARDS} shards, cold APL, {READ_LATENCY_S * 1e3:.0f} ms "
          f"serialized reads, identical rankings asserted):")
    for row in rows:
        print(f"  {row['replicas']} replica(s): "
              f"{row['wall_s']:6.2f} s  {row['qps']:7.1f} QPS  "
              f"{row['speedup_vs_1replica']:.2f}x vs 1 replica  "
              f"({row['disk_reads']} reads)")
    # Timing gate: off under --benchmark-disable, as benchmarks/reach.py runs it.
    if not benchmark.disabled:
        speedup = rows[-1]["speedup_vs_1replica"]
        assert speedup >= 1.3, f"2-replica speedup {speedup:.2f}x < 1.3x"
