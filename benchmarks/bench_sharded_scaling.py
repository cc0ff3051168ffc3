"""Sharded serving — scale-out throughput, emitting BENCH_shards.json
and BENCH_process.json.

Not a paper figure: this measures the scale-out layer the reproduction
grows beyond the paper.  Two regimes, two records:

**I/O-bound sweep** (``BENCH_shards.json``): one workload of distinct
queries served by a :class:`ShardedQueryService` at 1, 2, and 4 shards
under the **paper's cold-I/O cost model** — every surviving candidate
pays a counted APL read (no APL cache, like the figure harness) on its
shard's own simulated disk at an HDD-class random-read latency.  Per-
query disk work splits across shards and overlaps in parallel, while the
distributed-top-k threshold (shards prune against the cross-shard merged
k-th) keeps validation work near the single-index count.  Acceptance bar:
≥1.5× batched throughput at 4 shards vs 1 shard (measured ~3.6×).

**CPU-bound process fleet** (``BENCH_process.json``): the production
configuration — default engine config (``block`` kernel, warm APL cache),
zero-latency disks, the Table V query shape — at two shards, three rows:
one :class:`QueryService` over a single index, the thread fan-out, and
the process fleet.  Threads buy nothing on real CPU work (sharding
multiplies work and the GIL serialises it); only real processes scale.
Acceptance bar: the process fleet beats thread fan-out by ≥1.5× whenever
the machine has ≥2 usable cores (2.9–3.2× on the two-core box that
seeded the baseline), and its ratio to the single engine is recorded
(2.0–2.3× there).  Each row is warmed with the
whole workload first — any idle pool worker takes any task, so only
then has every worker built every shard's engine — and timed as the
best of ``CPU_PASSES`` passes.

Every row reports ``setup_s`` (index build, service construction, worker
spawn, first-touch engine builds — the warm-up batch) separately from
steady-state ``wall_s``/``qps``.  Rankings are asserted identical across
all rows of each record.
"""

import json
import math
import time

import pytest

from repro.bench.workloads import (
    QueryWorkloadGenerator,
    WorkloadConfig,
    mixed_order_requests,
)
from repro.core.engine import EngineConfig, GATSearchEngine
from repro.index.gat.index import GATIndex
from repro.service import QueryService
from repro.shard import ShardedGATIndex, ShardedQueryService
from repro.storage.disk import SimulatedDisk

from conftest import bench_gat_config, bench_scale, usable_cores

#: HDD-class random 4K read (seek + half-rotation): the paper stores the
#: APL "on hard disk".  I/O-dominant workloads also keep the speedup
#: assertion robust on slow CI runners — sleeps overlap, GIL-bound
#: compute would not.
READ_LATENCY_S = 5e-3
N_QUERIES = 24
K = 9
SHARD_COUNTS = (1, 2, 4)

#: Queries of the I/O-bound workload spent warming a service before its
#: timed steady-state run (pool spawn and first-touch work land in
#: ``setup_s``).
N_WARM = 4

#: The figure harness's cold protocol: every surviving candidate is one
#: counted, latency-bearing APL read.
ENGINE_CONFIG = EngineConfig(apl_cache_size=0)

#: The CPU-bound record: production engine config, enough requests that a
#: pass is seconds rather than first-touch noise, best of three passes.
CPU_ENGINE_CONFIG = EngineConfig()
CPU_N_QUERIES = 48
CPU_SHARDS = 2
CPU_PASSES = 3

BENCH_JSON = "BENCH_shards.json"
PROCESS_JSON = "BENCH_process.json"


@pytest.fixture(scope="module")
def workload(la_db):
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=bench_scale().seed))
    return mixed_order_requests(gen.queries(N_QUERIES), K)


def _disk_factory():
    return SimulatedDisk(read_latency_s=READ_LATENCY_S)


def _sharded_service(db, n_shards, executor, engine_config, disk_factory):
    sharded = ShardedGATIndex.build(
        db, n_shards=n_shards, config=bench_gat_config(), disk_factory=disk_factory
    )
    return ShardedQueryService(
        sharded, engine_config=engine_config, executor=executor, result_cache_size=0
    )


def _timed(make_service, workload, n_warm, passes=1):
    """Build + warm + steady-run one service configuration.

    Returns ``(setup_s, wall_s, responses)`` where ``setup_s`` covers
    index build, service construction, and the ``n_warm``-request warm-up
    batch (executor pool spawn, first-touch worker engine builds), and
    ``wall_s`` is the best of *passes* steady-state runs of the full
    workload.
    """
    t0 = time.perf_counter()
    service = make_service()
    try:
        service.search_many(workload[:n_warm])
        setup_s = time.perf_counter() - t0
        wall_s = math.inf
        for _ in range(passes):
            t0 = time.perf_counter()
            responses = service.search_many(workload)
            wall_s = min(wall_s, time.perf_counter() - t0)
    finally:
        service.close()
    return setup_s, wall_s, responses


def _rankings(responses):
    return [
        [(r.trajectory_id, r.distance) for r in resp.results] for resp in responses
    ]


def _row(n_shards, executor, setup_s, wall_s, responses, baseline_wall=None):
    row = {
        "shards": n_shards,
        "executor": executor,
        "queries": len(responses),
        "setup_s": round(setup_s, 4),
        "wall_s": round(wall_s, 4),
        "qps": round(len(responses) / wall_s, 2),
        "disk_reads": sum(r.stats.disk_reads for r in responses),
    }
    if baseline_wall is not None:
        row["speedup_vs_1shard"] = round(baseline_wall / wall_s, 3)
    return row


@pytest.mark.benchmark(group="sharded-scaling")
def test_sharded_scaling_speedup_and_parity(benchmark, la_db, workload):
    report = {}

    def run():
        rows = []
        baseline = None
        for n_shards in SHARD_COUNTS:
            setup_s, wall, responses = _timed(
                lambda: _sharded_service(
                    la_db, n_shards, "thread", ENGINE_CONFIG, _disk_factory
                ),
                workload,
                N_WARM,
            )
            rankings = _rankings(responses)
            if baseline is None:
                baseline = {"wall": wall, "rankings": rankings}
            # Exactness across the sweep: every shard count returns the
            # 1-shard rankings byte-for-byte.
            assert rankings == baseline["rankings"], n_shards
            rows.append(
                _row(n_shards, "thread", setup_s, wall, responses, baseline["wall"])
            )
        report["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = report["rows"]
    with open(BENCH_JSON, "w") as fh:
        json.dump(
            {
                "n_queries": N_QUERIES,
                "k": K,
                "read_latency_s": READ_LATENCY_S,
                "n_warm": N_WARM,
                "rows": rows,
            },
            fh,
            indent=2,
        )
    print(f"\nsharded scaling ({N_QUERIES} mixed ATSQ/OATSQ, k={K}, cold APL, "
          f"{READ_LATENCY_S * 1e3:.0f} ms/read, identical rankings asserted):")
    for row in rows:
        print(f"  {row['shards']} shards ({row['executor']}): "
              f"setup {row['setup_s']:5.2f} s  steady {row['wall_s']:6.2f} s  "
              f"{row['qps']:7.1f} QPS  {row['speedup_vs_1shard']:.2f}x vs 1 shard  "
              f"({row['disk_reads']} reads)")
    speedup = rows[-1]["speedup_vs_1shard"]
    assert speedup >= 1.5, f"4-shard speedup {speedup:.2f}x < 1.5x"


@pytest.mark.benchmark(group="process-fleet")
def test_process_fleet_cpu_bound(benchmark, la_db):
    """The fleet's gate: on CPU-bound work in the production
    configuration the process fleet must beat thread fan-out — real
    multi-core scaling, not pool overhead hidden behind I/O sleeps."""
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=bench_scale().seed))
    workload = mixed_order_requests(gen.queries(CPU_N_QUERIES), K)
    cores = usable_cores()
    report = {}

    def single():
        index = GATIndex.build(la_db, bench_gat_config())
        return QueryService(
            GATSearchEngine(index, config=CPU_ENGINE_CONFIG), result_cache_size=0
        )

    def fleet(executor):
        return lambda: _sharded_service(
            la_db, CPU_SHARDS, executor, CPU_ENGINE_CONFIG, None
        )

    def run():
        rows = []
        rankings = None
        for n_shards, executor, make_service in (
            (1, "single", single),
            (CPU_SHARDS, "thread", fleet("thread")),
            (CPU_SHARDS, "process", fleet("process")),
        ):
            setup_s, wall, responses = _timed(
                make_service, workload, CPU_N_QUERIES, passes=CPU_PASSES
            )
            got = _rankings(responses)
            if rankings is None:
                rankings = got
            # Byte-identical rankings across the three rows.
            assert got == rankings, executor
            rows.append(_row(n_shards, executor, setup_s, wall, responses))
        report["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = report["rows"]
    wall = {r["executor"]: r["wall_s"] for r in rows}
    vs_thread = round(wall["thread"] / wall["process"], 3)
    vs_single = round(wall["single"] / wall["process"], 3)
    payload = {
        "n_queries": CPU_N_QUERIES,
        "k": K,
        "shards": CPU_SHARDS,
        "kernel": CPU_ENGINE_CONFIG.kernel,
        "read_latency_s": 0.0,
        "n_warm": CPU_N_QUERIES,
        "passes": CPU_PASSES,
        "cores": cores,
        "rows": rows,
        "process_vs_thread": vs_thread,
        "process_vs_single": vs_single,
    }
    with open(PROCESS_JSON, "w") as fh:
        json.dump(payload, fh, indent=2)

    print(f"\nprocess fleet, CPU-bound ({CPU_N_QUERIES} mixed ATSQ/OATSQ, k={K}, "
          f"{CPU_ENGINE_CONFIG.kernel} kernel, zero-latency disks, best of "
          f"{CPU_PASSES} passes, {cores} usable core(s)):")
    for row in rows:
        print(f"  {row['executor']:7s} x{row['shards']}: "
              f"setup {row['setup_s']:5.2f} s  steady {row['wall_s']:6.2f} s  "
              f"{row['qps']:6.2f} QPS")
    print(f"  process vs thread: {vs_thread:.2f}x   "
          f"process vs single engine: {vs_single:.2f}x")

    if cores >= 2:
        assert vs_thread >= 1.5, (
            f"process fleet {vs_thread:.2f}x vs thread fan-out < 1.5x on "
            f"CPU-bound work with {cores} cores — the fleet is not scaling"
        )
    else:
        print("  (single-core machine: the >=1.5x process-vs-thread gate "
              "needs >=2 cores and is enforced on CI)")
