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

**CPU-bound process fleet** (``BENCH_process.json``): zero-latency disks
and the scalar (pure-Python, GIL-bound) kernel — the regime where thread
fan-out buys nothing and only real processes scale.  Four shards over the
zero-copy shared-memory store (``store='shared'``): workers *attach* to
the one columnar copy of the dataset instead of unpickling an engine
spec, so the fleet's steady-state speed is what the cores allow.
Acceptance bar: the process backend beats threads by ≥1.5× — asserted
only when the machine actually has ≥2 usable cores (a single-core runner
cannot demonstrate multi-core scaling; CI runners can and do).  The
object-store process row rides along to price attach vs rebuild:
``setup_s`` (pool spawn + worker engine builds) and the pickled spec
size, which drops from the whole dataset to segment names + ID tuples.

Every row reports ``setup_s`` (service construction, worker spawn,
attach/rebuild, first-touch engine builds — the warm-up batch) separately
from steady-state ``wall_s``/``qps``, so store-attach wins are visible
and regression-gated apart from serving speed.  Rankings are asserted
identical across *all* rows of both records.
"""

import json
import pickle
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

#: HDD-class random 4K read (seek + half-rotation): the paper stores the
#: APL "on hard disk".  I/O-dominant workloads also keep the speedup
#: assertion robust on slow CI runners — sleeps overlap, GIL-bound
#: compute would not.
READ_LATENCY_S = 5e-3
N_QUERIES = 24
K = 9
SHARD_COUNTS = (1, 2, 4)

#: Queries of every workload spent warming a service before its timed
#: steady-state run: pool spawn, shared-store attach / spec unpickle, and
#: first-touch worker engine builds all land in ``setup_s``.
N_WARM = 4

#: The figure harness's cold protocol: every surviving candidate is one
#: counted, latency-bearing APL read.
ENGINE_CONFIG = EngineConfig(apl_cache_size=0)

#: The CPU-bound fleet row: pure-Python scalar scoring holds the GIL for
#: the whole validation phase, so threads serialise and processes don't.
CPU_ENGINE_CONFIG = EngineConfig(kernel="scalar", apl_cache_size=0)
CPU_N_QUERIES = 12
CPU_SHARDS = 4

BENCH_JSON = "BENCH_shards.json"
PROCESS_JSON = "BENCH_process.json"


@pytest.fixture(scope="module")
def workload(la_db):
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=bench_scale().seed))
    return mixed_order_requests(gen.queries(N_QUERIES), K)


def _disk_factory():
    return SimulatedDisk(read_latency_s=READ_LATENCY_S)


def _timed_service(
    db,
    n_shards,
    workload,
    executor="thread",
    store="object",
    engine_config=ENGINE_CONFIG,
    disk_factory=_disk_factory,
):
    """Build + warm + steady-run one service configuration.

    Returns ``(setup_s, wall_s, responses, spec_bytes)`` where ``setup_s``
    covers index build, service construction, and the ``N_WARM``-query
    warm-up batch (executor pool spawn, shared-store attach or engine-spec
    unpickle, first-touch worker engine builds), and ``wall_s`` is the
    steady-state serving time for the full workload.  ``spec_bytes`` is
    the pickled size of the worker hand-off (`ShardEngineSpec`) — the
    bytes an executor refresh actually ships.
    """
    t0 = time.perf_counter()
    sharded = ShardedGATIndex.build(
        db,
        n_shards=n_shards,
        config=bench_gat_config(),
        disk_factory=disk_factory,
        store=store,
    )
    service = ShardedQueryService(
        sharded, engine_config=engine_config, executor=executor, result_cache_size=0
    )
    try:
        service.search_many(workload[:N_WARM])
        setup_s = time.perf_counter() - t0
        spec_bytes = len(
            pickle.dumps(service._make_spec(), protocol=pickle.HIGHEST_PROTOCOL)
        )
        t0 = time.perf_counter()
        responses = service.search_many(workload)
        wall_s = time.perf_counter() - t0
    finally:
        service.close()
        sharded.close()
    return setup_s, wall_s, responses, spec_bytes


def _rankings(responses):
    return [
        [(r.trajectory_id, r.distance) for r in resp.results] for resp in responses
    ]


def _row(n_shards, executor, store, setup_s, wall_s, responses,
         baseline_wall=None, speedup_key="speedup_vs_1shard"):
    row = {
        "shards": n_shards,
        "executor": executor,
        "store": store,
        "queries": len(responses),
        "setup_s": round(setup_s, 4),
        "wall_s": round(wall_s, 4),
        "qps": round(len(responses) / wall_s, 2),
        "disk_reads": sum(r.stats.disk_reads for r in responses),
    }
    if baseline_wall is not None:
        row[speedup_key] = round(baseline_wall / wall_s, 3)
    return row


@pytest.mark.benchmark(group="sharded-scaling")
def test_sharded_scaling_speedup_and_parity(benchmark, la_db, workload):
    report = {}

    def run():
        rows = []
        baseline = None
        for n_shards in SHARD_COUNTS:
            setup_s, wall, responses, _ = _timed_service(la_db, n_shards, workload)
            rankings = _rankings(responses)
            if baseline is None:
                baseline = {"wall": wall, "rankings": rankings}
            # Exactness across the sweep: every shard count returns the
            # 1-shard rankings byte-for-byte.
            assert rankings == baseline["rankings"], n_shards
            rows.append(
                _row(n_shards, "thread", "object", setup_s, wall, responses,
                     baseline["wall"])
            )
        # The GIL-free path at 4 shards, both transports: the object
        # snapshot (workers unpickle the dataset) and the shared store
        # (workers attach to the columnar segments).  Steady-state speed
        # is I/O-bound and near-equal; setup_s and spec bytes are where
        # attach beats rebuild.
        for store in ("object", "shared"):
            setup_s, wall, responses, _ = _timed_service(
                la_db, 4, workload, executor="process", store=store
            )
            assert _rankings(responses) == baseline["rankings"], store
            rows.append(
                _row(4, "process", store, setup_s, wall, responses,
                     baseline["wall"])
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
        print(f"  {row['shards']} shards ({row['executor']:7s}/{row['store']:6s}): "
              f"setup {row['setup_s']:5.2f} s  steady {row['wall_s']:6.2f} s  "
              f"{row['qps']:7.1f} QPS  {row['speedup_vs_1shard']:.2f}x vs 1 shard  "
              f"({row['disk_reads']} reads)")
    by_key = {(r["shards"], r["executor"], r["store"]): r for r in rows}
    speedup = by_key[(4, "thread", "object")]["speedup_vs_1shard"]
    assert speedup >= 1.5, f"4-shard speedup {speedup:.2f}x < 1.5x"


@pytest.mark.benchmark(group="process-fleet")
def test_process_fleet_cpu_bound(benchmark, la_db):
    """The tentpole gate: on CPU-bound work the process fleet over the
    shared store must beat threads — real multi-core scaling, not pool
    overhead hidden behind I/O sleeps."""
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=bench_scale().seed))
    workload = mixed_order_requests(gen.queries(CPU_N_QUERIES), K)
    cores = usable_cores()
    report = {}

    def run():
        rows = []
        spec_bytes = {}
        rankings = None
        for executor, store in (
            ("thread", "shared"),
            ("process", "object"),
            ("process", "shared"),
        ):
            setup_s, wall, responses, nbytes = _timed_service(
                la_db,
                CPU_SHARDS,
                workload,
                executor=executor,
                store=store,
                engine_config=CPU_ENGINE_CONFIG,
                disk_factory=None,
            )
            if executor == "process":
                spec_bytes[store] = nbytes
            got = _rankings(responses)
            if rankings is None:
                rankings = got
            # Byte-identical rankings across executors and stores.
            assert got == rankings, (executor, store)
            rows.append(
                _row(CPU_SHARDS, executor, store, setup_s, wall, responses)
            )
        report["rows"] = rows
        report["spec_bytes"] = {
            "object": spec_bytes["object"],
            "shared": spec_bytes["shared"],
            # Deterministic transport-size ratio: segment names + ID
            # tuples over the full pickled dataset.
            "shared_over_object": round(
                spec_bytes["shared"] / spec_bytes["object"], 4
            ),
        }

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = report["rows"]
    by = {(r["executor"], r["store"]): r for r in rows}
    ratio = round(
        by[("thread", "shared")]["wall_s"] / by[("process", "shared")]["wall_s"], 3
    )
    payload = {
        "n_queries": CPU_N_QUERIES,
        "k": K,
        "shards": CPU_SHARDS,
        "kernel": "scalar",
        "read_latency_s": 0.0,
        "n_warm": N_WARM,
        "cores": cores,
        "rows": rows,
        "process_vs_thread": ratio,
        "spec_bytes": report["spec_bytes"],
    }
    with open(PROCESS_JSON, "w") as fh:
        json.dump(payload, fh, indent=2)

    print(f"\nprocess fleet, CPU-bound ({CPU_N_QUERIES} queries, k={K}, "
          f"{CPU_SHARDS} shards, scalar kernel, zero-latency disks, "
          f"{cores} usable core(s)):")
    for row in rows:
        print(f"  {row['executor']:7s}/{row['store']:6s}: "
              f"setup {row['setup_s']:5.2f} s  steady {row['wall_s']:6.2f} s  "
              f"{row['qps']:6.2f} QPS")
    sb = report["spec_bytes"]
    print(f"  spec: object {sb['object'] / 1024:.0f} KiB -> shared "
          f"{sb['shared'] / 1024:.1f} KiB "
          f"({sb['shared_over_object']:.1%} of the object snapshot)")
    print(f"  process vs thread (shared store): {ratio:.2f}x")

    # The shared spec must be a small fraction of the object snapshot —
    # attach ships names and IDs, never the dataset.
    assert sb["shared_over_object"] < 0.5, sb
    if cores >= 2:
        assert ratio >= 1.5, (
            f"process backend {ratio:.2f}x vs threads < 1.5x on CPU-bound "
            f"work with {cores} cores — the fleet is not scaling"
        )
    else:
        print("  (single-core machine: the >=1.5x process-vs-thread gate "
              "needs >=2 cores and is enforced on CI)")
