"""Block vs scalar scoring kernels — sequential cold-cache hot path.

Not a paper figure: this tracks the end-to-end gain of the array kernels
over the seed's scalar ones.  One GAT index serves two engines that
differ only in ``EngineConfig.kernel``; both run the same mixed
ATSQ/OATSQ workload sequentially with cold caches (the
seed's per-query behaviour: no APL LRU, HICL cache cleared per query), so
the measurement isolates the scoring kernels from batching and cache
effects.

Asserted acceptance bar:

* **≥2× speedup** block over scalar, whole queries (the scalar path
  burns its time in per-point metric calls and per-(i,j,k)
  PointMatchTable updates; ``bench_block_scoring.py`` reports the
  scoring stage alone);
* **identical top-k** — same trajectory ids in the same order, distances
  equal to 1e-9 relative (NumPy elementwise rounding and the Dmom scan's
  re-association differ from libm in the last ulp);
* **identical pruning counters** — every :class:`SearchStats` field,
  including disk reads — across both kernels.

The numbers are also emitted as ``BENCH_kernels.json`` (override the path
with ``REPRO_BENCH_KERNELS_JSON``) so CI archives a machine-readable
record of the speedup.
"""

import json
import math
import os
import time
from dataclasses import fields

import pytest

from repro.core.engine import EngineConfig, GATSearchEngine
from repro.core.kernels import KERNELS
from repro.index.gat.index import GATIndex

from conftest import BENCH_SCALE, bench_gat_config, usable_cores

K = 9

JSON_PATH = os.environ.get("REPRO_BENCH_KERNELS_JSON", "BENCH_kernels.json")


@pytest.fixture(scope="module")
def gat_index(la_db):
    return GATIndex.build(la_db, bench_gat_config())


def _stat_dict(stats):
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _run_sequential(index, queries, kernel):
    """Sequential cold-cache loop; returns (seconds, answers, stats)."""
    engine = GATSearchEngine(index, apl_cache_size=0, kernel=kernel)
    answers, stats = [], []
    t0 = time.perf_counter()
    for i, q in enumerate(queries):
        index.hicl.clear_cache()
        ctx = engine.execute(q, K, order_sensitive=(i % 2 == 1))
        answers.append([(r.trajectory_id, r.distance) for r in ctx.ranked])
        stats.append(_stat_dict(ctx.stats))
    return time.perf_counter() - t0, answers, stats


def _assert_same_answers(a, b, what):
    assert [[t for t, _ in q] for q in a] == [[t for t, _ in q] for q in b], what
    for qa, qb in zip(a, b):
        for (_, da), (_, db) in zip(qa, qb):
            assert math.isclose(da, db, rel_tol=1e-9, abs_tol=1e-12), what


@pytest.mark.benchmark(group="kernel-scoring")
def test_kernel_speedup_and_parity(benchmark, gat_index, la_queries):
    report = {}

    def run():
        for kernel in KERNELS:
            report[kernel] = _run_sequential(gat_index, la_queries, kernel)

    benchmark.pedantic(run, rounds=1, iterations=1)

    s_secs, s_ans, s_stats = report["scalar"]
    b_secs, b_ans, b_stats = report["block"]
    n = len(la_queries)
    speedup = s_secs / b_secs

    _assert_same_answers(s_ans, b_ans, "scalar vs block top-k")
    assert s_stats == b_stats, "pruning counters must not move with the kernel"

    print(f"\nkernel scoring ({n} mixed ATSQ/OATSQ, k={K}, cold caches, "
          f"scale {BENCH_SCALE}):")
    print(f"  scalar kernel     : {s_secs:.3f} s  ({s_secs / n * 1000:.1f} ms/query)")
    print(f"  block kernel      : {b_secs:.3f} s  ({b_secs / n * 1000:.1f} ms/query)")
    print(f"  speedup           : {speedup:.2f}x")

    payload = {
        "bench": "kernel_scoring",
        "scale": BENCH_SCALE,
        "cores": usable_cores(),
        "n_queries": n,
        "k": K,
        "scalar_s_per_query": s_secs / n,
        "block_s_per_query": b_secs / n,
        "speedup": speedup,
        "topk_identical": True,
        "counters_identical": True,
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"  wrote {JSON_PATH}")

    # Timing gate: off under --benchmark-disable, as benchmarks/reach.py runs it.
    if not benchmark.disabled:
        assert speedup >= 2.0, f"block kernel only {speedup:.2f}x faster"


@pytest.mark.benchmark(group="kernel-scoring-each")
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_benchmark(benchmark, gat_index, la_queries, kernel):
    engine = GATSearchEngine(gat_index, apl_cache_size=0, kernel=kernel)

    def run():
        for i, q in enumerate(la_queries):
            gat_index.hicl.clear_cache()
            engine.execute(q, K, order_sensitive=(i % 2 == 1))

    benchmark.pedantic(run, rounds=2, iterations=1)


@pytest.mark.benchmark(group="kernel-config")
def test_engine_config_round_trip(benchmark, gat_index):
    """EngineConfig carries the kernel switch end to end (smoke)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    config = EngineConfig(kernel="scalar", apl_cache_size=0)
    engine = GATSearchEngine(gat_index, config=config)
    assert engine.kernel == "scalar"
    assert engine.apl_cache is None
