"""Block vs scalar scoring stage + shard-local retrieval grids — BENCH_block.json.

Not a paper figure: this tracks the PR-4 candidate-block scoring engine on
the **Figure 7 scalability dataset** (the NY-like database at bench
scale, the top rung of the Fig. 7 ladder).  One GAT index serves engines
that differ only in ``EngineConfig.kernel``; every run is sequential with
cold caches (no APL LRU, HICL cache cleared per query), so the
measurement isolates scoring from batching and cache effects.  Three
query shapes are swept:

* ``|q.phi| = 1`` — single-activity query points, where the whole block
  (distances, ``Dmm`` masked minima, the ``Dmom`` DP) stays in NumPy
  array ops end to end;
* ``|q.phi| = 3`` — the workload generator's default mixed shape, where
  the block computes the per-row set covers through the partition
  decomposition and only surviving ``Dmom`` DPs fall back per candidate;
* 6 points × ``|q.phi| = 4``, k = 20 — the shape of the end-to-end
  benchmark's ``cpu_heavy`` workload, where the four-activity covers
  (15 groups, 15 partitions per row) and the per-candidate mixed-activity
  ``Dmom`` DP *are* the scoring stage; ``mixed-default`` barely exercises
  either, so a regression in them shows here first.

Asserted acceptance bars (each kernel's *scoring-stage* wall time — the
code the kernel switch actually selects; retrieval, validation, and the
simulated disk are byte-identical across kernels and dilute the
end-to-end ratio, which ``bench_kernel_scoring.py`` reports):

* **≥4× scoring speedup** block over scalar on the single-activity
  workload and on the default mixed workload, **≥15×** on the heavy mixed
  one, where the dense-DP, per-group-loop kernels read 11×.  The recorded
  ratios are in ``benchmarks/baselines/BENCH_block.json``; the regression
  gate bands them one-sidedly at 30 %, so the baseline is re-seeded
  whenever a change moves the block side (on the mixed shapes what
  remains is mostly the per-candidate ``Dmom`` DP);
* **identical top-k** — same ids in the same order, distances to 1e-9
  relative (the partition cover may re-associate 3+-term sums by a last
  ulp) — and **identical pruning counters**, every
  :class:`SearchStats` field including disk reads;
* **sharded cell-expansion drop** — the new fleet defaults (spatial
  routing + shard-local grids + nearest-shard-first fan-out) expand at
  most 0.9× the grid cells of the old defaults (hash routing + global
  boxes) on the same workload under the deterministic serial executor,
  with rankings byte-identical to the single index.

The numbers are emitted as ``BENCH_block.json`` (override with
``REPRO_BENCH_BLOCK_JSON``), which the CI regression gate
(``benchmarks/check_bench_regressions.py``) diffs against the committed
baseline.
"""

import json
import math
import os
import time
from dataclasses import fields

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import GATSearchEngine
from repro.index.gat.index import GATIndex
from repro.service import QueryRequest
from repro.shard import ShardedGATIndex, ShardedQueryService

from conftest import BENCH_SCALE, bench_gat_config, bench_scale, usable_cores

N_QUERIES = 16
N_SHARDS = 4
#: Timing repetitions per (workload, kernel), interleaved scalar/block
#: so clock-speed drift hits both kernels alike; the best rep is scored.
REPS = 3

JSON_PATH = os.environ.get("REPRO_BENCH_BLOCK_JSON", "BENCH_block.json")

#: (name, WorkloadConfig overrides, k)
WORKLOAD_SHAPES = (
    ("single-activity", dict(n_activities_per_point=1), 9),
    ("mixed-default", dict(), 9),
    ("mixed-heavy", dict(n_query_points=6, n_activities_per_point=4), 20),
)
#: The sharded cell-expansion row runs the default shape.
K = 9

MIN_SCORING_SPEEDUP = {
    "single-activity": 4.0,
    "mixed-default": 4.0,
    "mixed-heavy": 15.0,
}
MAX_SHARD_CELL_RATIO = 0.9


@pytest.fixture(scope="module")
def gat_index(ny_db):
    return GATIndex.build(ny_db, bench_gat_config())


class _TimedScoring:
    """ScoringStage wrapper accumulating the scoring-stage wall time —
    the only stage the kernel switch changes."""

    def __init__(self, inner):
        self.inner = inner
        self.seconds = 0.0

    def score(self, ctx, candidate):
        t0 = time.perf_counter()
        value = self.inner.score(ctx, candidate)
        self.seconds += time.perf_counter() - t0
        return value

    def score_batch(self, ctx, candidates):
        t0 = time.perf_counter()
        values = self.inner.score_batch(ctx, candidates)
        self.seconds += time.perf_counter() - t0
        return values


def _stat_dict(stats):
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _run_sequential(index, queries, kernel, k):
    """Cold-cache sequential loop; returns (scoring_s, answers, stats)."""
    engine = GATSearchEngine(index, apl_cache_size=0, kernel=kernel)
    engine._scoring = _TimedScoring(engine._scoring)
    answers, stats = [], []
    for i, q in enumerate(queries):
        index.hicl.clear_cache()
        ctx = engine.execute(q, k, order_sensitive=(i % 2 == 1))
        answers.append([(r.trajectory_id, r.distance) for r in ctx.ranked])
        stats.append(_stat_dict(ctx.stats))
    return engine._scoring.seconds, answers, stats


def _best_runs(index, queries, k):
    """Interleaved repetitions of both kernels; best (by scoring time)
    of each."""
    best = {}
    for _ in range(REPS):
        for kernel in ("scalar", "block"):
            run = _run_sequential(index, queries, kernel, k)
            if kernel not in best or run[0] < best[kernel][0]:
                best[kernel] = run
    return best["scalar"], best["block"]


def _assert_same_answers(a, b, what):
    assert [[t for t, _ in q] for q in a] == [[t for t, _ in q] for q in b], what
    for qa, qb in zip(a, b):
        for (_, da), (_, db) in zip(qa, qb):
            assert math.isclose(da, db, rel_tol=1e-9, abs_tol=1e-12), what


def _sharded_cells(db, requests, strategy, shard_box):
    """Fleet-total cells popped under the deterministic serial executor,
    plus the merged rankings."""
    sharded = ShardedGATIndex.build(
        db, n_shards=N_SHARDS, config=bench_gat_config(),
        strategy=strategy, shard_box=shard_box,
    )
    with ShardedQueryService(sharded, executor="serial", result_cache_size=0) as svc:
        responses = svc.search_many(requests)
    rankings = [
        [(r.trajectory_id, r.distance) for r in resp.results] for resp in responses
    ]
    return sum(r.stats.cells_popped for r in responses), rankings


@pytest.mark.benchmark(group="block-scoring")
def test_block_speedup_parity_and_shard_cells(benchmark, ny_db, gat_index):
    report = {"rows": [], "speedups": {}}

    def run():
        report["rows"].clear()
        report["speedups"].clear()
        for name, shape, k in WORKLOAD_SHAPES:
            gen = QueryWorkloadGenerator(
                ny_db, WorkloadConfig(seed=bench_scale().seed, **shape)
            )
            queries = gen.queries(N_QUERIES)
            (s_scoring, s_ans, s_stats), (b_scoring, b_ans, b_stats) = _best_runs(
                gat_index, queries, k
            )
            _assert_same_answers(s_ans, b_ans, f"{name}: block vs scalar top-k")
            assert s_stats == b_stats, f"{name}: counters must not move with the kernel"
            report["rows"].append(
                {
                    "workload": name,
                    "k": k,
                    "scalar_scoring_s": round(s_scoring, 4),
                    "block_scoring_s": round(b_scoring, 4),
                }
            )
            report["speedups"][name] = round(s_scoring / b_scoring, 3)

        # Shard-local retrieval grids: old fleet defaults vs new, same
        # workload, deterministic serial fan-out, rankings pinned to the
        # single index (= the kernel runs above, whose answers the block
        # path already matched).
        gen = QueryWorkloadGenerator(ny_db, WorkloadConfig(seed=bench_scale().seed))
        requests = [
            QueryRequest(q, k=K, order_sensitive=(i % 2 == 1))
            for i, q in enumerate(gen.queries(N_QUERIES))
        ]
        single = GATSearchEngine(GATIndex.build(ny_db, bench_gat_config()))
        expected = []
        for r in requests:
            ctx = single.execute(r.query, r.k, order_sensitive=r.order_sensitive)
            expected.append([(x.trajectory_id, x.distance) for x in ctx.ranked])
        old_cells, old_ranks = _sharded_cells(ny_db, requests, "hash", "global")
        new_cells, new_ranks = _sharded_cells(ny_db, requests, "spatial", "local")
        assert old_ranks == expected, "hash/global fleet must match the single index"
        assert new_ranks == expected, "spatial/local fleet must match the single index"
        report["sharded"] = {
            "n_shards": N_SHARDS,
            "executor": "serial",
            "old_cells_hash_global": old_cells,
            "new_cells_spatial_local": new_cells,
            "cells_ratio": round(new_cells / old_cells, 3),
        }

    benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\nblock scoring (Fig. 7 NY dataset, {N_QUERIES} mixed ATSQ/OATSQ, "
          f"cold caches, scale {BENCH_SCALE}):")
    for row in report["rows"]:
        print(f"  {row['workload']:16s} k={row['k']:<3d} scoring "
              f"{row['scalar_scoring_s']:.3f}s -> {row['block_scoring_s']:.3f}s "
              f"({report['speedups'][row['workload']]:.2f}x)")
    sh = report["sharded"]
    print(f"  shard cells       hash/global {sh['old_cells_hash_global']} -> "
          f"spatial/local {sh['new_cells_spatial_local']} "
          f"(ratio {sh['cells_ratio']:.2f}, {N_SHARDS} shards, serial)")

    payload = {
        "bench": "block_scoring",
        "scale": BENCH_SCALE,
        "cores": usable_cores(),
        "n_queries": N_QUERIES,
        "rows": report["rows"],
        "speedups": report["speedups"],
        "sharded": report["sharded"],
        "topk_identical": True,
        "counters_identical": True,
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"  wrote {JSON_PATH}")

    # Timing gate: off under --benchmark-disable, as benchmarks/reach.py runs it.
    if not benchmark.disabled:
        for name, minimum in MIN_SCORING_SPEEDUP.items():
            got = report["speedups"][name]
            assert got >= minimum, f"{name}: block scoring only {got:.2f}x (< {minimum}x)"
    ratio = report["sharded"]["cells_ratio"]
    assert ratio <= MAX_SHARD_CELL_RATIO, (
        f"shard-local grids expanded {ratio:.2f}x the cells of the global-box "
        f"fleet (need <= {MAX_SHARD_CELL_RATIO})"
    )
