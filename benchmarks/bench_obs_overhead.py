"""Observability overhead — a passed-in disabled handle must be ~free.

Every service counts into a metric registry whether or not it is handed
one: with ``obs=None`` (the default) it keeps a private
:class:`~repro.obs.MetricRegistry`, so both arms here pay the same
counters.  What the ratio measures is the rest of the contract — a
service built with a passed-in ``Observability.disabled()`` handle (its
registry shared and exported, disks bound to a
:class:`~repro.obs.trace.NullTracer`, every span site asking that tracer
whether it is on) must serve within 5% of the default service.  This
benchmark measures exactly that on the :class:`QueryService` hot path:

* **alternating pairs** — baseline and instrumented runs interleave
  (``A B A B ...``) so thermal drift or a noisy neighbour biases both
  arms of a pair equally;
* **median of the per-pair ratios** — each pair is its own control, and
  the median shrugs off the one pair a neighbour landed on (best-of-N
  over an 8-thread pool on a 2-core box measured the scheduler: 0.57 to
  1.14 run to run);
* **one worker, CPU seconds** — the instrumentation's cost is CPU per
  query, so it is measured where nothing but the queries runs (no pool,
  no GIL hand-offs) and in ``time.process_time``, which does not see a
  neighbour taking the core (on the shared 2-core box wall-clock
  medians of 7 pairs still ranged 0.97 to 1.22; CPU-time medians of 15
  pairs 1.00 to 1.06 over five runs);
* **cold result cache** — ``result_cache_size=0``, otherwise the second
  rep would serve memoized tuples and measure nothing.

The throughput ratio (default CPU over disabled-handle CPU) is emitted as
``BENCH_obs.json`` — written *before* the assert, so a failing run still
leaves its evidence and the all-files gate never reports the file
missing — asserted ``>= 0.95`` here, and gated by
``check_bench_regressions.py`` against the committed baseline.  The
emitted row also embeds the registry snapshot — the bench-integration
path every ``BENCH_*.json`` can now use.
"""

import json
import os
import statistics
import time

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import GATSearchEngine
from repro.index.gat.index import GATIndex
from repro.obs import Observability
from repro.service import QueryService

from conftest import bench_gat_config, bench_scale, usable_cores

N_QUERIES = 30
K = 8
PAIRS = 15
MAX_WORKERS = 1

JSON_PATH = os.environ.get("REPRO_BENCH_OBS_JSON", "BENCH_obs.json")


@pytest.fixture(scope="module")
def gat_index(la_db):
    return GATIndex.build(la_db, bench_gat_config())


@pytest.mark.benchmark(group="observability")
def test_disabled_observability_overhead(benchmark, la_db, gat_index):
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=bench_scale().seed))
    queries = gen.queries(N_QUERIES)
    report = {}

    def serve_once(obs):
        """CPU seconds of one batch through a fresh service (warm-up lap
        first)."""
        service = QueryService(
            GATSearchEngine(gat_index),
            max_workers=MAX_WORKERS,
            result_cache_size=0,
            obs=obs,
        )
        try:
            service.search_many(queries, k=K)  # warm caches
            t0 = time.process_time()
            responses = service.search_many(queries, k=K)
            cpu_s = time.process_time() - t0
        finally:
            service.close()
        assert len(responses) == N_QUERIES
        return cpu_s

    def run():
        obs = Observability.disabled()
        pairs = [(serve_once(None), serve_once(obs)) for _ in range(PAIRS)]
        # Throughput ratio per pair: a passed-in disabled handle over the
        # default (obs=None, a private registry).
        ratios = [baseline / disabled for baseline, disabled in pairs]
        baseline_s = statistics.median(b for b, _ in pairs)
        disabled_s = statistics.median(d for _, d in pairs)
        report.update(
            {
                "n_queries": N_QUERIES,
                "k": K,
                "pairs": PAIRS,
                "max_workers": MAX_WORKERS,
                "cores": usable_cores(),
                "baseline_cpu_ms_per_query": round(1e3 * baseline_s / N_QUERIES, 3),
                "disabled_cpu_ms_per_query": round(1e3 * disabled_s / N_QUERIES, 3),
                "pair_ratios": [round(r, 4) for r in ratios],
                "disabled_over_baseline": round(statistics.median(ratios), 4),
                # The embedding path: a registry snapshot in a bench row.
                "metrics": obs.metrics_snapshot(),
            }
        )

    benchmark.pedantic(run, rounds=1, iterations=1)

    with open(JSON_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
    ratio = report["disabled_over_baseline"]
    print(
        f"\nobservability overhead ({N_QUERIES} queries × {PAIRS} "
        f"alternating pairs, median): baseline "
        f"{report['baseline_cpu_ms_per_query']} CPU ms/query, disabled "
        f"{report['disabled_cpu_ms_per_query']}, ratio {ratio:.3f} "
        f"(pairs {report['pair_ratios']})"
    )
    assert ratio >= 0.95, (
        f"disabled observability costs more than 5% throughput "
        f"(median pair ratio {ratio:.3f})"
    )
