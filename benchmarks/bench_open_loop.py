"""Open-loop serving under overload — emitting BENCH_serving.json.

Not a paper figure: this measures the serving front-end's overload
envelope (ROADMAP "Async open-loop serving tier").  Three stages:

* **calibrate** — a sequential closed-loop pass captures the oracle
  rankings, then a *concurrent* closed loop (``CONCURRENCY`` workers,
  ~1.2 s) measures saturation throughput directly — sequential service
  time badly underestimates per-query latency under contention (GIL +
  serialized simulated disk), so capacity is measured, not derived.
* **saturation sweep** — seeded Poisson arrivals at multiples of the
  estimated capacity, each point one open-loop run against a fresh
  index + service + front-end built from the public constructors.  The
  *sustainable* rate is the highest point that still answers ≥95 % of
  offered requests within SLO while dropping ≤5 %.
* **overload** — 2× the sustainable rate, twice: once with SLO-aware
  shedding + deadline propagation, once with shedding off and a deep
  FIFO queue (the classic open-loop collapse).  The shedding front-end
  must keep goodput ≥ 0.7× the sweep's peak; the no-shedding baseline
  must do worse; and every request the shedding run *answered* must
  rank byte-identically to the closed-loop oracle — overload handling
  may refuse queries, never corrupt them.

The regression gate pins ratios only (sustainable/capacity, overload
goodput ratio, rankings-exact) — they compare same-machine runs inside
one process, so they transfer from the seeding laptop to CI; absolute
QPS does not.
"""

import json
import time

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.serving import (
    PoissonArrivals,
    ServingConfig,
    ServingFrontend,
    run_open_loop,
)
from repro.service.service import as_request
from repro.shard import FaultPolicy, ShardedGATIndex, ShardedQueryService
from repro.storage.disk import SimulatedDisk

from conftest import bench_gat_config, bench_scale, usable_cores

N_QUERIES = 8
K = 8
N_SHARDS = 2
CONCURRENCY = 4
#: Per-read latency on every shard disk: keeps service time dominated by
#: simulated I/O rather than Python overhead, like a real deployment.
DISK_LATENCY_S = 0.0005
#: SLO as a multiple of the measured *concurrent* per-query time (room
#: for a short queue in front of the backend).
SLO_OVER_SERVICE = 4.0
#: How long the concurrent closed loop measures saturation throughput.
CALIBRATION_S = 1.2
SWEEP_MULTIPLIERS = [0.6, 0.8, 1.0, 1.25, 1.5]
SWEEP_DURATION_S = 2.0
OVERLOAD_DURATION_S = 2.5
SUSTAIN_WITHIN_SLO = 0.95
SUSTAIN_MAX_DROP = 0.05

BENCH_JSON = "BENCH_serving.json"


@pytest.fixture(scope="module")
def workload(la_db):
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=bench_scale().seed))
    return gen.queries(N_QUERIES)


def _fault_policy() -> FaultPolicy:
    # allow_partial so a propagated deadline degrades coverage instead of
    # raising; the front-end then expires the partial answer.
    return FaultPolicy(max_retries=1, allow_partial=True)


def _disk_factory():
    return SimulatedDisk(read_latency_s=DISK_LATENCY_S)


def _measure_capacity(service, workload) -> float:
    """Closed-loop saturation throughput: ``CONCURRENCY`` workers each
    hammering the service back-to-back for ``CALIBRATION_S``."""
    from concurrent.futures import ThreadPoolExecutor

    def worker(worker_id: int) -> int:
        done = 0
        deadline = time.perf_counter() + CALIBRATION_S
        i = worker_id
        while time.perf_counter() < deadline:
            service.search(as_request(workload[i % len(workload)], k=K))
            done += 1
            i += 1
        return done

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        completed = sum(pool.map(worker, range(CONCURRENCY)))
    return completed / (time.perf_counter() - t0)


def _fresh_service(la_db) -> ShardedQueryService:
    """A newly built shard fleet behind a new service.  The result cache
    is off: the cycled workload would otherwise never load the backend."""
    index = ShardedGATIndex.build(
        la_db,
        n_shards=N_SHARDS,
        config=bench_gat_config(),
        disk_factory=_disk_factory,
    )
    return ShardedQueryService(
        index,
        executor="thread",
        fault_policy=_fault_policy(),
        result_cache_size=0,
    )


def _sweep_point(la_db, workload, config, rate_qps, slo_s, seed):
    """One saturation-sweep point on its own fresh stack (nothing warm or
    queued carries over from the previous rate)."""
    with _fresh_service(la_db) as service:
        with ServingFrontend(service, config) as frontend:
            return run_open_loop(
                frontend,
                workload,
                PoissonArrivals(rate_qps, seed=seed),
                duration_s=SWEEP_DURATION_S,
                slo_s=slo_s,
                k=K,
            )


def _overload_run(service, workload, config, rate_qps, slo_s, prime_s):
    with ServingFrontend(service, config) as frontend:
        frontend.prime(prime_s)
        report = run_open_loop(
            frontend,
            workload,
            PoissonArrivals(rate_qps, seed=11),
            duration_s=OVERLOAD_DURATION_S,
            slo_s=slo_s,
            deadline_s=slo_s,
            k=K,
        )
    return report


def _rankings_exact(report, oracle):
    """Fraction of the run's *answered* queries whose rankings match the
    closed-loop oracle exactly (1.0 = every answer byte-identical)."""
    checked = exact = 0
    for outcome in report.outcomes:
        if outcome.ranking is None:
            continue
        checked += 1
        if list(outcome.ranking) == oracle[outcome.index % len(oracle)]:
            exact += 1
    return checked, (exact / checked if checked else 1.0)


@pytest.mark.benchmark(group="open-loop-serving")
def test_open_loop_overload_envelope(benchmark, la_db, workload):
    report = {}

    def run():
        # --- calibrate: closed-loop service time + oracle rankings ----
        with _fresh_service(la_db) as service:
            for query in workload:  # warm caches once
                service.search(as_request(query, k=K))
            oracle = [
                [
                    (r.trajectory_id, r.distance)
                    for r in service.search(as_request(q, k=K)).results
                ]
                for q in workload
            ]
            capacity_qps = _measure_capacity(service, workload)
            # Mean per-query time as concurrent callers actually see it.
            mean_service_s = CONCURRENCY / capacity_qps
            slo_s = SLO_OVER_SERVICE * mean_service_s

            # --- saturation sweep (fresh stack per point, public API) -
            shed_config = ServingConfig(
                queue_capacity=64,
                max_concurrency=CONCURRENCY,
                default_deadline_s=slo_s,
                shed_headroom=1.5,
            )
            rows = []
            for i, multiplier in enumerate(SWEEP_MULTIPLIERS):
                rate = multiplier * capacity_qps
                point = _sweep_point(
                    la_db, workload, shed_config, rate, slo_s, seed=20130408 + i
                )
                within = (
                    point.goodput_qps / point.offered_qps
                    if point.offered_qps
                    else 0.0
                )
                rows.append(
                    {
                        "multiplier": multiplier,
                        "rate_qps": round(rate, 2),
                        "offered_qps": round(point.offered_qps, 2),
                        "goodput_qps": round(point.goodput_qps, 2),
                        "within_slo_frac": round(within, 4),
                        "shed_frac": round(point.shed_frac, 4),
                        "drop_frac": round(point.drop_frac, 4),
                        "p95_ms": point.row()["latency_p95_ms"],
                    }
                )
            sustainable = [
                row
                for row in rows
                if row["within_slo_frac"] >= SUSTAIN_WITHIN_SLO
                and row["drop_frac"] <= SUSTAIN_MAX_DROP
            ]
            sustainable_qps = (
                max(row["rate_qps"] for row in sustainable)
                if sustainable
                else rows[0]["rate_qps"]
            )
            peak_goodput = max(row["goodput_qps"] for row in rows)

            # --- overload: 2x sustainable, shed vs no-shed ------------
            overload_qps = 2.0 * sustainable_qps
            shed_report = _overload_run(
                service, workload, shed_config, overload_qps, slo_s, mean_service_s
            )
            noshed_config = ServingConfig(
                queue_capacity=256,
                max_concurrency=CONCURRENCY,
                default_deadline_s=slo_s,
                shed=False,
                propagate_deadline=False,
            )
            noshed_report = _overload_run(
                service, workload, noshed_config, overload_qps, slo_s, mean_service_s
            )

        checked, exact_frac = _rankings_exact(shed_report, oracle)
        shed_ratio = shed_report.goodput_qps / peak_goodput if peak_goodput else 0.0
        noshed_ratio = (
            noshed_report.goodput_qps / peak_goodput if peak_goodput else 0.0
        )
        assert checked > 0, "overload run answered nothing; cannot check parity"
        assert exact_frac == 1.0, (
            "overload served rankings diverged from the closed-loop oracle"
        )
        # Timing gate: off under --benchmark-disable, as benchmarks/reach.py runs it.
        if not benchmark.disabled:
            assert shed_ratio >= 0.7, (
                f"shedding goodput collapsed under 2x overload: {shed_ratio:.2f} "
                f"of peak ({shed_report.goodput_qps:.1f} vs {peak_goodput:.1f} QPS)"
            )
            assert noshed_ratio < shed_ratio, (
                "the no-shedding baseline out-served the shedding front-end; "
                "shedding is not earning its keep"
            )
        report["data"] = {
            "n_queries": N_QUERIES,
            "k": K,
            "n_shards": N_SHARDS,
            "concurrency": CONCURRENCY,
            "cores": usable_cores(),
            "mean_service_ms": round(mean_service_s * 1e3, 3),
            "capacity_qps": round(capacity_qps, 2),
            "slo_ms": round(slo_s * 1e3, 2),
            "sustainable_qps": round(sustainable_qps, 2),
            "sustainable_over_capacity": round(
                sustainable_qps / capacity_qps, 4
            ),
            "rows": rows,
            "overload": {
                "rate_qps": round(overload_qps, 2),
                "shed": {
                    **shed_report.row(),
                    "goodput_ratio": round(shed_ratio, 4),
                    "rankings_checked": checked,
                    "rankings_exact": round(exact_frac, 4),
                },
                "noshed": {
                    **noshed_report.row(),
                    "goodput_ratio": round(noshed_ratio, 4),
                },
            },
        }

    benchmark.pedantic(run, rounds=1, iterations=1)

    data = report["data"]
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2)
    print(
        f"\nopen-loop serving (capacity ~{data['capacity_qps']:.0f} QPS, "
        f"SLO {data['slo_ms']:.0f} ms, sustainable {data['sustainable_qps']:.0f} QPS):"
    )
    for row in data["rows"]:
        print(
            f"  {row['multiplier']:>4.2f}x: offered {row['offered_qps']:7.1f}/s  "
            f"goodput {row['goodput_qps']:7.1f}/s  "
            f"within-SLO {row['within_slo_frac']:.0%}  "
            f"shed {row['shed_frac']:.0%}"
        )
    over = data["overload"]
    print(
        f"  2x overload @ {over['rate_qps']:.0f} QPS: "
        f"shed goodput {over['shed']['goodput_qps']:.1f}/s "
        f"({over['shed']['goodput_ratio']:.0%} of peak, rankings exact "
        f"{over['shed']['rankings_exact']:.0%}) vs no-shed "
        f"{over['noshed']['goodput_qps']:.1f}/s "
        f"({over['noshed']['goodput_ratio']:.0%})"
    )
