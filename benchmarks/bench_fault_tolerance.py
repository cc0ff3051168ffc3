"""Fault-tolerant serving — chaos scenarios, emitting BENCH_faults.json.

Not a paper figure: this measures the serving tier's failure envelope
(ROADMAP "Fault-tolerant serving").  Four scenarios, each asserting the
contract it exists to protect and emitting one JSON row:

* ``parity`` — a :class:`FaultPolicy` with no faults anywhere: the
  supervised fan-out must produce byte-identical rankings (and identical
  shard result counts) to the plain all-or-nothing service.  Fault
  tolerance must be free when nothing fails.
* ``disk-errors`` — every *primary* shard disk wears a seeded
  :class:`FaultInjector` erroring 10 % of reads; 2 replicas/shard serve
  behind the circuit-breaker router.  Retries fail over to the clean
  sibling copies, so every query must reach **full** coverage with exact
  rankings despite the media errors.
* ``shard-down`` — one shard's only copy errors every read.  With
  ``allow_partial`` the batch degrades gracefully: every response is
  partial with coverage ``(n_shards - 1)/n_shards`` and correct
  ``shards_answered/shards_total`` metadata, never an exception.
* ``worker-kill`` — the process fleet is warmed up, its workers are
  SIGKILLed (once before the batch, once mid-batch): the executor must
  retire the broken pools, re-initialise from the spec, replay the dead
  futures, and still return full-coverage exact rankings.

The gate (``check_bench_regressions.py``) pins the *correctness ratios*
(rankings-exact, completion fraction, partial coverage) — deterministic
1.0-style values, not wall seconds, so they transfer across machines.
Wall time and retry/hedge/repair counters ride along unasserted for the
printed report.
"""

import json
import threading
import time

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.faults import FaultInjector, FaultRule, kill_fleet_workers
from repro.shard import (
    BreakerConfig,
    FaultPolicy,
    ShardedGATIndex,
    ShardedQueryService,
)
from repro.storage.disk import SimulatedDisk

from conftest import bench_gat_config, bench_scale

N_QUERIES = 12
K = 8
N_SHARDS = 2
ERROR_RATE = 0.10

BENCH_JSON = "BENCH_faults.json"


@pytest.fixture(scope="module")
def workload(la_db):
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=bench_scale().seed))
    return gen.queries(N_QUERIES)


def _rankings(responses):
    return [
        [(r.trajectory_id, r.distance) for r in resp.results] for resp in responses
    ]


def _row(scenario, wall, responses, stats, **extra):
    complete = sum(1 for r in responses if r.complete)
    coverage = [r.shards_answered / r.shards_total for r in responses]
    row = {
        "scenario": scenario,
        "queries": len(responses),
        "wall_s": round(wall, 4),
        "qps": round(len(responses) / wall, 2) if wall > 0 else 0.0,
        "complete_frac": round(complete / len(responses), 4),
        "mean_coverage_frac": round(sum(coverage) / len(coverage), 4),
        "task_retries": stats.task_retries,
        "task_hedges": stats.task_hedges,
        "partial_responses": stats.partial_responses,
    }
    row.update(extra)
    return row


def _serve(service, workload, indexes=()):
    for index in indexes:
        index.hicl.clear_cache()
    t0 = time.perf_counter()
    responses = service.search_many(workload, k=K)
    wall = time.perf_counter() - t0
    return wall, responses


@pytest.mark.benchmark(group="fault-tolerance")
def test_fault_tolerance_scenarios(benchmark, la_db, workload):
    report = {}

    def run():
        rows = []
        # Ground truth: the plain all-or-nothing service, serial backend.
        sharded = ShardedGATIndex.build(
            la_db, n_shards=N_SHARDS, config=bench_gat_config()
        )
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as plain:
            wall, responses = _serve(plain, workload, sharded.shards)
        truth = _rankings(responses)

        # --- parity: supervision on, zero faults anywhere -------------
        with ShardedQueryService(
            sharded,
            executor="serial",
            result_cache_size=0,
            fault_policy=FaultPolicy(deadline_s=60.0, max_retries=2),
        ) as supervised:
            wall, responses = _serve(supervised, workload, sharded.shards)
            stats = supervised.stats()
        exact = _rankings(responses) == truth
        assert exact, "supervised fan-out changed rankings with no faults"
        assert stats.task_retries == 0 and stats.partial_responses == 0
        rows.append(
            _row("parity", wall, responses, stats, rankings_exact=float(exact))
        )

        # --- disk-errors: 10% faulty primaries, clean replicas --------
        injector = FaultInjector(FaultRule(error_rate=ERROR_RATE), seed=20130408)
        faulty = ShardedGATIndex.build(
            la_db,
            n_shards=N_SHARDS,
            config=bench_gat_config(),
            disk_factory=lambda: SimulatedDisk(fault_injector=injector),
        )
        with ShardedQueryService(
            faulty,
            executor="thread",
            n_replicas=2,
            result_cache_size=0,
            fault_policy=FaultPolicy(max_retries=4),
            breaker=BreakerConfig(failure_threshold=2, probation_after_s=60.0),
        ) as replicated:
            served = [engine.index for bank in replicated.placement.banks for engine in bank]
            wall, responses = _serve(replicated, workload, served)
            stats = replicated.stats()
        exact = _rankings(responses) == truth
        assert exact, "failover responses diverged from the healthy rankings"
        assert all(r.complete for r in responses), (
            "10% disk errors with clean replicas must still reach full coverage"
        )
        rows.append(
            _row(
                "disk-errors",
                wall,
                responses,
                stats,
                rankings_exact=float(exact),
                errors_injected=injector.errors_injected,
            )
        )

        # --- shard-down: one shard's only copy errors every read ------
        down = FaultInjector(FaultRule(error_rate=1.0), seed=7)
        disks = iter(
            [SimulatedDisk(fault_injector=down)]
            + [SimulatedDisk() for _ in range(N_SHARDS - 1)]
        )
        lame = ShardedGATIndex.build(
            la_db,
            n_shards=N_SHARDS,
            config=bench_gat_config(),
            disk_factory=lambda: next(disks),
        )
        with ShardedQueryService(
            lame,
            executor="thread",
            result_cache_size=0,
            fault_policy=FaultPolicy(max_retries=1, allow_partial=True),
        ) as degraded:
            wall, responses = _serve(degraded, workload, lame.shards)
            stats = degraded.stats()
        assert all(not r.complete for r in responses), (
            "a fully dead shard must degrade every response to partial"
        )
        assert all(
            r.shards_answered == N_SHARDS - 1 and r.shards_total == N_SHARDS
            for r in responses
        )
        rows.append(_row("shard-down", wall, responses, stats))

        # --- worker-kill: SIGKILL the process fleet, twice ------------
        with ShardedQueryService(
            ShardedGATIndex.build(
                la_db, n_shards=N_SHARDS, config=bench_gat_config()
            ),
            executor="process",
            result_cache_size=0,
            fault_policy=FaultPolicy(max_retries=4),
        ) as fleet:
            fleet._executor.warm_up()
            kill_fleet_workers(fleet._executor, count=N_SHARDS, seed=1)

            def kill_one_quietly():
                try:
                    kill_fleet_workers(fleet._executor, count=1, seed=2)
                except RuntimeError:
                    pass  # fleet mid-repair: no live pids this instant

            killer = threading.Timer(0.2, kill_one_quietly)
            killer.start()
            try:
                wall, responses = _serve(fleet, workload)
            finally:
                killer.cancel()
                killer.join()
            stats = fleet.stats()
            repairs = fleet._executor.pool_repairs
        exact = _rankings(responses) == truth
        assert exact, "post-kill rankings diverged from the healthy fleet"
        assert all(r.complete for r in responses)
        assert repairs >= 1, "the kill must have retired at least one pool"
        rows.append(
            _row(
                "worker-kill",
                wall,
                responses,
                stats,
                rankings_exact=float(exact),
                pool_repairs=repairs,
            )
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
                "error_rate": ERROR_RATE,
                "rows": rows,
            },
            fh,
            indent=2,
        )
    print(f"\nfault tolerance ({N_QUERIES} queries, k={K}, {N_SHARDS} shards):")
    for row in rows:
        print(
            f"  {row['scenario']:12s}: {row['wall_s']:6.2f} s  "
            f"complete {row['complete_frac']:.0%}  "
            f"coverage {row['mean_coverage_frac']:.0%}  "
            f"{row['task_retries']} retries  "
            f"{row['partial_responses']} partial"
        )
