"""Resource hygiene on the refusal paths.

A burst that sheds or rejects most of the offered load must leave the
stack exactly as it found it: admission permits restored and
process-pool threshold slots back in the free list.  A single
leaked unit per refusal would wedge the service within minutes of a real
overload.
"""

import time

from repro.core.engine import EngineConfig
from repro.storage.disk import SimulatedDisk
from repro.serving import (
    ServingConfig,
    ServingFrontend,
    SquareWaveArrivals,
    run_open_loop,
)
from repro.shard import FaultPolicy, ShardedGATIndex, ShardedQueryService
from repro.shard.executor import ProcessShardExecutor

#: The simulated disk's sleep *is* the service time: with the APL cache
#: off (:data:`UNCACHED`) every request pays its 7-36 counted APL reads
#: (both shards together, each shard sleeping through its own) however
#: warm the stack and however fast the engine, so a request takes ~50 ms
#: — ~10 ms of it CPU — and the burst below overloads the stack by the
#: same factor whatever a later change does to scoring or retrieval
#: speed.  (Sized on a warm cache, the burst stopped shedding as soon as
#: the 8 distinct queries had been seen once: ~9 ms per request.)
DISK_LATENCY_S = 0.004
UNCACHED = EngineConfig(apl_cache_size=0)


def shedding_burst(frontend, queries, deadline_s):
    """~160 arrivals in 0.8s against a backend that cannot keep up."""
    frontend.prime(0.02)  # shed against a real estimate from arrival #1
    arrivals = SquareWaveArrivals(40.0, 360.0, period_s=0.4, seed=9)
    return run_open_loop(
        frontend,
        queries,
        arrivals,
        duration_s=0.8,
        slo_s=deadline_s,
        deadline_s=deadline_s,
        k=3,
    )


def stragglers_drained(all_back, timeout_s=10.0):
    """Deadline-abandoned attempts finish in their pool workers after the
    response has gone out; what they hold (a share of a threshold slot)
    comes back when they do.  Poll *all_back* until it
    holds or *timeout_s* passes, and return its final verdict."""
    give_up = time.monotonic() + timeout_s
    while not all_back() and time.monotonic() < give_up:
        time.sleep(0.01)
    return all_back()


def assert_outcomes_partition(report, stats):
    assert stats.submitted == report.offered
    assert (
        report.completed
        + report.rejected
        + report.shed
        + report.expired
        + report.failed
        == report.offered
    )
    assert report.failed == 0


def test_thread_replica_burst_releases_leases_and_permits(tiny_db, workload_queries):
    """Replicated thread backend: shed >50% of a burst, then audit every
    resource pool the stack leases from."""
    index = ShardedGATIndex.build(
        tiny_db,
        n_shards=2,
        disk_factory=lambda: SimulatedDisk(read_latency_s=DISK_LATENCY_S),
    )
    config = ServingConfig(
        queue_capacity=8, max_concurrency=2, shed_headroom=1.0
    )
    with ShardedQueryService(
        index,
        engine_config=UNCACHED,
        executor="thread",
        n_replicas=2,
        fault_policy=FaultPolicy(),
        result_cache_size=0,
    ) as service:
        with ServingFrontend(service, config) as frontend:
            # ~3x the ~50ms service time: requests complete, but the
            # wait estimate sheds once ~5 are queued (before the queue
            # even fills).
            report = shedding_burst(frontend, workload_queries, deadline_s=0.15)
            stats = frontend.stats()
            # The burst genuinely overloaded: most of the offered load was
            # turned away, yet some requests were served.
            assert (report.shed + report.rejected) / report.offered > 0.5
            assert report.shed > 0
            assert report.completed > 0
            assert_outcomes_partition(report, stats)
            # Admission permits: queue empty, semaphore fully restored.
            assert frontend.admission.queue_depth == 0
            assert frontend._sem is not None
            assert frontend._sem._value == config.max_concurrency


def test_process_backend_burst_returns_threshold_slots(tiny_db, workload_queries):
    """Process fleet: after a shedding burst every mp.Value threshold
    slot is back in the free list (a leaked slot would eventually force
    the whole fleet to run unpruned)."""
    # No sleeping disk here, and none needed: the refusals this test wants
    # come from the cold pool, not from the service time — the first ~70
    # arrivals land within 0.2s on workers that are still spawning, against
    # a queue of 8 — so no engine speed-up can make them go away, and a
    # faster engine only completes more of the rest.
    index = ShardedGATIndex.build(tiny_db, n_shards=2)
    config = ServingConfig(queue_capacity=8, max_concurrency=2)
    with ShardedQueryService(
        index,
        executor="process",
        fault_policy=FaultPolicy(),
        result_cache_size=0,
    ) as service:
        with ServingFrontend(service, config) as frontend:
            # Roomier deadline (cold pool warmup): refusals here are
            # mostly queue-full rejections, which is fine — the test is
            # about the slots, not the shed ratio.
            report = shedding_burst(frontend, workload_queries, deadline_s=0.4)
            stats = frontend.stats()
            assert report.completed > 0
            assert report.rejected + report.shed > 0
            assert_outcomes_partition(report, stats)
            assert frontend.admission.queue_depth == 0
            assert frontend._sem._value == config.max_concurrency
            executor = service._executor
            assert isinstance(executor, ProcessShardExecutor)
            assert stragglers_drained(
                lambda: sorted(executor._free_slots)
                == list(range(ProcessShardExecutor.N_SLOTS))
            )
