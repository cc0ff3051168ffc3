"""Supervised fan-out under injected faults: the serving-tier contract.

Parity when healthy, failover on errors, graceful degradation on dead
shards and missed deadlines, hedging on stragglers (and never on an
attempt that already finished), the breaker contract on the thread
backend — and the leak regressions: every failure path must hand back
its threshold slots.
"""

import copy
import math

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.context import SearchStats
from repro.core.engine import EngineConfig, GATSearchEngine
from repro.core.results import TopKCollector
from repro.faults import FaultInjector, FaultRule, InjectedDiskError
from repro.index.gat.index import GATConfig, GATIndex
from repro.shard import (
    FaultPolicy,
    ShardedGATIndex,
    ShardedQueryService,
    ShardTaskError,
)
from repro.storage.disk import SimulatedDisk

CONFIG = GATConfig(depth=4, memory_levels=3)
K = 5
N_SHARDS = 2


@pytest.fixture()
def db(tiny_db):
    return copy.deepcopy(tiny_db)


@pytest.fixture()
def queries(db):
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=17)
    )
    return gen.queries(4)


def _build(db, disk_factory=None):
    return ShardedGATIndex.build(
        db, n_shards=N_SHARDS, config=CONFIG, disk_factory=disk_factory
    )


def _shard_down_build(db, rule, seed=7):
    """A sharded index whose *first-built* shard wears the faulty disk."""
    injector = FaultInjector(rule, seed=seed)
    disks = iter(
        [SimulatedDisk(fault_injector=injector)]
        + [SimulatedDisk() for _ in range(N_SHARDS - 1)]
    )
    return _build(db, disk_factory=lambda: next(disks)), injector


def _rankings(responses):
    return [
        [(r.trajectory_id, r.distance) for r in resp.results] for resp in responses
    ]


def _truth(db, queries):
    sharded = _build(db)
    with ShardedQueryService(
        sharded, executor="serial", result_cache_size=0
    ) as service:
        return _rankings(service.search_many(queries, k=K))


# ----------------------------------------------------------------------
# Parity: replicas, backends, and policies must be invisible when nothing
# fails
# ----------------------------------------------------------------------
SCALAR = EngineConfig(kernel="scalar")


def _scalar_oracle(db, sharded, queries):
    """No service code involved.  Rankings: the scalar engine over one
    single index of the whole database.  Pruning counters: a serial
    fan-out replayed by hand — one scalar engine per shard index, nearest
    shard first, pruning against a plain shared collector."""
    single = GATSearchEngine(GATIndex.build(db, CONFIG), config=SCALAR)
    rankings = [
        [(r.trajectory_id, r.distance) for r in single.execute(query, K).ranked]
        for query in queries
    ]
    engines = [GATSearchEngine(shard, config=SCALAR) for shard in sharded.shards]
    centroids = sharded.shard_centroids
    counters = []
    for query in queries:
        qx = sum(p.x for p in query) / len(query)
        qy = sum(p.y for p in query) / len(query)
        nearest_first = sorted(
            range(N_SHARDS),
            key=lambda sid: math.hypot(centroids[sid][0] - qx, centroids[sid][1] - qy),
        )
        merged = TopKCollector(K)
        stats = SearchStats.merged(
            [
                engines[sid]
                .execute(
                    query,
                    K,
                    external_threshold=merged.kth_distance,
                    result_sink=merged.offer,
                )
                .stats
                for sid in nearest_first
            ]
        )
        counters.append((stats.tas_pruned, stats.apl_pruned, stats.mib_pruned))
    return rankings, counters


@pytest.mark.parametrize(
    "fault_policy",
    [None, FaultPolicy(deadline_s=60.0, max_retries=2)],
    ids=["no-policy", "policy"],
)
@pytest.mark.parametrize("n_replicas", [1, 2])
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_supervised_parity_with_no_faults(
    db, queries, executor, n_replicas, fault_policy
):
    sharded = _build(db)
    rankings, counters = _scalar_oracle(db, sharded, queries)
    with ShardedQueryService(
        sharded,
        engine_config=SCALAR,
        executor=executor,
        n_replicas=n_replicas,
        result_cache_size=0,
        fault_policy=fault_policy,
    ) as service:
        responses = service.search_many(queries, k=K)
        stats = service.stats()
        # No threshold slot stays leased after the batch.
        if executor == "process":
            pool = service._executor
            assert sorted(pool._free_slots) == list(range(pool.N_SLOTS))
    assert _rankings(responses) == rankings
    if executor == "serial":
        assert [
            (r.stats.tas_pruned, r.stats.apl_pruned, r.stats.mib_pruned)
            for r in responses
        ] == counters
    assert all(r.complete for r in responses)
    assert all(
        r.shards_answered == N_SHARDS and r.shards_total == N_SHARDS
        for r in responses
    )
    assert stats.task_retries == 0
    assert stats.task_hedges == 0
    assert stats.partial_responses == 0


# ----------------------------------------------------------------------
# Retries
# ----------------------------------------------------------------------
def test_transient_error_is_retried_to_full_coverage(db, queries):
    """max_errors=1: exactly the first read fails, the retry succeeds —
    one counted retry, exact rankings, full coverage."""
    truth = _truth(db, queries)
    injector = FaultInjector(FaultRule(error_rate=1.0, max_errors=1), seed=0)
    sharded = _build(
        db, disk_factory=lambda: SimulatedDisk(fault_injector=injector)
    )
    with ShardedQueryService(
        sharded,
        executor="thread",
        result_cache_size=0,
        fault_policy=FaultPolicy(max_retries=2),
    ) as service:
        responses = service.search_many(queries, k=K)
        stats = service.stats()
    assert _rankings(responses) == truth
    assert all(r.complete for r in responses)
    assert stats.task_retries == 1
    assert injector.errors_injected == 1


def test_dead_shard_degrades_to_partial_coverage(db, queries):
    sharded, injector = _shard_down_build(db, FaultRule(error_rate=1.0))
    with ShardedQueryService(
        sharded,
        executor="thread",
        result_cache_size=0,
        fault_policy=FaultPolicy(max_retries=1, allow_partial=True),
    ) as service:
        responses = service.search_many(queries, k=K)
        stats = service.stats()
    assert all(not r.complete for r in responses)
    assert all(
        r.shards_answered == N_SHARDS - 1 and r.shards_total == N_SHARDS
        for r in responses
    )
    assert stats.partial_responses == len(queries)
    assert injector.errors_injected >= len(queries)


def test_allow_partial_false_raises_contextual_error(db, queries):
    sharded, _ = _shard_down_build(db, FaultRule(error_rate=1.0))
    with ShardedQueryService(
        sharded,
        executor="thread",
        result_cache_size=0,
        fault_policy=FaultPolicy(max_retries=1, allow_partial=False),
    ) as service:
        with pytest.raises(ShardTaskError) as excinfo:
            service.search(queries[0], k=K)
    err = excinfo.value
    assert err.shard_id in range(N_SHARDS)
    assert err.replica == 0
    assert isinstance(err.original, InjectedDiskError)
    assert f"shard {err.shard_id}" in str(err)
    assert f"k={K}" in str(err)


def test_partial_responses_are_never_cached(db, queries):
    """A degraded answer must not poison the result cache: once the disk
    heals, the same request gets a fresh, complete response."""
    sharded, injector = _shard_down_build(db, FaultRule(error_rate=1.0))
    with ShardedQueryService(
        sharded,
        executor="thread",
        result_cache_size=32,
        fault_policy=FaultPolicy(max_retries=1, allow_partial=True),
    ) as service:
        degraded = service.search(queries[0], k=K)
        assert not degraded.complete
        injector.enabled = False
        healed = service.search(queries[0], k=K)
        assert healed.complete
        assert healed.shards_answered == N_SHARDS
        # And *complete* responses do cache: the third ask is a hit.
        again = service.search(queries[0], k=K)
        assert again.complete
        assert service.stats().result_cache_hits >= 1


# ----------------------------------------------------------------------
# Deadlines (stalled shard)
# ----------------------------------------------------------------------
def test_deadline_abandons_stalled_shard(db, queries):
    sharded, injector = _shard_down_build(db, FaultRule(stall_rate=1.0))
    try:
        with ShardedQueryService(
            sharded,
            executor="thread",
            result_cache_size=0,
            fault_policy=FaultPolicy(
                deadline_s=0.25, max_retries=0, allow_partial=True
            ),
        ) as service:
            response = service.search(queries[0], k=K)
            # Drain the abandoned attempt before the pool shuts down.
            injector.lift_stalls()
        assert not response.complete
        assert response.shards_answered == N_SHARDS - 1
        assert response.shards_total == N_SHARDS
        assert injector.stalls_injected >= 1
    finally:
        injector.lift_stalls()


# ----------------------------------------------------------------------
# Hedging + replica failover
# ----------------------------------------------------------------------
def test_hedge_fires_on_slow_replica_and_stays_exact(db, queries):
    truth = _truth(db, queries)
    sharded = _build(
        db, disk_factory=lambda: SimulatedDisk(read_latency_s=0.02)
    )
    with ShardedQueryService(
        sharded,
        executor="thread",
        n_replicas=2,
        result_cache_size=0,
        replica_disk_factory=lambda: SimulatedDisk(),
        fault_policy=FaultPolicy(max_retries=2, hedge_after_s=0.005),
    ) as service:
        responses = service.search_many(queries, k=K)
        stats = service.stats()
    assert _rankings(responses) == truth
    assert all(r.complete for r in responses)
    assert stats.task_hedges >= 1


def test_failover_to_clean_replicas_reaches_full_coverage(db, queries):
    """Every primary disk errors constantly; the replica bank is clean.
    Retries are re-routed off the failed copy, so coverage must be full
    and rankings exact."""
    truth = _truth(db, queries)
    injector = FaultInjector(FaultRule(error_rate=1.0), seed=0)
    sharded = _build(
        db, disk_factory=lambda: SimulatedDisk(fault_injector=injector)
    )
    with ShardedQueryService(
        sharded,
        executor="thread",
        n_replicas=2,
        result_cache_size=0,
        replica_disk_factory=lambda: SimulatedDisk(),
        fault_policy=FaultPolicy(max_retries=4),
    ) as service:
        responses = service.search_many(queries, k=K)
    assert _rankings(responses) == truth
    assert all(r.complete for r in responses)


def test_total_failure_degrades_to_zero_coverage(db, queries):
    """Both copies of every shard error on every read: the batch comes
    back all-partial (coverage zero), and nothing the failed and retried
    attempts registered outlives it."""
    injector = FaultInjector(FaultRule(error_rate=1.0), seed=0)
    replica_injector = FaultInjector(FaultRule(error_rate=1.0), seed=1)
    sharded = _build(
        db, disk_factory=lambda: SimulatedDisk(fault_injector=injector)
    )
    with ShardedQueryService(
        sharded,
        executor="thread",
        n_replicas=2,
        result_cache_size=0,
        replica_disk_factory=lambda: SimulatedDisk(
            fault_injector=replica_injector
        ),
        fault_policy=FaultPolicy(max_retries=1, allow_partial=True),
    ) as service:
        responses = service.search_many(queries, k=K)
        assert all(r.shards_answered == 0 for r in responses)
    # Each retry moved to the sibling: both copies saw every shard's reads.
    assert injector.errors_injected > 0 and replica_injector.errors_injected > 0


def _scripted_supervisor(policy, run_attempt):
    """A supervisor over a real 1-shard × 2-replica router and a scripted
    ``submit``: *run_attempt(task, future)* settles (or leaves pending)
    each attempt's future.  Returns ``(supervisor, launched_tasks)``."""
    from concurrent.futures import Future

    from repro.shard import BreakerConfig, FanoutSupervisor, ReplicaRouter

    router = ReplicaRouter(1, 2, breaker=BreakerConfig(failure_threshold=100))
    launched = []

    def submit(task):
        launched.append(task)
        future = Future()
        run_attempt(task, future)
        return future

    supervisor = FanoutSupervisor(
        submit,
        policy,
        bind=router.route,
        on_outcome=lambda shard_id, replica, ok: None,
    )
    return supervisor, launched


def _one_shard_queries(n):
    from repro.core.query import Query, QueryPoint
    from repro.shard import ShardTask

    query = Query([QueryPoint(0.0, 0.0, frozenset({1}))])
    return [[ShardTask(0, query, k=1, group=group)] for group in range(1, n + 1)]


_ANSWER = None  # a ShardResult stand-in: the supervisor never looks inside


def test_retry_never_lands_on_the_copy_that_just_failed():
    """Two queries interleave on one shard's cursor: q1 → copy 0, q2 →
    copy 1, and the cursor is back on 0 when q1's attempt there fails.
    Plain round-robin would retry on 0 again; the retry names the copy it
    replaces and lands on 1."""

    def run_attempt(task, future):
        if task.replica == 0:
            future.set_exception(InjectedDiskError("copy 0 is down"))
        else:
            future.set_result(_ANSWER)

    supervisor, launched = _scripted_supervisor(
        FaultPolicy(max_retries=1), run_attempt
    )
    first, second = supervisor.run(_one_shard_queries(2))
    assert [(t.group, t.replica, t.attempt) for t in launched] == [
        (1, 0, 0),
        (2, 1, 0),
        (1, 1, 1),
    ]
    assert not first.failures and not second.failures
    assert first.retries == 1


def test_hedge_never_lands_on_the_copy_it_backs_up():
    """Same interleaving for hedges: both primaries straggle, and each
    backup must run on the *other* copy than the attempt it hedges."""
    pending = []

    def run_attempt(task, future):
        if task.hedge:
            future.set_result(_ANSWER)
        else:
            pending.append(future)

    supervisor, launched = _scripted_supervisor(
        FaultPolicy(max_retries=0, hedge_after_s=0.01), run_attempt
    )
    outcomes = supervisor.run(_one_shard_queries(2))
    for future in pending:  # the hedge losers finish late
        future.set_result(_ANSWER)
    assert all(o.hedges == 1 and 0 in o.results for o in outcomes)
    primary = {t.group: t.replica for t in launched if not t.hedge}
    backup = {t.group: t.replica for t in launched if t.hedge}
    assert primary == {1: 0, 2: 1}
    assert backup == {1: 1, 2: 0}


def test_finished_attempts_are_never_hedged():
    """An attempt whose future is already done when the hedge sweep runs
    has nothing left to back up: every attempt here runs 5 ms and is
    done before the sweep, ten times the hedge delay — one run per
    shard, no hedge."""
    import time

    def run_attempt(task, future):
        time.sleep(0.005)
        future.set_result(_ANSWER)

    supervisor, launched = _scripted_supervisor(
        FaultPolicy(max_retries=0, hedge_after_s=0.0005), run_attempt
    )
    outcomes = supervisor.run(_one_shard_queries(3))
    assert [o.hedges for o in outcomes] == [0, 0, 0]
    assert all(0 in o.results for o in outcomes)
    assert [(t.group, t.hedge) for t in launched] == [(1, False), (2, False), (3, False)]


def test_serial_backend_never_hedges(db, queries):
    """No pool, nothing to back up: the caller runs each attempt to the
    end, so a hedge policy leaves the serial backend's answers and work
    as they are."""
    sharded = _build(db)
    with ShardedQueryService(sharded, executor="serial", result_cache_size=0) as base:
        expected = base.search_many(queries, k=K)
    with ShardedQueryService(
        sharded,
        executor="serial",
        result_cache_size=0,
        fault_policy=FaultPolicy(hedge_after_s=0.0005),
    ) as service:
        responses = service.search_many(queries, k=K)
        assert service.stats().task_hedges == 0
    assert _rankings(responses) == _rankings(expected)
    pruning = lambda r: (r.stats.tas_pruned, r.stats.apl_pruned, r.stats.mib_pruned)
    assert list(map(pruning, responses)) == list(map(pruning, expected))


# ----------------------------------------------------------------------
# The breaker contract (shard/resilience.py), on the thread backend
# ----------------------------------------------------------------------
def _spy_on_outcomes(service):
    """Record every (shard, replica, ok) the supervisor reports, still
    feeding the real breaker."""
    seen = []
    real = service.placement.router.record

    def spying(shard_id, replica, ok):
        seen.append((shard_id, replica, ok))
        real(shard_id, replica, ok)

    service.placement.router.record = spying
    return seen


def test_each_attempt_reports_once_and_before_search_returns(db, queries):
    """Primaries fail, siblings are clean, one failure opens a breaker:
    every attempt — the failed first launch and its retry — reaches the
    breaker exactly once, and the ejection is visible the moment
    ``search`` returns."""
    from repro.shard import BreakerConfig
    from repro.shard.replicas import BREAKER_CLOSED, BREAKER_OPEN

    injector = FaultInjector(FaultRule(error_rate=1.0), seed=0)
    sharded = _build(
        db, disk_factory=lambda: SimulatedDisk(fault_injector=injector)
    )
    with ShardedQueryService(
        sharded,
        executor="thread",
        n_replicas=2,
        result_cache_size=0,
        replica_disk_factory=SimulatedDisk,
        breaker=BreakerConfig(failure_threshold=1, probation_after_s=60.0),
        fault_policy=FaultPolicy(),
    ) as service:
        seen = _spy_on_outcomes(service)
        response = service.search(queries[0], k=K)
        assert response.complete
        assert sorted(seen) == [
            (shard_id, replica, replica == 1)
            for shard_id in range(N_SHARDS)
            for replica in (0, 1)
        ]
        router = service.placement.router
        for shard_id in range(N_SHARDS):
            assert router.replica_state(shard_id, 0) == BREAKER_OPEN
            assert router.replica_state(shard_id, 1) == BREAKER_CLOSED
        assert service.stats().breaker_ejections == N_SHARDS


def test_abandoned_attempt_still_reports_when_it_finishes(db, queries):
    """An attempt the supervisor stopped waiting for at the deadline is
    not reported by ``search`` — and is, exactly once, when it ends."""
    sharded, injector = _shard_down_build(db, FaultRule(stall_rate=1.0))
    try:
        with ShardedQueryService(
            sharded,
            executor="thread",
            result_cache_size=0,
            fault_policy=FaultPolicy(
                deadline_s=0.25, max_retries=0, allow_partial=True
            ),
        ) as service:
            seen = _spy_on_outcomes(service)
            response = service.search(queries[0], k=K)
            (stalled,) = set(range(N_SHARDS)) - {s for s, _, _ in seen}
            assert response.shards_answered == N_SHARDS - 1
            assert len(seen) == N_SHARDS - 1
            # Resumes normally; close() waits for it, callback included.
            injector.lift_stalls()
        assert sorted(seen) == [(shard_id, 0, True) for shard_id in range(N_SHARDS)]
        assert seen[-1][0] == stalled
    finally:
        injector.lift_stalls()


def test_broken_pool_is_never_a_replica_failure():
    """A future that dies with BrokenProcessPool is a fleet event: healed
    around when a healer is given, failed otherwise — and in neither case
    held against the copy it ran on."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    from repro.core.query import Query, QueryPoint
    from repro.shard import FanoutSupervisor, ShardResult, ShardTask

    query = Query([QueryPoint(0.0, 0.0, frozenset({1}))])
    reported = []
    futures = []

    def submit(task):
        future = Future()
        if not futures:
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(ShardResult(0, (), SearchStats(), 0.0))
        futures.append(future)
        return future

    supervisor = FanoutSupervisor(
        submit,
        FaultPolicy(max_retries=0),
        bind=lambda shard_id, avoid: 0,
        on_outcome=lambda *outcome: reported.append(outcome),
        heal=lambda: True,
    )
    (outcome,) = supervisor.run([[ShardTask(0, query, k=1)]])
    assert sorted(outcome.results) == [0] and outcome.retries == 1
    assert reported == [(0, 0, True)]  # the resubmission; never the break


# ----------------------------------------------------------------------
# Leak regressions on the process backend
# ----------------------------------------------------------------------
def test_failed_batch_build_releases_threshold_slots(db, queries, monkeypatch):
    """A mid-batch failure while *building* fan-outs used to strand the
    earlier queries' threshold slots; every acquired slot must be free
    again after the raise.  (The pool is lazy, so nothing ever spawns.)"""
    sharded = _build(db)
    with ShardedQueryService(
        sharded, executor="process", result_cache_size=0
    ) as service:
        executor = service._executor
        real_fanout_tasks = service._fanout_tasks
        calls = {"n": 0}

        def exploding_fanout_tasks(request, group, threshold_slot=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom while building fan-out")
            return real_fanout_tasks(request, group, threshold_slot)

        monkeypatch.setattr(service, "_fanout_tasks", exploding_fanout_tasks)
        with pytest.raises(RuntimeError, match="boom"):
            service.search_many(queries[:2], k=K)
        assert sorted(executor._free_slots) == list(range(executor.N_SLOTS))
