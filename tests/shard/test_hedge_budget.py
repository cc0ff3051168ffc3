"""Global hedge budget: hedging must cut tails without amplifying load.

``FaultPolicy.hedge_budget`` caps live hedge attempts at a fraction of
all live attempts.  A denied hedge permanently consumes that shard's one
hedge opportunity and is counted — through ``FanoutOutcome``, the
service's ``stats()``, and the Prometheus surface — so operators can see
hedging being throttled under load.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.context import SearchStats
from repro.obs import Observability
from repro.service.service import as_request
from repro.shard import FaultPolicy, ShardedGATIndex, ShardedQueryService
from repro.shard.executor import ShardResult, ShardTask
from repro.shard.resilience import FanoutSupervisor
from repro.storage.disk import SimulatedDisk


def make_task(shard_id: int) -> ShardTask:
    return ShardTask(shard_id=shard_id, query=None, k=1)


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=16) as executor:
        yield executor


#: One copy per shard and nobody listening: what a supervisor test that is
#: not about replicas passes for the binding / breaker pair.
UNREPLICATED = dict(
    bind=lambda shard_id, avoid: 0, on_outcome=lambda shard_id, replica, ok: None
)


def slow_supervisor(pool, policy, calls=None, delay_s=0.2):
    """Every attempt takes ``delay_s`` — long past ``hedge_after_s``, so
    every primary attempt becomes hedge-eligible."""

    def runner(task: ShardTask) -> ShardResult:
        if calls is not None:
            calls.append(task)
        time.sleep(delay_s)
        return ShardResult(
            shard_id=task.shard_id, results=(), stats=SearchStats(), latency_s=delay_s
        )

    return FanoutSupervisor(
        submit=lambda t: pool.submit(runner, t), policy=policy, **UNREPLICATED
    )


def hedge_policy(budget):
    # hedge_min_samples high enough that the fixed delay (not the
    # latency-tracker quantile) always decides when hedges fire.
    return FaultPolicy(
        max_retries=0,
        hedge_after_s=0.02,
        hedge_min_samples=10_000,
        hedge_budget=budget,
    )


class TestSupervisorBudget:
    def test_zero_budget_denies_every_hedge(self, pool):
        calls = []
        supervisor = slow_supervisor(pool, hedge_policy(0.0), calls)
        outcomes = supervisor.run([[make_task(0), make_task(1)], [make_task(0)]])
        assert sum(o.hedges for o in outcomes) == 0
        assert sum(o.hedges_denied for o in outcomes) == 3
        # Denied means denied: only the three primary attempts ran, and
        # every query still resolved fully.
        assert len(calls) == 3
        for outcome in outcomes:
            assert not outcome.failures

    def test_none_budget_leaves_hedging_unbounded(self, pool):
        calls = []
        supervisor = slow_supervisor(pool, hedge_policy(None), calls)
        outcomes = supervisor.run([[make_task(0), make_task(1)], [make_task(0)]])
        assert sum(o.hedges for o in outcomes) == 3
        assert sum(o.hedges_denied for o in outcomes) == 0
        assert len(calls) == 6  # 3 primaries + 3 hedges

    def test_fractional_budget_caps_live_hedges(self, pool):
        """With budget 0.5 and four slow primaries, hedges launch until
        live hedges would exceed half the live attempts: some fire, at
        least one is denied, and every opportunity is consumed exactly
        once."""
        supervisor = slow_supervisor(pool, hedge_policy(0.5))
        (outcome,) = supervisor.run([[make_task(i) for i in range(4)]])
        assert outcome.hedges + outcome.hedges_denied == 4
        assert outcome.hedges >= 1
        assert outcome.hedges_denied >= 1
        assert not outcome.failures

    def test_denied_hedge_does_not_busy_spin(self, pool):
        """A denied hedge leaves the wait set — the supervisor must not
        spin re-denying it every loop iteration (the counter would race
        upward)."""
        supervisor = slow_supervisor(pool, hedge_policy(0.0), delay_s=0.3)
        (outcome,) = supervisor.run([[make_task(0)]])
        assert outcome.hedges_denied == 1  # exactly once, not thousands

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(hedge_budget=-0.1)


class TestServiceSurface:
    def test_denied_hedges_reach_stats_and_metrics(self, tiny_db):
        """End to end through the sharded service: a zero hedge budget
        over a slow disk denies hedges, and the denials surface in
        ``stats()`` and the Prometheus text."""
        obs = Observability.disabled()
        index = ShardedGATIndex.build(
            tiny_db,
            n_shards=2,
            disk_factory=lambda: SimulatedDisk(read_latency_s=0.002),
        )
        policy = FaultPolicy(
            max_retries=0,
            hedge_after_s=0.001,
            hedge_min_samples=10_000,
            hedge_budget=0.0,
        )
        with ShardedQueryService(
            index,
            executor="thread",
            fault_policy=policy,
            result_cache_size=0,
            obs=obs,
        ) as service:
            generator = QueryWorkloadGenerator(tiny_db, WorkloadConfig(seed=5))
            queries = generator.queries(3)
            for query in queries:
                response = service.search(as_request(query, k=3))
                assert response.complete
            stats = service.stats()
            assert stats.task_hedges == 0
            assert stats.task_hedges_denied >= len(queries)
            snap = obs.metrics_snapshot()
            assert snap["repro_task_hedges_denied_total"] == stats.task_hedges_denied
            assert "repro_task_hedges_denied_total" in obs.prometheus()
            service.reset_stats()
            assert service.stats().task_hedges_denied == 0
