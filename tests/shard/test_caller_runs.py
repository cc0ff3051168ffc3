"""The caller-runs rule of the fan-out supervisor.

On an in-process backend, when nothing could preempt a running attempt —
no effective deadline for any query of the batch and no hedging — the
calling thread runs the batch's last first-launch attempt itself.
Whenever a deadline or a hedge could bite, every attempt goes to the
pool, so a stalled shard still expires on budget; and a retry always goes
to the pool, even when the attempt it replaces ran on the caller.
"""

import gc
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.context import SearchStats
from repro.index.gat.index import GATConfig
from repro.shard import FaultPolicy, ShardedGATIndex, ShardedQueryService
from repro.shard.executor import ShardResult, ShardTask
from repro.shard.resilience import ALL_OR_NOTHING, FanoutSupervisor

#: One copy per shard and nobody listening.
UNREPLICATED = dict(
    bind=lambda shard_id, avoid: 0, on_outcome=lambda shard_id, replica, ok: None
)


def make_task(shard_id: int, group: int = 0) -> ShardTask:
    return ShardTask(shard_id=shard_id, query=None, k=1, group=group)


class ThreadLog:
    """A stub shard runner that records which thread ran each attempt."""

    def __init__(self, fail_on_caller: int = 0) -> None:
        self.caller = threading.get_ident()
        self.threads = []
        self._lock = threading.Lock()
        self._fail_on_caller = fail_on_caller

    def __call__(self, task: ShardTask) -> ShardResult:
        here = threading.get_ident()
        with self._lock:
            self.threads.append((task.group, task.shard_id, here))
            if here == self.caller and self._fail_on_caller:
                self._fail_on_caller -= 1
                raise RuntimeError("injected caller-thread failure")
        return ShardResult(
            shard_id=task.shard_id, results=(), stats=SearchStats(), latency_s=0.0
        )

    def on_caller(self):
        return [(g, s) for g, s, t in self.threads if t == self.caller]


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=4) as executor:
        yield executor


def supervisor(pool, runner, policy):
    return FanoutSupervisor(
        submit=lambda task: pool.submit(runner, task),
        policy=policy,
        run_inline=runner,
        **UNREPLICATED,
    )


@pytest.mark.parametrize("policy", [ALL_OR_NOTHING, FaultPolicy()], ids=["none", "default"])
def test_last_first_launch_runs_on_the_caller(pool, policy):
    runner = ThreadLog()
    fanouts = [[make_task(0, group=1), make_task(1, group=1)], [make_task(0, group=2)]]
    outcomes = supervisor(pool, runner, policy).run(fanouts)
    assert all(not o.failures for o in outcomes)
    assert [sorted(o.results) for o in outcomes] == [[0, 1], [0]]
    # Only the batch's last task ran here; the others went to the pool.
    assert runner.on_caller() == [(2, 0)]
    assert len(runner.threads) == 3


def test_without_an_inline_runner_everything_is_submitted(pool):
    runner = ThreadLog()
    sup = FanoutSupervisor(
        submit=lambda task: pool.submit(runner, task), policy=ALL_OR_NOTHING, **UNREPLICATED
    )
    (outcome,) = sup.run([[make_task(0)]])
    assert sorted(outcome.results) == [0]
    assert runner.on_caller() == []


@pytest.mark.parametrize(
    "policy, deadlines",
    [
        (FaultPolicy(deadline_s=30.0), None),
        (FaultPolicy(hedge_after_s=30.0), None),
        (FaultPolicy(), [None, 30.0]),
    ],
    ids=["policy-deadline", "hedge", "request-deadline"],
)
def test_preemptible_fanouts_never_run_inline(pool, policy, deadlines):
    """One query with a deadline makes the whole batch preemptible."""
    runner = ThreadLog()
    outcomes = supervisor(pool, runner, policy).run(
        [[make_task(0, group=1)], [make_task(0, group=2)]], deadlines=deadlines
    )
    assert all(sorted(o.results) == [0] for o in outcomes)
    assert runner.on_caller() == []


def test_inline_failure_is_retried_on_the_pool(pool):
    runner = ThreadLog(fail_on_caller=1)
    (outcome,) = supervisor(pool, runner, FaultPolicy()).run(
        [[make_task(0)]]
    )
    assert sorted(outcome.results) == [0] and not outcome.failures
    assert outcome.retries == 1
    (first, retry) = runner.threads
    assert first[2] == runner.caller  # the first launch ran here and failed
    assert retry[2] != runner.caller  # its retry went to the pool


def test_inline_failure_without_retries_fails_the_shard(pool):
    runner = ThreadLog(fail_on_caller=1)
    (outcome,) = supervisor(pool, runner, ALL_OR_NOTHING).run([[make_task(0)]])
    assert not outcome.results
    assert isinstance(outcome.failures[0], RuntimeError)


def test_stalled_one_shard_query_expires_on_budget(tiny_db):
    """A one-shard service under a deadline: the stalled attempt runs on
    the pool, so the caller gets a partial response on budget."""
    index = ShardedGATIndex.build(tiny_db, n_shards=1, config=GATConfig(depth=4, memory_levels=3))
    query = QueryWorkloadGenerator(tiny_db, WorkloadConfig(n_query_points=2, seed=3)).query()
    release = threading.Event()
    caller = threading.get_ident()
    ran_on = []
    with ShardedQueryService(
        index,
        executor="thread",
        fault_policy=FaultPolicy(deadline_s=0.05, max_retries=0),
        result_cache_size=0,
    ) as service:
        engine = service.placement.banks[0][0]

        def stalled_execute(*args, **kwargs):
            ran_on.append(threading.get_ident())
            release.wait(5.0)
            raise RuntimeError("released")

        engine.execute = stalled_execute
        t0 = time.monotonic()
        response = service.search(query, k=2)
        elapsed = time.monotonic() - t0
        release.set()
    assert not response.complete and response.shards_answered == 0
    assert elapsed < 2.0  # expired on budget, not on the stall
    assert ran_on and caller not in ran_on


def test_a_run_leaves_no_cyclic_garbage():
    """``launch`` and ``handle_failure`` call each other; ``run`` unbinds
    them, so every fan-out's state is freed by reference counting and a
    served query adds nothing for the cycle collector."""
    sup = supervisor(None, ThreadLog(), ALL_OR_NOTHING)
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            (outcome,) = sup.run([[make_task(0)]])
            assert sorted(outcome.results) == [0]
        assert gc.collect() == 0
    finally:
        gc.enable()
