"""Deadline arithmetic must survive wall-clock abuse.

Every deadline in the serving stack — the fan-out supervisor's per-query
budget and the front-end's admission budget — is anchored to
``time.monotonic()``.  These are regression tests pinning that down: a
host whose wall clock is backdated by NTP (or jumps forward hours
per call) must neither spuriously expire in-budget queries nor keep
genuinely stalled ones alive.
"""

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.core.context import SearchStats
from repro.serving.admission import AdmissionController, ServingConfig
from repro.shard.executor import ShardResult, ShardTask
from repro.shard.resilience import DeadlineExceeded, FanoutSupervisor, FaultPolicy


def make_task(shard_id: int) -> ShardTask:
    # The supervisor never looks inside `query`; a stub runner does the
    # answering, so None is fine here.
    return ShardTask(shard_id=shard_id, query=None, k=1)


def answer(task: ShardTask, delay_s: float = 0.0) -> ShardResult:
    if delay_s:
        time.sleep(delay_s)
    return ShardResult(
        shard_id=task.shard_id, results=(), stats=SearchStats(), latency_s=delay_s
    )


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=4) as executor:
        yield executor


@pytest.fixture
def hostile_wall_clock(monkeypatch):
    """``time.time`` starts 10k seconds in the past and leaps forward by
    an hour on every call — both failure modes (backdated and runaway) at
    once.  Monotonic-based code never notices; wall-based deadline math
    would expire everything instantly."""
    jumps = itertools.count()

    def unhinged() -> float:
        return time.monotonic() - 10_000.0 + 3600.0 * next(jumps)

    monkeypatch.setattr(time, "time", unhinged)


#: One copy per shard and nobody listening: what a supervisor test that is
#: not about replicas passes for the binding / breaker pair.
UNREPLICATED = dict(
    bind=lambda shard_id, avoid: 0, on_outcome=lambda shard_id, replica, ok: None
)


class TestSupervisorDeadlines:
    def test_wall_clock_jumps_cannot_expire_inflight_queries(
        self, pool, hostile_wall_clock
    ):
        """Tasks well inside the monotonic budget must all complete even
        while ``time.time`` leaps hours between supervisor iterations."""
        supervisor = FanoutSupervisor(
            submit=lambda t: pool.submit(answer, t, 0.02),
            policy=FaultPolicy(deadline_s=5.0, max_retries=0, hedge_after_s=None),
            **UNREPLICATED,
        )
        (outcome,) = supervisor.run([[make_task(0), make_task(1)]])
        assert not outcome.failures
        assert sorted(outcome.results) == [0, 1]

    def test_genuine_stall_still_expires(self, pool, hostile_wall_clock):
        """The monotonic deadline is still a real deadline: a stalled
        shard resolves as DeadlineExceeded, promptly, clock abuse or not."""
        release = threading.Event()

        def stall(task: ShardTask) -> ShardResult:
            release.wait(5.0)
            return answer(task)

        supervisor = FanoutSupervisor(
            submit=lambda t: pool.submit(stall, t),
            policy=FaultPolicy(deadline_s=0.05, max_retries=0, hedge_after_s=None),
            **UNREPLICATED,
        )
        t0 = time.monotonic()
        (outcome,) = supervisor.run([[make_task(0)]])
        elapsed = time.monotonic() - t0
        release.set()  # let the abandoned attempt drain
        assert not outcome.results
        failure = outcome.failures[0]
        assert isinstance(failure, DeadlineExceeded)
        assert failure.deadline_s == pytest.approx(0.05)
        assert elapsed < 2.0  # expired on budget, not on the stall

    def test_override_tightens_policy_budget(self, pool):
        """A per-query override below ``policy.deadline_s`` wins."""
        release = threading.Event()

        def stall(task: ShardTask) -> ShardResult:
            release.wait(5.0)
            return answer(task)

        supervisor = FanoutSupervisor(
            submit=lambda t: pool.submit(stall, t),
            policy=FaultPolicy(deadline_s=30.0, max_retries=0, hedge_after_s=None),
            **UNREPLICATED,
        )
        (outcome,) = supervisor.run([[make_task(0)]], deadlines=[0.05])
        release.set()
        failure = outcome.failures[0]
        assert isinstance(failure, DeadlineExceeded)
        assert failure.deadline_s == pytest.approx(0.05)

    def test_override_cannot_extend_policy_budget(self, pool):
        """An override larger than the policy budget is clamped down —
        a caller cannot buy more time than the operator configured."""
        release = threading.Event()

        def stall(task: ShardTask) -> ShardResult:
            release.wait(5.0)
            return answer(task)

        supervisor = FanoutSupervisor(
            submit=lambda t: pool.submit(stall, t),
            policy=FaultPolicy(deadline_s=0.05, max_retries=0, hedge_after_s=None),
            **UNREPLICATED,
        )
        (outcome,) = supervisor.run([[make_task(0)]], deadlines=[60.0])
        release.set()
        failure = outcome.failures[0]
        assert isinstance(failure, DeadlineExceeded)
        assert failure.deadline_s == pytest.approx(0.05)

    def test_mixed_per_query_deadlines(self, pool):
        """Overrides are per query: a tight query expires while its
        batchmate (no override) completes under the roomy policy."""
        supervisor = FanoutSupervisor(
            submit=lambda t: pool.submit(answer, t, 0.1),
            policy=FaultPolicy(deadline_s=30.0, max_retries=0, hedge_after_s=None),
            **UNREPLICATED,
        )
        tight, roomy = supervisor.run(
            [[make_task(0)], [make_task(0)]], deadlines=[0.02, None]
        )
        assert isinstance(tight.failures[0], DeadlineExceeded)
        assert not roomy.failures and 0 in roomy.results


class TestAdmissionClock:
    def test_admission_budget_immune_to_wall_clock(self, hostile_wall_clock):
        """The admission controller (default clock: monotonic) must not
        shed or expire on wall-clock jumps: a ticket dispatched right
        away keeps essentially its whole budget."""
        ctrl = AdmissionController(ServingConfig())
        ctrl.ewma.prime(0.01)
        ticket = ctrl.admit(deadline_s=10.0)
        remaining = ctrl.dispatch(ticket)
        assert remaining == pytest.approx(10.0, abs=0.5)
