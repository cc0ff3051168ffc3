"""The sharded service's fan-out: one supervised loop for every backend.

Each query's shard tasks are submitted individually (every backend
exposes ``submit``); a single event loop then waits on whatever is in
flight and reacts to time, under a :class:`FaultPolicy` (a service built
without one runs the same loop under :data:`ALL_OR_NOTHING` — no
retries, no hedges, any shard failure raises):

* **deadline** — a per-query wall budget (:attr:`FaultPolicy.deadline_s`).
  When it expires, the query's unresolved shards are abandoned (their
  attempts keep running in the pool; nothing waits on them) and the query
  resolves with whatever coverage it has.
* **retries** — a failed attempt is retried after exponential backoff
  (:data:`_RETRY_BACKOFF_S`, 10 ms, doubling per failure), at most
  :attr:`FaultPolicy.max_retries` times per shard, never past the
  deadline.  Each retry is *re-routed* — bound to a fresh copy that is
  not the one that just failed (while another is routable), which is
  what turns a retry into failover.
* **hedges** — when an attempt has been running longer than the fleet's
  observed p95 (:data:`_HEDGE_QUANTILE` of a
  :class:`~repro.obs.metrics.LatencyWindow` of shard-task latencies; the
  fixed :attr:`FaultPolicy.hedge_after_s` until it holds
  :data:`_HEDGE_MIN_SAMPLES` samples), a single backup attempt is
  launched on a sibling of the straggler's copy.  First completion wins;
  the loser's result is discarded (result offers dedup by trajectory id,
  so a straggler finishing later is harmless).  One backup per shard and
  never a hedge of a hedge bound what hedging adds.

Exactness: retried and hedged attempts run the *same* frozen task against
byte-identical replicas, and the shared top-k collector dedups offers by
trajectory id — supervision moves latency and availability, never
rankings.  When every shard answers, the merged result is byte-identical
to the single-index engine's.

A dead worker process is a *fleet* event, not a task failure: attempts
that die with :class:`BrokenProcessPool` are healed around and
resubmitted without spending the retry budget (bounded per fan-out by
:attr:`~repro.shard.executor.ProcessShardExecutor.MAX_POOL_REPAIRS`), so
a process fleet keeps answering through a SIGKILL even under
:data:`ALL_OR_NOTHING`.

Replica binding and the breaker contract.  Every attempt — first launch,
retry, hedge, on every backend — is bound to a replica by the supervisor
as it launches it (``bind``), and the supervisor is the only reporter of
outcomes (``on_outcome``):

* each attempt's outcome is reported **exactly once**;
* outcomes of attempts the supervisor waited for are reported before
  :meth:`FanoutSupervisor.run` returns, so the breaker state a caller
  reads after ``search`` already reflects them;
* an attempt the supervisor stopped waiting for (abandoned at the
  deadline, a hedge race's loser) still reports — from its future's done
  callback, whenever it finishes;
* a :class:`BrokenProcessPool` is a fleet event and never a replica
  failure: it is healed around and not reported.

The supervisor is deliberately executor-agnostic: it sees only
``submit(task) -> Future``, the ``bind`` / ``on_outcome`` pair, and an
optional ``heal`` to retire a broken process pool.  The serial backend's
inline futures degenerate it to a plain loop — correct, but nothing can
preempt an inline task, so policies only bite under a concurrent
backend.  **Caller runs:** given the in-process runner (``run_inline``)
and nothing that could preempt a running attempt — no effective deadline
in the batch, no hedging; :data:`ALL_OR_NOTHING` and ``FaultPolicy()``
qualify — the calling thread runs the batch's last first launch itself
instead of idling in ``wait``.  Retries still go to the pool.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import LatencyWindow
from repro.shard.executor import ProcessShardExecutor, ShardResult, ShardTask

#: Hedge delays below this would fire backup attempts faster than the pool
#: can drain them on fast workloads; the quantile is floored here.
_MIN_HEDGE_DELAY_S = 1e-3
#: The shard-task latency quantile a straggler must outlast to be hedged,
#: and the samples the window needs before it replaces ``hedge_after_s``.
_HEDGE_QUANTILE = 0.95
_HEDGE_MIN_SAMPLES = 20
#: Backoff before a shard's first retry; it doubles per further failure.
_RETRY_BACKOFF_S = 0.01


class DeadlineExceeded(RuntimeError):
    """A shard had not answered when its query's deadline budget expired."""

    def __init__(self, task: ShardTask, deadline_s: float) -> None:
        self.task = task
        self.shard_id = task.shard_id
        self.deadline_s = deadline_s
        super().__init__(
            f"shard {task.shard_id} missed the {deadline_s:.3f}s query "
            f"deadline (group {task.group})"
        )


@dataclass(frozen=True)
class FaultPolicy:
    """Per-query fault-tolerance budget for the sharded services.

    ``deadline_s=None`` disables the deadline, ``hedge_after_s=None``
    disables hedging; ``max_retries=0`` disables retries.  The default
    policy retries transient failures but neither deadlines nor hedges —
    turning it on changes availability, never rankings.
    ``allow_partial=False`` turns an unanswered shard into a raised
    :class:`~repro.shard.executor.ShardTaskError` instead of a partial
    response.  The retry backoff and the learned hedge delay's quantile
    and warm-up are module constants (:data:`_RETRY_BACKOFF_S`,
    :data:`_HEDGE_QUANTILE`, :data:`_HEDGE_MIN_SAMPLES`).
    """

    deadline_s: Optional[float] = None
    max_retries: int = 2
    hedge_after_s: Optional[float] = None
    allow_partial: bool = True

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError("hedge_after_s must be > 0 (or None)")


#: What a service built with ``fault_policy=None`` runs under: no retries,
#: no hedges, and any unanswered shard raises.  (Such a service also
#: leaves ``QueryRequest.deadline_s`` advisory — it finishes late rather
#: than dropping a shard.)
ALL_OR_NOTHING = FaultPolicy(max_retries=0, allow_partial=False)


@dataclass
class FanoutOutcome:
    """One query's supervised fan-out: per-shard results for the shards
    that answered, per-shard terminal errors for the ones that did not,
    plus the retry/hedge counts the service surfaces in its stats."""

    results: Dict[int, ShardResult] = field(default_factory=dict)
    failures: Dict[int, BaseException] = field(default_factory=dict)
    retries: int = 0
    hedges: int = 0
    #: Attempts still running when the query resolved — abandoned at the
    #: deadline, or a hedge race's loser.  Nobody reads their results,
    #: but they keep writing to whatever the query leased for its tasks
    #: (the process backend's threshold slot), so the lessor must wait
    #: for them before reusing it.  Each still reports its outcome to the
    #: breaker when it finishes.
    in_flight: List[Future] = field(default_factory=list)


@dataclass
class _ShardState:
    """Supervision state of one (query, shard) pair."""

    qi: int
    task: ShardTask
    resolved: bool = False
    failures: int = 0  # dead attempts so far: the next attempt's ordinal
    charged: int = 0  # of those, the ones that spent retry budget
    live: int = 0  # attempts currently in flight
    hedged: bool = False
    retry_due: Optional[float] = None
    last_error: Optional[BaseException] = None
    failed_on: Optional[int] = None  # replica of the last dead attempt


@dataclass
class _Attempt:
    state: _ShardState
    task: ShardTask  # as submitted (replica, attempt ordinal, hedge flag)
    started: float
    hedge: bool


class FanoutSupervisor:
    """Drives one batch of per-query fan-outs under a :class:`FaultPolicy`.

    Parameters
    ----------
    submit:
        ``task -> Future`` on the serving executor.
    policy / tracker:
        The budget and the shared latency window (owned by the service so
        the hedge quantile learns across batches).
    bind:
        ``(shard_id, avoid) -> replica``: names the copy one attempt runs
        on (:meth:`~repro.shard.replicas.ReplicaRouter.route`).  Called
        for *every* attempt as it launches, and the answer is stamped on
        the submitted task.  *avoid* is the replica of the attempt being
        replaced — the failed one for a retry, the straggler for a hedge,
        ``None`` for a first launch or a fleet-event resubmission.
    on_outcome:
        ``(shard_id, replica, ok) -> None``: the breaker's feed
        (:meth:`~repro.shard.replicas.ReplicaPlacement.note_outcome`),
        called under the contract in the module docstring.
    heal:
        Called when an attempt dies with :class:`BrokenProcessPool`
        (retire the broken pool so resubmission lands on a fresh fleet;
        returns whether it retired one).  Such attempts are resubmitted at
        once without spending ``max_retries`` while the run has healed at
        most :attr:`ProcessShardExecutor.MAX_POOL_REPAIRS` pools; past
        that they fail like any other.
    run_inline:
        The in-process backends' ``task -> ShardResult`` runner, for the
        caller-runs rule (module docstring); ``None`` submits every attempt.
    """

    def __init__(
        self,
        submit: Callable[[ShardTask], Future],
        policy: FaultPolicy,
        bind: Callable[[int, Optional[int]], int],
        on_outcome: Callable[[int, int, bool], None],
        tracker: Optional[LatencyWindow] = None,
        heal: Optional[Callable[[], object]] = None,
        run_inline: Optional[Callable[[ShardTask], ShardResult]] = None,
    ) -> None:
        self._submit = submit
        self._run_inline = run_inline
        self._policy = policy
        self._bind = bind
        self._on_outcome = on_outcome
        self._tracker = tracker
        self._heal = heal

    def _report(self, task: ShardTask, exc: Optional[BaseException]) -> None:
        """One attempt's outcome, to the breaker (``exc=None``: it
        answered).  A broken pool — bare, or wrapped by an executor that
        ran out of repairs — says nothing about a copy."""
        if not isinstance(getattr(exc, "original", exc), BrokenProcessPool):
            self._on_outcome(task.shard_id, task.replica, exc is None)


    # ------------------------------------------------------------------
    def _hedge_delay(self) -> Optional[float]:
        policy = self._policy
        if policy.hedge_after_s is None:
            return None
        if self._tracker is not None and len(self._tracker) >= _HEDGE_MIN_SAMPLES:
            return max(self._tracker.quantile(_HEDGE_QUANTILE), _MIN_HEDGE_DELAY_S)
        return policy.hedge_after_s

    # ------------------------------------------------------------------
    def run(
        self,
        fanouts: Sequence[Sequence[ShardTask]],
        deadlines: Optional[Sequence[Optional[float]]] = None,
    ) -> List[FanoutOutcome]:
        """Supervise one batch: ``fanouts[i]`` is query *i*'s task list.
        Returns one :class:`FanoutOutcome` per query, in order.

        ``deadlines[i]`` optionally tightens query *i*'s budget below the
        policy's — the serving front-end propagates each caller's
        *remaining* deadline here so backend retries and hedges can never
        outlive the caller.  The effective deadline is the minimum of the
        policy's and the override; overrides can only shrink the budget
        (an override larger than ``policy.deadline_s`` is clamped to it).
        All deadline arithmetic is anchored to one ``time.monotonic()``
        reading — wall-clock jumps cannot expire (or extend) a budget.
        """
        policy = self._policy
        outcomes = [FanoutOutcome() for _ in fanouts]
        states: List[_ShardState] = []
        by_query: List[List[_ShardState]] = []
        start = time.monotonic()
        effective: List[Optional[float]] = []
        for qi in range(len(fanouts)):
            caps = [policy.deadline_s]
            if deadlines is not None:
                caps.append(deadlines[qi])
            caps = [c for c in caps if c is not None]
            effective.append(min(caps) if caps else None)
        deadline_at = [
            start + d if d is not None else math.inf for d in effective
        ]
        caller_runs = (
            self._run_inline is not None
            and policy.hedge_after_s is None
            and all(d is None for d in effective)
        )
        attempts: Dict[Future, _Attempt] = {}
        pools_healed = 0

        def handle_failure(state: _ShardState, task: ShardTask, exc: BaseException) -> None:
            nonlocal pools_healed
            self._report(task, exc)
            fleet_event = isinstance(exc, BrokenProcessPool) and self._heal is not None
            if fleet_event and self._heal():
                # Every attempt in flight on the dead pool lands here;
                # only the first finds a pool left to retire.
                pools_healed += 1
            if state.resolved:
                return
            state.failures += 1
            state.last_error = exc
            state.failed_on = task.replica
            if fleet_event and pools_healed <= ProcessShardExecutor.MAX_POOL_REPAIRS:
                outcomes[state.qi].retries += 1
                launch(state)
                return
            state.charged += 1
            if state.charged <= policy.max_retries:
                backoff = _RETRY_BACKOFF_S * (2 ** (state.charged - 1))
                due = time.monotonic() + backoff
                if due <= deadline_at[state.qi]:
                    if state.retry_due is None or due < state.retry_due:
                        state.retry_due = due
                    return
            # Out of retry budget (or the retry would land past the
            # deadline): resolve as failed unless a sibling attempt —
            # a hedge, typically — is still live and may yet answer.
            if state.live == 0 and state.retry_due is None:
                state.resolved = True
                outcomes[state.qi].failures[state.task.shard_id] = exc

        def handle_result(state: _ShardState, task: ShardTask, started: float, result) -> None:
            if self._tracker is not None:
                self._tracker.record(time.monotonic() - started)
            self._report(task, None)
            if not state.resolved:
                state.resolved = True
                state.retry_due = None
                outcomes[state.qi].results[state.task.shard_id] = result

        def launch(
            state: _ShardState,
            *,
            avoid: Optional[int] = None,
            hedge: bool = False,
            here: bool = False,
        ) -> None:
            # Bind the attempt to a replica, and stamp the attempt ordinal
            # and hedge flag so the span of whichever attempt wins says
            # which attempt it was (trace metadata — no backend keys on
            # those two).
            task = state.task._replace(
                replica=self._bind(state.task.shard_id, avoid),
                attempt=state.failures,
                hedge=hedge,
            )
            started = time.monotonic()
            if here:  # the caller runs it: done before launch returns
                try:
                    result = self._run_inline(task)
                except Exception as exc:
                    handle_failure(state, task, exc)
                else:
                    handle_result(state, task, started, result)
                return
            try:
                future = self._submit(task)
            except Exception as exc:
                # Submission itself failed (e.g. an unrecoverable pool):
                # same failure path as a dead future.
                handle_failure(state, task, exc)
                return
            state.live += 1
            attempts[future] = _Attempt(
                state=state, task=task, started=started, hedge=hedge
            )

        for qi, tasks in enumerate(fanouts):
            query_states = []
            for task in tasks:
                state = _ShardState(qi=qi, task=task)
                states.append(state)
                query_states.append(state)
            by_query.append(query_states)
        # Submit after registering every state: an inline (serial) backend
        # completes each attempt synchronously inside launch(), and a
        # caller-run last attempt starts once the others are on the pool.
        for i, state in enumerate(states, start=1):
            launch(state, here=caller_runs and i == len(states))

        while True:
            now = time.monotonic()
            # Deadline sweep: expired queries abandon their unresolved
            # shards (in-flight attempts are dropped from the wait set
            # below and handed back in FanoutOutcome.in_flight; the pool
            # finishes them, nobody listens).
            for qi, query_states in enumerate(by_query):
                if now < deadline_at[qi]:
                    continue
                for state in query_states:
                    if not state.resolved:
                        state.resolved = True
                        state.retry_due = None
                        outcomes[qi].failures[state.task.shard_id] = (
                            state.last_error
                            if state.last_error is not None
                            else DeadlineExceeded(state.task, effective[qi])
                        )
            for future in [f for f, a in attempts.items() if a.state.resolved]:
                attempt = attempts.pop(future)
                attempt.state.live -= 1
                outcomes[attempt.state.qi].in_flight.append(future)
                # Nobody waits for it any more: it reports from its done
                # callback (at once when it already finished).
                future.add_done_callback(
                    lambda done, task=attempt.task: self._report(task, done.exception())
                )
            if all(state.resolved for state in states):
                break
            # Fire due retries.
            for state in states:
                if state.resolved or state.retry_due is None:
                    continue
                if state.retry_due <= now:
                    state.retry_due = None
                    outcomes[state.qi].retries += 1
                    launch(state, avoid=state.failed_on)
            # Fire due hedges (one backup per shard, never hedge a hedge).
            hedge_delay = self._hedge_delay()
            if hedge_delay is not None:
                for attempt in list(attempts.values()):
                    state = attempt.state
                    if state.resolved or state.hedged or attempt.hedge:
                        continue
                    if now - attempt.started >= hedge_delay:
                        state.hedged = True
                        outcomes[state.qi].hedges += 1
                        launch(state, avoid=attempt.task.replica, hedge=True)
            # Next timer: earliest deadline / retry / hedge trigger.
            timers: List[float] = []
            for qi, query_states in enumerate(by_query):
                if deadline_at[qi] < math.inf and any(
                    not s.resolved for s in query_states
                ):
                    timers.append(deadline_at[qi])
            for state in states:
                if not state.resolved and state.retry_due is not None:
                    timers.append(state.retry_due)
            if hedge_delay is not None:
                for attempt in attempts.values():
                    if not attempt.state.resolved and not attempt.state.hedged:
                        if not attempt.hedge:
                            timers.append(attempt.started + hedge_delay)
            if not attempts:
                if any(
                    not s.resolved and s.retry_due is not None for s in states
                ):
                    # Only a backoff timer stands between now and the next
                    # attempt; sleep it out.
                    delay = min(timers) - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    continue
                # Nothing in flight, nothing scheduled: the remaining
                # shards are out of attempts.
                for state in states:
                    if not state.resolved:
                        state.resolved = True
                        outcomes[state.qi].failures[state.task.shard_id] = (
                            state.last_error
                            if state.last_error is not None
                            else RuntimeError(
                                f"shard {state.task.shard_id}: no attempt "
                                "could be submitted"
                            )
                        )
                break
            timeout = max(0.0, min(timers) - time.monotonic()) if timers else None
            done, _ = wait(set(attempts), timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                attempt = attempts.pop(future, None)
                if attempt is None:  # pragma: no cover - defensive
                    continue
                state = attempt.state
                state.live -= 1
                try:
                    result = future.result()
                except Exception as exc:
                    handle_failure(state, attempt.task, exc)
                else:
                    handle_result(state, attempt.task, attempt.started, result)
        # launch and handle_failure call each other: break the cycle.
        launch = handle_failure = None
        return outcomes
