"""Admission control: bounded queueing, SLO-aware shedding, typed refusals.

The front-end's first line of defence is deciding — *before* any backend
work happens — whether a request can still be served within its budget:

* **Backpressure** (:class:`RejectedError`): the admission queue is a
  hard bound.  When ``queued >= queue_capacity`` the request fails fast;
  nothing ever buffers without limit.
* **Load shedding** (:class:`ShedError`): each request carries a
  deadline.  If the estimated wait — queue position over concurrency,
  times the observed service-time EWMA — already exceeds the remaining
  budget, the request is shed at admission instead of timing out after
  consuming a permit and backend work.  A second, cheaper check fires at
  dispatch (permit acquired, budget already gone).
* **Expiry** (:class:`ExpiredError`): a request that was admitted and
  executed but finished past its deadline (or returned partial coverage
  when the front-end requires complete answers).  The late response rides
  on the error for callers that want a degraded answer anyway.

All bookkeeping runs on an injectable monotonic clock
(``time.monotonic`` by default) — wall-clock jumps can never expire a
budget (see ``tests/shard/test_deadline_monotonic.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.metrics import MetricRegistry

__all__ = [
    "AdmissionError",
    "RejectedError",
    "ShedError",
    "ExpiredError",
    "ServingConfig",
    "ServiceTimeEWMA",
    "AdmissionController",
    "AdmissionTicket",
]


class AdmissionError(RuntimeError):
    """Base of every typed refusal the serving front-end raises.

    :attr:`outcome` is the accounting bucket (``rejected`` / ``shed`` /
    ``expired``) — the same names the metrics registry counts under.  The
    base class's own ``error`` names no bucket: the front-end counts it as
    ``failed``.
    """

    outcome = "error"


class RejectedError(AdmissionError):
    """Backpressure: the bounded admission queue is full."""

    outcome = "rejected"

    def __init__(self, queue_depth: int, capacity: int) -> None:
        self.queue_depth = queue_depth
        self.capacity = capacity
        super().__init__(
            f"admission queue full ({queue_depth}/{capacity}); request rejected"
        )


class ShedError(AdmissionError):
    """SLO-aware shedding: the estimated wait exceeds the remaining
    deadline budget, so serving this request would only waste capacity."""

    outcome = "shed"

    def __init__(
        self, estimated_wait_s: float, remaining_s: float, stage: str = "admission"
    ) -> None:
        self.estimated_wait_s = estimated_wait_s
        self.remaining_s = remaining_s
        self.stage = stage  # 'admission' (predictive) or 'dispatch' (budget gone)
        super().__init__(
            f"shed at {stage}: estimated wait {estimated_wait_s * 1e3:.1f}ms "
            f"exceeds remaining budget {remaining_s * 1e3:.1f}ms"
        )


class ExpiredError(AdmissionError):
    """The request was served but its answer arrived past the deadline
    (or with partial shard coverage when complete answers are required).
    ``response`` carries the late/partial answer when one exists."""

    outcome = "expired"

    def __init__(
        self, latency_s: float, deadline_s: float, response=None, reason: str = "late"
    ) -> None:
        self.latency_s = latency_s
        self.deadline_s = deadline_s
        self.response = response
        self.reason = reason  # 'late' or 'partial'
        super().__init__(
            f"request expired ({reason}): {latency_s * 1e3:.1f}ms elapsed "
            f"against a {deadline_s * 1e3:.1f}ms deadline"
        )


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the asyncio serving front-end.

    Attributes
    ----------
    queue_capacity:
        Hard bound on requests admitted but not yet finished dispatching
        (waiting + executing).  Arrivals beyond it are **rejected**.
    max_concurrency:
        Requests concurrently in the backend — size this to the backend
        executor's real parallelism; admitted requests above it wait for
        a permit (that wait is the queue).
    default_deadline_s:
        Deadline applied when a request does not carry one.  ``None``
        means no deadline: nothing is shed or expired, only the bounded
        queue protects the service.
    shed:
        Master switch for SLO-aware shedding (admission *and* dispatch
        checks).  Off, requests are only rejected on queue overflow —
        the collapse-prone baseline the overload bench compares against.
    propagate_deadline:
        Stamp each dispatched request's *remaining* budget into
        ``QueryRequest.deadline_s`` so a ``FaultPolicy``-supervised
        backend tightens its fan-out deadline to the caller's — retries
        and hedges never outlive the caller.
    require_complete:
        Treat a partial-coverage backend response as expired
        (:class:`ExpiredError` with ``reason='partial'``).  Keeps every
        answer the front-end returns byte-identical to the exact,
        full-coverage ranking.
    ewma_alpha:
        Weight of the newest sample in the service-time EWMA.
    shed_headroom:
        Safety factor on the shedding estimate: shed when
        ``estimated_wait × shed_headroom > remaining``.  Above 1.0 sheds
        earlier, trading a few servable requests for queue waits that
        stay well inside the SLO (the overload bench runs at 2.0 so
        admitted requests finish with budget to spare).
    """

    queue_capacity: int = 64
    max_concurrency: int = 8
    default_deadline_s: Optional[float] = None
    shed: bool = True
    propagate_deadline: bool = True
    require_complete: bool = True
    ewma_alpha: float = 0.2
    shed_headroom: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be > 0 (or None)")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.shed_headroom <= 0:
            raise ValueError("shed_headroom must be > 0")


class ServiceTimeEWMA:
    """Thread-safe exponentially weighted moving average of backend
    service times — the one-number model behind the shedding estimate."""

    def __init__(self, alpha: float = 0.2) -> None:
        self._alpha = alpha
        self._lock = threading.Lock()
        self._value: Optional[float] = None

    def record(self, service_s: float) -> None:
        with self._lock:
            if self._value is None:
                self._value = service_s
            else:
                self._value += self._alpha * (service_s - self._value)

    def prime(self, service_s: float) -> None:
        """Seed the average (e.g. from a closed-loop warmup measurement)
        so the first open-loop burst is shed against a real estimate."""
        with self._lock:
            self._value = service_s

    @property
    def value(self) -> Optional[float]:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class AdmissionTicket:
    """One admitted request's timestamps (monotonic-clock seconds)."""

    admitted_at: float
    deadline_at: Optional[float]  # absolute, on the controller's clock
    deadline_s: Optional[float]  # the original relative budget


class AdmissionController:
    """Synchronous admission bookkeeping shared by the async front-end.

    The controller owns the queue-depth counter, the shedding estimate,
    and the typed refusals; the front-end owns the actual waiting (an
    ``asyncio.Semaphore``) and the backend dispatch.  Keeping the
    decision logic synchronous makes it directly unit-testable with a
    fake clock.
    """

    def __init__(
        self,
        config: ServingConfig,
        obs=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        registry = obs.registry if obs is not None else MetricRegistry()
        #: Waiting + executing requests, exported as it moves.
        self._depth = registry.gauge("repro_admission_queue_depth")
        self._clock = clock
        self.ewma = ServiceTimeEWMA(config.ewma_alpha)
        self._lock = threading.Lock()
        self._queued = 0  # admitted, not yet finished dispatching

    # -- introspection --------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    def estimated_wait_s(self, queued: Optional[int] = None) -> float:
        """Expected wait before a request admitted *now* would dispatch:
        its queue position spread over the permit slots, plus its own
        service time, scaled by the observed service-time EWMA.  Zero
        until the EWMA has a sample (nothing is shed blind)."""
        service = self.ewma.value
        if service is None:
            return 0.0
        if queued is None:
            queued = self.queue_depth
        rounds = queued / self.config.max_concurrency + 1.0
        return rounds * service

    # -- the admission decision -----------------------------------------
    def admit(self, deadline_s: Optional[float] = None) -> AdmissionTicket:
        """Admit one request or raise a typed refusal.

        Raises :class:`RejectedError` when the bounded queue is full,
        :class:`ShedError` when shedding is on and the estimated wait
        (with headroom) exceeds the request's deadline budget.  On
        success the queue-depth counter includes the new request; every
        ticket must be retired via :meth:`dispatch` or :meth:`abandon`.
        """
        config = self.config
        if deadline_s is None:
            deadline_s = config.default_deadline_s
        now = self._clock()
        with self._lock:
            queued = self._queued
            if queued >= config.queue_capacity:
                raise RejectedError(queued, config.queue_capacity)
            if config.shed and deadline_s is not None:
                estimate = self.estimated_wait_s(queued)
                if estimate * config.shed_headroom > deadline_s:
                    raise ShedError(estimate, deadline_s, stage="admission")
            self._queued = queued + 1
            depth = self._queued
        self._depth.set(depth)
        return AdmissionTicket(
            admitted_at=now,
            deadline_at=now + deadline_s if deadline_s is not None else None,
            deadline_s=deadline_s,
        )

    def dispatch(self, ticket: AdmissionTicket) -> Optional[float]:
        """Retire a ticket into execution: record its queue wait and
        return the remaining deadline budget (``None`` = unbounded).

        Raises :class:`ShedError` (``stage='dispatch'``) when the budget
        ran out while the request waited for a permit — the queue slot is
        released either way.
        """
        now = self._clock()
        self._release()
        wait_s = max(0.0, now - ticket.admitted_at)
        if ticket.deadline_at is None:
            return None
        remaining = ticket.deadline_at - now
        if self.config.shed and remaining <= 0:
            raise ShedError(wait_s, max(0.0, remaining), stage="dispatch")
        # Without shedding the backend still gets a floor of the budget:
        # a non-positive remaining would instantly expire the fan-out.
        return max(remaining, 1e-4)

    def abandon(self, ticket: AdmissionTicket) -> None:
        """Release an admitted request that never dispatched (the wait
        was cancelled or errored) — queue accounting must not leak."""
        self._release()

    def _release(self) -> None:
        with self._lock:
            self._queued -= 1
            depth = self._queued
        self._depth.set(depth)

    def observe_service(self, service_s: float) -> None:
        self.ewma.record(service_s)
