"""ServingFrontend — the asyncio admission layer over the query services.

One front-end wraps one backend service (:class:`~repro.service.QueryService`,
:class:`~repro.shard.service.ShardedQueryService`, or the replicated
tier — anything with ``search(request) -> QueryResponse``) and turns it
into an open-loop endpoint that degrades gracefully under overload:

* a bounded admission queue (reject fast when full — backpressure),
* a concurrency limiter sized to the backend executor (admitted
  requests wait for a permit; the wait is tracked per request),
* SLO-aware shedding at admission and at dispatch
  (:mod:`repro.serving.admission`),
* deadline propagation: the remaining budget at dispatch is stamped
  into ``QueryRequest.deadline_s`` so a ``FaultPolicy``-supervised
  backend's retries/hedges never outlive the caller.

The backend's ``search`` is synchronous (thread-pooled internally), so
the front-end bridges with ``loop.run_in_executor`` over its own pool of
exactly ``max_concurrency`` threads — the semaphore guarantees a permit
holder never waits for a pool thread.

Exactness: admission decides *whether* a query runs, never *how*.  Every
response the front-end returns is a complete, full-coverage answer
(``require_complete=True`` converts partials into
:class:`~repro.serving.admission.ExpiredError`), byte-identical to the
same query served closed-loop.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import Optional, Union

from repro.core.query import Query
from repro.obs.metrics import nearest_rank
from repro.serving.admission import (
    AdmissionController,
    AdmissionError,
    ExpiredError,
    ServingConfig,
)
from repro.service.service import QueryRequest, QueryResponse, as_request

__all__ = ["ServingFrontend", "FrontendStats"]

#: Latency/queue-wait percentiles cover the most recent window only —
#: same policy as the backend services' ServingMetrics.
_WINDOW = 10_000


@dataclass(slots=True)
class FrontendStats:
    """Admission-layer accounting since construction (or ``reset_stats``).

    ``submitted = completed + rejected + shed + expired + failed`` once
    the stream drains.  Queue-wait percentiles cover admitted requests;
    latency percentiles cover completed ones (admission → response).
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    shed: int = 0
    expired: int = 0
    failed: int = 0
    queue_depth: int = 0
    queue_wait_p50_s: float = 0.0
    queue_wait_p99_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0
    service_time_ewma_s: Optional[float] = None


class ServingFrontend:
    """Asyncio front-end: ``await frontend.submit(query)`` under a
    :class:`~repro.serving.admission.ServingConfig`.

    The front-end may be driven by successive event loops (each
    ``asyncio.run`` of a bench sweep point), but not by two loops at
    once: the concurrency semaphore is rebound when a new loop is
    observed, which assumes the previous loop has fully drained.
    """

    def __init__(self, service, config: Optional[ServingConfig] = None, obs=None) -> None:
        self.service = service
        self.config = config if config is not None else ServingConfig()
        self.obs = obs
        self.admission = AdmissionController(self.config, obs=obs)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-serve",
        )
        self._sem: Optional[asyncio.Semaphore] = None
        self._sem_loop: Optional[asyncio.AbstractEventLoop] = None
        self._lock = threading.Lock()
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._rejected = 0
        self._shed = 0
        self._expired = 0
        self._failed = 0
        self._queue_waits: deque = deque(maxlen=_WINDOW)
        self._latencies: deque = deque(maxlen=_WINDOW)

    # ------------------------------------------------------------------
    def _semaphore(self) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        if self._sem is None or self._sem_loop is not loop:
            self._sem = asyncio.Semaphore(self.config.max_concurrency)
            self._sem_loop = loop
        return self._sem

    def _count(self, outcome: str) -> None:
        with self._lock:
            if outcome == "completed":
                self._completed += 1
            elif outcome == "rejected":
                self._rejected += 1
            elif outcome == "shed":
                self._shed += 1
            elif outcome == "expired":
                self._expired += 1
            else:
                self._failed += 1
        if self.obs is not None:
            self.obs.observe_admission(outcome)

    # ------------------------------------------------------------------
    async def submit(
        self,
        query: Union[QueryRequest, Query],
        k: int = 10,
        order_sensitive: bool = False,
        explain: bool = False,
        deadline_s: Optional[float] = None,
    ) -> QueryResponse:
        """Serve one request through admission control.

        Raises :class:`~repro.serving.admission.RejectedError` /
        :class:`ShedError` / :class:`ExpiredError` on the refusal paths;
        returns a complete :class:`QueryResponse` otherwise.  A bare
        deadline on the *request* (``QueryRequest.deadline_s``) is used
        when the ``deadline_s`` argument is omitted.  After :meth:`close`
        it raises ``RuntimeError`` before admission, counting nothing —
        the same refusal as the backend services'.
        """
        if self._closed:
            raise RuntimeError("query service used after close()")
        request = as_request(
            query, k=k, order_sensitive=order_sensitive, explain=explain
        )
        if deadline_s is None:
            deadline_s = request.deadline_s
        with self._lock:
            self._submitted += 1
        tracing = self.obs is not None and self.obs.tracer.enabled
        span = (
            self.obs.tracer.start_span(
                "admission", attrs={"deadline_s": deadline_s}
            )
            if tracing
            else None
        )
        try:
            response = await self._submit_admitted(request, deadline_s, span)
        except AdmissionError as exc:
            self._count(exc.outcome)
            if span is not None:
                span.set_attrs(outcome=exc.outcome, error=True)
            raise
        except Exception:
            self._count("failed")
            if span is not None:
                span.set_attrs(outcome="failed", error=True)
            raise
        else:
            if span is not None:
                span.set_attr("outcome", "completed")
            return response
        finally:
            if span is not None:
                span.end()

    async def _submit_admitted(
        self,
        request: QueryRequest,
        deadline_s: Optional[float],
        span,
    ) -> QueryResponse:
        ticket = self.admission.admit(deadline_s)  # RejectedError / ShedError
        sem = self._semaphore()
        try:
            await sem.acquire()
        except BaseException:
            self.admission.abandon(ticket)
            raise
        try:
            # ShedError(stage='dispatch') when the budget drained in queue.
            remaining = self.admission.dispatch(ticket)
            wait_s = max(0.0, time.monotonic() - ticket.admitted_at)
            with self._lock:
                self._queue_waits.append(wait_s)
            if span is not None:
                span.set_attr("queue_wait_s", wait_s)
            backend_request = request
            if remaining is not None and self.config.propagate_deadline:
                backend_request = dc_replace(request, deadline_s=remaining)
            loop = asyncio.get_running_loop()
            started = time.monotonic()
            response = await loop.run_in_executor(
                self._executor, self.service.search, backend_request
            )
            finished = time.monotonic()
            self.admission.observe_service(finished - started)
            latency_s = finished - ticket.admitted_at
            if self.config.require_complete and not response.complete:
                raise ExpiredError(
                    latency_s,
                    ticket.deadline_s if ticket.deadline_s is not None else 0.0,
                    response=response,
                    reason="partial",
                )
            if ticket.deadline_at is not None and finished > ticket.deadline_at:
                raise ExpiredError(
                    latency_s, ticket.deadline_s, response=response, reason="late"
                )
            with self._lock:
                self._latencies.append(latency_s)
            self._count("completed")
            if span is not None:
                span.set_attr("latency_s", latency_s)
            return response
        finally:
            sem.release()

    # ------------------------------------------------------------------
    def prime(self, service_time_s: float) -> None:
        """Seed the service-time EWMA (e.g. from a closed-loop warmup) so
        the first burst is shed against a real estimate."""
        self.admission.ewma.prime(service_time_s)

    def stats(self) -> FrontendStats:
        with self._lock:
            waits = sorted(self._queue_waits)
            lats = sorted(self._latencies)
            stats = FrontendStats(
                submitted=self._submitted,
                completed=self._completed,
                rejected=self._rejected,
                shed=self._shed,
                expired=self._expired,
                failed=self._failed,
            )
        stats.queue_depth = self.admission.queue_depth
        stats.service_time_ewma_s = self.admission.ewma.value
        if waits:
            stats.queue_wait_p50_s = nearest_rank(waits, 0.50)
            stats.queue_wait_p99_s = nearest_rank(waits, 0.99)
        if lats:
            stats.latency_p50_s = nearest_rank(lats, 0.50)
            stats.latency_p95_s = nearest_rank(lats, 0.95)
            stats.latency_p99_s = nearest_rank(lats, 0.99)
        return stats

    def reset_stats(self) -> None:
        with self._lock:
            self._submitted = 0
            self._completed = 0
            self._rejected = 0
            self._shed = 0
            self._expired = 0
            self._failed = 0
            self._queue_waits.clear()
            self._latencies.clear()

    def close(self) -> None:
        """Shut down the bridge pool (idempotent).  The backend service
        is owned by the caller and is not closed here."""
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
