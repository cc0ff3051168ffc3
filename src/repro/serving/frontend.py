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
response the front-end returns is a complete, full-coverage answer — a
partial one is raised as :class:`~repro.serving.admission.ExpiredError`
(``reason='partial'``, the response riding along) — byte-identical to
the same query served closed-loop.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import Dict, Optional, Union

from repro.core.query import Query
from repro.obs.metrics import LatencyWindow, MetricRegistry
from repro.serving.admission import (
    AdmissionController,
    AdmissionError,
    ExpiredError,
    ServingConfig,
)
from repro.service.service import QueryRequest, QueryResponse, as_request

__all__ = ["ServingFrontend", "FrontendStats"]

#: The terminal outcomes of a submitted request, each counted by the
#: registry counter ``repro_admission_<outcome>_total``.  An outcome name
#: outside this tuple counts as ``failed``.
OUTCOMES = ("completed", "rejected", "shed", "expired", "failed")


@dataclass(slots=True)
class FrontendStats:
    """Admission-layer accounting since construction (or ``reset_stats``).

    ``submitted = completed + rejected + shed + expired + failed`` once
    the stream drains, also across a reset taken mid-burst: a request in
    flight at the reset counts as submitted in the new epoch, where its
    outcome lands.  Queue-wait percentiles (exact, over the most recent
    10 000 samples) cover admitted requests; latency percentiles cover
    completed ones (admission → response).
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
        self._closed = False
        registry = obs.registry if obs is not None else MetricRegistry()
        self._submitted = registry.counter("repro_admission_submitted_total")
        self._outcomes = {
            outcome: registry.counter(f"repro_admission_{outcome}_total")
            for outcome in OUTCOMES
        }
        self._queue_wait = registry.histogram("repro_admission_queue_wait_seconds")
        self._queue_waits = LatencyWindow()
        self._latencies = LatencyWindow()
        self._epoch = self._totals()

    # ------------------------------------------------------------------
    def _semaphore(self) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        if self._sem is None or self._sem_loop is not loop:
            self._sem = asyncio.Semaphore(self.config.max_concurrency)
            self._sem_loop = loop
        return self._sem

    def _count(self, outcome: str) -> str:
        """Count one terminal outcome and return its name — ``failed`` for
        a name outside :data:`OUTCOMES`."""
        if outcome not in self._outcomes:
            outcome = "failed"
        self._outcomes[outcome].inc()
        return outcome

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
        self._submitted.inc()
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
            outcome = self._count(exc.outcome)
            if span is not None:
                span.set_attrs(outcome=outcome, error=True)
            raise
        except BaseException:
            # Anything else — a backend error, a cancelled wait — is a
            # failure: every submitted request gets exactly one outcome.
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
            self._queue_wait.observe(wait_s)
            self._queue_waits.record(wait_s)
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
            if not response.complete:
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
            self._latencies.record(latency_s)
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

    def _totals(self) -> Dict[str, float]:
        totals = {outcome: counter.value() for outcome, counter in self._outcomes.items()}
        totals["submitted"] = self._submitted.value()
        return totals

    def stats(self) -> FrontendStats:
        """The counters' movement since the epoch, the windows' exact
        percentiles, and the admission controller's live state."""
        epoch = self._epoch
        counts = {name: int(total - epoch[name]) for name, total in self._totals().items()}
        waits, lats = self._queue_waits, self._latencies
        return FrontendStats(
            **counts,
            queue_depth=self.admission.queue_depth,
            queue_wait_p50_s=waits.quantile(0.50),
            queue_wait_p99_s=waits.quantile(0.99),
            latency_p50_s=lats.quantile(0.50),
            latency_p95_s=lats.quantile(0.95),
            latency_p99_s=lats.quantile(0.99),
            service_time_ewma_s=self.admission.ewma.value,
        )

    def reset_stats(self) -> None:
        """Start a new epoch: snapshot the counters and clear the windows.
        ``submitted``'s snapshot is the sum of the outcomes', not its own
        reading, so requests still in flight are submitted in the new
        epoch — the one that counts their outcomes."""
        epoch = self._totals()
        epoch["submitted"] = sum(epoch[outcome] for outcome in OUTCOMES)
        self._epoch = epoch
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
