"""ServingFrontend behaviour: admission flow, deadline propagation,
expiry, parity with the closed-loop path, metrics."""

import asyncio
import itertools
import time

import pytest

from repro.core.context import SearchStats
from repro.core.engine import GATSearchEngine
from repro.index.gat.index import GATIndex
from repro.obs import Observability, parse_prometheus_text
from repro.serving import (
    AdmissionError,
    ExpiredError,
    RejectedError,
    ServingConfig,
    ServingFrontend,
    ShedError,
)
from repro.service import QueryResponse, QueryService
from repro.serving.frontend import OUTCOMES
from repro.service.service import QueryRequest, as_request


class StubService:
    """A backend that answers after a fixed delay, recording requests."""

    def __init__(self, service_s=0.0, shards_answered=1, shards_total=1, error=None):
        self.service_s = service_s
        self.shards_answered = shards_answered
        self.shards_total = shards_total
        self.error = error
        self.requests = []

    def search(self, request: QueryRequest) -> QueryResponse:
        self.requests.append(request)
        if self.service_s:
            time.sleep(self.service_s)
        if self.error is not None:
            raise self.error
        return QueryResponse(
            request=request,
            results=[],
            stats=SearchStats(),
            latency_s=self.service_s,
            shards_answered=self.shards_answered,
            shards_total=self.shards_total,
        )


class RefusingService(StubService):
    """Every other call raises the bare :class:`AdmissionError`, whose
    outcome (``error``) names no counter of its own."""

    def __init__(self, service_s=0.0):
        super().__init__(service_s)
        self._calls = itertools.count()

    def search(self, request: QueryRequest) -> QueryResponse:
        if next(self._calls) % 2:
            self.requests.append(request)
            raise AdmissionError("backend refused")
        return super().search(request)


def make_request(workload_queries, i=0, **kwargs) -> QueryRequest:
    return as_request(workload_queries[i], k=3, **kwargs)


def submit_one(frontend, request, **kwargs):
    return asyncio.run(frontend.submit(request, **kwargs))


class TestAdmissionFlow:
    def test_plain_completion(self, workload_queries):
        backend = StubService()
        with ServingFrontend(backend, ServingConfig(max_concurrency=2)) as fe:
            response = submit_one(fe, make_request(workload_queries))
            assert response.complete
            stats = fe.stats()
        assert (stats.submitted, stats.completed) == (1, 1)
        assert stats.queue_depth == 0
        assert stats.service_time_ewma_s is not None

    def test_rejects_past_queue_capacity(self, workload_queries):
        backend = StubService(service_s=0.25)
        config = ServingConfig(queue_capacity=1, max_concurrency=1)

        async def drive(fe):
            request = make_request(workload_queries)
            first = asyncio.create_task(fe.submit(request))
            await asyncio.sleep(0.05)  # first holds the permit, queue empty
            second = asyncio.create_task(fe.submit(request))
            await asyncio.sleep(0.05)  # second waits admitted (queue full)
            with pytest.raises(RejectedError):
                await fe.submit(request)
            await asyncio.gather(first, second)

        with ServingFrontend(backend, config) as fe:
            asyncio.run(drive(fe))
            stats = fe.stats()
        assert stats.rejected == 1
        assert stats.completed == 2
        assert stats.queue_depth == 0

    def test_sheds_on_estimated_wait(self, workload_queries):
        backend = StubService(service_s=0.2)
        config = ServingConfig(queue_capacity=64, max_concurrency=1)

        async def drive(fe):
            fe.prime(0.2)  # one queued request -> estimate 0.4s
            request = make_request(workload_queries)
            first = asyncio.create_task(fe.submit(request, deadline_s=5.0))
            await asyncio.sleep(0.05)
            second = asyncio.create_task(fe.submit(request, deadline_s=5.0))
            await asyncio.sleep(0.05)
            with pytest.raises(ShedError):
                await fe.submit(request, deadline_s=0.3)
            await asyncio.gather(first, second)

        with ServingFrontend(backend, config) as fe:
            asyncio.run(drive(fe))
            assert fe.stats().shed == 1

    def test_expires_late_answer(self, workload_queries):
        backend = StubService(service_s=0.15)
        with ServingFrontend(backend, ServingConfig()) as fe:
            with pytest.raises(ExpiredError) as err:
                submit_one(fe, make_request(workload_queries), deadline_s=0.05)
            assert err.value.reason == "late"
            assert err.value.response is not None  # the late answer rides along
            stats = fe.stats()
        assert (stats.expired, stats.completed) == (1, 0)

    def test_partial_coverage_expires_when_complete_required(self, workload_queries):
        backend = StubService(shards_answered=1, shards_total=2)
        with ServingFrontend(backend, ServingConfig()) as fe:
            with pytest.raises(ExpiredError) as err:
                submit_one(fe, make_request(workload_queries), deadline_s=5.0)
            assert err.value.reason == "partial"
            assert not err.value.response.complete

    def test_partial_coverage_returned_when_allowed(self, workload_queries):
        backend = StubService(shards_answered=1, shards_total=2)
        config = ServingConfig(require_complete=False)
        with ServingFrontend(backend, config) as fe:
            response = submit_one(fe, make_request(workload_queries), deadline_s=5.0)
            assert not response.complete

    def test_backend_failure_counted_and_raised(self, workload_queries):
        backend = StubService(error=RuntimeError("backend down"))
        with ServingFrontend(backend, ServingConfig()) as fe:
            with pytest.raises(RuntimeError, match="backend down"):
                submit_one(fe, make_request(workload_queries))
            stats = fe.stats()
        assert stats.failed == 1
        assert stats.queue_depth == 0

    def test_submit_after_close_refused_before_admission(self, workload_queries):
        """A closed front-end refuses like the backend services do, before
        admission: no counter moves, no queue slot or permit stays taken,
        and the backend is never called."""
        backend = StubService()
        config = ServingConfig(max_concurrency=2)
        request = make_request(workload_queries)
        fe = ServingFrontend(backend, config)
        assert submit_one(fe, request).complete
        fe.close()
        with pytest.raises(RuntimeError, match=r"query service used after close\(\)"):
            submit_one(fe, request)
        stats = fe.stats()
        assert (stats.submitted, stats.completed, stats.failed) == (1, 1, 0)
        assert stats.queue_depth == 0
        assert fe._sem._value == config.max_concurrency
        assert len(backend.requests) == 1

    def test_survives_successive_event_loops(self, workload_queries):
        """Bench sweeps drive one frontend from successive asyncio.run
        loops; the concurrency semaphore must rebind, not explode."""
        backend = StubService()
        request = make_request(workload_queries)
        with ServingFrontend(backend, ServingConfig()) as fe:
            for _ in range(3):
                assert submit_one(fe, request).complete
            assert fe.stats().completed == 3


class TestDeadlinePropagation:
    def test_remaining_budget_reaches_backend(self, workload_queries):
        backend = StubService()
        with ServingFrontend(backend, ServingConfig()) as fe:
            submit_one(fe, make_request(workload_queries), deadline_s=0.5)
        (seen,) = backend.requests
        assert seen.deadline_s is not None
        assert 0.0 < seen.deadline_s <= 0.5

    def test_propagation_disabled(self, workload_queries):
        backend = StubService()
        config = ServingConfig(propagate_deadline=False)
        with ServingFrontend(backend, config) as fe:
            submit_one(fe, make_request(workload_queries), deadline_s=0.5)
        (seen,) = backend.requests
        assert seen.deadline_s is None

    def test_request_carried_deadline_used(self, workload_queries):
        backend = StubService()
        request = make_request(workload_queries).__class__(
            query=workload_queries[0], k=3, deadline_s=0.4
        )
        with ServingFrontend(backend, ServingConfig()) as fe:
            submit_one(fe, request)
        (seen,) = backend.requests
        assert seen.deadline_s is not None and seen.deadline_s <= 0.4


class TestParity:
    @pytest.fixture(scope="class")
    def service(self, tiny_db):
        engine = GATSearchEngine(GATIndex.build(tiny_db))
        service = QueryService(engine, max_workers=4, result_cache_size=0)
        yield service
        service.close()

    def test_rankings_identical_to_closed_loop(self, service, workload_queries):
        direct = [service.search(q, k=5) for q in workload_queries]

        async def drive(fe):
            return await asyncio.gather(
                *(fe.submit(q, k=5, deadline_s=30.0) for q in workload_queries)
            )

        with ServingFrontend(service, ServingConfig(max_concurrency=4)) as fe:
            served = asyncio.run(drive(fe))
        for d, s in zip(direct, served):
            assert [(r.trajectory_id, r.distance) for r in d.results] == [
                (r.trajectory_id, r.distance) for r in s.results
            ]


class TestObservability:
    def test_admission_metrics_flow(self, workload_queries):
        obs = Observability.disabled()
        backend = StubService(service_s=0.05)
        # Shedding off so the tight-deadline request runs and *expires*
        # (with shedding on the warmed EWMA would shed it at admission).
        with ServingFrontend(backend, ServingConfig(shed=False), obs=obs) as fe:
            submit_one(fe, make_request(workload_queries), deadline_s=5.0)
            with pytest.raises(ExpiredError):
                submit_one(fe, make_request(workload_queries), deadline_s=0.01)
        snap = obs.metrics_snapshot()
        assert snap["repro_admission_completed_total"] == 1
        assert snap["repro_admission_expired_total"] == 1
        assert snap["repro_admission_queue_depth"] == 0
        assert snap["repro_admission_queue_wait_seconds"]["count"] == 2
        text = obs.prometheus()
        assert "repro_admission_shed_total" in text
        assert "repro_admission_rejected_total" in text

    def test_bare_admission_error_counts_as_failed_across_a_reset(self, workload_queries):
        """A backend raising the bare base class (outcome ``error``) is a
        failure in the one counter set: ``submitted`` equals the outcomes'
        sum in ``FrontendStats`` — also after a reset taken mid-burst, with
        requests still in flight — and in the Prometheus series."""
        backend = RefusingService(service_s=0.005)
        obs = Observability.disabled()
        n, reset_after = 12, 4
        config = ServingConfig(max_concurrency=2, queue_capacity=64, shed=False)

        async def burst(fe):
            done = []

            async def one():
                try:
                    await fe.submit(make_request(workload_queries), deadline_s=30.0)
                except AdmissionError:
                    pass
                done.append(1)
                if len(done) == reset_after:
                    fe.reset_stats()

            await asyncio.gather(*(one() for _ in range(n)))

        with ServingFrontend(backend, config, obs=obs) as fe:
            asyncio.run(burst(fe))
            stats = fe.stats()
        outcomes = (stats.completed, stats.rejected, stats.shed, stats.expired, stats.failed)
        # The requests in flight at the reset are submitted in the new epoch.
        assert stats.submitted == sum(outcomes) == n - reset_after
        assert stats.failed >= 1
        samples = parse_prometheus_text(obs.prometheus())
        assert samples["repro_admission_submitted_total"] == n
        assert samples["repro_admission_failed_total"] == n // 2
        assert samples["repro_admission_submitted_total"] == sum(
            samples[f"repro_admission_{outcome}_total"] for outcome in OUTCOMES
        )

    def test_idle_poll_does_not_resort(self, workload_queries):
        with ServingFrontend(StubService(), ServingConfig()) as fe:
            for _ in range(2):
                submit_one(fe, make_request(workload_queries))
            fe.stats()
            # Tampered sorted copies are served verbatim: no re-sort.
            fe._latencies._sorted = [9.0]
            fe._queue_waits._sorted = [7.0]
            stats = fe.stats()
            assert (stats.latency_p50_s, stats.queue_wait_p50_s) == (9.0, 7.0)
            submit_one(fe, make_request(workload_queries))
            assert fe.stats().latency_p50_s < 9.0

    def test_admission_spans_on_trace(self, workload_queries):
        obs = Observability.enabled()
        backend = StubService()
        with ServingFrontend(backend, ServingConfig(), obs=obs) as fe:
            submit_one(fe, make_request(workload_queries), deadline_s=5.0)
        spans = obs.tracer.drain()
        admission = [s for s in spans if s.name == "admission"]
        assert len(admission) == 1
        assert admission[0].attrs["outcome"] == "completed"
        assert "queue_wait_s" in admission[0].attrs
