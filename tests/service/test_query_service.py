"""QueryService: batched serving must be indistinguishable from a
sequential loop over the engine — bitwise-identical results, any worker
count, any batch order — plus thread-safety of one shared engine."""

import os
import random
import subprocess
import sys
import threading

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import GATSearchEngine
from repro.index.gat.index import GATConfig, GATIndex
from repro.service import QueryRequest, QueryService
from repro.shard import ShardedQueryService, ShardTaskError


@pytest.fixture(scope="module")
def index(small_db):
    return GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))


@pytest.fixture(scope="module")
def engine(index):
    return GATSearchEngine(index)


@pytest.fixture(scope="module")
def mixed_requests(small_db):
    """≥50 mixed ATSQ/OATSQ requests anchored in the database."""
    gen = QueryWorkloadGenerator(
        small_db, WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=7)
    )
    queries = gen.queries(52)
    return [
        QueryRequest(q, k=5, order_sensitive=(i % 2 == 1))
        for i, q in enumerate(queries)
    ]


def _sequential_answers(engine, requests):
    out = []
    for r in requests:
        run = engine.oatsq if r.order_sensitive else engine.atsq
        out.append([(res.trajectory_id, res.distance) for res in run(r.query, r.k)])
    return out


def _response_answers(responses):
    return [
        [(res.trajectory_id, res.distance) for res in resp.results]
        for resp in responses
    ]


class TestBatchSequentialParity:
    def test_search_many_matches_sequential_loop(self, engine, mixed_requests):
        """The acceptance property: 8 workers over 50+ mixed ATSQ/OATSQ
        queries, bitwise-identical ids and distances to the loop."""
        expected = _sequential_answers(engine, mixed_requests)
        service = QueryService(engine, max_workers=8)
        responses = service.search_many(mixed_requests)
        assert _response_answers(responses) == expected

    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2, 3])
    def test_shuffled_batch_property(self, engine, mixed_requests, shuffle_seed):
        """Property over batch orderings: shuffling the batch permutes the
        responses identically — answers depend only on the request."""
        expected = _sequential_answers(engine, mixed_requests)
        order = list(range(len(mixed_requests)))
        random.Random(shuffle_seed).shuffle(order)
        shuffled = [mixed_requests[i] for i in order]
        service = QueryService(engine, max_workers=8)
        responses = service.search_many(shuffled)
        got = _response_answers(responses)
        assert got == [expected[i] for i in order]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_worker_count_is_invisible(self, engine, mixed_requests, workers):
        subset = mixed_requests[:12]
        expected = _sequential_answers(engine, subset)
        service = QueryService(engine, max_workers=workers)
        assert _response_answers(service.search_many(subset)) == expected

    def test_bare_queries_accepted(self, engine, mixed_requests):
        queries = [r.query for r in mixed_requests[:6]]
        service = QueryService(engine)
        responses = service.search_many(queries, k=4, order_sensitive=True)
        expected = _sequential_answers(
            engine, [QueryRequest(q, k=4, order_sensitive=True) for q in queries]
        )
        assert _response_answers(responses) == expected


class TestThreadSafety:
    def test_concurrent_queries_against_one_engine(self, engine, mixed_requests):
        """≥8 raw threads fire simultaneously at one engine; every thread
        must get the same answer and its own uncorrupted counters."""
        requests = mixed_requests[:8]
        expected = _sequential_answers(engine, requests)
        barrier = threading.Barrier(len(requests))
        answers = [None] * len(requests)
        stats = [None] * len(requests)
        errors = []

        def worker(i, req):
            try:
                barrier.wait(timeout=30)
                ctx = engine.execute(req.query, req.k, order_sensitive=req.order_sensitive)
                answers[i] = [(r.trajectory_id, r.distance) for r in ctx.ranked]
                stats[i] = ctx.stats
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, req))
            for i, req in enumerate(requests)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert answers == expected
        # Each thread saw its own query's counters, not a neighbour's.
        for s in stats:
            assert s is not None and s.rounds >= 1
        assert len({id(s) for s in stats}) == len(stats)


class TestServiceStats:
    def test_stats_aggregate(self, engine, mixed_requests):
        service = QueryService(engine, max_workers=4)
        n = 10
        service.search_many(mixed_requests[:n])
        stats = service.stats()
        assert stats.queries == n
        assert stats.wall_seconds > 0.0
        assert stats.qps > 0.0
        assert 0.0 < stats.latency_p50_s <= stats.latency_p95_s
        assert stats.latency_mean_s > 0.0
        assert 0.0 <= stats.hicl_cache_hit_rate <= 1.0
        assert 0.0 <= stats.apl_cache_hit_rate <= 1.0
        service.reset_stats()
        assert service.stats().queries == 0

    def test_single_search(self, engine, mixed_requests):
        service = QueryService(engine)
        req = mixed_requests[0]
        resp = service.search(req)
        run = engine.oatsq if req.order_sensitive else engine.atsq
        expected = [(r.trajectory_id, r.distance) for r in run(req.query, req.k)]
        assert [(r.trajectory_id, r.distance) for r in resp.results] == expected
        assert resp.latency_s > 0.0
        assert service.stats().queries == 1

    def test_bad_workers_rejected(self, engine):
        with pytest.raises(ValueError):
            QueryService(engine, max_workers=0)


class TestServingMetricsReset:
    """The front's busy wall clock against a reset: driven through
    ``ServingFront.serve`` with a fake clock and a backend that resets the
    stats while its request is in flight."""

    @staticmethod
    def _front():
        from types import SimpleNamespace

        from repro.service.service import ServingFront

        return ServingFront(SimpleNamespace(version=0), result_cache_size=0)

    @staticmethod
    def _answer(requests, latency_s, disk_reads=0):
        from repro.core.context import SearchStats
        from repro.service.service import QueryResponse

        return [
            QueryResponse(request, [], SearchStats(disk_reads=disk_reads), latency_s)
            for request in requests
        ]

    def test_reset_mid_flight_reanchors_busy_interval(self, monkeypatch, mixed_requests):
        """Regression: reset() while queries are in flight must restart
        the open busy interval.  Pre-fix, the first exit_busy() after a
        reset folded the entire *pre-reset* busy stretch back into
        wall_seconds, deflating qps for the freshly zeroed window."""
        from repro.service import service as service_mod

        clock = {"now": 100.0}

        class _FakeTime:
            @staticmethod
            def perf_counter():
                return clock["now"]

        monkeypatch.setattr(service_mod, "time", _FakeTime)
        front = self._front()

        def execute(requests):
            clock["now"] += 50.0  # long pre-reset busy stretch
            front.reset_stats()  # stats zeroed while the query is still in flight
            clock["now"] += 2.0  # post-reset serving time
            return self._answer(requests, 2.0)

        front.serve(mixed_requests[:1], execute)
        stats = front.stats()
        assert stats.queries == 1
        # Only the post-reset 2 s count; the 50 s before reset must not.
        assert stats.wall_seconds == pytest.approx(2.0)
        assert stats.qps == pytest.approx(0.5)

    def test_reset_while_idle_still_zeroes(self, mixed_requests):
        front = self._front()
        front.serve(mixed_requests[:1], lambda requests: self._answer(requests, 0.5, 3))
        front.reset_stats()
        stats = front.stats()
        assert stats.queries == 0
        assert stats.wall_seconds == 0.0
        assert stats.disk_reads == 0


class TestBatchedExplain:
    def test_search_many_forwards_explain(self, engine, mixed_requests):
        """Regression: ``explain`` was silently dropped by search_many
        (there was no way to batch explain queries at all — the keyword
        did not exist), even though the result-cache key includes it."""
        queries = [r.query for r in mixed_requests[:5]]
        with QueryService(engine, result_cache_size=0) as service:
            batched = service.search_many(queries, k=4, explain=True)
            assert all(resp.request.explain for resp in batched)
            for query, response in zip(queries, batched):
                single = service.search(query, k=4, explain=True)
                assert [
                    (r.trajectory_id, r.distance, r.matches)
                    for r in response.results
                ] == [
                    (r.trajectory_id, r.distance, r.matches)
                    for r in single.results
                ]
                assert all(r.matches is not None for r in response.results)

    def test_search_many_default_stays_plain(self, engine, mixed_requests):
        queries = [r.query for r in mixed_requests[:3]]
        with QueryService(engine, result_cache_size=0) as service:
            for response in service.search_many(queries, k=3):
                assert response.request.explain is False
                assert all(r.matches is None for r in response.results)


class TestOneShardFanout:
    """QueryService is the one-shard case of the sharded backend."""

    def test_search_runs_the_engine_on_the_calling_thread(self, index, mixed_requests):
        engine = GATSearchEngine(index)
        threads = []
        execute = engine.execute

        def recording_execute(*args, **kwargs):
            threads.append(threading.get_ident())
            return execute(*args, **kwargs)

        engine.execute = recording_execute
        with QueryService(engine, result_cache_size=0) as service:
            assert service.placement.banks == [[engine]]  # no second engine
            for request in mixed_requests[:3]:
                service.search(request)
        assert threads == [threading.get_ident()] * 3

    def test_search_many_runs_its_last_request_on_the_caller(self, index, mixed_requests):
        engine = GATSearchEngine(index)
        threads = []
        execute = engine.execute

        def recording_execute(query, *args, **kwargs):
            threads.append((query, threading.get_ident()))
            return execute(query, *args, **kwargs)

        engine.execute = recording_execute
        batch = mixed_requests[:6]
        with QueryService(engine, max_workers=2, result_cache_size=0) as service:
            service.search_many(batch)
        on_caller = [q for q, ident in threads if ident == threading.get_ident()]
        assert on_caller == [batch[-1].query]
        assert len(threads) == len(batch)

    def test_engine_errors_arrive_wrapped(self, index, mixed_requests):
        engine = GATSearchEngine(index)
        boom = ValueError("engine failure")

        def failing_execute(*args, **kwargs):
            raise boom

        engine.execute = failing_execute
        with QueryService(engine, result_cache_size=0) as service:
            with pytest.raises(ShardTaskError) as info:
                service.search(mixed_requests[0])
        assert info.value.original is boom
        assert info.value.shard_id == 0

    def test_overflow_rebuild_keeps_the_engines_metric_and_config(self, tiny_db):
        """An overflow insert through the one-shard fleet replaces bank 0's
        index; the engine rebuilt over it keeps the caller's metric and
        :class:`EngineConfig` (the service holds neither of its own)."""
        import copy

        from repro.core.engine import EngineConfig
        from repro.core.query import Query, QueryPoint
        from repro.model.distance import EuclideanDistance
        from repro.model.point import TrajectoryPoint
        from repro.model.trajectory import ActivityTrajectory

        class SentinelMetric(EuclideanDistance):
            __slots__ = ()

        db = copy.deepcopy(tiny_db)
        metric = SentinelMetric()
        config = EngineConfig(kernel="scalar", apl_cache_size=7)
        engine = GATSearchEngine(
            GATIndex.build(db, GATConfig(depth=4, memory_levels=3)),
            metric=metric,
            config=config,
        )
        box = db.bounding_box
        anchor = next(p for tr in db for p in tr if p.activities)
        outside = ActivityTrajectory(
            max(tr.trajectory_id for tr in db) + 1,
            [TrajectoryPoint(box.max_x + 2.0, box.max_y + 2.0, frozenset(anchor.activities))],
        )
        query = Query(
            [QueryPoint(outside[0].x, outside[0].y, frozenset(list(anchor.activities)[:1]))]
        )
        with QueryService(engine, result_cache_size=0) as service:
            service.search(query, k=1)
            service.index.insert_trajectory(outside)  # overflow rebuild
            assert service.index.shards[0] is not engine.index
            response = service.search(query, k=1)
            (rebuilt,) = service.placement.banks[0]
        assert rebuilt is not engine
        assert rebuilt.index is service.index.shards[0]
        assert rebuilt.metric is metric
        assert rebuilt.config == config
        assert response.results[0].trajectory_id == outside.trajectory_id

    def test_is_a_sharded_service_with_its_own_search(self):
        assert issubclass(QueryService, ShardedQueryService)
        assert "search" in vars(QueryService)


@pytest.mark.parametrize(
    "first",
    [
        "from repro.service.service import QueryRequest, QueryResponse, QueryService",
        "import repro.shard.service",
    ],
    ids=["service-first", "shard-first"],
)
def test_public_names_import_in_either_order(first):
    """A fresh interpreter imports the public names whichever module it
    meets first: the subclass adds no import cycle."""
    code = (
        f"{first}\n"
        "from repro.service.service import QueryRequest, QueryResponse, QueryService\n"
        "from repro.service import QueryService as exported\n"
        "from repro.shard.service import QueryService as defined, ShardedQueryService\n"
        "assert QueryService is exported is defined\n"
        "assert issubclass(QueryService, ShardedQueryService)\n"
    )
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=env)
