"""The serving contract both query services keep, because one
:class:`~repro.service.service.ServingFront` keeps it for them.

Every test runs twice: against :class:`QueryService` over one index and
against :class:`ShardedQueryService` over two shards on the serial
executor.  What is asserted here is what the front owns — result-cache
identity and freshness, invalidation on insert, the version-guarded put,
cache/hit-rate accounting across ``reset_stats``, busy-wall QPS under
concurrent callers, request-order responses, and use-after-close —
never anything about how a backend executes a miss.
"""

import copy
import threading
import time

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.context import SearchStats
from repro.core.engine import GATSearchEngine
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.service import QueryRequest, QueryResponse, QueryService
from repro.service import service as service_mod
from repro.shard import ShardedGATIndex, ShardedQueryService

CONFIG = GATConfig(depth=4, memory_levels=3)
K = 4


@pytest.fixture()
def db(tiny_db):
    # Inserting tests mutate the database; the session fixture stays pristine.
    return copy.deepcopy(tiny_db)


@pytest.fixture(params=["single", "sharded"])
def make_service(request, db):
    """``make_service(**service_kwargs) -> (service, index)``; every
    service built through it is closed at teardown."""
    built = []

    def make(**kwargs):
        if request.param == "single":
            index = GATIndex.build(db, CONFIG)
            service = QueryService(GATSearchEngine(index), **kwargs)
        else:
            index = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
            service = ShardedQueryService(index, executor="serial", **kwargs)
        built.append(service)
        return service, index

    yield make
    for service in built:
        service.close()


@pytest.fixture()
def queries(db):
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=17)
    )
    return gen.queries(4)


def _answers(response):
    return [(r.trajectory_id, r.distance) for r in response.results]


def _perfect_match(db, query):
    """A fresh trajectory sitting exactly on the query's points with all
    their activities — distance zero, so it leads any top-k."""
    tid = max(tr.trajectory_id for tr in db) + 1
    return ActivityTrajectory(
        tid, [TrajectoryPoint(p.x, p.y, frozenset(p.activities)) for p in query]
    )


def _racing_execute(monkeypatch, service, before=None, after=None):
    """Run *before* / *after* around the backend's ``execute`` of the next
    ``serve`` call only — i.e. while that request is mid-query, inside
    the front's busy interval."""
    real_serve = service._front.serve
    armed = [True]

    def serve(requests, execute, on_stale=None):
        if not armed:
            return real_serve(requests, execute, on_stale)
        armed.clear()

        def racing(misses):
            if before is not None:
                before()
            responses = execute(misses)
            if after is not None:
                after()
            return responses

        return real_serve(requests, racing, on_stale)

    monkeypatch.setattr(service._front, "serve", serve)


# ----------------------------------------------------------------------
# Result-cache identity
# ----------------------------------------------------------------------
def test_repeat_request_hits_cache(make_service, queries):
    service, _ = make_service()
    first = service.search(queries[0], k=K)
    second = service.search(queries[0], k=K)
    assert _answers(second) == _answers(first)
    assert first.stats.rounds >= 1
    # The hit did no engine work, and is complete by construction...
    assert second.stats == SearchStats()
    assert second.complete and second.shards_total == first.shards_total
    # ...and the accounting says one hit out of two lookups.
    stats = service.stats()
    assert (stats.result_cache_hits, stats.result_cache_lookups) == (1, 2)
    assert stats.result_cache_hit_rate == 0.5
    assert stats.queries == 2


def test_signature_includes_options(make_service, queries):
    service, _ = make_service()
    service.search(queries[0], k=K)
    service.search(queries[0], k=K + 1)  # different k -> miss
    service.search(queries[0], k=K, order_sensitive=True)  # different mode -> miss
    service.search(queries[0], k=K, explain=True)  # different explain -> miss
    service.search(queries[1], k=K)  # different points -> miss
    assert service.stats().result_cache_hits == 0
    service.search(queries[0], k=K)  # exact repeat -> hit
    assert service.stats().result_cache_hits == 1


def test_deadline_is_not_part_of_the_signature(make_service, queries):
    service, _ = make_service()
    patient = service.search(QueryRequest(queries[0], k=K, deadline_s=30.0))
    hurried = service.search(QueryRequest(queries[0], k=K, deadline_s=0.5))
    assert hurried.stats.rounds == 0
    assert hurried.request.deadline_s == 0.5
    assert _answers(hurried) == _answers(patient)


def test_every_hit_is_a_fresh_list(make_service, queries):
    service, _ = make_service()
    first = service.search(queries[0], k=K)
    expected = _answers(first)
    assert expected
    first.results.clear()  # caller mutation must not poison the cache
    second = service.search(queries[0], k=K)
    second.results.clear()
    assert _answers(service.search(queries[0], k=K)) == expected


def test_cache_disabled(make_service, queries):
    service, _ = make_service(result_cache_size=0)
    first = service.search(queries[0], k=K)
    again = service.search(queries[0], k=K)
    assert _answers(again) == _answers(first)
    assert again.stats.rounds >= 1  # really re-executed
    stats = service.stats()
    assert stats.result_cache_lookups == 0
    assert stats.result_cache_hit_rate == 0.0


def test_negative_cache_size_rejected(make_service):
    with pytest.raises(ValueError):
        make_service(result_cache_size=-1)


def test_response_i_answers_request_i(make_service, queries):
    oracle, _ = make_service(result_cache_size=0)
    expected = [_answers(oracle.search(q, k=K)) for q in queries]
    service, _ = make_service()
    service.search(queries[1], k=K)  # warm one signature only
    order = [0, 1, 2, 1, 3]  # miss, hit, miss, hit, miss
    requests = [QueryRequest(queries[i], k=K) for i in order]
    responses = service.search_many(requests)
    assert [r.request for r in responses] == requests
    assert [_answers(r) for r in responses] == [expected[i] for i in order]
    assert [r.stats.rounds == 0 for r in responses] == [i == 1 for i in order]


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def test_insert_invalidates_cached_results(make_service, db, queries):
    service, index = make_service()
    before = service.search(queries[0], k=K)
    assert service.search(queries[0], k=K).stats.rounds == 0
    newcomer = _perfect_match(db, queries[0])
    index.insert_trajectory(newcomer)

    after = service.search(queries[0], k=K)
    # Recomputed, not served stale: the perfect match now leads.
    assert after.stats.rounds >= 1
    assert after.results[0].trajectory_id == newcomer.trajectory_id
    assert _answers(after) != _answers(before)
    # And the recomputed answer is itself cached again.
    repeat = service.search(queries[0], k=K)
    assert repeat.stats.rounds == 0
    assert _answers(repeat) == _answers(after)


def test_backend_resyncs_before_version_publish(make_service, db, queries):
    service, index = make_service()
    front = service._front
    service.search(queries[0], k=K)
    old_version = front.version
    index.insert_trajectory(_perfect_match(db, queries[0]))
    seen = []

    def on_stale():
        seen.append(front.version)
        return ()

    assert front.serve((), lambda requests: [], on_stale) == []
    assert seen == [old_version]
    assert front.version == index.version != old_version


def test_put_refused_when_an_insert_lands_mid_query(make_service, db, queries, monkeypatch):
    """The query starts against version v; while it runs, an insert lands
    and another search sweeps the cache and publishes v+1.  The first
    query's pre-insert ranking must not be cached behind the sweep."""
    service, index = make_service()
    newcomer = _perfect_match(db, queries[0])

    def insert_and_sweep():
        index.insert_trajectory(newcomer)
        service.search(queries[1], k=K)

    _racing_execute(monkeypatch, service, after=insert_and_sweep)
    service.search(queries[0], k=K)

    after = service.search(queries[0], k=K)
    assert after.stats.rounds >= 1  # not a hit on the refused entry
    assert after.results[0].trajectory_id == newcomer.trajectory_id


def test_only_complete_responses_are_cached(make_service, queries):
    service, _ = make_service()
    request = QueryRequest(queries[0], k=K)
    partial = QueryResponse(
        request, [], SearchStats(), 0.0, shards_answered=0, shards_total=2
    )
    assert service._front.serve((request,), lambda requests: [partial]) == [partial]
    assert service.search(request).stats.rounds >= 1


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def test_reset_stats_zeroes_cache_accounting(make_service, queries):
    service, _ = make_service()
    for _ in range(3):
        service.search_many(queries, k=K)
    service.reset_stats()
    stats = service.stats()
    assert stats.queries == 0 and stats.wall_seconds == 0.0
    assert (stats.result_cache_hits, stats.result_cache_lookups) == (0, 0)
    assert stats.hicl_cache_hit_rate == 0.0 and stats.apl_cache_hit_rate == 0.0
    # Deltas since the reset, not since construction.
    service.search_many(queries, k=K + 1)
    stats = service.stats()
    assert stats.queries == len(queries)
    assert stats.result_cache_lookups == len(queries)
    assert 0.0 <= stats.hicl_cache_hit_rate <= 1.0
    assert 0.0 <= stats.apl_cache_hit_rate <= 1.0


def test_reset_stats_mid_flight_reanchors_busy_wall(make_service, queries, monkeypatch):
    service, _ = make_service(result_cache_size=0)
    clock = {"now": 100.0}

    class _FakeTime:
        @staticmethod
        def perf_counter():
            return clock["now"]

    monkeypatch.setattr(service_mod, "time", _FakeTime)

    def long_stretch_then_reset():
        clock["now"] += 50.0  # busy, pre-reset
        service.reset_stats()
        clock["now"] += 2.0  # busy, post-reset

    _racing_execute(monkeypatch, service, before=long_stretch_then_reset)
    service.search(queries[0], k=K)
    stats = service.stats()
    assert stats.queries == 1
    # Only the post-reset 2 s count; the 50 s before the reset must not.
    assert stats.wall_seconds == pytest.approx(2.0)
    assert stats.qps == pytest.approx(0.5)


def test_concurrent_clients_share_one_busy_wall(make_service, queries):
    """Several client threads inside ``search_many`` at once: the busy
    wall is the union of their intervals, so it can exceed no client's
    view of elapsed time, and ``qps = queries / busy wall``."""
    service, _ = make_service(result_cache_size=0)
    n_clients = 3
    barrier = threading.Barrier(n_clients)
    spans = []
    failures = []

    def client():
        try:
            barrier.wait(timeout=30)
            t0 = time.perf_counter()
            responses = service.search_many(queries, k=K)
            spans.append((t0, time.perf_counter()))
            if [r.request.query for r in responses] != list(queries):
                failures.append("order")
        except Exception as exc:  # pragma: no cover - failure diagnostics
            failures.append(exc)

    threads = [threading.Thread(target=client) for _ in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    stats = service.stats()
    assert stats.queries == n_clients * len(queries)
    elapsed = max(end for _, end in spans) - min(start for start, _ in spans)
    assert 0.0 < stats.wall_seconds <= elapsed
    assert stats.qps == pytest.approx(stats.queries / stats.wall_seconds)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_use_after_close_raises_before_any_work(make_service, queries):
    service, _ = make_service(result_cache_size=0)
    service.search_many(queries, k=K)
    served = service.stats().queries
    service.close()
    service.close()  # idempotent
    threads_after_close = threading.active_count()
    with pytest.raises(RuntimeError, match="after close"):
        service.search(queries[0], k=K)
    with pytest.raises(RuntimeError, match="after close"):
        service.search_many(queries, k=K)
    # Nothing ran and no pool was resurrected; stats stay readable.
    assert threading.active_count() == threads_after_close
    assert service.stats().queries == served
