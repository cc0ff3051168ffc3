"""QueryService result cache on the batched path.

What the cache guarantees — signature keying, fresh lists, invalidation
on insert, accounting — is asserted once for both services in
``test_service_contract.py``; what stays here is specific to
``QueryService.search_many``: pooled workers looking a warm cache up
concurrently, and an insert landing between two batches.
"""

import pytest

from repro.core.engine import GATSearchEngine
from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.service import QueryRequest, QueryService


@pytest.fixture()
def db():
    config = GeneratorConfig(
        n_users=80,
        n_venues=200,
        vocabulary_size=100,
        width_km=12.0,
        height_km=10.0,
        n_hotspots=4,
        checkins_per_user_mean=8.0,
        activities_per_checkin_mean=2.0,
        seed=4321,
    )
    return CheckInGenerator(config).generate(name="result-cache")


@pytest.fixture()
def index(db):
    return GATIndex.build(db, GATConfig(depth=5, memory_levels=4))


@pytest.fixture()
def engine(index):
    return GATSearchEngine(index)


@pytest.fixture()
def query(db):
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=5)
    )
    return gen.query()


def _answers(responses_or_results):
    return [(r.trajectory_id, r.distance) for r in responses_or_results]


class TestResultCacheHits:
    def test_search_many_hits_warm_cache(self, engine, query):
        service = QueryService(engine, max_workers=4)
        expected = _answers(service.search(query, k=5).results)
        # Concurrent identical requests against the *warm* cache all hit
        # (a cold batch may race its first wave into parallel misses —
        # duplicated work, never a wrong answer).
        responses = service.search_many([QueryRequest(query, k=5)] * 6)
        assert all(_answers(r.results) == expected for r in responses)
        assert service.stats().result_cache_hits == 6


class TestInvalidationOnInsert:
    def _new_trajectory(self, db, index, query):
        """A fresh trajectory sitting exactly on the query locations and
        carrying all its activities — guaranteed to enter any top-k."""
        tid = max(t.trajectory_id for t in db.trajectories) + 1
        activities = sorted(query.all_activities)
        points = [
            TrajectoryPoint(q.x, q.y, frozenset(activities)) for q in query
        ]
        return ActivityTrajectory(tid, points)

    def test_insert_between_batches(self, db, index, engine, query):
        service = QueryService(engine, max_workers=2)
        service.search_many([QueryRequest(query, k=5)] * 3)
        index.insert_trajectory(self._new_trajectory(db, index, query))
        responses = service.search_many([QueryRequest(query, k=5)] * 3)
        tids = {r.results[0].trajectory_id for r in responses}
        assert len(tids) == 1  # consistent post-insert answers
