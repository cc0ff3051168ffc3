"""The baselines' answers and work are pinned, and their builds read the
database's columns, not trajectory views."""

import hashlib
from dataclasses import asdict

import pytest

from repro.baselines import InvertedListSearch, IRTreeSearch, RTreeSearch
from repro.baselines.base import BaselineStats
from repro.baselines.rt import _NearestStream
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.query import Query, QueryPoint
from repro.data.presets import dataset_from_preset
from repro.model.trajectory import ActivityTrajectory

SEARCHERS = {"IL": InvertedListSearch, "RT": RTreeSearch, "IRT": IRTreeSearch}

#: sha256 over every ranking (ids, distances as float hex) and every
#: ``BaselineStats`` field of IL / RT / IRT on :func:`_pinned_cases`,
#: computed before the IR-tree became the R-tree packed with activities.
PINNED = "a834db85894f259f32cd18cacb4acdf94ae52a113b058e557c06cbb91a75f6ff"

SHAPES = [(1, 1), (2, 2), (4, 3), (6, 4)]


@pytest.fixture(scope="module")
def la_db():
    return dataset_from_preset("la", scale=0.01)


@pytest.fixture(scope="module")
def la_searchers(la_db):
    return {name: cls(la_db) for name, cls in SEARCHERS.items()}


def _pinned_cases(db):
    """12 seeded queries over the four query shapes, with k in {1, 9, 20}."""
    for seed in range(12):
        nq, na = SHAPES[seed % len(SHAPES)]
        config = WorkloadConfig(n_query_points=nq, n_activities_per_point=na, seed=seed)
        yield QueryWorkloadGenerator(db, config).query(), (1, 9, 20)[seed % 3]


def test_rankings_and_work_are_pinned(la_db, la_searchers):
    digest = hashlib.sha256()
    for query, k in _pinned_cases(la_db):
        for name, searcher in la_searchers.items():
            for order_sensitive in (False, True):
                ranked, stats = searcher.execute(query, k, order_sensitive)
                ranking = [(r.trajectory_id, float(r.distance).hex()) for r in ranked]
                digest.update(repr((name, order_sensitive, ranking, asdict(stats))).encode())
    assert digest.hexdigest() == PINNED


def test_every_retrieved_candidate_is_scored_or_pruned(la_db, la_searchers):
    for query, k in _pinned_cases(la_db):
        for name, searcher in la_searchers.items():
            for order_sensitive in (False, True):
                stats = searcher.execute(query, k, order_sensitive).stats
                assert stats.candidates_scored + stats.pruned_invalid == stats.candidates_retrieved
                if name == "IL":  # its candidates hold every query activity
                    assert stats.pruned_invalid == 0


def test_baseline_builds_read_no_view(tiny_db, monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a baseline build built a trajectory view")

    monkeypatch.setattr(ActivityTrajectory, "view", forbidden)
    monkeypatch.setattr(ActivityTrajectory, "__init__", forbidden)
    for cls in SEARCHERS.values():
        cls(tiny_db)


def _point_sets(db):
    return [(p.x, p.y, p.activities) for tr in db for p in tr]


@pytest.mark.parametrize("seed", range(4))
def test_irt_stream_pops_exactly_the_points_meeting_the_query(tiny_db, seed):
    irt = IRTreeSearch(tiny_db)
    query = QueryWorkloadGenerator(tiny_db, WorkloadConfig(n_query_points=1, seed=seed)).query()
    activities = query.all_activities
    stream = _NearestStream(irt.tree, query[0].coord, BaselineStats(), activities)
    popped = []
    while (item := stream.pop_point()) is not None:
        dist, entry = item
        assert not entry.activities.isdisjoint(activities)
        popped.append(dist)
    assert popped == sorted(popped)
    want = [p for p in _point_sets(tiny_db) if not p[2].isdisjoint(activities)]
    assert len(popped) == stream.stats.points_popped == len(want)


def test_rt_stream_pops_every_point_nearest_first(tiny_db):
    rt = RTreeSearch(tiny_db)
    stream = _NearestStream(rt.tree, (0.0, 0.0), BaselineStats())
    popped = []
    while (item := stream.pop_point()) is not None:
        popped.append(item[0])
    assert popped == sorted(popped)
    assert len(popped) == len(_point_sets(tiny_db))


def test_irt_query_the_root_lacks_reads_no_node(tiny_db):
    absent = max(tiny_db.columns.activities.tolist()) + 1
    query = Query([QueryPoint(1.0, 1.0, frozenset({absent}))])
    for order_sensitive in (False, True):
        ranked, stats = IRTreeSearch(tiny_db).execute(query, 3, order_sensitive)
        assert ranked == []
        assert stats == BaselineStats()
