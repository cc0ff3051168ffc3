"""End-to-end pipeline: generate -> persist -> reload -> index -> query.

Exercises the full public API surface the README advertises, in one flow,
asserting results are identical before and after a save/load round trip.
"""

import math

import pytest

from repro import (
    CheckInGenerator,
    GATConfig,
    GATIndex,
    GATSearchEngine,
    GeneratorConfig,
    InvertedListSearch,
    Query,
)
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.data.loader import load_database, save_database


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    db = CheckInGenerator(
        GeneratorConfig(
            n_users=80,
            n_venues=200,
            vocabulary_size=120,
            width_km=12.0,
            height_km=10.0,
            checkins_per_user_mean=8.0,
            seed=314,
        )
    ).generate(name="e2e")
    path = tmp_path_factory.mktemp("data") / "e2e.npz"
    save_database(db, path)
    reloaded = load_database(path)
    return db, reloaded


def test_roundtrip_preserves_queries(pipeline):
    db, reloaded = pipeline
    engine_a = GATSearchEngine(GATIndex.build(db, GATConfig(depth=4, memory_levels=3)))
    engine_b = GATSearchEngine(
        GATIndex.build(reloaded, GATConfig(depth=4, memory_levels=3))
    )
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=1)
    )
    for q in gen.queries(5):
        a = [(r.trajectory_id, round(r.distance, 9)) for r in engine_a.atsq(q, 5)]
        b = [(r.trajectory_id, round(r.distance, 9)) for r in engine_b.atsq(q, 5)]
        assert a == b


def test_named_query_api(pipeline):
    db, _ = pipeline
    engine = GATSearchEngine(GATIndex.build(db, GATConfig(depth=4, memory_levels=3)))
    # Use the two globally most frequent activity names.
    names = [db.vocabulary.name_of(0), db.vocabulary.name_of(1)]
    box = db.bounding_box
    cx = (box.min_x + box.max_x) / 2
    cy = (box.min_y + box.max_y) / 2
    q = Query.from_named(db.vocabulary, [(cx, cy, names)])
    results = engine.atsq(q, 3)
    il = InvertedListSearch(db)
    want = [round(r.distance, 9) for r in il.atsq(q, 3)]
    assert [round(r.distance, 9) for r in results] == want


def test_results_are_actionable(pipeline):
    """The explain output points at real check-ins that cover the asks."""
    db, _ = pipeline
    engine = GATSearchEngine(GATIndex.build(db, GATConfig(depth=4, memory_levels=3)))
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=1, seed=2)
    )
    q = gen.query()
    for r in engine.atsq(q, 3, explain=True):
        tr = db.get(r.trajectory_id)
        assert not math.isinf(r.distance)
        for qp, match in zip(q, r.matches):
            assert match  # non-empty point match
            covered = set()
            for pos in match:
                covered |= tr[pos].activities
            assert qp.activities <= covered


def test_oatsq_pipeline(pipeline):
    db, _ = pipeline
    engine = GATSearchEngine(GATIndex.build(db, GATConfig(depth=4, memory_levels=3)))
    il = InvertedListSearch(db)
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=3, n_activities_per_point=1, seed=3)
    )
    for q in gen.queries(3):
        a = [round(r.distance, 9) for r in engine.oatsq(q, 4)]
        b = [round(r.distance, 9) for r in il.oatsq(q, 4)]
        assert a == b
