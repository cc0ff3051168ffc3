"""Unit tests for the trajectory database."""

import random

import pytest

from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.vocabulary import Vocabulary


RAW = [
    [(0.0, 0.0, ["food", "coffee"]), (1.0, 1.0, ["food"])],
    [(2.0, 2.0, ["museum"]), (3.0, 3.0, ["food", "museum"]), (4.0, 4.0, [])],
    [(5.0, 5.0, ["coffee"])],
]


@pytest.fixture
def db():
    return TrajectoryDatabase.from_raw(RAW, name="unit")


class TestConstruction:
    def test_from_raw_counts(self, db):
        assert len(db) == 3
        assert db.n_points() == 6

    def test_vocabulary_is_frequency_ordered(self, db):
        # food x3, coffee x2, museum x2; ties alphabetical.
        assert db.vocabulary.id_of("food") == 0
        assert db.vocabulary.id_of("coffee") == 1
        assert db.vocabulary.id_of("museum") == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryDatabase.from_raw([])

    def test_duplicate_ids_rejected(self):
        v = Vocabulary(["x"])
        tr = ActivityTrajectory(7, [TrajectoryPoint(0, 0, frozenset({0}))])
        with pytest.raises(ValueError):
            TrajectoryDatabase([tr, tr], v)

    def test_get_and_contains(self, db):
        assert db.get(1).trajectory_id == 1
        assert 2 in db
        assert 99 not in db
        with pytest.raises(KeyError):
            db.get(99)


class TestDerivedFacts:
    def test_bounding_box_covers_all_points(self, db):
        box = db.bounding_box
        for tr in db:
            for p in tr:
                assert box.min_x <= p.x <= box.max_x
                assert box.min_y <= p.y <= box.max_y

    def test_statistics_table4_fields(self, db):
        stats = db.statistics()
        assert stats.n_trajectories == 3
        assert stats.n_activities == 7  # occurrences, not points
        assert stats.n_distinct_activities == 3
        rows = dict(stats.as_rows())
        assert rows["#trajectory"] == 3
        assert rows["#distinct activity"] == 3

    def test_statistics_counts_venues_by_id_when_present(self):
        v = Vocabulary(["x"])
        trs = [
            ActivityTrajectory(
                0,
                [
                    TrajectoryPoint(0, 0, frozenset({0}), venue_id=5),
                    TrajectoryPoint(1, 1, frozenset({0}), venue_id=5),
                ],
            )
        ]
        db = TrajectoryDatabase(trs, v)
        assert db.statistics().n_venues == 1


class TestSampling:
    def test_sample_subset_size(self, db):
        rng = random.Random(1)
        sub = db.sample(2, rng)
        assert len(sub) == 2
        assert sub.vocabulary is db.vocabulary

    def test_sample_preserves_ids(self, db):
        rng = random.Random(1)
        sub = db.sample(2, rng)
        for tr in sub:
            assert db.get(tr.trajectory_id).points == tr.points

    def test_sample_at_or_above_size_returns_self(self, db):
        rng = random.Random(1)
        assert db.sample(3, rng) is db
        assert db.sample(10, rng) is db
