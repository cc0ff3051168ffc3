"""Unit tests for the trajectory-level inverted index (IL baseline)."""

import pytest

from repro.index.inverted import InvertedIndex
from repro.model.database import TrajectoryDatabase


@pytest.fixture
def db():
    return TrajectoryDatabase.from_raw(
        [
            [(0, 0, ["a", "b"]), (1, 1, ["c"])],
            [(2, 2, ["a"]), (3, 3, ["a"])],
            [(4, 4, ["b", "c"])],
        ]
    )


class TestPostings:
    def test_posting_contents(self, db):
        idx = InvertedIndex.build(db)
        v = db.vocabulary
        assert idx.posting(v.id_of("a")) == (0, 1)
        assert idx.posting(v.id_of("b")) == (0, 2)
        assert idx.posting(v.id_of("c")) == (0, 2)

    def test_posting_deduplicates_within_trajectory(self, db):
        # Trajectory 1 has 'a' twice but appears once in the posting.
        idx = InvertedIndex.build(db)
        assert idx.posting(db.vocabulary.id_of("a")).count(1) == 1

    def test_unknown_activity_empty(self, db):
        assert InvertedIndex.build(db).posting(99) == ()


class TestIntersection:
    def test_with_all(self, db):
        idx = InvertedIndex.build(db)
        v = db.vocabulary
        assert idx.trajectories_with_all([v.id_of("a"), v.id_of("b")]) == {0}
        assert idx.trajectories_with_all([v.id_of("b"), v.id_of("c")]) == {0, 2}

    def test_with_all_empty_activity_set(self, db):
        assert InvertedIndex.build(db).trajectories_with_all([]) == set()

    def test_with_all_missing_activity(self, db):
        idx = InvertedIndex.build(db)
        assert idx.trajectories_with_all([db.vocabulary.id_of("a"), 99]) == set()

    def test_matches_definition_on_random_db(self, small_db):
        """Intersection must equal the set of trajectories whose activity
        union covers the query set (Definition 5 prerequisite)."""
        import random

        idx = InvertedIndex.build(small_db)
        rng = random.Random(3)
        all_ids = list(range(len(small_db.vocabulary)))
        for _ in range(20):
            acts = rng.sample(all_ids, rng.randint(1, 4))
            want = {
                tr.trajectory_id
                for tr in small_db
                if frozenset(acts) <= tr.activity_union
            }
            assert idx.trajectories_with_all(acts) == want


class TestVectorizedSetOps:
    """The NumPy intersection path must agree exactly with the scalar set
    algebra, above and below the batch-size cutover."""

    @pytest.fixture
    def big_db(self):
        import random

        rng = random.Random(5)
        raw = []
        for _ in range(300):
            names = rng.sample(["a", "b", "c", "d", "e"], rng.randint(1, 3))
            raw.append([(rng.random(), rng.random(), names)])
        return TrajectoryDatabase.from_raw(raw)

    def _scalar_reference(self, idx, activities):
        postings = [set(idx.posting(a)) for a in activities]
        if not postings:
            return set()
        out = postings[0]
        for p in postings[1:]:
            out &= p
        return out

    @pytest.mark.parametrize("names", [["a"], ["a", "b"], ["a", "b", "c"], ["a", "zzz-missing"]])
    def test_with_all_matches_scalar(self, big_db, names):
        idx = InvertedIndex.build(big_db)
        acts = [big_db.vocabulary.id_of(n) if n != "zzz-missing" else 9999 for n in names]
        assert idx.trajectories_with_all(acts) == self._scalar_reference(idx, acts)

    def test_small_inputs_take_the_scalar_path(self, db):
        # The tiny fixture sits below MIN_BATCH; exercised for coverage of
        # the fallback and agreement on duplicates in the activity list.
        idx = InvertedIndex.build(db)
        v = db.vocabulary
        a = v.id_of("a")
        assert idx.trajectories_with_all([a, a]) == set(idx.posting(a))
