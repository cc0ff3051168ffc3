"""Unit tests for the query model."""

import math

import pytest

from repro.core.query import Query, QueryPoint
from repro.model.vocabulary import Vocabulary


class TestQueryPoint:
    def test_requires_activities(self):
        with pytest.raises(ValueError):
            QueryPoint(0.0, 0.0, frozenset())

    def test_coord(self):
        q = QueryPoint(1.0, 2.0, frozenset({3}))
        assert q.coord == (1.0, 2.0)


class TestQuery:
    def test_requires_points(self):
        with pytest.raises(ValueError):
            Query([])

    def test_sequence_protocol(self):
        q = Query(
            [
                QueryPoint(0, 0, frozenset({1})),
                QueryPoint(1, 1, frozenset({2, 3})),
            ]
        )
        assert len(q) == 2
        assert q[1].activities == frozenset({2, 3})
        assert [p.x for p in q] == [0, 1]

    def test_all_activities_union(self):
        q = Query(
            [
                QueryPoint(0, 0, frozenset({1, 2})),
                QueryPoint(1, 1, frozenset({2, 3})),
            ]
        )
        assert q.all_activities == frozenset({1, 2, 3})

    def test_from_named(self):
        v = Vocabulary(["food", "art"])
        q = Query.from_named(v, [(0.0, 0.0, ["food"]), (1.0, 1.0, ["art", "food"])])
        assert q[0].activities == frozenset({0})
        assert q[1].activities == frozenset({0, 1})

    def test_diameter_two_points(self):
        q = Query(
            [
                QueryPoint(0, 0, frozenset({1})),
                QueryPoint(3, 4, frozenset({1})),
            ]
        )
        assert q.diameter() == pytest.approx(5.0)

    def test_diameter_is_max_pairwise(self):
        q = Query(
            [
                QueryPoint(0, 0, frozenset({1})),
                QueryPoint(1, 0, frozenset({1})),
                QueryPoint(10, 0, frozenset({1})),
            ]
        )
        assert q.diameter() == pytest.approx(10.0)

    def test_diameter_single_point_zero(self):
        q = Query([QueryPoint(5, 5, frozenset({1}))])
        assert q.diameter() == 0.0


@pytest.mark.parametrize("activity", [-1, 2**32, 2**32 + 3])
def test_activity_ids_outside_32_bits_are_rejected(activity):
    """An id outside ``[0, 2^32)`` would be ORed into another row's APL key
    (``(row << 32) | activity``) or another cell's ITL key: ``2^32 + a``
    reads the next row's list for ``a``.  Rejected like a stored id."""
    with pytest.raises(ValueError, match="32 unsigned bits"):
        QueryPoint(0.0, 0.0, frozenset({3, activity}))


def test_the_widest_activity_id_is_accepted():
    assert QueryPoint(0.0, 0.0, frozenset({0, 2**32 - 1})).activities == {0, 2**32 - 1}
