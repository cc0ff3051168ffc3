"""Query model for ATSQ / OATSQ (Section II of the paper).

A query ``Q = (q1, ..., qm)`` is a sequence of :class:`QueryPoint`, each a
location with a non-empty set of desired activities ``q.Φ``.  For ATSQ the
sequence order is ignored; for OATSQ it is the order the point matches must
respect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Sequence, Tuple

from repro.model.distance import DistanceMetric, EuclideanDistance
from repro.model.trajectory import ACTIVITY_BITS
from repro.model.vocabulary import Vocabulary

Coord = Tuple[float, float]


@dataclass(frozen=True, slots=True)
class QueryPoint:
    """One query location ``q`` with its desired activity set ``q.Φ``.

    The activity set must be non-empty: a query point without activities
    has no point match by Definition 3 (the empty union can never be a
    superset of nothing meaningfully — the paper always issues 1–5
    activities per location, Table V).  Activity ids must fit the
    :data:`~repro.model.trajectory.ACTIVITY_BITS` unsigned bits a stored
    id fits: the index keys ``(row << 32) | activity`` and ``(cell << 32)
    | activity`` would otherwise read another row's or cell's lists.
    """

    x: float
    y: float
    activities: FrozenSet[int]

    def __post_init__(self) -> None:
        if not self.activities:
            raise ValueError("a query point needs at least one activity")
        if not all(0 <= a < 1 << ACTIVITY_BITS for a in self.activities):
            raise ValueError(f"activity ids must fit {ACTIVITY_BITS} unsigned bits")

    @property
    def coord(self) -> Coord:
        return (self.x, self.y)


class Query:
    """A sequence of query points.

    ``Query`` is deliberately index-agnostic: the same object is handed to
    GAT and to every baseline searcher, and to both ATSQ and OATSQ
    processing.
    """

    __slots__ = ("points", "_all_activities")

    def __init__(self, points: Sequence[QueryPoint]) -> None:
        if not points:
            raise ValueError("a query needs at least one query point")
        self.points: Tuple[QueryPoint, ...] = tuple(points)
        union: set[int] = set()
        for q in self.points:
            union |= q.activities
        self._all_activities: FrozenSet[int] = frozenset(union)

    @classmethod
    def from_named(
        cls,
        vocabulary: Vocabulary,
        raw_points: Iterable[Tuple[float, float, Iterable[str]]],
    ) -> "Query":
        """Build a query from ``(x, y, [activity names...])`` triples."""
        return cls(
            [QueryPoint(x, y, vocabulary.encode(names)) for x, y, names in raw_points]
        )

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[QueryPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> QueryPoint:
        return self.points[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Query({len(self.points)} points, {len(self._all_activities)} activities)"

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------
    @property
    def all_activities(self) -> FrozenSet[int]:
        """``Q.Φ`` — union of the activity sets of all query points.

        A trajectory is a (whole) match only if its activity union covers
        this set (Definition 5 via Definition 3)."""
        return self._all_activities

    def diameter(self, metric: DistanceMetric | None = None) -> float:
        """``δ(Q)`` — the maximum pairwise distance between query locations
        (the spread parameter of the paper's Figure 6)."""
        metric = metric or EuclideanDistance()
        coords = [q.coord for q in self.points]
        best = 0.0
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                d = metric(coords[i], coords[j])
                if d > best:
                    best = d
        return best
