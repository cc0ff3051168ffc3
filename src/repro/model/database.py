"""In-memory activity-trajectory database.

The database owns the trajectories, the vocabulary, and the derived global
facts everything else needs (bounding box, activity frequencies, dataset
statistics a la Table IV).  Indexes are built *over* a database; they never
mutate it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.primitives import BoundingBox
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.vocabulary import Vocabulary

RawPoint = Tuple[float, float, Iterable[str]]


@dataclass(frozen=True, slots=True)
class DatasetStatistics:
    """The four statistics the paper reports per dataset in Table IV."""

    n_trajectories: int
    n_venues: int
    n_activities: int
    n_distinct_activities: int

    def as_rows(self) -> List[Tuple[str, int]]:
        return [
            ("#trajectory", self.n_trajectories),
            ("#venue", self.n_venues),
            ("#activity", self.n_activities),
            ("#distinct activity", self.n_distinct_activities),
        ]


class TrajectoryDatabase:
    """A set ``D`` of activity trajectories plus shared metadata.

    Construction normally goes through :meth:`from_raw` (names -> IDs with a
    frequency-ordered vocabulary) or :meth:`from_trajectories` when the
    caller already has encoded trajectories and a vocabulary.
    """

    def __init__(
        self,
        trajectories: Sequence[ActivityTrajectory],
        vocabulary: Vocabulary,
        name: str = "dataset",
    ) -> None:
        if not trajectories:
            raise ValueError("a trajectory database cannot be empty")
        self.name = name
        self.vocabulary = vocabulary
        self.trajectories: Tuple[ActivityTrajectory, ...] = tuple(trajectories)
        self._by_id: Dict[int, ActivityTrajectory] = {
            tr.trajectory_id: tr for tr in self.trajectories
        }
        if len(self._by_id) != len(self.trajectories):
            raise ValueError("duplicate trajectory IDs in database")
        self._bounding_box: Optional[BoundingBox] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_raw(
        cls,
        raw_trajectories: Sequence[Sequence[RawPoint]],
        name: str = "dataset",
    ) -> "TrajectoryDatabase":
        """Build from ``[[(x, y, [activity names...]), ...], ...]``.

        Two passes: the first counts activity-name frequencies so the
        vocabulary is frequency-ordered (required by the TAS sketch); the
        second encodes the points.
        """
        counts: Counter[str] = Counter()
        for raw in raw_trajectories:
            for _x, _y, names in raw:
                counts.update(names)
        vocabulary = Vocabulary.from_frequencies(counts)
        trajectories = []
        for tid, raw in enumerate(raw_trajectories):
            points = [
                TrajectoryPoint(x, y, vocabulary.encode(names)) for x, y, names in raw
            ]
            trajectories.append(ActivityTrajectory(tid, points))
        return cls(trajectories, vocabulary, name=name)

    @classmethod
    def from_trajectories(
        cls,
        trajectories: Sequence[ActivityTrajectory],
        vocabulary: Vocabulary,
        name: str = "dataset",
    ) -> "TrajectoryDatabase":
        return cls(trajectories, vocabulary, name=name)

    # ------------------------------------------------------------------
    # Lookup / iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self) -> Iterator[ActivityTrajectory]:
        return iter(self.trajectories)

    def get(self, trajectory_id: int) -> ActivityTrajectory:
        """Fetch a trajectory by ID (KeyError when absent)."""
        return self._by_id[trajectory_id]

    def __contains__(self, trajectory_id: object) -> bool:
        return trajectory_id in self._by_id

    def add(self, trajectory: ActivityTrajectory) -> None:
        """Append one trajectory (extension for dynamic index maintenance).

        The trajectory's ID must be fresh.  The cached bounding box is
        invalidated; indexes built over the
        database are NOT updated automatically — use
        :meth:`repro.index.gat.index.GATIndex.insert_trajectory`.
        """
        if trajectory.trajectory_id in self._by_id:
            raise ValueError(f"trajectory id {trajectory.trajectory_id} already present")
        self.trajectories = (*self.trajectories, trajectory)
        self._by_id[trajectory.trajectory_id] = trajectory
        self._bounding_box = None

    def sample(self, n: int, rng) -> "TrajectoryDatabase":
        """A database over a random *n*-trajectory subset (for Figure 7's
        scalability sweep).  IDs are preserved so results remain comparable.
        """
        if n >= len(self.trajectories):
            return self
        picked = rng.sample(range(len(self.trajectories)), n)
        subset = [self.trajectories[i] for i in sorted(picked)]
        return TrajectoryDatabase(subset, self.vocabulary, name=f"{self.name}[{n}]")

    # ------------------------------------------------------------------
    # Derived global facts
    # ------------------------------------------------------------------
    @property
    def bounding_box(self) -> BoundingBox:
        """Padded bounding box of all points (the grid's universe)."""
        if self._bounding_box is None:
            coords = [p.coord for tr in self.trajectories for p in tr]
            self._bounding_box = BoundingBox.from_points(coords)
        return self._bounding_box

    def statistics(self) -> DatasetStatistics:
        """Table IV's row set for this database."""
        venues = set()
        n_activity_occurrences = 0
        distinct: set[int] = set()
        for tr in self.trajectories:
            for point in tr:
                if point.venue_id is not None:
                    venues.add(point.venue_id)
                else:
                    venues.add(point.coord)
                n_activity_occurrences += len(point.activities)
                distinct |= point.activities
        return DatasetStatistics(
            n_trajectories=len(self.trajectories),
            n_venues=len(venues),
            n_activities=n_activity_occurrences,
            n_distinct_activities=len(distinct),
        )

    def n_points(self) -> int:
        return sum(len(tr) for tr in self.trajectories)
