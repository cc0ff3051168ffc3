"""In-memory activity-trajectory database: the one image of the data.

The database owns the data as append-only columns
(:class:`~repro.model.trajectory.TrajectoryColumns`) plus an id -> row
dict, the vocabulary, and the derived global facts everything else needs
(bounding box, activity frequencies, dataset statistics a la Table IV),
each an array reduction.  Producers (the generator, the loader,
:meth:`TrajectoryDatabase.from_raw`) append columns; trajectory objects
handed to the constructor or :meth:`TrajectoryDatabase.add` are converted
once on the way in.  Readers get :class:`ActivityTrajectory` views built
on access, and nothing caches them.  Indexes are built *over* a database
and read its arrays in place; they never mutate it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.geometry.primitives import BoundingBox
from repro.model.trajectory import NO_VENUE, ActivityTrajectory, TrajectoryColumns
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
    frequency-ordered vocabulary) or the constructor when the caller
    already has encoded columns (or trajectories) and a vocabulary.  Row ``r`` is the
    ``r``-th trajectory appended: ``db[r]`` (or ``db.trajectories[r]``) is
    its view, :meth:`get` finds it by id.
    """

    def __init__(
        self,
        trajectories: Union[TrajectoryColumns, Sequence[ActivityTrajectory]],
        vocabulary: Vocabulary,
        name: str = "dataset",
    ) -> None:
        """*trajectories* are the rows: columns (adopted, not copied) or
        trajectory objects and views (converted once)."""
        if not isinstance(trajectories, TrajectoryColumns):
            trajectories = TrajectoryColumns.of(trajectories)
        self.name = name
        self.vocabulary = vocabulary
        self._row_of: Dict[int, int] = {}
        self.append(trajectories)
        if not len(self):
            raise ValueError("a trajectory database cannot be empty")

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
        vocabulary = Vocabulary.from_frequencies(
            Counter(name for raw in raw_trajectories for _x, _y, names in raw for name in names)
        )
        records = [[(x, y, vocabulary.encode(names), None, None) for x, y, names in raw] for raw in raw_trajectories]
        return cls(TrajectoryColumns.from_points(range(len(records)), records), vocabulary, name=name)

    # ------------------------------------------------------------------
    # Lookup / iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[ActivityTrajectory]:
        columns = self.columns
        for row, tid in enumerate(columns.ids.tolist()):
            yield ActivityTrajectory.view(columns, row, tid)

    def __getitem__(self, row):
        """The view of row *row* (a list of views for a slice)."""
        rows = range(len(self))[row]  # negative rows count from the end
        if isinstance(rows, range):
            return [self[r] for r in rows]
        return ActivityTrajectory.view(self.columns, rows, int(self.columns.ids[rows]))

    @property
    def trajectories(self) -> "TrajectoryDatabase":
        """The rows as a sequence of views (the database itself)."""
        return self

    def get(self, trajectory_id: int) -> ActivityTrajectory:
        """Fetch a trajectory's view by ID (KeyError when absent)."""
        return ActivityTrajectory.view(self.columns, self._row_of[trajectory_id], trajectory_id)

    def row_of(self, trajectory_id: int) -> int:
        """The trajectory's row (KeyError when absent)."""
        return self._row_of[trajectory_id]

    def __contains__(self, trajectory_id: object) -> bool:
        return trajectory_id in self._row_of

    def add(self, trajectory: ActivityTrajectory) -> None:
        """Append one trajectory (extension for dynamic index maintenance).

        The trajectory's ID must be fresh.  Indexes built over the
        database are NOT updated automatically — use
        :meth:`repro.index.gat.index.GATIndex.insert_trajectory`.
        """
        self.append(TrajectoryColumns.of([trajectory]))

    def append(self, columns: TrajectoryColumns) -> None:
        """Append *columns*' rows after validating them
        (:meth:`TrajectoryColumns.check`, fresh unique ids); the new arrays
        replace the old, so a reader holding the old ones never sees them
        change."""
        columns.check()
        ids, first = columns.ids.tolist(), len(self._row_of)
        rows = dict(zip(ids, range(first, first + len(ids))))
        if len(rows) != len(ids):
            raise ValueError("duplicate trajectory IDs in database")
        present = rows.keys() & self._row_of.keys()
        if present:
            raise ValueError(f"trajectory id {min(present)} already present")
        self.columns = TrajectoryColumns.concat([self.columns, columns]) if first else columns
        self._row_of.update(rows)

    def sample(self, n: int, rng) -> "TrajectoryDatabase":
        """A database over a random *n*-trajectory subset (for Figure 7's
        scalability sweep).  IDs are preserved so results remain comparable.
        """
        if n >= len(self):
            return self
        picked = rng.sample(range(len(self)), n)
        return TrajectoryDatabase(
            self.columns.take(sorted(picked)), self.vocabulary, name=f"{self.name}[{n}]"
        )

    # ------------------------------------------------------------------
    # Derived global facts
    # ------------------------------------------------------------------
    @property
    def bounding_box(self) -> BoundingBox:
        """Padded bounding box of all points (the grid's universe)."""
        xy = self.columns.xy
        return BoundingBox.from_points([tuple(xy.min(axis=0).tolist()), tuple(xy.max(axis=0).tolist())])

    def statistics(self) -> DatasetStatistics:
        """Table IV's row set for this database.  A point without a venue
        id counts its coordinate as the venue."""
        columns = self.columns
        has_venue = columns.venues != NO_VENUE
        anonymous = set(map(tuple, columns.xy[~has_venue].tolist()))
        return DatasetStatistics(
            n_trajectories=len(self),
            n_venues=len(np.unique(columns.venues[has_venue])) + len(anonymous),
            n_activities=len(columns.activities),
            n_distinct_activities=len(np.unique(columns.activities)),
        )

    def n_points(self) -> int:
        return len(self.columns.xy)
