"""APL — Activity Posting List (Section IV, component iv).

"For each trajectory Tr in the database, we construct an activity posting
list for each activity α existing in Tr, which is a list of the trajectory
points that contain α.  This data structure is stored on disk due to its
high space requirement, and will be retrieved only when the distance with
the query needs to be evaluated."

The store persists, per trajectory, the mapping ``activity -> point
positions`` on the simulated disk.  Fetching a trajectory's APL is one
counted disk read; the search engine fetches it exactly once per surviving
candidate (validation + distance computation share the fetched record).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.model.database import TrajectoryDatabase
from repro.storage.cache import LRUCache
from repro.storage.disk import SimulatedDisk

PostingLists = Dict[int, Tuple[int, ...]]


class APLStore:
    """Disk-resident activity posting lists, one record per trajectory."""

    __slots__ = ("disk", "_known")

    def __init__(self, disk: SimulatedDisk) -> None:
        self.disk = disk
        self._known: set[int] = set()

    @classmethod
    def build(cls, db: TrajectoryDatabase, disk: SimulatedDisk) -> "APLStore":
        # ``posting_lists`` comes straight from the columnar activity
        # columns for array-backed trajectories (no point objects are
        # materialised), and its pickled record size — what the simulated
        # disk's page accounting sees — is identical either way.
        store = cls(disk)
        for trajectory in db:
            store.disk.put(("apl", trajectory.trajectory_id), trajectory.posting_lists)
            store._known.add(trajectory.trajectory_id)
        return store

    def store(self, trajectory) -> None:
        """Persist one trajectory's posting lists (dynamic insertion)."""
        self.disk.put(("apl", trajectory.trajectory_id), trajectory.posting_lists)
        self._known.add(trajectory.trajectory_id)

    def fetch(self, trajectory_id: int) -> PostingLists:
        """Read the posting lists of one trajectory (a counted disk read).

        Raises
        ------
        KeyError
            If the trajectory was never stored.
        """
        return self.disk.get(("apl", trajectory_id))

    _MISS = object()

    def fetch_many(
        self, trajectory_ids: Iterable[int], cache: Optional[LRUCache] = None
    ) -> Dict[int, PostingLists]:
        """Fetch a whole validation round's posting lists in one call.

        One pass over *cache* splits the round into hits and misses, the
        misses go to the simulated disk as a single grouped read
        (:meth:`SimulatedDisk.get_many`), and the fresh records are
        cached.  Posting lists are written once at build/insert time and
        treated as immutable afterwards, so a shared cache is safe across
        concurrent queries; a hit skips the counted disk read entirely.
        Counted reads and cache hit/miss accounting are identical to
        fetching each trajectory individually.
        """
        out: Dict[int, PostingLists] = {}
        missing: list[int] = []
        miss = self._MISS
        for tid in dict.fromkeys(trajectory_ids):
            if cache is not None:
                value = cache.get(tid, miss)
                if value is not miss:
                    out[tid] = value
                    continue
            missing.append(tid)
        if missing:
            values = self.disk.get_many([("apl", tid) for tid in missing])
            for tid, value in zip(missing, values):
                out[tid] = value
                if cache is not None:
                    cache.put(tid, value)
        return out

    def __contains__(self, trajectory_id: int) -> bool:
        return trajectory_id in self._known

    def __len__(self) -> int:
        return len(self._known)

    @staticmethod
    def covers_query(posting: PostingLists, activities: Iterable[int]) -> bool:
        """The exact validation of Section V-C: a posting list must exist
        for every query activity."""
        return all(activity in posting for activity in activities)

    @staticmethod
    def candidate_positions(
        posting: PostingLists, activities: Iterable[int]
    ) -> Tuple[int, ...]:
        """``CP`` positions for one query point: the sorted union of the
        posting lists of its activities (Algorithm 3, line 1)."""
        return union_positions(posting, activities)


def union_positions(posting: PostingLists, activities: Iterable[int]) -> Tuple[int, ...]:
    """Sorted union of a trajectory's posting lists over *activities*.

    Used both for one query point's candidate positions (Algorithm 3,
    line 1) and — with the whole query's activity set — for the relevant
    sub-sequence ``rel(Tr)`` the scoring kernels compress a candidate to
    (the block kernel reads that sub-sequence off the trajectories'
    activity columns instead; ``tests/property/dict_block_oracle.py``
    checks the two images agree).
    """
    out: set[int] = set()
    for activity in activities:
        ps = posting.get(activity)
        if ps:
            out.update(ps)
    return tuple(sorted(out))
