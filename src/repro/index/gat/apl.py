"""APL — Activity Posting List (Section IV, component iv).

"For each trajectory Tr in the database, we construct an activity posting
list for each activity α existing in Tr, which is a list of the trajectory
points that contain α.  This data structure is stored on disk due to its
high space requirement, and will be retrieved only when the distance with
the query needs to be evaluated."

The store is that structure as one CSR image in **row** order
(:class:`APLArrays`): a trajectory's row is its position in the database —
dense, append-only under insert — and every ``(row, activity)`` pair that
has a posting list is one sorted ``int64`` key with the list's first and
last position and its slice of one concatenated positions array.  One
trajectory's *record* is its row range of the image; the simulated disk
holds it as an extent sized like the pickled ``activity -> positions``
mapping the seed persisted, so fetching a trajectory's APL is still one
counted read of the same pages and bytes (Figure 8's disk series does not
move) — but nothing is decoded on the way: validation and block assembly
read the image by row (:class:`PostingRound`).  Rows are how the whole index
addresses a trajectory: the ITL posts them, the retriever hands a round out
as rows (ascending within one leaf pop), and the ids — what disk keys, the
LRU and results speak — are one gather from ``ids``.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.storage.cache import LRUCache
from repro.storage.disk import SimulatedDisk
from repro.storage.serialization import serialize_obj

PostingLists = Dict[int, Tuple[int, ...]]

#: A key is ``(row << ACTIVITY_BITS) | activity``.
ACTIVITY_BITS = 32
ACTIVITY_MASK = (1 << ACTIVITY_BITS) - 1
_SENTINEL = np.iinfo(np.int64).max


class APLArrays(NamedTuple):
    """The posting lists of ``N`` trajectories (``K`` keys, ``P`` posted
    positions, ``T`` points) as flat arrays.

    Every per-key array carries one closing **sentinel** slot, index ``K``:
    a key above every real one with an empty position slice, ``first`` =
    int64 max and ``last`` = -1.  A lookup that misses lands there, so
    "absent" needs no masking downstream — it gathers nothing, and it
    loses every ``min`` over ``first`` and every ``max`` over ``last``.
    """

    keys: np.ndarray  #: ``(K+1,)`` sorted ``(row << 32) | activity``
    first: np.ndarray  #: ``(K+1,)`` first position of the key's list
    last: np.ndarray  #: ``(K+1,)`` last position of the key's list
    offsets: np.ndarray  #: ``(K+2,)`` key k owns ``positions[offsets[k]:offsets[k+1]]``
    positions: np.ndarray  #: ``(P,)`` ascending within a key
    point_offsets: np.ndarray  #: ``(N+1,)`` row r owns ``xy[point_offsets[r]:point_offsets[r+1]]``
    xy: np.ndarray  #: ``(T, 2)`` point coordinates
    ids: np.ndarray  #: ``(N,)`` trajectory id of each row

    @property
    def n_keys(self) -> int:
        """``K`` — also the index of the sentinel slot."""
        return len(self.keys) - 1

    def leaf_lists(self, leaf_level) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The posted positions regrouped by place: ``(codes, activities,
        starts, rows)`` — for each (cell of *leaf_level*, a ``GridLevel``;
        activity) pair that occurs, in lexicographic order, the slice
        ``rows[starts[l]:starts[l + 1]]`` (to the end for the last) of the
        distinct rows posting there, ascending: what HICL and ITL build on."""
        keys = self.keys[:-1]
        lengths = np.diff(self.offsets[:-1])
        rows = np.repeat(keys >> ACTIVITY_BITS, lengths)
        activities = np.repeat(keys & ACTIVITY_MASK, lengths)
        codes = leaf_level.locate_many(self.xy)[self.point_offsets[rows] + self.positions]
        order = np.lexsort((rows, activities, codes))
        codes, activities, rows = codes[order], activities[order], rows[order]
        new_list = np.ones(len(rows), dtype=bool)
        new_list[1:] = (codes[1:] != codes[:-1]) | (activities[1:] != activities[:-1])
        keep = new_list.copy()  # a trajectory's later points in a cell repeat its row
        keep[1:] |= rows[1:] != rows[:-1]
        return codes[new_list], activities[new_list], np.flatnonzero(new_list[keep]), rows[keep]


def _freeze(trajectories: Sequence, first_row: int) -> APLArrays:
    """The image of *trajectories* as rows ``first_row, first_row + 1, …``.

    One Python step per trajectory flattens its posting dict; sorting the
    keys and regrouping the positions behind them is array work."""
    activities: list = []
    keys_per_row: list = []
    lengths: list = []
    flat: list = []
    points_per_row: list = []
    coords: list = []
    for trajectory in trajectories:
        posting = trajectory.posting_lists
        activities.extend(posting)
        keys_per_row.append(len(posting))
        lists = posting.values()
        lengths.extend(map(len, lists))
        flat.extend(chain.from_iterable(lists))
        points = trajectory.points
        points_per_row.append(len(points))
        for p in points:  # flat x, y, x, y, …: one float list converts fastest
            coords.append(p.x)
            coords.append(p.y)

    activities = np.array(activities, dtype=np.int64)
    if len(activities) and not 0 <= activities.min() <= activities.max() <= ACTIVITY_MASK:
        raise ValueError(f"activity ids must fit {ACTIVITY_BITS} unsigned bits")
    rows = np.repeat(
        np.arange(first_row, first_row + len(keys_per_row)),
        np.array(keys_per_row, dtype=np.int64),
    )
    keys = (rows << ACTIVITY_BITS) | activities
    order = np.argsort(keys)
    lengths = np.array(lengths, dtype=np.int64)
    sorted_lengths = lengths[order]
    offsets = np.zeros(len(keys) + 2, dtype=np.int64)
    np.cumsum(sorted_lengths, out=offsets[1:-1])
    offsets[-1] = offsets[-2]
    # Key k's list sat at ``lengths.cumsum()[k] - lengths[k]`` in walk order.
    moved_from = (lengths.cumsum() - lengths)[order] - offsets[:-2]
    positions = np.array(flat, dtype=np.int64)[
        np.repeat(moved_from, sorted_lengths) + np.arange(len(flat))
    ]
    point_offsets = np.zeros(len(points_per_row) + 1, dtype=np.int64)
    np.cumsum(points_per_row, out=point_offsets[1:])
    return APLArrays(
        keys=np.append(keys[order], _SENTINEL),
        first=np.append(positions[offsets[:-2]], _SENTINEL),
        last=np.append(positions[offsets[1:-1] - 1], -1),
        offsets=offsets,
        positions=positions,
        point_offsets=point_offsets,
        xy=np.array(coords, dtype=np.float64).reshape(-1, 2),
        ids=np.array([t.trajectory_id for t in trajectories], dtype=np.int64),
    )


def _extend(image: APLArrays, chunk: APLArrays) -> APLArrays:
    """*image* with *chunk*'s rows appended (they sort last by construction);
    built aside, so a reader holding *image* never sees it change."""
    return APLArrays(
        keys=np.concatenate([image.keys[:-1], chunk.keys]),
        first=np.concatenate([image.first[:-1], chunk.first]),
        last=np.concatenate([image.last[:-1], chunk.last]),
        offsets=np.concatenate([image.offsets[:-2], chunk.offsets + len(image.positions)]),
        positions=np.concatenate([image.positions, chunk.positions]),
        point_offsets=np.concatenate(
            [image.point_offsets[:-1], chunk.point_offsets + len(image.xy)]
        ),
        xy=np.concatenate([image.xy, chunk.xy]),
        ids=np.concatenate([image.ids, chunk.ids]),
    )


class PostingRound:
    """One validation round's candidates as rows of the APL image, looked
    up against ``Q.Φ``.

    :meth:`lookup` — per (candidate, query activity) the index of that key
    in the image, the sentinel slot where the trajectory lacks the
    activity — is computed once and shared by the APL coverage test, the
    MIB check and block assembly; :meth:`keep` carries it to the survivors
    of a filter.
    """

    __slots__ = ("image", "activities", "rows", "_lookup")

    def __init__(self, image: APLArrays, activities, rows, lookup=None) -> None:
        self.image = image
        #: ``Q.Φ`` ascending, ``int64``.
        self.activities = activities
        self.rows = rows
        self._lookup = lookup

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def ids(self):
        """The candidates' trajectory ids: one gather from the image."""
        return self.image.ids[self.rows]

    def lookup(self):
        """``[C, |Q.Φ|]`` key indices (``image.n_keys`` = absent)."""
        if self._lookup is None:
            keys = self.image.keys
            wanted = (self.rows[:, None] << ACTIVITY_BITS) | self.activities
            slots = np.searchsorted(keys, wanted)
            slots[keys[slots] != wanted] = len(keys) - 1
            self._lookup = slots
        return self._lookup

    def keep(self, mask) -> "PostingRound":
        """The round restricted to the candidates *mask* admits, in order."""
        lookup = self._lookup
        return PostingRound(
            self.image, self.activities, self.rows[mask], None if lookup is None else lookup[mask]
        )


class APLStore:
    """Disk-resident activity posting lists, one record per trajectory.

    ``image`` is replaced — never edited — when a trajectory is stored, so
    a query that picked it up keeps a consistent view.
    """

    __slots__ = ("disk", "image", "_row_of")

    def __init__(self, disk: SimulatedDisk) -> None:
        self.disk = disk
        self.image = _freeze((), 0)
        self._row_of: Dict[int, int] = {}

    @classmethod
    def build(cls, trajectories: Iterable, disk: SimulatedDisk) -> "APLStore":
        """Store every trajectory of a database (or any iterable of them),
        in order: row ``i`` is the ``i``-th trajectory."""
        store = cls(disk)
        store._append(tuple(trajectories))
        return store

    def store(self, trajectory) -> None:
        """Persist one trajectory's posting lists as the next row (dynamic
        insertion)."""
        self._append((trajectory,))

    def _append(self, trajectories: Sequence) -> None:
        first_row = len(self._row_of)
        self.image = _extend(self.image, _freeze(trajectories, first_row))
        for row, trajectory in enumerate(trajectories, first_row):
            # The extent is charged as the pickled mapping it stands for.
            self.disk.put_extent(
                ("apl", trajectory.trajectory_id),
                row,
                len(serialize_obj(trajectory.posting_lists)),
            )
            self._row_of[trajectory.trajectory_id] = row

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def fetch(self, trajectory_id: int) -> PostingLists:
        """Read the posting lists of one trajectory (a counted disk read),
        decoded from its row range of the image.

        Raises
        ------
        KeyError
            If the trajectory was never stored.
        """
        row = self.disk.get(("apl", trajectory_id))
        image = self.image
        lo, hi = np.searchsorted(image.keys, [row << ACTIVITY_BITS, (row + 1) << ACTIVITY_BITS])
        offsets = image.offsets[lo : hi + 1].tolist()
        positions = image.positions[offsets[0] : offsets[-1]].tolist()
        base = offsets[0]
        return {
            activity: tuple(positions[start - base : stop - base])
            for activity, start, stop in zip(
                (image.keys[lo:hi] & ACTIVITY_MASK).tolist(), offsets, offsets[1:]
            )
        }

    def fetch_many(
        self, trajectory_ids: Iterable[int], cache: Optional[LRUCache] = None
    ) -> Tuple[int, int]:
        """Make a whole validation round's records resident in one call;
        returns the round's ``(hits, lookups)`` on *cache* (``(0, 0)``
        without one).

        One pass over *cache* (an LRU of resident records, keyed by
        trajectory id) splits the round into hits and misses, the misses go
        to the simulated disk as a single grouped read
        (:meth:`SimulatedDisk.get_many`) and become resident.  A resident
        record is read from :attr:`image` by row.  Records are written once
        at build/insert time and immutable afterwards, so a shared cache is
        safe across concurrent queries; a hit skips the counted disk read
        entirely.  Counted reads and the hit count are identical to
        fetching each trajectory individually.
        """
        wanted = list(dict.fromkeys(trajectory_ids))
        missing = wanted if cache is None else cache.missing(wanted)
        if missing:
            rows = self.disk.get_many([("apl", tid) for tid in missing])
            if cache is not None:
                cache.put_many(missing, rows)
        if cache is None:
            return 0, 0
        return len(wanted) - len(missing), len(wanted)

    def round(self, rows: Sequence[int], activities) -> PostingRound:
        """The trajectories at *rows*, in that order, as a :class:`PostingRound`
        against *activities* (``Q.Φ`` as an ascending ``int64`` array)."""
        rows = np.fromiter(rows, dtype=np.int64, count=len(rows))
        return PostingRound(self.image, activities, rows)

    def row_of(self, trajectory_id: int) -> int:
        """The trajectory's row (``KeyError`` if it was never stored)."""
        return self._row_of[trajectory_id]

    def __contains__(self, trajectory_id: int) -> bool:
        return trajectory_id in self._row_of

    def __len__(self) -> int:
        return len(self._row_of)
