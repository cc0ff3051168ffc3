"""APL — Activity Posting List (Section IV, component iv).

"For each trajectory Tr in the database, we construct an activity posting
list for each activity α existing in Tr, which is a list of the trajectory
points that contain α.  This data structure is stored on disk due to its
high space requirement, and will be retrieved only when the distance with
the query needs to be evaluated."

The store is that structure as one CSR image in **row** order
(:class:`APLArrays`) that indexes the database's columns instead of
copying them: a trajectory's row is its row in the database — dense,
append-only under insert — and ``xy``, ``point_offsets`` and ``ids`` *are*
the database's arrays.  What the store adds is the key CSR: every
``(row, activity)`` pair that has a posting list is one sorted ``int64``
key with the list's first and last position and its slice of one
concatenated positions array, derived from the database's per-point
activity CSR with array work.  One trajectory's *record* is its row range
of the image; the simulated disk holds it as an extent sized like the
pickled ``activity -> positions`` mapping the seed persisted, so fetching
a trajectory's APL is still one counted read of the same pages and bytes
(Figure 8's disk series does not move) — but nothing is decoded on the
way: validation and block assembly read the image by row
(:class:`PostingRound`).  Rows are how the whole index addresses a
trajectory: the ITL posts them, the retriever hands a round out as rows
(ascending within one leaf pop), the engine's residency LRU keeps rows,
and the ids — what disk keys, fault injection and results speak — are one
gather from ``ids``.

Each image carries its C handle (:attr:`APLArrays.handle`, a
``gat_image`` of ``repro/native/gat.c``): the column pointers the round's
C entries read, built once when the image is published, so a round wraps
no image array per call and keeps the image it started with across an
insert.  The records are one extent table on the simulated disk
(:meth:`~repro.storage.disk.SimulatedDisk.put_extents`): per-row pages
and bytes written once in :meth:`APLStore.extend`, so a round's misses are
charged as one gathered sum.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.model.trajectory import ACTIVITY_BITS, TrajectoryColumns
from repro.native import c_array, lib, struct
from repro.storage.cache import RowLRU
from repro.storage.disk import SimulatedDisk
from repro.storage.serialization import serialize_obj

PostingLists = Dict[int, Tuple[int, ...]]

#: A key is ``(row << ACTIVITY_BITS) | activity``.
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

    ``point_offsets``, ``xy`` and ``ids`` are the database's own column
    arrays (:class:`~repro.model.trajectory.TrajectoryColumns`), shared.
    Build one with :func:`published`, which adds the handle.
    """

    keys: np.ndarray  #: ``(K+1,)`` sorted ``(row << 32) | activity``
    first: np.ndarray  #: ``(K+1,)`` first position of the key's list
    last: np.ndarray  #: ``(K+1,)`` last position of the key's list
    offsets: np.ndarray  #: ``(K+2,)`` key k owns ``positions[offsets[k]:offsets[k+1]]``
    positions: np.ndarray  #: ``(P,)`` ascending within a key
    point_offsets: np.ndarray  #: ``(N+1,)`` row r owns ``xy[point_offsets[r]:point_offsets[r+1]]``
    xy: np.ndarray  #: ``(T, 2)`` point coordinates
    ids: np.ndarray  #: ``(N,)`` trajectory id of each row
    #: The ``gat_image *`` pointing into the arrays above (which the tuple
    #: keeps alive): what the C round reads.
    handle: object

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


def published(keys, first, last, offsets, positions, point_offsets, xy, ids) -> APLArrays:
    """The image of these arrays, with its C handle."""
    handle = struct(
        "gat_image", keys=keys, first=first, last=last, offsets=offsets, positions=positions,
        point_offsets=point_offsets, xy=xy, n_keys=len(keys) - 1,
    )
    return APLArrays(keys, first, last, offsets, positions, point_offsets, xy, ids, handle)


def image_of(columns: TrajectoryColumns, lo: int, hi: int) -> APLArrays:
    """The image of rows ``lo:hi`` of *columns*: their keys, with the
    closing sentinel slot and offsets into their own positions, and the
    columns' own ``point_offsets`` / ``xy`` / ``ids`` (nothing is copied).
    :meth:`APLStore.extend` appends one for the rows it gains; the
    per-candidate scorers build one for a single row."""
    # Every activity occurrence as a (key, position) pair in point order: a
    # stable sort by key keeps each list's positions ascending.
    point_offsets, activity_offsets = columns.point_offsets, columns.activity_offsets
    first_point, stop_point = point_offsets[lo], point_offsets[hi]
    points = np.repeat(
        np.arange(first_point, stop_point),
        np.diff(activity_offsets[first_point : stop_point + 1]),
    )
    rows = np.searchsorted(point_offsets, points, side="right") - 1
    activities = columns.activities[activity_offsets[first_point] : activity_offsets[stop_point]]
    keys = (rows << ACTIVITY_BITS) | activities
    order = np.argsort(keys, kind="stable")
    keys, positions = keys[order], (points - point_offsets[rows])[order]
    firsts = np.flatnonzero(np.diff(keys, prepend=-1))  # each key's first occurrence
    lasts = np.flatnonzero(np.diff(keys, append=_SENTINEL))
    return published(
        keys=np.concatenate([keys[firsts], [_SENTINEL]]),
        first=np.concatenate([positions[firsts], [_SENTINEL]]),
        last=np.concatenate([positions[lasts], [-1]]),
        offsets=np.concatenate([firsts, [len(keys)] * 2]),
        positions=positions,
        point_offsets=point_offsets,
        xy=columns.xy,
        ids=columns.ids,
    )


def posting_lists(image: APLArrays, row: int) -> PostingLists:
    """Row *row*'s posting lists decoded from *image*: ``activity ->
    positions``, the mapping a record stands for."""
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


class PostingRound:
    """One validation round's candidates as rows of the APL image, looked
    up against ``Q.Φ``.

    :meth:`lookup` — per (candidate, query activity) the index of that key
    in the image, the sentinel slot where the trajectory lacks the
    activity — is computed once, with the APL coverage mask, and shared by
    the MIB check and block assembly; :meth:`keep` carries both to the
    survivors of a filter.  The C entries read :attr:`c_rows` and
    :meth:`c_lookup`, each wrapped once per round.  The rows of a round
    are distinct (the retriever hands each row out once per query).
    """

    __slots__ = ("image", "query", "rows", "c_rows", "_lookup", "_c_lookup", "_covered")

    def __init__(self, image: APLArrays, query, rows, lookup=None, covered=None) -> None:
        self.image = image
        #: The query's prepared arrays (a
        #: :class:`~repro.core.kernels.QueryKernel`): ``Q.Φ`` ascending as
        #: ``sorted_activities`` and the ``handle`` the C round reads.
        self.query = query
        self.rows = rows
        self.c_rows = c_array("int64_t", rows)
        self._lookup = lookup
        self._c_lookup = None
        self._covered = covered

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def ids(self):
        """The candidates' trajectory ids: one gather from the image."""
        return self.image.ids[self.rows]

    def lookup(self):
        """``[C, |Q.Φ|]`` key indices (the sentinel slot ``K`` = absent), by a
        binary search inside each row's key range (``gat_round_lookup``,
        which also writes :meth:`covered`)."""
        if self._lookup is None:
            n = len(self.rows)
            lookup = np.empty((n, len(self.query.sorted_activities)), dtype=np.int64)
            covered = np.empty(n, dtype=bool)
            self._c_lookup = c_array("int64_t", lookup, True)
            lib.gat_round_lookup(
                self.image.handle, self.query.handle, self.c_rows, n, self._c_lookup,
                c_array("uint8_t", covered, True),
            )
            self._lookup, self._covered = lookup, covered
        return self._lookup

    def c_lookup(self):
        """:meth:`lookup` as the C round reads it."""
        if self._c_lookup is None:
            self._c_lookup = c_array("int64_t", self.lookup())
        return self._c_lookup

    def covered(self):
        """Per candidate, whether no query activity missed the lookup — the
        APL filter's exact coverage test."""
        self.lookup()
        return self._covered

    def mib(self):
        """Per candidate, whether the MIB order check admits it
        (``gat_round_mib``): query point ``i`` asks the activity columns
        ``slots[starts[i]:starts[i + 1]]`` of the lookup (the query
        handle's)."""
        out = np.empty(len(self), dtype=bool)
        lib.gat_round_mib(
            self.image.handle, self.query.handle, self.c_lookup(), len(self),
            c_array("uint8_t", out, True),
        )
        return out

    def keep(self, mask) -> "PostingRound":
        """The round restricted to the candidates *mask* admits, in order
        (the round itself when it admits them all)."""
        if np.count_nonzero(mask) == len(mask):
            return self
        lookup, covered = self._lookup, self._covered
        return PostingRound(
            self.image, self.query, self.rows[mask],
            None if lookup is None else lookup[mask], None if covered is None else covered[mask],
        )


def trajectory_round(trajectory, query) -> PostingRound:
    """*trajectory* — a database view or a standalone record — as a
    one-candidate round against *query* (a prepared query, as for
    :class:`PostingRound`), over the one-row image of its own columns: no
    disk extent, no counted read."""
    row = trajectory.row
    return PostingRound(
        image_of(trajectory.columns, row, row + 1), query, np.array([row], dtype=np.int64)
    )


class APLStore:
    """Disk-resident activity posting lists, one record per trajectory,
    indexing the rows of one database.

    ``image`` is replaced — never edited — when the store indexes new
    rows, so a query that picked it up keeps a consistent view.
    """

    __slots__ = ("db", "disk", "image")

    def __init__(self, db, disk: SimulatedDisk) -> None:
        """Store every trajectory of the database *db*, in order: row ``i``
        is the ``i``-th trajectory."""
        self.db = db
        self.disk = disk
        self.image = image_of(TrajectoryColumns.concat(()), 0, 0)
        self.extend()

    def extend(self) -> None:
        """Index the rows the database gained since the last call (dynamic
        insertion appends one), publish the grown image with its handle and
        persist the new rows' records."""
        image, columns = self.image, self.db.columns
        first_row = len(image.ids)
        new = image_of(columns, first_row, len(columns))
        base = len(image.positions)
        self.image = image = published(
            keys=np.concatenate([image.keys[:-1], new.keys]),
            first=np.concatenate([image.first[:-1], new.first]),
            last=np.concatenate([image.last[:-1], new.last]),
            offsets=np.concatenate([image.offsets[:-2], new.offsets + base]),
            positions=np.concatenate([image.positions, new.positions]),
            point_offsets=new.point_offsets,
            xy=new.xy,
            ids=new.ids,
        )
        # Each extent is charged as the pickled mapping it stands for.
        sizes = [
            len(serialize_obj(posting_lists(image, row))) for row in range(first_row, len(columns))
        ]
        self.disk.put_extents("apl", first_row, columns.ids[first_row:], sizes)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def fetch_many(
        self, candidates: PostingRound, cache: Optional[RowLRU] = None
    ) -> Tuple[int, int]:
        """Make a whole validation round's records resident in one call;
        returns the round's ``(hits, lookups)`` on *cache* (``(0, 0)``
        without one).

        One touch of *cache* (the engine's residency LRU over image rows)
        refreshes the round's resident rows and returns the others, in
        candidate order; they go to the simulated disk as a single grouped
        read (:meth:`SimulatedDisk.get_many` on the ``"apl"`` extent table)
        and then become resident, one insert for the lot.  No lock is held
        during the read, and a read that raises makes nothing resident.  A
        resident record is read from :attr:`image` by row.  Records are
        written once at build/insert time and immutable afterwards, so a
        shared cache is safe across concurrent queries; a hit skips the
        counted disk read entirely.  Counted reads and the hit count are
        identical to fetching each trajectory individually through an LRU
        keyed by trajectory id (a round's rows are distinct).
        """
        rows = candidates.rows
        if cache is None:
            if len(rows):
                self.disk.get_many("apl", rows)
            return 0, 0
        misses, asked = cache.missing(candidates.c_rows, len(rows), len(candidates.image.ids))
        if len(misses):
            self.disk.get_many("apl", misses)
            cache.put_many(misses)
        return asked - len(misses), asked

    def round(self, rows: Sequence[int], query) -> PostingRound:
        """The trajectories at *rows*, in that order, as a :class:`PostingRound`
        against *query* (a prepared query: its ``sorted_activities`` are
        ``Q.Φ``)."""
        rows = np.fromiter(rows, dtype=np.int64, count=len(rows))
        return PostingRound(self.image, query, rows)

    def __len__(self) -> int:
        return len(self.image.ids)
