"""HICL — Hierarchical Inverted Cell List (Section IV, component i).

For every activity ``α`` and every grid level, the set of cell codes whose
region contains at least one trajectory point carrying ``α``.  Built
bottom-up: leaf-cell membership comes straight from the points; each higher
level aggregates four children into their parent (a two-bit shift of the
Morton code).

Representation: each (level, activity) list is a **byte row** over the
level's Morton codes — ``(4^level + 7) // 8`` bytes, bit ``c & 7`` of byte
``c >> 3`` set iff cell ``c`` holds the activity.  An in-memory level is one
dense ``uint8`` array with a row per activity that occurs, built once from
the leaf lists; :attr:`HICL.levels` publishes the arrays together with the
C handle the best-first walk reads them through (``repro/native/gat.c``,
section (a)).  Union over ``q_i.Φ`` is a byte-wise OR of ``q_i``'s rows;
because the four children of cell ``c`` are codes ``4c … 4c+3``, "which
children of ``c`` hold any of these activities" is one nibble of the child
level's union; and a cell's overlap with ``q_i.Φ`` (Algorithm 2's virtual
points) is one bit per row.  An insert publishes new arrays
(:meth:`HICL.add_point`) and never writes into the ones a running walk
reads.

Memory split: "we can just keep the high levels of the structure within
main memory and the low levels on the secondary storage".  The paper's
default keeps levels 1-6 in memory and levels 7-8 on disk; here the split
level is a constructor argument and the low levels live on the
:class:`~repro.storage.disk.SimulatedDisk` (one record per (activity,
level) inverted list) so lookups are counted as logical I/O.  The disk
record stays the list itself — a ``frozenset`` of codes under the key
``("hicl", level, activity)``, charged by its own serialised size — so a
counted read costs the bytes and pages the paper's I/O model charges for an
inverted list, not for a ``4^level``-bit map; its byte row is decoded from
it once per cache load (:meth:`HICL.bitmap`, the walk's one Python load).

The paper's memory-budget formula — the largest ``h`` with
``sum_{i=1..h} 4^i * C <= B`` i.e. ``h = log4(3B/(4C) + 1)`` — is exposed
as :func:`memory_level_budget`.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, Iterable, List, NamedTuple, Optional, Set

import numpy as np

from repro.geometry.grid import HierarchicalGrid
from repro.native import ffi, struct
from repro.storage.cache import LRUCache
from repro.storage.disk import SimulatedDisk

#: Bound on the shared cache of disk-resident (level, activity) lists.  A
#: cached list is a byte row of ``(4^level + 7) // 8`` bytes (8 KB at the
#: paper's level 8), so a full cache is a few MB to ~32 MB; the bound only
#: matters for huge vocabularies, where LRU keeps the query-hot head resident.
CACHE_CAPACITY = 4096


def memory_level_budget(budget_bytes: int, vocabulary_size: int) -> int:
    """Highest level count ``h`` whose inverted cell lists fit in *budget_bytes*.

    Implements the paper's estimate ``h = log4(3B/(4C) + 1)`` where ``B`` is
    the memory budget and ``C`` the cardinality of the activity vocabulary
    (each level ``i`` is charged ``4^i * C``).
    """
    if budget_bytes <= 0 or vocabulary_size <= 0:
        raise ValueError("budget and vocabulary size must be positive")
    h = math.log(3.0 * budget_bytes / (4.0 * vocabulary_size) + 1.0, 4.0)
    return max(0, int(h))


def row_bytes(level: int) -> int:
    """Bytes of one *level* row: a bit per Morton code ``0 … 4^level``."""
    return ((1 << 2 * level) + 7) >> 3


class LevelRows(NamedTuple):
    """One publication of the in-memory levels: what a walk reads, whole."""

    #: ``(A,)`` ``int64``, ascending: the activities that have a row.
    activities: np.ndarray
    #: Per level ``0 … depth``: ``[A, row_bytes(level)]`` ``uint8`` for the
    #: in-memory levels ``1 … memory_levels`` (read-only), else ``None``.
    rows: tuple
    #: The ``gat_levels *`` pointing into the arrays above and the grid's
    #: extents (``keep`` holds what nothing else does).
    handle: object
    keep: tuple


class HICL:
    """Per-activity hierarchy of inverted cell lists.

    Parameters
    ----------
    grid:
        The hierarchical grid the cells belong to.
    memory_levels:
        Levels ``1..memory_levels`` stay in main memory; deeper levels are
        written to *disk* and each query-time lookup is a counted read.
    disk:
        The simulated disk for the low levels (required when
        ``memory_levels < grid.depth``).

    Disk-resident lists go through a shared LRU cache of
    :data:`CACHE_CAPACITY` entries.  The paper's own remedy for limited
    memory is to "retrieve the block(s) around the query location into
    main memory at query time"; the bounded LRU keeps those lists warm
    across queries and across concurrent queries.  :meth:`clear_cache`
    empties it — the paper-faithful cold accounting, where every first
    lookup of a query is a counted disk read.
    """

    def __init__(
        self,
        grid: HierarchicalGrid,
        memory_levels: int,
        disk: Optional[SimulatedDisk] = None,
    ) -> None:
        if not 0 <= memory_levels <= grid.depth:
            raise ValueError(
                f"memory_levels must be in [0, {grid.depth}], got {memory_levels}"
            )
        if memory_levels < grid.depth and disk is None:
            raise ValueError("a disk is required when some levels are disk-resident")
        self.grid = grid
        self.memory_levels = memory_levels
        self.disk = disk
        self._extents = grid.extents()
        #: The in-memory levels and their C handle, replaced (never written
        #: into) by :meth:`add_point`: a walk reads the publication it took.
        self.levels = self._publish(
            np.zeros(0, dtype=np.int64),
            [None] + [np.zeros((0, row_bytes(level)), dtype=np.uint8) if level <= memory_levels
                      else None for level in range(1, grid.depth + 1)],
        )
        # Shared, thread-safe LRU of disk-resident lists, held decoded (as
        # byte rows): query-hot lists stay warm *across* queries, so each
        # costs one counted read per eviction cycle, not one per query.
        # Rows are immutable bytes, so sharing them can never change a
        # result; add_point invalidates the cache after its writes.
        self._cache = LRUCache(CACHE_CAPACITY)

    def _publish(self, activities: np.ndarray, rows: List[Optional[np.ndarray]]) -> LevelRows:
        for table in rows:
            if table is not None:
                table.setflags(write=False)
        pointers = ffi.new("const uint8_t *[]", [
            ffi.NULL if table is None else ffi.from_buffer("uint8_t[]", table) for table in rows
        ])
        columns, grid_rows = self._extents
        handle = struct(
            "gat_levels", depth=self.grid.depth, memory_levels=self.memory_levels,
            acts=activities, n_acts=len(activities), bits=pointers, columns=columns,
            rows=grid_rows,
        )
        return LevelRows(activities, tuple(rows), handle, (pointers, self._extents))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        leaf_codes,
        activities,
        grid: HierarchicalGrid,
        memory_levels: int,
        disk: Optional[SimulatedDisk] = None,
    ) -> "HICL":
        """Build the full hierarchy from two parallel ``int64`` arrays: each (leaf
        code, activity) a cell holds (:meth:`~repro.index.gat.apl.APLArrays.leaf_lists`)."""
        hicl = cls(grid, memory_levels, disk)
        present = np.unique(activities)
        slots = np.searchsorted(present, activities)
        sets: Dict[int, Set[int]] = {}
        if memory_levels < grid.depth:
            for activity, code in zip(activities.tolist(), leaf_codes.tolist()):
                sets.setdefault(activity, set()).add(code)
        rows: List[Optional[np.ndarray]] = [None] * (grid.depth + 1)
        codes = leaf_codes
        for level in range(grid.depth, 0, -1):
            if level <= memory_levels:
                table = rows[level] = np.zeros((len(present), row_bytes(level)), dtype=np.uint8)
                bytes_at = slots * row_bytes(level) + (codes >> 3)
                np.bitwise_or.at(table.reshape(-1), bytes_at, np.left_shift(1, codes & 7).astype(np.uint8))
            else:
                assert disk is not None
                for activity, cell_codes in sets.items():
                    disk.put(("hicl", level, activity), frozenset(cell_codes))
                sets = {activity: {c >> 2 for c in cell_codes} for activity, cell_codes in sets.items()}
            codes = codes >> 2
        hicl.levels = hicl._publish(present, rows)
        return hicl

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def bitmap(self, activity: int, level: int, stats=None) -> bytes:
        """Byte row of the cells at *level* containing *activity* (all zero
        when there are none).  A disk-resident list is one cache lookup,
        and one counted read on a miss; *stats* (the asking query's
        :class:`~repro.core.context.SearchStats`) counts the lookup and
        whether it hit."""
        if not 1 <= level <= self.grid.depth:
            raise ValueError(f"level {level} outside [1, {self.grid.depth}]")
        if level <= self.memory_levels:
            levels = self.levels
            slot = int(np.searchsorted(levels.activities, activity))
            if slot < len(levels.activities) and levels.activities[slot] == activity:
                return levels.rows[level][slot].tobytes()
            return bytes(row_bytes(level))

        def _load() -> bytes:
            assert self.disk is not None
            return _encode(self.disk.get_or_none(("hicl", level, activity)) or (), level)

        row, hit = self._cache.get_or_load((level, activity), _load)
        if stats is not None:
            stats.hicl_cache_lookups += 1
            stats.hicl_cache_hits += hit
        return row

    def clear_cache(self) -> None:
        """Drop the cache of disk-resident lists (forces every next lookup
        back to counted disk reads — useful for cold-cache measurements)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Dynamic maintenance (extension; the paper only builds statically)
    # ------------------------------------------------------------------
    def add_point(self, leaf_code: int, activities: Iterable[int]) -> None:
        """Register a new point's activities in its leaf cell and all
        ancestors.  The in-memory levels are copied, set and published as
        new arrays with a new handle, so a walk that started before keeps
        reading the rows it took.  Disk-resident levels are
        read-modified-written (counted I/O); the shared list cache is
        invalidated *after* the writes so a subsequent lookup can only load
        the updated lists.

        Dynamic maintenance requires exclusive access: like the rest of
        the index's mutators it must not run concurrently with queries
        (build once, serve many — or quiesce the service around inserts).
        """
        depth = self.grid.depth
        activity_list = list(activities)
        levels = self.levels
        present = np.union1d(levels.activities, np.asarray(activity_list, dtype=np.int64))
        old_slots = np.searchsorted(present, levels.activities)
        new_slots = np.searchsorted(present, activity_list).tolist()
        rows = list(levels.rows)
        code = leaf_code
        for level in range(depth, 0, -1):
            if level <= self.memory_levels:
                grown = np.zeros((len(present), row_bytes(level)), dtype=np.uint8)
                grown[old_slots] = rows[level]
                for slot in new_slots:
                    grown[slot, code >> 3] |= 1 << (code & 7)
                rows[level] = grown
            else:
                assert self.disk is not None
                for activity in activity_list:
                    key = ("hicl", level, activity)
                    stored = self.disk.get_or_none(key) or frozenset()
                    if code not in stored:
                        self.disk.put(key, stored | {code})
            code >>= 2
        self.levels = self._publish(present, rows)
        self.clear_cache()

    # ------------------------------------------------------------------
    # Sizing (Figure 8's memory-cost series)
    # ------------------------------------------------------------------
    def memory_cost_bytes(self) -> int:
        """The paper's in-memory footprint model: 8 bytes per (activity,
        cell) entry of the memory-resident levels (a popcount) plus 16 per
        list — comparable across granularities, which is what Figure 8
        plots (not the resident size of the rows themselves)."""
        return sum(
            8 * int(np.bitwise_count(table).sum()) + 16 * len(table)
            for table in self.levels.rows
            if table is not None
        )


def _encode(codes: Collection[int], level: int) -> bytes:
    """Cell codes -> the *level* byte row, linear in the list's length."""
    row = bytearray(row_bytes(level))
    for code in codes:
        row[code >> 3] |= 1 << (code & 7)
    return bytes(row)
