"""HICL — Hierarchical Inverted Cell List (Section IV, component i).

For every activity ``α`` and every grid level, the set of cell codes whose
region contains at least one trajectory point carrying ``α``.  Built
bottom-up: leaf-cell membership comes straight from the points; each higher
level aggregates four children into their parent (a two-bit shift of the
Morton code).

Representation: each (level, activity) list is a **bitmap** over the
level's Morton codes — a Python ``int`` whose bit ``c`` is set iff cell
``c`` holds the activity.  Union over ``q.Φ`` is ``|``, the list length a
popcount, and — because the four children of cell ``c`` are codes
``4c … 4c+3`` — "which children of ``c`` hold any of these activities"
is the four bits ``4c … 4c+3`` of the child level's bitmap: one nibble
read instead of a set probe per activity per child (:class:`QueryBitmaps`).

Memory split: "we can just keep the high levels of the structure within
main memory and the low levels on the secondary storage".  The paper's
default keeps levels 1-6 in memory and levels 7-8 on disk; here the split
level is a constructor argument and the low levels live on the
:class:`~repro.storage.disk.SimulatedDisk` (one record per (activity,
level) inverted list) so lookups are counted as logical I/O.  The disk
record stays the list itself — a ``frozenset`` of codes under the key
``("hicl", level, activity)``, charged by its own serialised size — so a
counted read costs the bytes and pages the paper's I/O model charges for an
inverted list, not for a ``4^level``-bit map; the bitmap is decoded from
it once per cache load.

The paper's memory-budget formula — the largest ``h`` with
``sum_{i=1..h} 4^i * C <= B`` i.e. ``h = log4(3B/(4C) + 1)`` — is exposed
as :func:`memory_level_budget`.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.geometry.grid import HierarchicalGrid
from repro.storage.cache import LRUCache
from repro.storage.disk import SimulatedDisk

#: Bound on the shared cache of disk-resident (level, activity) lists.  A
#: cached list is a bitmap of at most ``4^level / 8`` bytes (8 KB at the
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
        # _memory[level][activity] -> bitmap of cell codes (levels 1-based)
        self._memory: Dict[int, Dict[int, int]] = {}
        # Shared, thread-safe LRU of disk-resident lists, held decoded (as
        # bitmaps): query-hot lists stay warm *across* queries, so each
        # costs one counted read per eviction cycle, not one per query.
        # Bitmaps are immutable ints, so sharing them can never change a
        # result; add_point invalidates the cache after its writes.
        self._cache = LRUCache(CACHE_CAPACITY)

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
        sets: Dict[int, Set[int]] = {}
        for activity, code in zip(activities.tolist(), leaf_codes.tolist()):
            sets.setdefault(activity, set()).add(code)

        for level in range(grid.depth, 0, -1):
            if level <= memory_levels:
                hicl._memory[level] = {
                    activity: _encode(codes) for activity, codes in sets.items()
                }
            else:
                assert disk is not None
                for activity, codes in sets.items():
                    disk.put(("hicl", level, activity), frozenset(codes))
            sets = {activity: {code >> 2 for code in codes} for activity, codes in sets.items()}
        return hicl

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def bitmap(self, activity: int, level: int, stats=None) -> int:
        """Bitmap of the cells at *level* containing *activity* (bit ``c`` =
        Morton code ``c``; ``0`` when there are none).  A disk-resident
        list is one cache lookup, and one counted read on a miss; *stats*
        (the asking query's :class:`~repro.core.context.SearchStats`)
        counts the lookup and whether it hit."""
        if not 1 <= level <= self.grid.depth:
            raise ValueError(f"level {level} outside [1, {self.grid.depth}]")
        if level <= self.memory_levels:
            return self._memory.get(level, {}).get(activity, 0)

        def _load() -> int:
            assert self.disk is not None
            stored = self.disk.get_or_none(("hicl", level, activity))
            return _encode(stored) if stored else 0

        bitmap, hit = self._cache.get_or_load((level, activity), _load)
        if stats is not None:
            stats.hicl_cache_lookups += 1
            stats.hicl_cache_hits += hit
        return bitmap

    def cells_with_activity(self, activity: int, level: int) -> FrozenSet[int]:
        """Cell codes at *level* containing *activity* (possibly empty) —
        the decoded view of :meth:`bitmap`, same lookup accounting."""
        bitmap = self.bitmap(activity, level)
        data = bitmap.to_bytes((bitmap.bit_length() + 7) >> 3, "little")
        return frozenset(
            (i << 3) + j for i, byte in enumerate(data) if byte for j in range(8) if byte >> j & 1
        )

    def clear_cache(self) -> None:
        """Drop the cache of disk-resident lists (forces every next lookup
        back to counted disk reads — useful for cold-cache measurements)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Dynamic maintenance (extension; the paper only builds statically)
    # ------------------------------------------------------------------
    def add_point(self, leaf_code: int, activities: Iterable[int]) -> None:
        """Register a new point's activities in its leaf cell and all
        ancestors.  Disk-resident levels are read-modified-written (counted
        I/O); the shared list cache is invalidated *after* the writes so a
        subsequent lookup can only load the updated lists.

        Dynamic maintenance requires exclusive access: like the rest of
        the index's mutators it updates plain dicts, so it must not run
        concurrently with queries (build once, serve many — or quiesce
        the service around inserts).
        """
        depth = self.grid.depth
        activity_list = list(activities)
        code = leaf_code
        for level in range(depth, 0, -1):
            if level <= self.memory_levels:
                table = self._memory.setdefault(level, {})
                for activity in activity_list:
                    table[activity] = table.get(activity, 0) | (1 << code)
            else:
                assert self.disk is not None
                for activity in activity_list:
                    key = ("hicl", level, activity)
                    stored = self.disk.get_or_none(key) or frozenset()
                    if code not in stored:
                        self.disk.put(key, stored | {code})
            code >>= 2
        self.clear_cache()

    # ------------------------------------------------------------------
    # Sizing (Figure 8's memory-cost series)
    # ------------------------------------------------------------------
    def memory_cost_bytes(self) -> int:
        """The paper's in-memory footprint model: 8 bytes per (activity,
        cell) entry of the memory-resident levels (a popcount) plus 16 per
        list — comparable across granularities, which is what Figure 8
        plots (not the resident size of the bitmaps themselves)."""
        return sum(
            8 * bitmap.bit_count() + 16
            for table in self._memory.values()
            for bitmap in table.values()
        )


def _encode(codes: Collection[int]) -> int:
    """Cell codes (at least one) -> bitmap, linear in the list's length."""
    buf = bytearray((max(codes) >> 3) + 1)
    for code in codes:
        buf[code >> 3] |= 1 << (code & 7)
    return int.from_bytes(buf, "little")


class QueryBitmaps:
    """One query's read view of the HICL, built per query by the retriever.

    Per (query point ``q_i``, level) it holds the OR of the bitmaps of
    ``q_i.Φ`` and each activity's own bitmap, as ``bytes`` so a probe is
    O(1) whatever the level's size.  A level is loaded on first use — the
    retriever asks for level ``l + 1`` when it first pops a level-``l``
    cell of ``q_i`` — through :meth:`HICL.bitmap`, once per activity, so a
    query makes one cache lookup per (level, activity) of each query
    point instead of one per popped cell.

    Counted reads: the (level, activity) lists a query loads are exactly
    those the per-cell ``frozenset`` walk loaded, so as long as the list
    cache does not evict *inside* a query (the default 4 096-entry cache,
    every committed bench) the counted HICL reads per query are identical;
    the cache sees the same misses and fewer hits.  Under eviction
    pressure holding the level for the query's lifetime can only save
    reads.
    """

    __slots__ = ("hicl", "stats", "activities", "_maps")

    def __init__(self, hicl: HICL, query: Sequence, stats=None) -> None:
        self.hicl = hicl
        #: The query's :class:`~repro.core.context.SearchStats`, which
        #: counts the view's HICL cache lookups (``None``: uncounted).
        self.stats = stats
        #: Per query point, ``q_i.Φ`` in a fixed order: bit ``j`` of an
        #: overlap mask stands for ``activities[qi][j]``.
        self.activities: List[Tuple[int, ...]] = [tuple(q.activities) for q in query]
        #: ``_maps[qi][level]`` = (OR of the layers, one layer per activity).
        self._maps: List[List[Optional[Tuple[bytes, Tuple[bytes, ...]]]]] = [
            [None] * (hicl.grid.depth + 1) for _ in query
        ]

    def _load(self, qi: int, level: int) -> Tuple[bytes, Tuple[bytes, ...]]:
        n_bytes = (4**level + 7) // 8
        layers = [self.hicl.bitmap(a, level, self.stats) for a in self.activities[qi]]
        union = 0
        for bitmap in layers:
            union |= bitmap
        maps = self._maps[qi][level] = (
            union.to_bytes(n_bytes, "little"),
            tuple(b.to_bytes(n_bytes, "little") for b in layers),
        )
        return maps

    def child_nibble(self, qi: int, level: int, parent: int) -> int:
        """Which of the four *level* cells under cell *parent* (at
        ``level - 1``; ``0`` for the root) contain at least one of
        ``q_i``'s activities: bit ``j`` stands for child ``4·parent + j`` —
        the pruned child expansion of Section V-A in one read."""
        union = (self._maps[qi][level] or self._load(qi, level))[0]
        return (union[parent >> 1] >> ((parent & 1) << 2)) & 15

    def overlap_mask(self, qi: int, level: int, code: int) -> int:
        """``c.Φ ∩ q_i.Φ`` of cell *code* as a mask over
        ``activities[qi]`` — what equips Algorithm 2's virtual points."""
        layers = (self._maps[qi][level] or self._load(qi, level))[1]
        byte, bit = code >> 3, code & 7
        mask = 0
        for j, layer in enumerate(layers):
            mask |= ((layer[byte] >> bit) & 1) << j
        return mask
