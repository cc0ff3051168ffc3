"""A thread-safe bounded LRU cache with hit/miss accounting.

Shared by the concurrency-safe layers of the index: HICL uses one for its
disk-resident inverted cell lists (replacing the old per-query cache that
was cleared between queries), and the search engine uses one for hot APL
posting-list fetches.  Both caches are shared across concurrent queries,
so every operation takes an internal lock; ``get_or_load`` releases the
lock while the loader runs so a slow (counted) disk read never serialises
unrelated queries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, List, Optional, Sequence


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Immutable snapshot of a cache's accounting."""

    hits: int
    misses: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @classmethod
    def combined(cls, parts: "list[Optional[CacheStats]]") -> Optional["CacheStats"]:
        """Sum several caches' accounting into one snapshot.

        Used by the sharded layers to report fleet-wide hit rates: each
        shard owns its own cache, so hits/misses/sizes/capacities add up
        without double-counting.  ``None`` entries (disabled caches) are
        skipped; all-``None`` input returns ``None``.
        """
        present = [p for p in parts if p is not None]
        if not present:
            return None
        return cls(
            hits=sum(p.hits for p in present),
            misses=sum(p.misses for p in present),
            size=sum(p.size for p in present),
            capacity=sum(p.capacity for p in present),
        )


class LRUCache:
    """Bounded least-recently-used mapping, safe for concurrent readers.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is
        evicted when a new key would exceed it.
    """

    __slots__ = ("capacity", "_lock", "_entries", "_hits", "_misses")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing its recency) or *default*."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the LRU one when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def missing(self, keys: Sequence[Hashable]) -> List[Hashable]:
        """The keys of *keys* (distinct) that are not cached, in order —
        one :meth:`get` per key (recency refreshed, a hit or a miss
        counted) under a single lock acquisition."""
        with self._lock:
            entries = self._entries
            absent = []
            for key in keys:
                if key in entries:
                    entries.move_to_end(key)
                else:
                    absent.append(key)
            self._hits += len(keys) - len(absent)
            self._misses += len(absent)
        return absent

    def put_many(self, keys: Iterable[Hashable], values: Iterable[Any]) -> None:
        """One :meth:`put` per ``(key, value)`` pair, in order, under a
        single lock acquisition."""
        with self._lock:
            entries = self._entries
            for key, value in zip(keys, values):
                if key in entries:
                    entries.move_to_end(key)
                entries[key] = value
                if len(entries) > self.capacity:
                    entries.popitem(last=False)

    _MISS = object()

    def get_or_load(self, key: Hashable, loader: Callable[[], Any]) -> Any:
        """Return the cached value, calling *loader* (outside the lock) on
        a miss and caching its result.

        Two threads racing on the same cold key may both invoke *loader*;
        the loaders used here are idempotent reads, so the only cost is a
        duplicated counted I/O — never a wrong value.
        """
        value = self.get(key, self._MISS)
        if value is not self._MISS:
            return value
        value = loader()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry (accounting counters are preserved)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, len(self._entries), self.capacity)
