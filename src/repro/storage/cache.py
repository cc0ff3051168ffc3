"""Thread-safe bounded LRU caches.

Two, both shared across concurrent queries, so every operation takes an
internal lock:

* :class:`LRUCache`, a keyed mapping: HICL keeps its disk-resident
  inverted cell lists in one (replacing the old per-query cache that was
  cleared between queries); the query service its result cache.
  ``get_or_load`` releases the lock while the loader runs so a slow
  (counted) disk read never serialises unrelated queries.
* :class:`RowLRU`, the search engine's APL residency: which rows of the
  APL image have their record resident, as a recency list over rows in C
  (section (e) of ``repro/native/gat.c``).  A validation round costs two
  calls — a touch that refreshes its hits and returns its misses, and an
  insert of the misses once they are read — where a keyed LRU costs a
  dictionary operation per row.  The order of hits, misses and evictions
  is exactly that of a keyed LRU driven row by row (the ``OrderedDict``
  oracle in ``tests/property/lru_oracle.py``).

The cache keeps no hit/miss totals: a shared cache cannot say which query
a lookup served, so the callers report each lookup's outcome to the query
that made it (``SearchStats.hicl_cache_*`` / ``apl_cache_*``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Tuple

import numpy as np

from repro.native import c_array, ffi, lib


class LRUCache:
    """Bounded least-recently-used mapping, safe for concurrent readers.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is
        evicted when a new key would exceed it.
    """

    __slots__ = ("capacity", "_lock", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing its recency) or *default*."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                return default
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the LRU one when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    _MISS = object()

    def get_or_load(self, key: Hashable, loader: Callable[[], Any]) -> Tuple[Any, bool]:
        """``(value, hit)``: the cached value, or — on a miss — *loader*'s
        result (called outside the lock), which is cached.

        Two threads racing on the same cold key may both invoke *loader*;
        the loaders used here are idempotent reads, so the only cost is a
        duplicated counted I/O — never a wrong value.
        """
        value = self.get(key, self._MISS)
        if value is not self._MISS:
            return value, True
        value = loader()
        self.put(key, value)
        return value, False

    def clear(self) -> None:
        """Drop every entry."""
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


class RowLRU:
    """A bounded least-recently-used set of rows — ``0 … n`` of an append-only
    image — as an intrusive doubly-linked list in C (``gat_lru``).

    Every call holds the lock for its one C call (cffi releases the GIL,
    so two threads could otherwise enter the list at once), and the list
    grows there, under the lock, when a round names rows past its end.

    Parameters
    ----------
    capacity:
        Maximum number of resident rows; the least recently used one is
        evicted when an insert would exceed it.
    """

    __slots__ = ("capacity", "_lock", "_list")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        rows = lib.gat_lru_new(capacity)
        if rows == ffi.NULL:
            raise MemoryError("row LRU")
        self._list = ffi.gc(rows, lib.gat_lru_free)

    def missing(self, rows, n: int, n_rows: int) -> Tuple[np.ndarray, int]:
        """``(misses, asked)`` for the *n* rows of the cffi ``int64_t[]``
        *rows* (each ``< n_rows``): every distinct row in first-occurrence
        order either becomes the most recent (a hit) or joins *misses*;
        *asked* counts the distinct rows (``gat_lru_touch``)."""
        misses = np.empty(n, dtype=np.int64)
        asked = ffi.new("int64_t *")
        with self._lock:
            if n_rows > self._list.rows and lib.gat_lru_grow(self._list, n_rows):
                raise MemoryError("row LRU")
            n_misses = lib.gat_lru_touch(
                self._list, rows, n, c_array("int64_t", misses, True), asked
            )
        return misses[:n_misses], asked[0]

    def put_many(self, rows: np.ndarray) -> None:
        """Make each of *rows* (``int64``, from :meth:`missing`) the most
        recent in order — a row a racing insert made resident meanwhile
        just moves — evicting the least recent whenever the list then
        exceeds its capacity (``gat_lru_insert``)."""
        with self._lock:
            lib.gat_lru_insert(self._list, c_array("int64_t", rows), len(rows))
