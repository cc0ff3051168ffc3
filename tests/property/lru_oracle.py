"""The APL residency LRU the engine kept before rows became a C recency
list: an ``OrderedDict`` keyed by trajectory, passed over once per round.

``missing`` refreshes each resident key and returns the others in order;
``put_many`` inserts them one by one, moving a key some racing insert made
resident meanwhile to the end and evicting the least recent entry whenever
the dict exceeds its capacity.  ``fetch_round`` is the store's former
``fetch_many`` around them: distinct keys in first-occurrence order,
``(hits, lookups)`` back.  ``repro.storage.cache.RowLRU`` must reproduce
every hit, miss, eviction and the recency order
(``test_row_lru.py``).
"""

from collections import OrderedDict
from typing import Hashable, Iterable, List, Sequence, Tuple


class KeyedLRU:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[Hashable, None]" = OrderedDict()

    def missing(self, keys: Sequence[Hashable]) -> List[Hashable]:
        """The keys of *keys* (distinct) that are not resident, in order;
        the resident ones become the most recent."""
        absent = []
        for key in keys:
            if key in self.entries:
                self.entries.move_to_end(key)
            else:
                absent.append(key)
        return absent

    def put_many(self, keys: Iterable[Hashable]) -> None:
        for key in keys:
            if key in self.entries:
                self.entries.move_to_end(key)
            self.entries[key] = None
            if len(self.entries) > self.capacity:
                self.entries.popitem(last=False)

    def fetch_round(self, keys: Sequence[Hashable]) -> Tuple[List[Hashable], int]:
        """``(misses, lookups)`` of one round, its misses made resident."""
        wanted = list(dict.fromkeys(keys))
        misses = self.missing(wanted)
        self.put_many(misses)
        return misses, len(wanted)
