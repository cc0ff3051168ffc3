"""The shared thread-safe LRU cache."""

import threading

import pytest

from repro.storage.cache import LRUCache


class TestBasics:
    def test_put_get(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_capacity_evicts_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a's recency
        cache.put("c", 3)  # evicts b, the least recently used
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_or_load_loads_once(self):
        cache = LRUCache(4)
        calls = []

        def loader():
            calls.append(1)
            return "value"

        assert cache.get_or_load("k", loader) == ("value", False)
        assert cache.get_or_load("k", loader) == ("value", True)
        assert len(calls) == 1

    def test_get_or_load_caches_none(self):
        """None is a legitimate cached value, not a miss sentinel."""
        cache = LRUCache(4)
        calls = []

        def loader():
            calls.append(1)
            return None

        assert cache.get_or_load("k", loader) == (None, False)
        assert cache.get_or_load("k", loader) == (None, True)
        assert len(calls) == 1

    def test_clear_forces_a_miss(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get_or_load("a", lambda: 2) == (2, False)


class TestAccounting:
    """The cache keeps no totals; each lookup reports its own outcome to
    the caller, which counts it for the query that made it."""

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        assert cache.get_or_load("a", lambda: 1) == (1, False)  # miss
        assert cache.get_or_load("a", lambda: 9) == (1, True)  # hit
        assert not hasattr(cache, "stats")


class TestConcurrency:
    def test_parallel_mixed_operations(self):
        cache = LRUCache(64)
        errors = []

        def worker(seed):
            try:
                for i in range(500):
                    key = (seed * 31 + i) % 100
                    if i % 3 == 0:
                        cache.put(key, key)
                    else:
                        value = cache.get(key)
                        assert value is None or value == key
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(cache) <= 64
