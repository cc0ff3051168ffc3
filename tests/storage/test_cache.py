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

        assert cache.get_or_load("k", loader) == "value"
        assert cache.get_or_load("k", loader) == "value"
        assert len(calls) == 1

    def test_get_or_load_caches_none(self):
        """None is a legitimate cached value, not a miss sentinel."""
        cache = LRUCache(4)
        calls = []

        def loader():
            calls.append(1)
            return None

        assert cache.get_or_load("k", loader) is None
        assert cache.get_or_load("k", loader) is None
        assert len(calls) == 1

    def test_clear_keeps_accounting(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats.hits == 1


class TestAccounting:
    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache.get("a")  # miss
        cache.put("a", 1)
        cache.get("a")  # hit
        cache.get("b")  # miss
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_empty_hit_rate_is_zero(self):
        assert LRUCache(4).stats().hit_rate == 0.0


class TestBatchedPass:
    def test_missing_and_put_many_equal_the_per_key_calls(self):
        """A round's LRU pass under one lock lands every entry, its
        recency, and both counters where get / put per key would."""
        import random

        rng = random.Random(7)
        batched, looped = LRUCache(5), LRUCache(5)
        miss = object()
        for _ in range(200):
            keys = rng.sample(range(12), rng.randrange(0, 9))
            want = [k for k in keys if looped.get(k, miss) is miss]
            for k in want:
                looped.put(k, -k)
            got = batched.missing(keys)
            batched.put_many(got, [-k for k in got])
            assert got == want
            assert list(batched._entries.items()) == list(looped._entries.items())
            assert batched.stats() == looped.stats()


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
