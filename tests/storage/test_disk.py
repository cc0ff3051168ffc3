"""Unit tests for the simulated disk."""

import threading

import numpy as np
import pytest

from repro.storage.disk import PAGE_SIZE, SimulatedDisk
from repro.storage.serialization import deserialize_obj, serialize_obj


class TestSerialization:
    def test_roundtrip(self):
        obj = {"a": (1, 2, 3), "b": frozenset({4, 5})}
        assert deserialize_obj(serialize_obj(obj)) == obj


class TestStoreLoad:
    def test_put_get_roundtrip(self):
        disk = SimulatedDisk()
        disk.put("k", [1, 2, 3])
        assert disk.get("k") == [1, 2, 3]

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            SimulatedDisk().get("nope")

    def test_get_or_none(self):
        disk = SimulatedDisk()
        assert disk.get_or_none("nope") is None
        disk.put("k", 7)
        assert disk.get_or_none("k") == 7

    def test_contains_len_keys(self):
        disk = SimulatedDisk()
        disk.put("a", 1)
        disk.put("b", 2)
        assert "a" in disk and "c" not in disk
        assert len(disk) == 2

    def test_overwrite_replaces(self):
        disk = SimulatedDisk()
        disk.put("k", 1)
        disk.put("k", 2)
        assert disk.get("k") == 2
        assert len(disk) == 1


class TestAccounting:
    def test_page_rounding_minimum_one(self):
        disk = SimulatedDisk()
        pages = disk.put("small", 1)
        assert pages == 1

    def test_page_rounding_large_object(self):
        disk = SimulatedDisk()
        payload = list(range(5000))  # serialises to well over one page
        pages = disk.put("big", payload)
        assert pages > 1
        with disk.track() as read:
            disk.get("big")
        assert read.pages_read == pages

    def test_read_counters(self):
        disk = SimulatedDisk()
        pages = disk.put("k", list(range(5000)))
        with disk.track() as delta:
            disk.get("k")
            disk.get("k")
        assert delta.reads == 2
        assert delta.pages_read == 2 * pages
        assert delta.bytes_read > 0

    def test_miss_counts_as_read_with_zero_pages(self):
        disk = SimulatedDisk()
        with disk.track() as delta:
            disk.get_or_none("missing")
        assert delta.reads == 1
        assert delta.pages_read == 0

    def test_reset_stats(self):
        disk = SimulatedDisk()
        disk.put("k", 1)
        disk.get("k")
        disk.reset_stats()
        assert disk.stats.reads == 0
        assert disk.stats.writes == 0

    def test_pages_are_page_size_bytes(self):
        disk = SimulatedDisk()
        assert PAGE_SIZE == 4096
        assert disk.put_extents("t", 0, [1], [PAGE_SIZE]) == 1
        assert disk.put_extents("t", 1, [2], [PAGE_SIZE + 1]) == 2


class _Recorder:
    """A fault injector that injects nothing and records every key asked."""

    def __init__(self) -> None:
        self.keys = []

    def on_read(self, key) -> None:
        self.keys.append(key)


class TestExtents:
    def test_extent_is_charged_like_the_record_it_stands_for(self):
        """An extent of ``n`` bytes costs what ``put`` of an ``n``-byte
        record costs — writes, reads, pages, bytes — and a grouped read
        hands its rows back undecoded."""
        value = {a: tuple(range(a)) for a in range(300)}
        n_bytes = len(serialize_obj(value))
        assert n_bytes > 4096  # more than one page
        pickled, extent = SimulatedDisk(), SimulatedDisk()
        pickled.put(("t", 5), value)
        pickled.put(("t", 9), 1)
        extent.put_extents("t", 0, np.array([5, 9]), [n_bytes, len(serialize_obj(1))])
        assert extent.stats == pickled.stats
        assert len(extent) == 2
        with pickled.track() as want, extent.track() as got:
            for key in [("t", 5), ("t", 9), ("t", 5), ("t", 9)]:
                pickled.get(key)
            rows = np.array([0, 1, 0, 1])
            assert extent.get_many("t", rows) is rows
        assert got == want and got.reads == 4
        assert extent.stats == pickled.stats

    def test_grouped_rows_equal_per_key_gets(self):
        """``get_many(table, rows)`` — one gathered sum — charges the reads,
        pages and bytes of one ``get`` per row of a record of the row's
        size stored under ``(table, id)``, asks the injector about the
        same keys in the same order, and hands the rows back."""
        rng = np.random.default_rng(3)
        ids = rng.permutation(100)[:40] + 1000
        values = [bytes(int(n)) for n in rng.integers(1, 3 * PAGE_SIZE, len(ids))]
        sizes = [len(serialize_obj(value)) for value in values]
        grouped, single = SimulatedDisk(), SimulatedDisk()
        grouped.put_extents("apl", 0, ids[:25], sizes[:25])
        grouped.put_extents("apl", 25, ids[25:], sizes[25:])  # grown by an insert
        for tid, value in zip(ids.tolist(), values):
            single.put(("apl", tid), value)
        for disk in (grouped, single):
            disk.fault_injector = _Recorder()
            disk.reset_stats()
        rows = rng.permutation(len(ids))[:17]
        assert grouped.get_many("apl", rows) is rows
        for tid, row in zip(ids[rows].tolist(), rows.tolist()):
            assert single.get(("apl", tid)) == values[row]
        assert grouped.stats == single.stats and grouped.stats.reads == len(rows)
        assert grouped.fault_injector.keys == single.fault_injector.keys
        assert grouped.fault_injector.keys == [("apl", tid) for tid in ids[rows].tolist()]

    def test_restoring_rows_replaces_them(self):
        """A store rebuilt over the same disk stores its rows afresh:
        nothing past them lingers and rows keep their ids and sizes."""
        disk = SimulatedDisk(fault_injector=_Recorder())
        disk.put_extents("apl", 0, np.array([7, 8, 9]), [10, 20, 30])
        disk.put_extents("apl", 0, np.array([8, 7]), [20, 10])
        assert len(disk) == 2
        disk.get_many("apl", np.array([1, 0]))
        assert disk.fault_injector.keys == [("apl", 7), ("apl", 8)]
        assert disk.stats.bytes_read == 30


class TestPerContextTracking:
    def test_track_attributes_this_threads_io(self):
        disk = SimulatedDisk()
        disk.put("k", [1, 2, 3])
        with disk.track() as tracker:
            disk.get("k")
            disk.get_or_none("missing")
        assert tracker.reads == 2
        assert tracker.pages_read == 1  # the miss transfers zero pages
        # I/O outside the block is not attributed.
        disk.get("k")
        assert tracker.reads == 2

    def test_trackers_nest(self):
        disk = SimulatedDisk()
        disk.put("k", 1)
        with disk.track() as outer:
            disk.get("k")
            with disk.track() as inner:
                disk.get("k")
        assert inner.reads == 1
        assert outer.reads == 2

    def test_nested_trackers_with_equal_counters_detach_correctly(self):
        """Regression: DiskStats compares by value, so tracker removal
        must be by identity — two equal (e.g. both-empty) nested trackers
        must not alias on exit."""
        disk = SimulatedDisk()
        disk.put("k", 1)
        with disk.track() as outer:
            with disk.track():
                pass  # inner exits with counters equal to outer's (all zero)
            disk.get("k")  # must land on outer, not the discarded inner
        assert outer.reads == 1

    def test_tracker_counts_writes(self):
        disk = SimulatedDisk()
        with disk.track() as tracker:
            disk.put("k", [1] * 100)
        assert tracker.writes == 1
        assert tracker.pages_written >= 1

    def test_concurrent_trackers_do_not_cross_attribute(self):
        """The seed's snapshot/delta protocol misattributed reads across
        concurrent queries; per-thread trackers must not."""
        disk = SimulatedDisk()
        for i in range(8):
            disk.put(i, list(range(50)))
        per_thread = [None] * 8
        barrier = threading.Barrier(8)
        errors = []

        def worker(i):
            try:
                barrier.wait(timeout=30)
                with disk.track() as tracker:
                    for _ in range(i + 1):  # thread i does i+1 reads
                        disk.get(i)
                per_thread[i] = tracker
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        for i, tracker in enumerate(per_thread):
            assert tracker.reads == i + 1
        # The global counters saw everything exactly once.
        assert disk.stats.reads == sum(i + 1 for i in range(8))


class TestConcurrentReadsGate:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedDisk(concurrent_reads=0)
        assert SimulatedDisk().concurrent_reads is None
        assert SimulatedDisk(concurrent_reads=3).concurrent_reads == 3

    def test_single_arm_serializes_concurrent_reads(self):
        """concurrent_reads=1 models one disk arm: two threads reading at
        once must queue, so total wall >= 2 x latency; the default
        (unbounded) disk overlaps the same two sleeps."""
        import threading
        import time as _time

        def timed_pair(disk):
            disk.put("x", [1, 2, 3])
            disk.put("y", [4, 5, 6])
            barrier = threading.Barrier(2)

            def reader(key):
                barrier.wait()
                disk.get(key)

            threads = [
                threading.Thread(target=reader, args=(k,)) for k in ("x", "y")
            ]
            t0 = _time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return _time.perf_counter() - t0

        latency = 0.08
        # The serialized lower bound is sleep-guaranteed and never flaky;
        # the overlap comparison is wall-clock and scheduling-sensitive,
        # so demand a real margin (half a sleep) but allow a couple of
        # retries for a CI runner that stalls a thread mid-measurement.
        for attempt in range(3):
            serialized = timed_pair(
                SimulatedDisk(read_latency_s=latency, concurrent_reads=1)
            )
            overlapped = timed_pair(SimulatedDisk(read_latency_s=latency))
            assert serialized >= 2 * latency * 0.95
            if overlapped < serialized - latency / 2:
                break
        else:
            raise AssertionError(
                f"unbounded disk never overlapped: {overlapped:.3f}s vs "
                f"serialized {serialized:.3f}s"
            )

    def test_gate_leaves_accounting_untouched(self):
        disk = SimulatedDisk(concurrent_reads=1)
        disk.put("k", list(range(50)))
        disk.put_extents("t", 0, np.array([1]), [400])
        with disk.track() as tracker:
            disk.get("k")
            disk.get_many("t", np.array([0, 0]))
        assert tracker.reads == 3
        assert disk.stats.reads == 3

    def test_get_many_pays_batch_latency_through_gate(self):
        import time as _time

        disk = SimulatedDisk(read_latency_s=0.02, concurrent_reads=1)
        disk.put_extents("t", 0, np.array([1, 2]), [10, 10])
        rows = np.array([0, 1])
        t0 = _time.perf_counter()
        assert disk.get_many("t", rows) is rows
        assert _time.perf_counter() - t0 >= 0.04 * 0.95
