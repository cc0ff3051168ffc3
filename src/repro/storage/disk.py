"""A simulated disk: a keyed object store with logical-I/O accounting.

Why simulate?  The paper stores the Activity Posting Lists and the two
lowest HICL levels "on hard disk" and argues about memory budgets
(Section IV).  Reproducing spinning-disk latencies would make benchmarks
nondeterministic and machine-bound; what actually matters for comparing
index designs is *how many page accesses* each strategy performs.  So the
store serialises values to bytes (their true on-disk size), rounds sizes up
to pages, and counts reads/writes.  An optional per-read latency can be
injected for demonstrations but defaults to zero.

Concurrency: the global :class:`DiskStats` counters are updated under a
lock, and :meth:`SimulatedDisk.track` opens a *per-context* tracker —
a :class:`DiskStats` that accumulates only the I/O issued by the current
thread while the ``with`` block is open.  Each query runs on one thread,
so trackers attribute disk work to the query that caused it even when
many queries share the disk.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional

from repro.obs.trace import current_span
from repro.storage.serialization import deserialize_obj, serialize_obj

DEFAULT_PAGE_SIZE = 4096


@dataclass(slots=True)
class DiskStats:
    """Running counters of logical disk activity."""

    reads: int = 0
    writes: int = 0
    pages_read: int = 0
    pages_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.pages_read = 0
        self.pages_written = 0
        self.bytes_read = 0
        self.bytes_written = 0


@dataclass(slots=True)
class _Record:
    #: Serialised bytes — or, for an extent (:meth:`SimulatedDisk.put_extent`),
    #: the owner's handle, handed back as-is.
    payload: Any
    n_bytes: int
    n_pages: int
    extent: bool = False

    def load(self) -> Any:
        return self.payload if self.extent else deserialize_obj(self.payload)


class SimulatedDisk:
    """Keyed byte store with page-granular accounting.

    Parameters
    ----------
    page_size:
        Logical page size in bytes; every object occupies a whole number of
        pages (minimum one).
    read_latency_s:
        Optional artificial latency injected per *read call* (not per page).
        Zero by default so tests and benchmarks stay fast and deterministic.
    concurrent_reads:
        How many latency-bearing reads the device serves at once.  ``None``
        (default) keeps the historical contention-free model — every
        sleeping reader overlaps freely, as if the store had unbounded
        internal parallelism.  A positive value models a real device's
        command depth: ``1`` is a single spinning-disk arm (concurrent
        readers of one disk queue behind each other), higher values model
        SSD-style parallelism.  Only the *latency* is gated; accounting is
        untouched, so counters stay deterministic either way.  This is the
        knob that makes shard **replication** a real serving axis: with one
        copy of a shard there is one arm for all its readers, with N
        replicas there are N.
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector` consulted
        once per read, after accounting and before the latency model —
        injected errors/stalls never touch the deterministic counters,
        they decide whether the read returns.  Faults belong to *this*
        device only: :meth:`ShardedGATIndex.replicate` clones a disk's
        cost model, never its injector, so a replica is a healthy copy on
        independent hardware — exactly what failover needs to fail over
        *to*.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        read_latency_s: float = 0.0,
        concurrent_reads: Optional[int] = None,
        fault_injector=None,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        if concurrent_reads is not None and concurrent_reads < 1:
            raise ValueError("concurrent_reads must be >= 1 (or None for unbounded)")
        self.page_size = page_size
        self.read_latency_s = read_latency_s
        self.concurrent_reads = concurrent_reads
        self.fault_injector = fault_injector
        self._read_gate: Optional[threading.Semaphore] = (
            threading.BoundedSemaphore(concurrent_reads)
            if concurrent_reads is not None
            else None
        )
        self.stats = DiskStats()
        self._records: Dict[Hashable, _Record] = {}
        self._stats_lock = threading.Lock()
        self._local = threading.local()
        #: Optional :class:`repro.obs.trace.Tracer`; when set and enabled,
        #: each read attaches a ``disk_read`` event to the thread's active
        #: span (see :meth:`Observability.bind_disk`).  ``None`` keeps the
        #: read path at one attribute load of overhead.
        self.tracer = None

    def _pay_read_latency(self, n_reads: int = 1) -> None:
        """Sleep out *n_reads* worth of read latency, queueing on the
        device gate when the disk models bounded concurrency.  A multi-read
        batch holds the gate once for its whole latency train — one
        sequential command burst on one device, cheaper than n independent
        seeks interleaved with other readers."""
        if self.read_latency_s <= 0.0 or n_reads <= 0:
            return
        if self._read_gate is None:
            time.sleep(self.read_latency_s * n_reads)
            return
        with self._read_gate:
            time.sleep(self.read_latency_s * n_reads)

    # ------------------------------------------------------------------
    # Per-context accounting
    # ------------------------------------------------------------------
    def _trackers(self) -> List[DiskStats]:
        trackers = getattr(self._local, "trackers", None)
        if trackers is None:
            trackers = []
            self._local.trackers = trackers
        return trackers

    @contextmanager
    def track(self):
        """Attribute this thread's I/O to a fresh :class:`DiskStats`.

        Yields the tracker; on exit it holds exactly the reads/writes this
        thread issued inside the block.  Trackers nest, and concurrent
        queries on different threads never see each other's I/O.
        """
        tracker = DiskStats()
        stack = self._trackers()
        stack.append(tracker)
        try:
            yield tracker
        finally:
            # Remove by identity: DiskStats compares by value, so two
            # nested trackers with equal counters would alias under
            # list.remove() and swallow each other's subsequent I/O.
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is tracker:
                    del stack[i]
                    break

    def _account_read(self, n_pages: int, n_bytes: int, n_reads: int = 1) -> None:
        """Charge *n_reads* reads totalling *n_pages* / *n_bytes* — one
        lock acquisition however many records a grouped read covers."""
        with self._stats_lock:
            self.stats.reads += n_reads
            self.stats.pages_read += n_pages
            self.stats.bytes_read += n_bytes
        for tracker in self._trackers():
            tracker.reads += n_reads
            tracker.pages_read += n_pages
            tracker.bytes_read += n_bytes

    def _account_write(self, n_pages: int, n_bytes: int) -> None:
        with self._stats_lock:
            self.stats.writes += 1
            self.stats.pages_written += n_pages
            self.stats.bytes_written += n_bytes
        for tracker in self._trackers():
            tracker.writes += 1
            tracker.pages_written += n_pages
            tracker.bytes_written += n_bytes

    # ------------------------------------------------------------------
    # Store / load
    # ------------------------------------------------------------------
    def put(self, key: Hashable, value: Any) -> int:
        """Serialise and store *value* under *key*; returns pages written."""
        payload = serialize_obj(value)
        return self._store(key, _Record(payload, len(payload), self._pages(len(payload))))

    def put_extent(self, key: Hashable, handle: Any, n_bytes: int) -> int:
        """Register under *key* a record of *n_bytes* whose content lives in
        its owner's own image (the APL's array store): writes and reads are
        charged exactly like a serialised record of that size, and a read
        hands *handle* back instead of decoding bytes.  Returns pages
        written."""
        return self._store(key, _Record(handle, n_bytes, self._pages(n_bytes), extent=True))

    def _pages(self, n_bytes: int) -> int:
        return max(1, -(-n_bytes // self.page_size))

    def _store(self, key: Hashable, record: _Record) -> int:
        self._records[key] = record
        self._account_write(record.n_pages, record.n_bytes)
        return record.n_pages

    def get(self, key: Hashable) -> Any:
        """Load and deserialise the value stored under *key*.

        Raises
        ------
        KeyError
            If nothing was stored under *key*.
        """
        record = self._records[key]
        self._account_read(record.n_pages, record.n_bytes)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            span = current_span()
            if span is not None:
                span.add_event("disk_read", key=str(key), pages=record.n_pages)
        if self.fault_injector is not None:
            self.fault_injector.on_read(key)
        self._pay_read_latency()
        return record.load()

    def get_many(self, keys: List[Hashable]) -> List[Any]:
        """Load several keys as one grouped I/O round.

        Accounting is identical to ``len(keys)`` individual :meth:`get`
        calls — every read is counted, on the calling thread, under the
        caller's :meth:`track` attribution — and the latencies are paid
        back to back, exactly like sequential gets.  Under a bounded
        device (``concurrent_reads``) the gather holds the gate once for
        its whole latency train: one contiguous burst, like a sequential
        read of a sorted batch.

        Raises
        ------
        KeyError
            If any key was never stored (before any latency is paid).
        """
        records = [self._records[key] for key in keys]
        n_pages = sum([record.n_pages for record in records])
        self._account_read(
            n_pages, sum([record.n_bytes for record in records]), len(records)
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            span = current_span()
            if span is not None:
                # One event per grouped round, not per key — events are
                # bounded per span, and the batch is the I/O unit here.
                span.add_event("disk_read_batch", n=len(records), pages=n_pages)
        if self.fault_injector is not None:
            # Per-key, like len(keys) individual gets — a batch aborts on
            # its first injected error, after all accounting (the seeks
            # happened) and before any latency is paid.
            for key in keys:
                self.fault_injector.on_read(key)
        self._pay_read_latency(len(records))
        return [record.load() for record in records]

    def get_or_none(self, key: Hashable) -> Optional[Any]:
        """Like :meth:`get` but returns ``None`` for a missing key.

        A miss still counts as a read call (the seek happened), with zero
        pages transferred.
        """
        record = self._records.get(key)
        if record is None:
            self._account_read(0, 0)
            return None
        return self.get(key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def reset_stats(self) -> None:
        self.stats.reset()
