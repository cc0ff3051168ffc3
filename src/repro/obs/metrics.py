"""Metric primitives: counters, gauges, log-bucketed histograms, and the
exact latency window.

The registry's instruments are the serving stack's *only* accumulators:
every count a ``ServiceStats`` or ``FrontendStats`` reports is a
:class:`Counter` of a :class:`MetricRegistry` (the passed
``Observability`` handle's, or one the service keeps privately), and
``reset_stats()`` is an epoch — a snapshot of those counters that later
reads subtract — never a second set of ints.  The same registry renders to
a Prometheus text snapshot (:func:`repro.obs.export.prometheus_text`) or a
plain dict for ``BENCH_*.json`` embedding.

Hot-path cost is the design constraint.  :class:`Counter` and
:class:`Histogram` write to **per-thread cells** — a thread's first
``inc``/``observe`` registers a private cell under the registry lock,
after which updates are plain attribute arithmetic on thread-owned state
(no lock, no contention); readers merge every cell under the lock.
:class:`Histogram` keeps fixed log-spaced latency buckets, so p50/p95/p99
come from ~30 integers instead of an unbounded sample list.

Where a percentile must be an exact sample — the stats objects' latency
and queue-wait percentiles, the fault supervisor's adaptive hedge delay —
it comes from a :class:`LatencyWindow` over the most recent samples, and
every window ranks with :func:`nearest_rank`, the one quantile definition.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "nearest_rank",
    "LatencyWindow",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
]


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank quantile *q* in ``[0, 1]`` of *sorted_values*.

    The single quantile definition shared by every latency window in the
    repo: index ``ceil(q * n) - 1`` into the ascending sequence, clamped
    to the ends.  Returns ``0.0`` for an empty sequence — the "no data
    yet" convention of every stats object.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if q <= 0.0:
        return sorted_values[0]
    rank = math.ceil(q * n)
    idx = min(max(rank - 1, 0), n - 1)
    return sorted_values[idx]


class LatencyWindow:
    """The most recent *size* samples, ranked exactly by :func:`nearest_rank`.

    Thread-safe.  A window sorts at most once per change: a poll between
    recordings reuses the sorted copy it made last, so a monitoring loop
    polling an idle service pays no sort.  Reset is :meth:`clear` (a window
    has no lifetime total to take an epoch of).
    """

    __slots__ = ("_lock", "_samples", "_sorted")

    def __init__(self, size: int = 10_000) -> None:
        self._lock = threading.Lock()
        self._samples: deque = deque(maxlen=size)
        self._sorted: Optional[List[float]] = []

    def record(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)
            self._sorted = None

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()
            self._sorted = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile *q* of the window (``0.0`` while empty)."""
        with self._lock:
            if self._sorted is None:
                self._sorted = sorted(self._samples)
            ordered = self._sorted
        return nearest_rank(ordered, q)


class _Metric:
    """Shared shape: a name and per-thread cells."""

    __slots__ = ("name", "_lock", "_cells", "_local")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._cells: List[object] = []
        self._local = threading.local()

    def _cell(self):
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = self._new_cell()
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def _new_cell(self):  # pragma: no cover - overridden
        raise NotImplementedError


class _CounterCell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class Counter(_Metric):
    """A monotonically increasing sum, sharded per thread.

    ``inc`` touches only the calling thread's cell — one attribute add,
    no lock.  ``value()`` merges every cell under the lock; it may lag an
    in-flight increment by one scheduler quantum, which is the usual
    metrics contract.
    """

    __slots__ = ()

    def _new_cell(self) -> _CounterCell:
        return _CounterCell()

    def inc(self, n: float = 1.0) -> None:
        self._cell().value += n

    def value(self) -> float:
        with self._lock:
            return sum(cell.value for cell in self._cells)


class Gauge(_Metric):
    """A point-in-time value (pool depth, window size).  Gauges are
    read-modify-write by nature, so they take the lock — use them for
    low-frequency signals, counters/histograms for the hot path."""

    __slots__ = ("_value",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def value(self) -> float:
        with self._lock:
            return self._value


#: Every histogram's bucket upper bounds: 10 µs .. ~56 s in quarter-decade
#: steps, log-spaced so one fixed bucket set covers both a cache hit and a
#: deadline-length straggler with <78% relative quantile error, the
#: histogram trade everyone makes.  29 buckets + overflow.
BOUNDS: Tuple[float, ...] = tuple(10.0 ** (e / 4.0) for e in range(-20, 9))


class _HistogramCell:
    __slots__ = ("counts", "count", "sum", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.count = 0
        self.sum = 0.0
        self.max = 0.0


class Histogram(_Metric):
    """Fixed log-spaced buckets; p50/p95/p99 without unbounded lists.

    ``observe`` is a bisect plus four attribute writes on a thread-owned
    cell.  Quantiles are nearest-rank over the merged cumulative bucket
    counts and return the matched bucket's upper bound (the overflow
    bucket reports the true observed maximum, so a single straggler is
    never rounded to infinity).
    """

    __slots__ = ()

    def _new_cell(self) -> _HistogramCell:
        return _HistogramCell(len(BOUNDS) + 1)

    def observe(self, value: float) -> None:
        cell = self._cell()
        cell.counts[bisect_left(BOUNDS, value)] += 1
        cell.count += 1
        cell.sum += value
        if value > cell.max:
            cell.max = value

    # -- merged views ---------------------------------------------------
    def _merged(self) -> Tuple[List[int], int, float, float]:
        with self._lock:
            counts = [0] * (len(BOUNDS) + 1)
            count = 0
            total = 0.0
            peak = 0.0
            for cell in self._cells:
                for i, c in enumerate(cell.counts):
                    counts[i] += c
                count += cell.count
                total += cell.sum
                if cell.max > peak:
                    peak = cell.max
            return counts, count, total, peak

    def snapshot(self) -> Dict[str, float]:
        counts, count, total, peak = self._merged()
        snap = {
            "count": count,
            "sum": total,
            "max": peak,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }
        if count:
            for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                rank = min(max(math.ceil(q * count), 1), count)
                seen = 0
                for i, c in enumerate(counts):
                    seen += c
                    if seen >= rank:
                        snap[key] = min(BOUNDS[i], peak) if i < len(BOUNDS) else peak
                        break
        snap["buckets"] = counts
        return snap


class MetricRegistry:
    """Named metric store: get-or-create by name.

    ``counter``/``gauge``/``histogram`` are idempotent — asking twice
    returns the same object, so callers cache handles freely.  Asking for
    an existing name with a different type raises (a silent type change
    would corrupt the export).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get(self, cls, name: str) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get(Gauge, name)

    def histogram(self, name: str) -> Histogram:
        return self._get(Histogram, name)

    def metrics(self) -> List[_Metric]:
        """Every registered metric, sorted by name for stable export
        order."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view for embedding in ``BENCH_*.json`` rows:
        counters and gauges map to numbers, histograms to their
        count/sum/percentile summaries."""
        return {
            metric.name: metric.snapshot() if isinstance(metric, Histogram) else metric.value()
            for metric in self.metrics()
        }
