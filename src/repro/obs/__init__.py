"""repro.obs — the unified observability layer.

One small package gives the serving stack a single pair of primitives:

* a :class:`MetricRegistry` of :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` metrics (per-thread shards, log-spaced latency
  buckets) — the one accumulator of every serving count: a service's
  ``stats()`` is its registry counters minus the snapshot its last
  ``reset_stats()`` took, and exact percentiles come from a
  :class:`LatencyWindow`;
* a :class:`Tracer` producing per-query span trees — ``query`` roots,
  ``retrieve``/``validate``/``score`` stage spans from the engine,
  ``shard_task`` spans carrying shard/replica/attempt/hedge/breaker
  attributes from the fan-out, with disk reads and injected faults as
  span events — exported as JSONL or inspected in-process;

plus exporters (:func:`prometheus_text`, :func:`write_spans_jsonl`) and
the :class:`Observability` handle that wires both into a service.

Off is one state.  ``Observability.tracer`` is a :class:`Tracer` or
``None``: :meth:`Observability.disabled` keeps a live registry and no
tracer, and a service built without an ``obs`` object counts into a
private registry of its own — the same counters, so ``stats()`` means the
same either way — and opens no span.  ``Observability.enabled()`` turns
on span collection.  Disk reads and injected faults attach to whatever
span is active on the reading thread (:func:`current_span`), and only a
traced ``GATSearchEngine.execute`` activates one, so nothing is bound to
a tracer.

>>> from repro.obs import Observability
>>> obs = Observability.enabled()
>>> service = QueryService(engine, obs=obs)           # doctest: +SKIP
>>> service.search(q, k=5)                            # doctest: +SKIP
>>> print(obs.prometheus())                           # doctest: +SKIP
>>> spans = obs.tracer.drain()                        # doctest: +SKIP
"""

from __future__ import annotations

from typing import Optional

from repro.obs.export import (
    parse_prometheus_text,
    prometheus_text,
    read_spans_jsonl,
    span_to_dict,
    spans_to_jsonl,
    validate_spans,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyWindow,
    MetricRegistry,
    nearest_rank,
)
from repro.obs.trace import (
    Span,
    Tracer,
    activate,
    current_span,
)

__all__ = [
    "Observability",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyWindow",
    "nearest_rank",
    "Tracer",
    "Span",
    "current_span",
    "activate",
    "prometheus_text",
    "parse_prometheus_text",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "span_to_dict",
    "validate_spans",
]


class Observability:
    """The handle a service is constructed with: one tracer (or ``None``)
    + one registry.

    The services count into :attr:`registry` directly (each takes its
    counter handles once, at construction, so the hot path pays
    cached-attribute increments, never registry lookups).  Services
    sharing one handle share its counters: each one's ``stats()`` reports
    the handle's totals since that service's own epoch.  Pass ``obs=None``
    (every service's default) for no tracing and a private registry,
    :meth:`disabled` for a shared registry without traces, or
    :meth:`enabled` for both.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.registry = MetricRegistry()

    # -- constructors ---------------------------------------------------
    @classmethod
    def enabled(cls, max_spans: int = 10_000) -> "Observability":
        """Tracing on: spans are collected into a bounded buffer."""
        return cls(tracer=Tracer(max_spans=max_spans))

    @classmethod
    def disabled(cls) -> "Observability":
        """Metrics only: no tracer (the passed-in disabled handle the
        overhead bench gates within 5% of the default ``obs=None``
        service)."""
        return cls()

    # -- export ---------------------------------------------------------
    def prometheus(self) -> str:
        """The registry as a Prometheus text-exposition snapshot."""
        return prometheus_text(self.registry)

    def metrics_snapshot(self) -> dict:
        """The registry as a plain dict (``BENCH_*.json`` embedding)."""
        return self.registry.snapshot()
