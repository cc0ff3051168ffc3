"""Per-query span trees: one query's journey through the serving stack.

A :class:`Tracer` produces :class:`Span` trees — ``query`` roots from the
serving layer, ``retrieve``/``validate``/``score`` stage children from
the engine pipeline, ``shard_task`` children carrying
shard/replica/attempt/hedge/breaker attributes from the supervised
fan-out, with disk reads and injected faults attached as bounded
**events** on whichever span is active on the current thread.

Three design rules keep tracing cheap:

* **Off is one state: no tracer, no active span.**  A handle traces
  when it carries a :class:`Tracer` (``Observability.tracer is None``
  otherwise), and only a traced ``GATSearchEngine.execute`` activates a
  span; the serving layer checks the tracer once per query and the
  disk checks :func:`current_span` once per read.
* **Bounded everywhere.**  Finished spans land in a ``deque(maxlen=...)``
  and each span caps its event list (``events_dropped`` counts the
  spill), so a pathological query can't turn the tracer into a leak.
* **Cross-process by value.**  Process-fleet workers build spans with
  their own local tracer, serialize them with :meth:`Span.to_dict`
  through the task result, and the parent re-parents them under the
  query root (:meth:`Tracer.adopt`).  Timestamps are epoch seconds
  (``time.time()``) precisely so parent and worker clocks live on one
  axis.

The *active span* is thread-local: :func:`activate` pushes a span for
the duration of a ``with`` block and :func:`current_span` reads it, which
is how a ``SimulatedDisk`` deep in the engine attaches a ``disk_read``
event to the right shard task without any plumbing through the call
stack.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "current_span",
    "activate",
]

MAX_EVENTS_PER_SPAN = 128


class _Active(threading.local):
    #: The class default makes an unset thread read ``None`` without the
    #: ``AttributeError`` a bare ``getattr(local, name, None)`` raises and
    #: swallows (~1 µs, paid on every disk read).
    span: Optional["Span"] = None


_ACTIVE = _Active()


def current_span() -> Optional["Span"]:
    """The span the calling thread is currently inside (or ``None``)."""
    return _ACTIVE.span


@contextmanager
def activate(span: Optional["Span"]):
    """Make *span* the calling thread's active span for the block."""
    prev = _ACTIVE.span
    _ACTIVE.span = span
    try:
        yield span
    finally:
        _ACTIVE.span = prev


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation with attributes, bounded events, and a parent."""

    __slots__ = (
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "start_s",
        "end_s",
        "attrs",
        "events",
        "events_dropped",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
        tracer: Optional["Tracer"] = None,
        span_id: Optional[str] = None,
        start_s: Optional[float] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id if span_id is not None else _new_id()
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start_s = start_s if start_s is not None else time.time()
        self.end_s: Optional[float] = None
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self._tracer = tracer

    # -- recording ------------------------------------------------------
    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def add_event(self, name: str, **attrs: Any) -> None:
        if len(self.events) >= MAX_EVENTS_PER_SPAN:
            self.events_dropped += 1
            return
        event = {"name": name, "t_s": time.time()}
        if attrs:
            event.update(attrs)
        self.events.append(event)

    def child(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> "Span":
        """A new span parented here, filed to the same tracer on end."""
        if self._tracer is not None:
            return self._tracer.start_span(name, parent=self, attrs=attrs)
        return Span(name, trace_id=self.trace_id, parent_id=self.span_id, attrs=attrs)

    def end(self, at: Optional[float] = None) -> None:
        """Stamp the end time and hand the span to its tracer.  Idempotent
        — a second call keeps the first timestamp and does not re-file.
        *at* overrides the timestamp (stage spans whose extent was
        measured separately); it must not precede ``start_s``."""
        if self.end_s is not None:
            return
        self.end_s = at if at is not None else time.time()
        if self.end_s < self.start_s:
            self.end_s = self.start_s
        if self._tracer is not None:
            self._tracer._finish(self)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": self.attrs,
            "events": self.events,
            "events_dropped": self.events_dropped,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        span = cls(
            payload["name"],
            trace_id=payload["trace_id"],
            parent_id=payload.get("parent_id"),
            attrs=payload.get("attrs") or {},
            span_id=payload["span_id"],
            start_s=payload["start_s"],
        )
        span.end_s = payload.get("end_s")
        span.events = list(payload.get("events") or ())
        span.events_dropped = int(payload.get("events_dropped") or 0)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"end={self.end_s}, attrs={self.attrs})"
        )


class Tracer:
    """Creates spans and retains the finished ones in a bounded buffer.

    ``max_spans`` bounds memory: when the buffer is full the *oldest*
    finished spans are evicted (``spans_dropped`` counts them).  Exporters
    take them with :meth:`drain`.
    """

    def __init__(self, max_spans: int = 10_000) -> None:
        self._lock = threading.Lock()
        self._finished: deque = deque(maxlen=max_spans)
        self.spans_dropped = 0

    # -- span construction ---------------------------------------------
    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = _new_id()
            parent_id = None
        return Span(name, trace_id=trace_id, parent_id=parent_id, attrs=attrs, tracer=self)

    # -- retention ------------------------------------------------------
    def _finish(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) == self._finished.maxlen:
                self.spans_dropped += 1
            self._finished.append(span)

    def adopt(
        self, payloads: Iterable[Dict[str, Any]], parent: Optional[Span]
    ) -> List[Span]:
        """Re-home serialized spans (from a process-fleet worker) under
        *parent*: rootless payloads get ``parent`` as their parent and the
        whole batch joins the parent's trace.  The rebuilt spans are filed
        as finished."""
        spans = [Span.from_dict(p) for p in payloads]
        if parent is not None:
            remap = {span.span_id for span in spans}
            for span in spans:
                span.trace_id = parent.trace_id
                if span.parent_id is None or span.parent_id not in remap:
                    span.parent_id = parent.span_id
        with self._lock:
            for span in spans:
                if len(self._finished) == self._finished.maxlen:
                    self.spans_dropped += 1
                self._finished.append(span)
        return spans

    def drain(self) -> List[Span]:
        """Take every finished span and clear the buffer."""
        with self._lock:
            spans = list(self._finished)
            self._finished.clear()
            return spans
