"""Span recorder and timing wrappers for the traced benchmark run.

The benchmark measures every layer **from outside**: for the duration of
a traced pass, :func:`installed` replaces the public callables named in
:data:`PATCHES` with wrappers that record one span per call — name,
start, end, parent span, query id, thread — and restores the originals
(by identity) on exit.  Nothing under ``src/`` is edited.

Spans are appended to per-thread lists (shard tasks run on pool threads)
and merged when the run ends.  Parent links follow the calling thread's
own stack; a span opened on a thread with an empty stack (a
``repro-serve`` bridge thread, a ``repro-shard`` fan-out thread) parents
to the query's current *hand-off* span — the innermost open span of a
layer that passes work to other threads.  That rule needs exactly one
query in flight, which every workload of this benchmark guarantees
(closed loop, one client).

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover (children of one parent may overlap each
other when they ran on parallel shard threads, so the cover is an
interval union, not a sum).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import repro.core.engine as engine_module
import repro.core.kernels as kernels_module
from repro.core.engine import GATSearchEngine
from repro.core.pipeline import CandidateRetriever, ValidationStage
from repro.index.gat.apl import APLStore
from repro.service.service import QueryService
from repro.serving.frontend import ServingFrontend
from repro.shard.service import ShardedQueryService
from repro.storage.disk import SimulatedDisk

#: ``(owner, attribute, span name, hands work to other threads)``.  Span
#: names are the layer names the per-layer metrics are reported under.
PATCHES: Tuple[Tuple[object, str, str, bool], ...] = (
    (ServingFrontend, "submit", "serving.submit", True),
    (ShardedQueryService, "search", "shard.search", True),
    (QueryService, "search", "service.search", False),
    (GATSearchEngine, "execute", "core.engine", False),
    (CandidateRetriever, "__init__", "core.retrieve", False),
    (CandidateRetriever, "retrieve", "core.retrieve", False),
    (ValidationStage, "admit_batch", "core.validate", False),
    (engine_module, "lower_bound_distance", "core.lower_bound", False),
    (kernels_module, "prepare_block", "core.assemble", False),
    (kernels_module, "block_dmm", "core.score", False),
    (kernels_module, "block_dmom", "core.score", False),
    (kernels_module, "block_dmm_all_single", "core.score_single", False),
    (APLStore, "fetch_many", "index.apl_fetch", False),
    (SimulatedDisk, "get", "storage.disk", False),
    (SimulatedDisk, "get_many", "storage.disk", False),
)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "qid", "thread", "prev_handoff")

    def __init__(self, sid: int, name: str, parent: Optional[int], qid, thread: str) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.qid = qid
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.prev_handoff: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "query": self.qid,
            "thread": self.thread,
        }


class SpanRecorder:
    """In-memory span sink for one traced pass (one query in flight)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_lists: List[List[Span]] = []
        self._ids = itertools.count(1)
        #: Set by the driver around each query; spans carry it as their
        #: shared identifier.
        self.qid = None
        self._handoff: Optional[int] = None

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.thread = threading.current_thread().name
            with self._lock:
                self._thread_lists.append(local.spans)
        return local

    def open(self, name: str, handoff: bool) -> Span:
        local = self._state()
        stack = local.stack
        parent = stack[-1].sid if stack else self._handoff
        span = Span(next(self._ids), name, parent, self.qid, local.thread)
        stack.append(span)
        if handoff:
            span.prev_handoff = self._handoff
            self._handoff = span.sid
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, handoff: bool) -> None:
        span.end = time.perf_counter()
        local = self._local
        local.stack.pop()
        if handoff:
            self._handoff = span.prev_handoff
        local.spans.append(span)

    def spans(self) -> List[Span]:
        """Every recorded span, all threads merged, in start order."""
        with self._lock:
            merged = [span for spans in self._thread_lists for span in spans]
        merged.sort(key=lambda s: s.start)
        return merged

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span.to_dict()) + "\n")


def _wrap(func, recorder: SpanRecorder, name: str, handoff: bool):
    if inspect.iscoroutinefunction(func):

        @functools.wraps(func)
        async def traced(*args, **kwargs):
            span = recorder.open(name, handoff)
            try:
                return await func(*args, **kwargs)
            finally:
                recorder.close(span, handoff)

    else:

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = recorder.open(name, handoff)
            try:
                return func(*args, **kwargs)
            finally:
                recorder.close(span, handoff)

    return traced


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the timing wrappers for the duration of the block; the
    originals are put back — the very same objects — on exit."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _n, _h in PATCHES]
    try:
        for (owner, attr, name, handoff), (_o, _a, original) in zip(PATCHES, originals):
            setattr(owner, attr, _wrap(original, recorder, name, handoff))
        yield recorder
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered(start: float, end: float, children: List[Span]) -> float:
    """Length of ``[start, end]`` covered by the union of *children*."""
    total = 0.0
    reach = start
    for child in sorted(children, key=lambda s: s.start):
        lo = max(child.start, reach)
        hi = min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return {
        span.sid: span.duration - _covered(span.start, span.end, children.get(span.sid, []))
        for span in spans
    }


def by_query(spans: List[Span]) -> Dict[object, List[Span]]:
    """Spans grouped by query id (spans recorded outside a query dropped)."""
    out: Dict[object, List[Span]] = {}
    for span in spans:
        if span.qid is not None:
            out.setdefault(span.qid, []).append(span)
    return out
