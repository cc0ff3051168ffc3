"""Span trees, the thread-local active span, and tracer retention."""

import threading

from repro.obs import (
    NULL_SPAN,
    NullTracer,
    Span,
    Tracer,
    activate,
    current_span,
)
from repro.obs.trace import MAX_EVENTS_PER_SPAN


class TestSpan:
    def test_child_links_trace_and_parent(self):
        tracer = Tracer()
        root = tracer.start_span("query")
        child = root.child("shard_task", attrs={"shard": 0})
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.attrs["shard"] == 0

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("s")
        span.end(at=span.start_s + 1.0)
        first_end = span.end_s
        span.end(at=span.start_s + 9.0)
        assert span.end_s == first_end
        assert len(tracer.drain()) == 1  # filed exactly once

    def test_end_clamps_to_start(self):
        span = Span("s", trace_id="t")
        span.end(at=span.start_s - 5.0)
        assert span.end_s == span.start_s

    def test_event_cap_counts_the_spill(self):
        span = Span("s", trace_id="t")
        for i in range(MAX_EVENTS_PER_SPAN + 7):
            span.add_event("disk_read", key=i)
        assert len(span.events) == MAX_EVENTS_PER_SPAN
        assert span.events_dropped == 7

    def test_round_trips_through_dict(self):
        span = Span("s", trace_id="t", attrs={"k": 5})
        span.add_event("fault_error", shard=1)
        span.end()
        clone = Span.from_dict(span.to_dict())
        assert clone.to_dict() == span.to_dict()


class TestActiveSpan:
    def test_activate_nests_and_restores(self):
        assert current_span() is None
        outer = Span("outer", trace_id="t")
        inner = Span("inner", trace_id="t")
        with activate(outer):
            assert current_span() is outer
            with activate(inner):
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_active_span_is_thread_local(self):
        span = Span("mine", trace_id="t")
        seen = []

        def probe():
            seen.append(current_span())

        with activate(span):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen == [None]

    def test_active_span_parents_the_next_span(self):
        tracer = Tracer()
        root = tracer.start_span("query")
        with activate(root):
            stage = tracer.start_span("stage", parent=current_span())
            assert stage.parent_id == root.span_id
            stage.end()
        root.end()
        names = [s.name for s in tracer.drain()]
        assert names == ["stage", "query"]  # children end first


class TestTracerRetention:
    def test_buffer_is_bounded_and_counts_drops(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            tracer.start_span(f"s{i}").end()
        kept = [s.name for s in tracer.drain()]
        assert kept == ["s2", "s3", "s4"]  # oldest evicted
        assert tracer.spans_dropped == 2

    def test_drain_takes_and_clears(self):
        tracer = Tracer()
        tracer.start_span("a").end()
        drained = tracer.drain()
        assert [s.name for s in drained] == ["a"]
        assert tracer.drain() == []


class TestAdopt:
    def _worker_payloads(self):
        """What a process-fleet worker ships back: a local root plus a
        child, serialized, with a foreign trace id."""
        worker = Tracer(max_spans=16)
        task = worker.start_span("shard_task", attrs={"shard": 1})
        stage = task.child("score")
        stage.end()
        task.end()
        return [s.to_dict() for s in worker.drain()]

    def test_reparents_rootless_spans_under_parent(self):
        payloads = self._worker_payloads()
        parent_tracer = Tracer()
        root = parent_tracer.start_span("query")
        adopted = parent_tracer.adopt(payloads, root)
        by_name = {s.name: s for s in adopted}
        assert by_name["shard_task"].parent_id == root.span_id
        # The intra-worker link survives untouched.
        assert by_name["score"].parent_id == by_name["shard_task"].span_id
        # The whole batch joins the parent's trace.
        assert {s.trace_id for s in adopted} == {root.trace_id}
        # Adopted spans are filed as finished.
        assert len(parent_tracer.drain()) == 2

    def test_unresolved_parent_is_rehomed(self):
        payloads = self._worker_payloads()
        # Simulate a dropped intermediate: keep only the child.
        orphan = [p for p in payloads if p["name"] == "score"]
        tracer = Tracer()
        root = tracer.start_span("query")
        (span,) = tracer.adopt(orphan, root)
        assert span.parent_id == root.span_id

    def test_adopt_without_parent_keeps_payloads_verbatim(self):
        payloads = self._worker_payloads()
        tracer = Tracer()
        adopted = tracer.adopt(payloads, None)
        assert [s.to_dict() for s in adopted] == payloads


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        span = tracer.start_span("query", attrs={"k": 5})
        assert span is NULL_SPAN
        assert not span  # falsy, so `if span:` guards work
        span.set_attr("a", 1)
        span.set_attrs(b=2)
        span.add_event("disk_read")
        assert span.child("stage") is NULL_SPAN
        span.end()
        assert tracer.drain() == []
        assert tracer.adopt([{"name": "x"}], None) == []
