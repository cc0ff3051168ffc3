"""Exporters: JSONL trace dumps and Prometheus text exposition.

Two formats, both plain text so they diff, grep, and upload as CI
artifacts without tooling:

* **JSONL traces** — one span per line (:func:`spans_to_jsonl` /
  :func:`write_spans_jsonl`), validated structurally by
  :func:`validate_spans`: unique span ids, parent links that resolve
  within the dump, and end timestamps that never precede their starts.
  The CI smoke job runs a faulted sharded batch and asserts the dump
  passes this validator.
* **Prometheus text exposition** — :func:`prometheus_text` renders a
  :class:`~repro.obs.metrics.MetricRegistry` in the ``# TYPE`` +
  samples format scrapers expect (histograms as cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count``);
  :func:`parse_prometheus_text` reads it back into a dict, which is both
  the round-trip test and the programmatic consumer for bench rows.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, Iterable, List, Union

from repro.obs.metrics import BOUNDS, Counter, Gauge, Histogram, MetricRegistry
from repro.obs.trace import Span

__all__ = [
    "span_to_dict",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "validate_spans",
    "prometheus_text",
    "parse_prometheus_text",
]


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------
def span_to_dict(span: Union[Span, Dict[str, Any]]) -> Dict[str, Any]:
    return span if isinstance(span, dict) else span.to_dict()


def spans_to_jsonl(spans: Iterable[Union[Span, Dict[str, Any]]]) -> str:
    """One compact JSON object per line; trailing newline when non-empty."""
    lines = [json.dumps(span_to_dict(s), sort_keys=True) for s in spans]
    return "\n".join(lines) + ("\n" if lines else "")

def write_spans_jsonl(path, spans: Iterable[Union[Span, Dict[str, Any]]]) -> int:
    """Write spans to *path* as JSONL; returns the number written."""
    text = spans_to_jsonl(spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0 if not text else text.count("\n")


def validate_spans(records: Iterable[Union[Span, Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Structural validation of a span dump; returns the parsed records.

    Raises ``ValueError`` on: missing required fields, duplicate span
    ids, a parent link that does not resolve to a span in the dump, a
    trace id differing from the parent's, or an ``end_s`` before
    ``start_s``.  Deliberately forgiving about attrs/events content —
    those are open-ended by design.
    """
    dicts = [span_to_dict(r) for r in records]
    by_id: Dict[str, Dict[str, Any]] = {}
    for rec in dicts:
        for field in ("name", "span_id", "trace_id", "start_s"):
            if rec.get(field) in (None, ""):
                raise ValueError(f"span missing required field {field!r}: {rec!r}")
        sid = rec["span_id"]
        if sid in by_id:
            raise ValueError(f"duplicate span_id {sid!r}")
        by_id[sid] = rec
        end = rec.get("end_s")
        if end is not None and end < rec["start_s"]:
            raise ValueError(
                f"span {sid!r} ends before it starts "
                f"({end} < {rec['start_s']})"
            )
    for rec in dicts:
        parent = rec.get("parent_id")
        if parent is None:
            continue
        if parent not in by_id:
            raise ValueError(
                f"span {rec['span_id']!r} parent {parent!r} not in dump"
            )
        if by_id[parent]["trace_id"] != rec["trace_id"]:
            raise ValueError(
                f"span {rec['span_id']!r} trace_id differs from its parent's"
            )
    return dicts


def read_spans_jsonl(path) -> List[Dict[str, Any]]:
    """Load a JSONL trace dump back into dicts (no validation)."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$"
)


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricRegistry) -> str:
    """Render every registered metric in Prometheus text exposition
    format, stable-ordered so snapshots diff cleanly: one ``# TYPE``
    line per metric, then its samples (a histogram's carry the ``le``
    bucket label the format requires)."""
    lines: List[str] = []
    for metric in registry.metrics():
        if not _NAME_OK.match(metric.name):
            raise ValueError(f"invalid metric name {metric.name!r}")
        if isinstance(metric, Counter):
            kind = "counter"
        elif isinstance(metric, Gauge):
            kind = "gauge"
        elif isinstance(metric, Histogram):
            kind = "histogram"
        else:  # pragma: no cover - registry only makes the three
            raise TypeError(f"unknown metric type {type(metric).__name__}")
        lines.append(f"# TYPE {metric.name} {kind}")
        if isinstance(metric, Histogram):
            counts, count, total, _peak = metric._merged()
            seen = 0
            for bound, c in zip(BOUNDS, counts):
                seen += c
                lines.append(f'{metric.name}_bucket{{le="{_fmt(bound)}"}} {seen}')
            lines.append(f'{metric.name}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{metric.name}_sum {_fmt(total)}")
            lines.append(f"{metric.name}_count {count}")
        else:
            lines.append(f"{metric.name} {_fmt(metric.value())}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse a text-exposition snapshot back into ``{sample: value}``.

    Keys keep their label sets verbatim (``name{le="0.1"}``).  Raises
    ``ValueError`` on any line that is neither a comment nor a valid
    sample — the CI smoke job leans on that strictness.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        name, labels, raw = match.groups()
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"malformed sample value on line {lineno}: {raw!r}"
            ) from None
        samples[name + (labels or "")] = value
    return samples
