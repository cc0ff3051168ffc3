"""Seedable disk-fault injection.

A :class:`FaultInjector` sits on a :class:`~repro.storage.disk.SimulatedDisk`
and is consulted once per read (after accounting, before the latency
model), so injected faults never corrupt the deterministic I/O counters —
they only decide whether the read *returns*.  Three fault shapes, each
independently seedable and optionally scoped to a key pattern:

* **errors** — the read raises :class:`InjectedDiskError` (a media error /
  dead replica device);
* **latency spikes** — the read pays extra wall time before returning
  (a degraded device or noisy neighbour);
* **stalls** — the read blocks on an event until :meth:`FaultInjector.
  lift_stalls` is called (a hung controller).  Stalled reads *resume
  normally* once lifted, so test teardown can always drain a pool instead
  of orphaning worker threads.

Determinism: one ``random.Random(seed)`` drives every probabilistic
decision under a lock, so a serial replay with the same seed injects the
same fault sequence.  Concurrent backends interleave draws
nondeterministically — then the per-rule ``max_errors``/``max_stalls``
caps are the reproducible knob ("exactly the first read fails").

The injector is deliberately **not** picklable: it holds a lock and an
event, and its counters are the test's observability.  Process-backend
workers therefore never see injected *disk* faults — the process fleet's
fault axis is worker death (:func:`repro.faults.chaos.kill_fleet_workers`),
which is the failure mode that tier actually has.
"""

from __future__ import annotations

import random
import re
import threading
import time
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Union

from repro.obs.trace import current_span


class InjectedDiskError(RuntimeError):
    """A read that an active :class:`FaultInjector` decided should fail."""


@dataclass(frozen=True)
class FaultRule:
    """One fault profile, applied to every read whose key matches.

    ``error_rate`` / ``stall_rate`` / ``latency_rate`` are per-read
    probabilities in ``[0, 1]``; ``extra_latency_s`` is the spike paid
    when the latency draw fires (``latency_rate`` defaults to 1.0 so a
    bare ``extra_latency_s`` slows every matching read).  ``key_pattern``
    is a regex searched against ``str(key)`` (``None`` matches all keys).
    ``max_errors`` / ``max_stalls`` cap how many faults the rule injects
    over its lifetime — ``max_errors=1`` with ``error_rate=1.0`` means
    "exactly the first matching read fails", the deterministic shape the
    retry tests lean on.
    """

    error_rate: float = 0.0
    stall_rate: float = 0.0
    extra_latency_s: float = 0.0
    latency_rate: float = 1.0
    key_pattern: Optional[str] = None
    max_errors: Optional[int] = None
    max_stalls: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("error_rate", "stall_rate", "latency_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.extra_latency_s < 0.0:
            raise ValueError("extra_latency_s must be >= 0")
        for name in ("max_errors", "max_stalls"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0 (or None for unbounded)")


class FaultInjector:
    """Decides, per read, whether to error, stall, or slow the caller.

    Thread-safe; attach one to a :class:`~repro.storage.disk.SimulatedDisk`
    via its ``fault_injector`` parameter.  Every matching rule of a read is
    evaluated in order: injected delays accumulate, and the first rule
    whose stall or error draw fires wins (stall takes precedence — a hung
    controller never gets to report the media error).  Flip :attr:`enabled`
    off to turn the same disk healthy again without rebuilding anything.
    """

    def __init__(
        self,
        rules: Union[FaultRule, Sequence[FaultRule]],
        seed: int = 0,
        stall_timeout_s: Optional[float] = None,
    ) -> None:
        if isinstance(rules, FaultRule):
            rules = (rules,)
        self.rules = tuple(rules)
        self._patterns = [
            re.compile(rule.key_pattern) if rule.key_pattern is not None else None
            for rule in self.rules
        ]
        self.stall_timeout_s = stall_timeout_s
        self.enabled = True
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        # Stalled readers block here; lift_stalls() releases them (and any
        # future stall draws fall straight through) so pools always drain.
        self._stall_gate = threading.Event()
        self._rule_errors = [0] * len(self.rules)
        self._rule_stalls = [0] * len(self.rules)
        self.reads_seen = 0
        self.errors_injected = 0
        self.stalls_injected = 0
        self.delays_injected = 0
        #: Optional :class:`repro.obs.trace.Tracer`; when set and enabled,
        #: each injected fault attaches a ``fault_*`` event to the
        #: thread's active span (see :meth:`Observability.bind_disk`).
        self.tracer = None

    # ------------------------------------------------------------------
    # Stall control
    # ------------------------------------------------------------------
    def lift_stalls(self) -> None:
        """Release every stalled reader (they resume normally) and let all
        future stall draws pass through.  Idempotent; call from teardown."""
        self._stall_gate.set()

    # ------------------------------------------------------------------
    # The disk-side hook
    # ------------------------------------------------------------------
    def on_read(self, key: Hashable) -> None:
        """Called by the disk once per read, after accounting.  Returns
        normally, sleeps, blocks, or raises :class:`InjectedDiskError`."""
        if not self.enabled or not self.rules:
            return
        text = None
        stall = False
        error = False
        delay = 0.0
        with self._lock:
            self.reads_seen += 1
            for i, (rule, pattern) in enumerate(zip(self.rules, self._patterns)):
                if pattern is not None:
                    if text is None:
                        text = str(key)
                    if pattern.search(text) is None:
                        continue
                if (
                    rule.stall_rate > 0.0
                    and (rule.max_stalls is None or self._rule_stalls[i] < rule.max_stalls)
                    and self._rng.random() < rule.stall_rate
                ):
                    self._rule_stalls[i] += 1
                    self.stalls_injected += 1
                    stall = True
                    break
                if (
                    rule.error_rate > 0.0
                    and (rule.max_errors is None or self._rule_errors[i] < rule.max_errors)
                    and self._rng.random() < rule.error_rate
                ):
                    self._rule_errors[i] += 1
                    self.errors_injected += 1
                    error = True
                    break
                if rule.extra_latency_s > 0.0 and (
                    rule.latency_rate >= 1.0 or self._rng.random() < rule.latency_rate
                ):
                    self.delays_injected += 1
                    delay += rule.extra_latency_s
        # Effects happen outside the lock: a stalled or sleeping reader
        # must never block other readers' draws (or lift_stalls itself).
        tracer = self.tracer
        if (stall or error or delay > 0.0) and tracer is not None and tracer.enabled:
            span = current_span()
            if span is not None:
                if stall:
                    span.add_event("fault_stall", key=str(key))
                elif error:
                    span.add_event("fault_error", key=str(key))
                else:
                    span.add_event("fault_delay", key=str(key), delay_s=delay)
        if stall:
            self._stall_gate.wait(self.stall_timeout_s)
            return
        if error:
            raise InjectedDiskError(f"injected read error for key {key!r}")
        if delay > 0.0:
            time.sleep(delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"FaultInjector({len(self.rules)} rule(s), {state}, "
            f"errors={self.errors_injected}, stalls={self.stalls_injected})"
        )
