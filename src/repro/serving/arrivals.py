"""Seeded open-loop arrival processes for the serving front-end.

Closed-loop load (submit a batch, wait) cannot overload a service: the
generator slows down exactly when the service does.  Open-loop load
arrives on its own schedule — requests keep coming whether or not the
fleet is keeping up — which is what production traffic does and what the
admission/shedding machinery in :mod:`repro.serving.frontend` exists to
survive.

Every process here is deterministic given its seed: :meth:`times`
returns the full arrival schedule (offsets in seconds from the start of
the run) up front, so a bench re-run replays the identical workload and
two configurations under comparison see the same bursts.

Shapes
------
* :class:`PoissonArrivals` — homogeneous Poisson at ``rate_qps``
  (i.i.d. exponential gaps): the memoryless baseline.
* :class:`DiurnalArrivals` — a raised-cosine rate curve between
  ``low_qps`` and ``high_qps`` with period ``period_s`` (a day compressed
  to seconds); mean rate is the midpoint.
* :class:`SquareWaveArrivals` — alternating quiet/burst plateaus
  (``low_qps`` / ``high_qps``, duty-cycled), the adversarial shape for
  admission control: the burst's leading edge is a step, not a ramp.

The non-homogeneous shapes sample by thinning (Lewis & Shedler): draw
candidate arrivals at the peak rate and keep each with probability
``rate(t) / peak``.  Exact for any bounded rate function, and the
candidate stream stays reproducible because acceptance consumes draws
from the same seeded generator.
"""

from __future__ import annotations

import math
import random
from typing import List

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "SquareWaveArrivals",
    "ARRIVAL_KINDS",
    "arrival_process",
]


class ArrivalProcess:
    """Base class: a seeded generator of arrival-time offsets."""

    name = "base"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # -- the rate curve (QPS at offset t) -------------------------------
    def rate(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def peak_rate(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- sampling -------------------------------------------------------
    def times(self, duration_s: float) -> List[float]:
        """All arrival offsets in ``[0, duration_s)``, ascending.

        Thinning against :meth:`peak_rate`; a fresh ``random.Random``
        seeded from :attr:`seed` per call, so repeated calls return the
        identical schedule.
        """
        peak = self.peak_rate()
        if peak <= 0 or duration_s <= 0:
            return []
        rng = random.Random(self.seed)
        out: List[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= duration_s:
                return out
            if rng.random() * peak <= self.rate(t):
                out.append(t)


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_qps``."""

    name = "poisson"

    def __init__(self, rate_qps: float, seed: int = 0) -> None:
        if rate_qps < 0:
            raise ValueError("rate_qps must be >= 0")
        super().__init__(seed)
        self.rate_qps = rate_qps

    def rate(self, t: float) -> float:
        return self.rate_qps

    def peak_rate(self) -> float:
        return self.rate_qps


class DiurnalArrivals(ArrivalProcess):
    """Raised-cosine diurnal curve: trough at ``t=0``, peak at half the
    period.  ``rate(t) = low + (high-low) · (1 - cos(2πt/T)) / 2``."""

    name = "diurnal"

    def __init__(
        self,
        low_qps: float,
        high_qps: float,
        period_s: float,
        seed: int = 0,
    ) -> None:
        if not 0 <= low_qps <= high_qps:
            raise ValueError("need 0 <= low_qps <= high_qps")
        if period_s <= 0:
            raise ValueError("period_s must be > 0")
        super().__init__(seed)
        self.low_qps = low_qps
        self.high_qps = high_qps
        self.period_s = period_s

    def rate(self, t: float) -> float:
        phase = (1.0 - math.cos(2.0 * math.pi * t / self.period_s)) / 2.0
        return self.low_qps + (self.high_qps - self.low_qps) * phase

    def peak_rate(self) -> float:
        return self.high_qps


class SquareWaveArrivals(ArrivalProcess):
    """Alternating plateaus: ``high_qps`` for the first ``duty`` fraction
    of each period, ``low_qps`` for the rest.  The burst arrives as a
    step — no ramp for the EWMA to anticipate."""

    name = "square"

    def __init__(
        self,
        low_qps: float,
        high_qps: float,
        period_s: float,
        duty: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0 <= low_qps <= high_qps:
            raise ValueError("need 0 <= low_qps <= high_qps")
        if period_s <= 0:
            raise ValueError("period_s must be > 0")
        if not 0.0 < duty < 1.0:
            raise ValueError("duty must be in (0, 1)")
        super().__init__(seed)
        self.low_qps = low_qps
        self.high_qps = high_qps
        self.period_s = period_s
        self.duty = duty

    def rate(self, t: float) -> float:
        in_burst = (t % self.period_s) < self.duty * self.period_s
        return self.high_qps if in_burst else self.low_qps

    def peak_rate(self) -> float:
        return self.high_qps


#: Shapes the factory (and the CLI's ``--arrivals``) accepts.
ARRIVAL_KINDS = ("poisson", "diurnal", "square")


def arrival_process(
    kind: str,
    rate_qps: float,
    seed: int = 0,
    period_s: float = 4.0,
    swing: float = 0.5,
) -> ArrivalProcess:
    """Build an arrival process with **mean** rate ``rate_qps``.

    The time-varying shapes oscillate between ``(1-swing)`` and
    ``(1+swing)`` times the mean (the square wave at 50% duty), so
    sweeping ``rate_qps`` moves every shape's offered load identically —
    the bench's saturation point means the same thing for all three.
    """
    if kind == "poisson":
        return PoissonArrivals(rate_qps, seed=seed)
    if not 0.0 <= swing <= 1.0:
        raise ValueError("swing must be in [0, 1]")
    low = rate_qps * (1.0 - swing)
    high = rate_qps * (1.0 + swing)
    if kind == "diurnal":
        return DiurnalArrivals(low, high, period_s, seed=seed)
    if kind == "square":
        return SquareWaveArrivals(low, high, period_s, duty=0.5, seed=seed)
    raise ValueError(f"unknown arrival kind {kind!r} (want one of {ARRIVAL_KINDS})")
