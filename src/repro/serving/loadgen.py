"""Open-loop load generation against a :class:`ServingFrontend`.

``run_open_loop`` replays a seeded arrival schedule against the
front-end: every arrival becomes an asyncio task that sleeps until its
offset and then submits, whether or not earlier requests have finished —
the generator never slows down to match the service, which is the whole
point.  Each request resolves to one :class:`RequestOutcome`; the run
aggregates into an :class:`OpenLoopReport` whose headline number is
**goodput** — requests completed within the SLO, per second of offered
window.

Rankings are captured per completed request (``(trajectory_id,
distance)`` pairs) so benches can assert that every answered query is
byte-identical to its closed-loop oracle: overload handling may refuse
queries, never corrupt them.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.query import Query
from repro.obs.metrics import nearest_rank
from repro.serving.admission import ExpiredError, RejectedError, ShedError
from repro.serving.arrivals import ArrivalProcess
from repro.serving.frontend import ServingFrontend
from repro.service.service import QueryRequest

__all__ = ["RequestOutcome", "OpenLoopReport", "run_open_loop"]

Ranking = Tuple[Tuple[int, float], ...]


@dataclass(slots=True)
class RequestOutcome:
    """One open-loop request's fate."""

    index: int  # position in the arrival schedule
    offset_s: float  # scheduled arrival offset
    outcome: str  # completed | rejected | shed | expired | failed
    latency_s: float = 0.0  # submit -> response, completed requests only
    within_slo: bool = False
    ranking: Optional[Ranking] = None  # completed requests only


@dataclass(slots=True)
class OpenLoopReport:
    """Aggregates of one open-loop run.

    ``goodput_qps`` divides completed-within-SLO requests by the offered
    window (``duration_s``), not by busy time: an overloaded service that
    refuses most arrivals *should* score low here unless shedding keeps
    the admitted stream fast.
    """

    duration_s: float
    slo_s: float
    offered: int
    completed: int = 0
    completed_within_slo: int = 0
    rejected: int = 0
    shed: int = 0
    expired: int = 0
    failed: int = 0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0
    outcomes: List[RequestOutcome] = field(default_factory=list)

    @property
    def offered_qps(self) -> float:
        return self.offered / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def goodput_qps(self) -> float:
        return (
            self.completed_within_slo / self.duration_s
            if self.duration_s > 0
            else 0.0
        )

    @property
    def drop_frac(self) -> float:
        """Fraction of offered requests not completed (any refusal)."""
        if self.offered == 0:
            return 0.0
        return 1.0 - self.completed / self.offered

    @property
    def shed_frac(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def row(self) -> dict:
        """A flat JSON-able summary row for ``BENCH_*.json``."""
        return {
            "duration_s": round(self.duration_s, 3),
            "offered": self.offered,
            "offered_qps": round(self.offered_qps, 2),
            "completed": self.completed,
            "completed_within_slo": self.completed_within_slo,
            "goodput_qps": round(self.goodput_qps, 2),
            "rejected": self.rejected,
            "shed": self.shed,
            "expired": self.expired,
            "failed": self.failed,
            "shed_frac": round(self.shed_frac, 4),
            "drop_frac": round(self.drop_frac, 4),
            "latency_p50_ms": round(self.latency_p50_s * 1e3, 2),
            "latency_p95_ms": round(self.latency_p95_s * 1e3, 2),
            "latency_p99_ms": round(self.latency_p99_s * 1e3, 2),
        }


async def _drive(
    frontend: ServingFrontend,
    requests: Sequence[Union[QueryRequest, Query]],
    times: Sequence[float],
    slo_s: float,
    deadline_s: Optional[float],
    k: int,
) -> List[RequestOutcome]:
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def one(i: int, offset: float) -> RequestOutcome:
        delay = (start + offset) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        request = requests[i % len(requests)]
        submitted = time.monotonic()
        try:
            response = await frontend.submit(request, k=k, deadline_s=deadline_s)
        except RejectedError:
            return RequestOutcome(i, offset, "rejected")
        except ShedError:
            return RequestOutcome(i, offset, "shed")
        except ExpiredError:
            return RequestOutcome(i, offset, "expired")
        except Exception:
            return RequestOutcome(i, offset, "failed")
        latency = time.monotonic() - submitted
        return RequestOutcome(
            i,
            offset,
            "completed",
            latency_s=latency,
            within_slo=latency <= slo_s,
            ranking=tuple((r.trajectory_id, r.distance) for r in response.results),
        )

    tasks = [asyncio.create_task(one(i, t)) for i, t in enumerate(times)]
    return list(await asyncio.gather(*tasks))


def run_open_loop(
    frontend: ServingFrontend,
    requests: Sequence[Union[QueryRequest, Query]],
    arrivals: Union[ArrivalProcess, Sequence[float]],
    duration_s: float,
    slo_s: float,
    deadline_s: Optional[float] = None,
    k: int = 10,
) -> OpenLoopReport:
    """Replay one open-loop run and aggregate it.

    ``arrivals`` is either an :class:`ArrivalProcess` (its seeded
    schedule over ``duration_s`` is generated here) or a prebuilt list of
    offsets.  Arrival *i* submits ``requests[i % len(requests)]``; the
    per-request ``deadline_s`` (defaulting to each request's own) rides
    through the front-end's admission control.  Runs its own event loop —
    call from synchronous code (benches, the CLI).
    """
    if not requests:
        raise ValueError("need at least one request to replay")
    times = (
        arrivals.times(duration_s)
        if isinstance(arrivals, ArrivalProcess)
        else sorted(float(t) for t in arrivals)
    )
    outcomes = asyncio.run(
        _drive(frontend, requests, times, slo_s, deadline_s, k)
    )
    report = OpenLoopReport(
        duration_s=duration_s, slo_s=slo_s, offered=len(times), outcomes=outcomes
    )
    latencies: List[float] = []
    for o in outcomes:
        if o.outcome == "completed":
            report.completed += 1
            latencies.append(o.latency_s)
            if o.within_slo:
                report.completed_within_slo += 1
        elif o.outcome == "rejected":
            report.rejected += 1
        elif o.outcome == "shed":
            report.shed += 1
        elif o.outcome == "expired":
            report.expired += 1
        else:
            report.failed += 1
    if latencies:
        latencies.sort()
        report.latency_p50_s = nearest_rank(latencies, 0.50)
        report.latency_p95_s = nearest_rank(latencies, 0.95)
        report.latency_p99_s = nearest_rank(latencies, 0.99)
    return report
