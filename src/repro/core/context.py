"""Per-query execution state.

The engine object itself holds only immutable configuration and index
references; everything mutable that one query needs — work counters, the
top-k collector, the evaluator with its own counters, and the running
distance threshold — lives in an :class:`ExecutionContext` created per
call.  That is what makes one engine safe to share between concurrent
queries: two contexts never touch the same mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.evaluator import MatchEvaluator
from repro.core.query import Query
from repro.core.results import SearchResult, TopKCollector


@dataclass(slots=True)
class SearchStats:
    """Work counters for one query execution."""

    rounds: int = 0
    cells_popped: int = 0
    leaf_cells_visited: int = 0
    candidates_retrieved: int = 0
    tas_pruned: int = 0
    apl_pruned: int = 0
    mib_pruned: int = 0
    validated: int = 0
    distance_computations: int = 0
    disk_reads: int = 0
    disk_pages_read: int = 0
    #: Lookups of the shared HICL list cache this query made — one per
    #: (query point, disk-resident level, activity) it loaded — and how
    #: many hit; a miss is a counted read.
    hicl_cache_hits: int = 0
    hicl_cache_lookups: int = 0
    #: Lookups of the engine's APL residency LRU — one per candidate
    #: reaching the APL filter — and how many hit; a miss is a counted read.
    apl_cache_hits: int = 0
    apl_cache_lookups: int = 0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another execution's counters into this one.

        Driven by :func:`dataclasses.fields` so new counters can never be
        silently dropped from an aggregate.  Used by the sharded fan-out
        to sum per-shard work into one query-level view; each shard runs
        on its own disk and caches, so plain summation never double-counts.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @classmethod
    def merged(cls, parts: "list[SearchStats]") -> "SearchStats":
        """A fresh :class:`SearchStats` holding the sum of *parts*."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total


@dataclass(slots=True)
class ExecutionContext:
    """Everything mutable about one query's execution.

    Built by :meth:`~repro.core.engine.GATSearchEngine.execute`; the
    pipeline stages write their counters into ``stats`` and their results
    into ``results``, and the finished context is returned to the caller
    (``ranked`` carries the final ordering, ``latency_s`` the wall time).
    """

    query: Query
    k: int
    order_sensitive: bool
    evaluator: MatchEvaluator
    explain: bool = False
    stats: SearchStats = field(default_factory=SearchStats)
    results: TopKCollector = field(init=False)
    ranked: Optional[List[SearchResult]] = None
    latency_s: float = 0.0
    #: Optional external pruning threshold (a callable returning the
    #: current k-th best distance over a *wider* candidate population,
    #: e.g. the cross-shard merged top-k).  Sound whenever that population
    #: is a superset of this execution's own: any candidate worse than the
    #: wider k-th can never reach the wider top-k, so pruning against
    #: ``min(local, external)`` loses nothing the caller cares about.
    external_threshold: Optional[Callable[[], float]] = None
    #: Optional tracing span this execution reports into (a
    #: :class:`repro.obs.trace.Span`).  ``None`` — the default — means no
    #: tracing; the engine then skips every stage-timing branch, keeping
    #: the untraced hot path free of instrumentation cost.
    trace_span: Optional[object] = None
    #: ``Q.Φ`` — the union of activities over all query points — as an
    #: ascending ``int64`` array: the columns of every validation round's
    #: key lookup (and of the block kernel's, which sorts the same set).
    activities: np.ndarray = field(init=False)
    _point_slots: Optional[Tuple[np.ndarray, np.ndarray]] = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.results = TopKCollector(self.k)
        self.activities = np.array(sorted(self.query.all_activities), dtype=np.int64)

    def point_slots(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(slots, starts)``: the columns of :attr:`activities` holding
        ``q_1.Φ, q_2.Φ, …`` back to back, and where each query point's run
        starts — the ``reduceat`` layout of a per-query-point reduction
        over a round's lookup (built on first use: only OATSQ asks)."""
        if self._point_slots is None:
            sizes = [len(q.activities) for q in self.query]
            wanted = [a for q in self.query for a in q.activities]
            self._point_slots = (
                np.searchsorted(self.activities, wanted),
                np.cumsum([0] + sizes[:-1]),
            )
        return self._point_slots

    @property
    def block_scoring(self) -> bool:
        """True when this execution's evaluator runs the round-batched
        block kernel — the engine then scores each validation round
        through :meth:`~repro.core.pipeline.ScoringStage.score_batch`
        instead of one evaluator call per candidate."""
        return self.evaluator.kernel == "block"

    def threshold(self) -> float:
        """The current k-th best distance — the running pruning threshold
        of Algorithm 1 (``inf`` until k results are held), tightened by
        the external threshold when one is wired in."""
        local = self.results.kth_distance()
        if self.external_threshold is None:
            return local
        return min(local, self.external_threshold())
