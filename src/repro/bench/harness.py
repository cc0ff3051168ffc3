"""Experiment harness: build all four searchers once, time query batches.

The harness mirrors the paper's measurement protocol: for each parameter
setting, run a batch of queries (the paper uses 50) through each method and
report the *average running time per query*.  Work counters (candidates,
node/cell accesses, simulated-disk reads) ride along so benchmarks can
explain the timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines import InvertedListSearch, IRTreeSearch, RTreeSearch
from repro.core.engine import GATSearchEngine
from repro.core.query import Query
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.database import TrajectoryDatabase

METHOD_NAMES = ("IL", "RT", "IRT", "GAT")


@dataclass(slots=True)
class MethodTiming:
    """Aggregate result of one (method, sweep point) cell."""

    method: str
    total_seconds: float = 0.0
    n_queries: int = 0
    candidates: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def avg_seconds(self) -> float:
        return self.total_seconds / self.n_queries if self.n_queries else 0.0


@dataclass(slots=True)
class SweepResult:
    """One x-axis value of a figure: timings for every method."""

    x_label: str
    x_value: object
    timings: Dict[str, MethodTiming] = field(default_factory=dict)


class ExperimentHarness:
    """Owns a database plus one instance of every searcher."""

    def __init__(
        self,
        db: TrajectoryDatabase,
        gat_config: Optional[GATConfig] = None,
        methods: Sequence[str] = METHOD_NAMES,
    ) -> None:
        self.db = db
        self.gat_config = gat_config
        self.methods = tuple(methods)
        self.searchers: Dict[str, object] = {}
        if "IL" in self.methods:
            self.searchers["IL"] = InvertedListSearch(db)
        if "RT" in self.methods:
            self.searchers["RT"] = RTreeSearch(db)
        if "IRT" in self.methods:
            self.searchers["IRT"] = IRTreeSearch(db)
        if "GAT" in self.methods:
            self.gat_index = GATIndex.build(db, gat_config)
            # Paper protocol: every query pays its own counted I/O, so the
            # figure engine runs cache-less (no APL LRU; run_batch clears
            # the HICL cache per query).
            self.searchers["GAT"] = GATSearchEngine(self.gat_index, apl_cache_size=0)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def run_batch(
        self,
        queries: Sequence[Query],
        k: int,
        order_sensitive: bool = False,
    ) -> Dict[str, MethodTiming]:
        """Run every query through every method; return per-method totals."""
        out: Dict[str, MethodTiming] = {}
        for name in self.methods:
            searcher = self.searchers[name]
            timing = MethodTiming(method=name)
            for query in queries:
                if name == "GAT":
                    # Seed/paper protocol: cold disk-list cache per query.
                    self.gat_index.hicl.clear_cache()
                t0 = time.perf_counter()
                stats = searcher.execute(query, k, order_sensitive=order_sensitive).stats
                timing.total_seconds += time.perf_counter() - t0
                timing.n_queries += 1
                timing.candidates += stats.candidates_retrieved
            out[name] = timing
        return out

    def sweep(
        self,
        x_label: str,
        x_values: Sequence[object],
        make_queries: Callable[[object], Sequence[Query]],
        k_of: Callable[[object], int],
        order_sensitive: bool = False,
    ) -> List[SweepResult]:
        """Generic parameter sweep: for each x, generate queries and time
        every method."""
        results: List[SweepResult] = []
        for x in x_values:
            queries = make_queries(x)
            timings = self.run_batch(queries, k_of(x), order_sensitive)
            results.append(SweepResult(x_label=x_label, x_value=x, timings=timings))
        return results
