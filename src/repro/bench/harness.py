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
from repro.service import QueryService

METHOD_NAMES = ("IL", "RT", "IRT", "GAT")


@dataclass(slots=True)
class MethodTiming:
    """Aggregate result of one (method, sweep point) cell."""

    method: str
    total_seconds: float = 0.0
    n_queries: int = 0
    candidates: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Optional ``MetricRegistry.snapshot()`` taken after the batch when
    #: the caller passed an :class:`~repro.obs.Observability` handle —
    #: JSON-ready, so ``BENCH_*.json`` rows can embed it verbatim.
    metrics: Optional[Dict[str, object]] = None

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
            # the HICL cache per query).  run_service_batch builds its own
            # warm-cache engine for the serving-layer comparison.
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
            run: Callable = searcher.oatsq if order_sensitive else searcher.atsq
            timing = MethodTiming(method=name)
            for query in queries:
                if name == "GAT":
                    # Seed/paper protocol: cold disk-list cache per query.
                    self.gat_index.hicl.clear_cache()
                t0 = time.perf_counter()
                run(query, k)
                timing.total_seconds += time.perf_counter() - t0
                timing.n_queries += 1
                stats = searcher.stats
                timing.candidates += getattr(stats, "candidates_retrieved", 0)
            out[name] = timing
        return out

    def run_service_batch(
        self,
        queries: Sequence[Query],
        k: int,
        order_sensitive: bool = False,
        max_workers: int = 8,
        obs=None,
    ) -> MethodTiming:
        """Serve the batch through a concurrent :class:`QueryService` over
        a warm-cache engine on the harness's GAT index (requires "GAT"
        among the harness methods).  *obs* (an
        :class:`~repro.obs.Observability`) rides into the service; its
        registry snapshot lands in ``MethodTiming.metrics``.

        ``total_seconds`` is the batch *wall* time — concurrent queries
        overlap, so ``avg_seconds`` is the amortised per-query cost the
        service achieves, comparable with :meth:`run_batch`'s GAT row as
        the cold-cache sequential baseline (the service engine is built
        fresh with the default caches; the figure engine stays cache-less
        so the paper protocol is untouched).  Service-level aggregates
        ride along in ``extra``.
        """
        if "GAT" not in self.searchers:
            raise ValueError('run_service_batch needs "GAT" among the methods')
        service = QueryService(
            GATSearchEngine(self.gat_index), max_workers=max_workers, obs=obs
        )
        t0 = time.perf_counter()
        responses = service.search_many(queries, k=k, order_sensitive=order_sensitive)
        wall = time.perf_counter() - t0
        stats = service.stats()
        timing = MethodTiming(
            method=f"GAT×{max_workers}",
            total_seconds=wall,
            n_queries=len(responses),
            candidates=sum(r.stats.candidates_retrieved for r in responses),
            extra={
                "qps": stats.qps,
                "p50_ms": stats.latency_p50_s * 1000.0,
                "p95_ms": stats.latency_p95_s * 1000.0,
                "hicl_hit_rate": stats.hicl_cache_hit_rate,
                "apl_hit_rate": stats.apl_cache_hit_rate,
            },
        )
        if obs is not None:
            timing.metrics = obs.metrics_snapshot()
        return timing

    def run_sharded_batch(
        self,
        queries: Sequence[Query],
        k: int,
        order_sensitive: bool = False,
        n_shards: int = 2,
        executor: str = "thread",
        n_clients: int = 1,
        n_replicas: int = 1,
        replica_router: str = "round-robin",
        fault_policy=None,
        disk_factory=None,
        obs=None,
    ) -> MethodTiming:
        """Serve the batch through a :class:`ShardedQueryService` over a
        fresh sharded build of the harness database, holding
        *n_replicas* copies of each shard behind *replica_router*.

        ``n_clients > 1`` splits the workload round-robin
        (:func:`~repro.bench.workloads.shard_workload`) and submits each
        slice from its own client thread — the service's busy-interval
        accounting makes the resulting QPS comparable with a single
        ``search_many`` call.  ``total_seconds`` is batch wall time, so
        ``avg_seconds`` is the amortised per-query cost, comparable with
        :meth:`run_batch`'s GAT row and :meth:`run_service_batch`.

        Fault-tolerance benchmarks pass *fault_policy* (a
        :class:`~repro.shard.resilience.FaultPolicy` for the fan-out
        supervisor) and *disk_factory* (a zero-arg
        ``SimulatedDisk`` factory handed to ``ShardedGATIndex.build``,
        called once per shard — e.g. disks wearing a
        :class:`~repro.faults.FaultInjector`).  Resilience
        counters (retries / hedges / partial responses) ride in
        ``extra`` whenever a policy is set.  *obs* (an
        :class:`~repro.obs.Observability`) rides into the service; its
        registry snapshot lands in ``MethodTiming.metrics``.
        """
        from concurrent.futures import ThreadPoolExecutor

        from repro.bench.workloads import shard_workload
        from repro.shard import ShardedGATIndex, ShardedQueryService

        sharded = ShardedGATIndex.build(
            self.db,
            n_shards=n_shards,
            config=self.gat_config,
            disk_factory=disk_factory,
        )
        service_cm = ShardedQueryService(
            sharded,
            executor=executor,
            n_replicas=n_replicas,
            replica_router=replica_router,
            fault_policy=fault_policy,
            obs=obs,
        )
        with service_cm as service:
            t0 = time.perf_counter()
            if n_clients <= 1:
                responses = service.search_many(
                    queries, k=k, order_sensitive=order_sensitive
                )
            else:
                slices = shard_workload(queries, n_clients)
                with ThreadPoolExecutor(max_workers=n_clients) as clients:
                    futures = [
                        clients.submit(
                            service.search_many, s, k, order_sensitive
                        )
                        for s in slices
                    ]
                    responses = [r for f in futures for r in f.result()]
            wall = time.perf_counter() - t0
            stats = service.stats()
        method = f"GAT/{n_shards}sh×{executor}"
        if n_replicas > 1:
            method += f"×{n_replicas}rep"
        extra = {
            "qps": stats.qps,
            "p50_ms": stats.latency_p50_s * 1000.0,
            "p95_ms": stats.latency_p95_s * 1000.0,
            "disk_reads": float(stats.disk_reads),
        }
        if fault_policy is not None:
            extra["task_retries"] = float(stats.task_retries)
            extra["task_hedges"] = float(stats.task_hedges)
            extra["partial_responses"] = float(stats.partial_responses)
            extra["complete_responses"] = float(
                sum(1 for r in responses if r.complete)
            )
        timing = MethodTiming(
            method=method,
            total_seconds=wall,
            n_queries=len(responses),
            candidates=sum(r.stats.candidates_retrieved for r in responses),
            extra=extra,
        )
        if obs is not None:
            timing.metrics = obs.metrics_snapshot()
        return timing

    def run_open_loop(
        self,
        queries: Sequence[Query],
        k: int,
        rate_qps: float,
        duration_s: float,
        slo_s: float,
        arrivals: str = "poisson",
        seed: int = 0,
        n_shards: int = 2,
        executor: str = "thread",
        serving_config=None,
        fault_policy=None,
        disk_factory=None,
        obs=None,
    ) -> MethodTiming:
        """Open-loop counterpart of :meth:`run_sharded_batch`: drive a
        seeded *arrivals* process (mean *rate_qps* for *duration_s*)
        through a :class:`~repro.serving.ServingFrontend` over a fresh
        sharded service, cycling *queries*.

        The backend's result cache is disabled — a cycled open-loop
        workload would otherwise be answered from the cache and never
        load the backend.  ``extra`` carries the goodput-centric report
        (``goodput_qps`` / ``offered_qps`` / ``shed_frac`` / latency
        percentiles); ``total_seconds`` is the offered window.
        """
        from repro.serving import (
            ServingConfig,
            ServingFrontend,
            arrival_process,
            run_open_loop,
        )
        from repro.shard import ShardedGATIndex, ShardedQueryService

        config = serving_config if serving_config is not None else ServingConfig()
        sharded = ShardedGATIndex.build(
            self.db,
            n_shards=n_shards,
            config=self.gat_config,
            disk_factory=disk_factory,
        )
        service_cm = ShardedQueryService(
            sharded,
            executor=executor,
            fault_policy=fault_policy,
            result_cache_size=0,
            obs=obs,
        )
        with service_cm as service:
            with ServingFrontend(service, config, obs=obs) as frontend:
                report = run_open_loop(
                    frontend,
                    queries,
                    arrival_process(arrivals, rate_qps, seed=seed),
                    duration_s=duration_s,
                    slo_s=slo_s,
                    k=k,
                )
        row = report.row()
        timing = MethodTiming(
            method=f"open-loop/{arrivals}@{rate_qps:g}qps",
            total_seconds=duration_s,
            n_queries=report.completed,
            extra={
                "goodput_qps": report.goodput_qps,
                "offered_qps": report.offered_qps,
                "shed_frac": report.shed_frac,
                "drop_frac": report.drop_frac,
                "p50_ms": row["latency_p50_ms"],
                "p95_ms": row["latency_p95_ms"],
                "p99_ms": row["latency_p99_ms"],
            },
        )
        if obs is not None:
            timing.metrics = obs.metrics_snapshot()
        return timing

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
