"""One request front, two backends.

Everything a query service does *around* executing a query lives in one
object, :class:`ServingFront`: the query-signature result cache, the
index-version guard that invalidates it, the serving counters (registry
instruments, with ``reset_stats()`` as an epoch), the latency window, the
busy wall clock and the closed flag.  A service hands it a list of requests and an
``execute`` callable and gets the responses back in request order
(:meth:`ServingFront.serve`); the front decides which requests reach
``execute`` at all.

Two backends serve through it, by composition:

* :class:`QueryService` (here) runs
  :meth:`GATSearchEngine.execute <repro.core.engine.GATSearchEngine.execute>`
  — on the calling thread for ``search``, on a thread pool for
  ``search_many``.  One engine is shared by all workers: the engine is
  stateless per query (each call builds its own
  :class:`~repro.core.context.ExecutionContext`), the HICL and APL caches
  are thread-safe LRUs, and disk I/O is attributed per query through
  thread-local trackers, so fan-out needs no per-worker engine copies and
  every worker warms the same caches.
* :class:`~repro.shard.service.ShardedQueryService` fans each request out
  over a shard fleet, merges, and resyncs its replica banks when the
  front reports a version move.

What the front guarantees to both: response ``i`` answers request ``i``;
a repeated request — same query points, ``k``, ``order_sensitive`` and
``explain`` — costs one LRU lookup and comes back as a fresh list with
zeroed :class:`~repro.core.context.SearchStats`; only complete responses
are cached; the cache is dropped wholesale when the index's mutation
counter moves (``insert_trajectory``), before any search can observe the
new version, so a quiesce-insert-resume cycle can never serve pre-insert
rankings; and a closed service refuses work instead of resurrecting its
pools.

Python threads still contend on the GIL for pure-Python compute, so the
batched throughput win comes from overlapping the simulated-disk latency
and from cache sharing; with a zero-latency disk the batched path is
exercised for correctness, and the benchmark
(``benchmarks/bench_service_throughput.py``) injects a realistic read
latency to show the >1.5× batched speedup.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.context import SearchStats
from repro.core.engine import GATSearchEngine
from repro.core.query import Query
from repro.core.results import SearchResult
from repro.obs.metrics import LatencyWindow, MetricRegistry
from repro.storage.cache import LRUCache


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """One unit of service work: a query plus its execution options.

    ``deadline_s`` is the caller's *remaining* latency budget at the
    moment the request reaches the service (seconds of ``time.monotonic``
    from now, not a wall-clock instant).  A sharded service running under
    a :class:`~repro.shard.resilience.FaultPolicy` tightens its fan-out
    deadline to it, so backend retries/hedges never outlive the caller;
    everywhere else it is advisory metadata.  It deliberately does not
    participate in the result-cache identity (:func:`request_cache_key`)
    — the answer to a query does not depend on how patient its caller is.
    """

    query: Query
    k: int = 10
    order_sensitive: bool = False
    explain: bool = False
    deadline_s: Optional[float] = None


@dataclass(slots=True)
class QueryResponse:
    """The service's answer to one :class:`QueryRequest`.

    ``shards_answered`` / ``shards_total`` are the response's *coverage*:
    how many of the index partitions behind the service contributed to
    the ranking.  The single-engine service and every non-degraded
    sharded response have full coverage; only a sharded service running
    under a :class:`~repro.shard.resilience.FaultPolicy` with
    ``allow_partial=True`` can return less — a best-effort merge of the
    shards that answered before the deadline (exactness holds per
    answering shard; trajectories living on the silent shards are simply
    absent).  Callers that must not act on degraded data check
    :attr:`complete`.
    """

    request: QueryRequest
    results: List[SearchResult]
    stats: SearchStats
    latency_s: float
    shards_answered: int = 1
    shards_total: int = 1

    @property
    def complete(self) -> bool:
        """Whether every shard contributed (full-coverage, exact result)."""
        return self.shards_answered >= self.shards_total


@dataclass(slots=True)
class ServiceStats:
    """Aggregate serving statistics since construction (or `reset_stats`).

    Every count is a registry counter's movement since the service's
    epoch — the snapshot construction and each ``reset_stats()`` take (see
    :class:`ServingFront`); services sharing one ``Observability`` handle
    share its counters.  Latency percentiles are nearest-rank over the
    most recent 10 000 queries (a :class:`~repro.obs.metrics.LatencyWindow`;
    the mean covers everything); ``qps`` divides queries by the busy wall
    time — the union of intervals with at least one
    ``search``/``search_many`` call in flight, so neither summed per-query
    latency nor overlapping concurrent calls inflate the denominator.
    Cache hit rates are hits over lookups summed over the answered
    responses' :class:`~repro.core.context.SearchStats` — each lookup
    counted by the query that made it, on whatever engine ran it (a
    process-fleet worker's included) — so nothing outside the service
    moves them.
    """

    queries: int = 0
    wall_seconds: float = 0.0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0
    latency_mean_s: float = 0.0
    #: Hits over lookups of the HICL list cache.  A lookup is one (level,
    #: activity) list per query point — ~12 per query since retrieval went
    #: to bitmaps (PR 16), not one per popped cell (~1 300) — so a query
    #: run on a cleared cache reads ~0.5 (``io_cold``: 0.47, its same ~6
    #: misses over 12 lookups) where the per-cell walk read ≈ 1.0.
    hicl_cache_hit_rate: float = 0.0
    #: Hits over lookups of the engines' APL residency LRUs
    #: (``EngineConfig.apl_cache_size``): one lookup per candidate
    #: reaching the APL filter, a miss is a counted disk read.
    apl_cache_hit_rate: float = 0.0
    disk_reads: int = 0
    result_cache_hits: int = 0
    result_cache_lookups: int = 0
    #: Fault-tolerance accounting (sharded services under a FaultPolicy;
    #: always zero elsewhere): extra shard-task attempts after failures,
    #: hedged backup attempts, and responses that went out with partial
    #: shard coverage.
    task_retries: int = 0
    task_hedges: int = 0
    #: Hedges that came due but were denied by the global
    #: :attr:`~repro.shard.resilience.FaultPolicy.hedge_budget`.
    task_hedges_denied: int = 0
    partial_responses: int = 0
    #: Circuit-breaker activity (replicated services only; always zero
    #: elsewhere): replica ejections, restores to the healthy pool, and
    #: probation probes — the breaker's lifetime counts, read into the same
    #: epoch snapshot as every other field here.
    breaker_ejections: int = 0
    breaker_restores: int = 0
    breaker_probes: int = 0

    @property
    def qps(self) -> float:
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0


def as_request(item: Union[QueryRequest, Query], **defaults) -> QueryRequest:
    """Coerce a bare :class:`Query` (plus shared option defaults) into a
    :class:`QueryRequest`; prebuilt requests pass through untouched."""
    if isinstance(item, QueryRequest):
        return item
    return QueryRequest(query=item, **defaults)


def request_cache_key(request: QueryRequest) -> tuple:
    """The query signature the result cache keys on: the (hashable,
    frozen) query points plus every option that changes the answer.
    ``deadline_s`` is deliberately excluded: it changes how long we are
    willing to wait, never what the answer is."""
    return (
        request.query.points,
        request.k,
        request.order_sensitive,
        request.explain,
    )


#: The registry counter that is the one accumulator of each count
#: :class:`ServiceStats` reports, keyed by the count's name.  The rates are
#: ratios of two of them; ``latency_mean_s`` is the latency histogram's
#: sum over ``queries``.
SERVICE_COUNTERS: Dict[str, str] = {
    "queries": "repro_queries_total",
    "wall_seconds": "repro_busy_seconds_total",
    "disk_reads": "repro_disk_reads_total",
    "hicl_cache_hits": "repro_hicl_cache_hits_total",
    "hicl_cache_lookups": "repro_hicl_cache_lookups_total",
    "apl_cache_hits": "repro_apl_cache_hits_total",
    "apl_cache_lookups": "repro_apl_cache_lookups_total",
    "result_cache_hits": "repro_result_cache_hits_total",
    "result_cache_lookups": "repro_result_cache_lookups_total",
    "partial_responses": "repro_partial_responses_total",
    "task_retries": "repro_task_retries_total",
    "task_hedges": "repro_task_hedges_total",
    "task_hedges_denied": "repro_task_hedges_denied_total",
}


def _rate(hits: float, lookups: float) -> float:
    return hits / lookups if lookups > 0 else 0.0


class ServingFront:
    """The request front both query services serve through.

    Accounting: every count is a registry :class:`~repro.obs.metrics.Counter`
    (:data:`SERVICE_COUNTERS`) of the passed handle's registry, or of a
    private one.  A count is incremented once, where it happens — a result
    cache lookup in :meth:`_lookup`, a response's work (its
    :class:`~repro.core.context.SearchStats`: disk reads and HICL / APL
    cache lookups, summed over the shards that answered) when
    :meth:`serve` returns it, the backend's fan-out counts through
    :meth:`count`.  :meth:`stats` reports the counters minus the epoch
    snapshot that construction and every :meth:`reset_stats` take.

    Parameters
    ----------
    index:
        Whatever the backend searches — a ``GATIndex`` or a
        ``ShardedGATIndex``; only its ``version`` is read (for the sharded
        index the composite tuple of per-shard versions, so an insert into
        any shard moves it).
    result_cache_size:
        Capacity of the query-signature result cache; ``0`` disables it.
    obs:
        Optional :class:`~repro.obs.Observability` handle: the front
        counts into its registry and binds the index's disks to its
        tracer.  ``None`` counts into a private registry and traces
        nothing.
    shards:
        Coverage stamped on cache hits (only full-coverage responses are
        ever cached, so a hit is complete by construction).
    health:
        Zero-arg callable returning the backend's lifetime circuit-breaker
        counts ``(ejections, restores, probes)``, read into the same epoch
        snapshot as the counters (a backend without replicas has none).
    """

    #: Sentinel distinguishing "cached empty result" from "cache miss".
    _MISS = object()

    def __init__(
        self,
        index,
        result_cache_size: int,
        obs=None,
        shards: int = 1,
        health: Callable[[], Tuple[int, int, int]] = lambda: (0, 0, 0),
    ) -> None:
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        self.index = index
        self.obs = obs
        if obs is not None:
            obs.bind_index(index)
        self._shards = shards
        self._health = health
        self._cache: Optional[LRUCache] = (
            LRUCache(result_cache_size) if result_cache_size > 0 else None
        )
        # Guards the published version and the cache sweep/put pair.
        # on_stale callbacks run under it, so they must not call back into
        # the front; backends keep their own state under their own lock
        # and never hold that one while calling serve().
        self._lock = threading.Lock()
        self.version = index.version
        registry = obs.registry if obs is not None else MetricRegistry()
        self._counters = {
            name: registry.counter(metric) for name, metric in SERVICE_COUNTERS.items()
        }
        self._latency = registry.histogram("repro_query_latency_seconds")
        self._window = LatencyWindow()
        # The busy wall clock: open while at least one serve() is in
        # flight, folded into the wall_seconds counter as it closes.
        self._busy_lock = threading.Lock()
        self._busy_depth = 0
        self._busy_since = 0.0
        self._epoch = self._totals()
        self._closed = False

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Sequence[QueryRequest],
        execute: Callable[[Sequence[QueryRequest]], List[QueryResponse]],
        on_stale: Optional[Callable[[], object]] = None,
    ) -> List[QueryResponse]:
        """Answer *requests* in order: sync the index version, answer what
        the result cache holds, hand the misses to the backend's *execute*
        (one response per request it is given, same order), cache the
        complete ones, then count them.

        *on_stale* is the backend's reaction to a version move — rebuild
        whatever was derived from the old index (see
        :meth:`_sync_version`)."""
        if self._closed:
            raise RuntimeError("query service used after close()")
        self._busy(+1)
        try:
            version = self._sync_version(on_stale)
            if self._cache is None:
                responses = execute(requests)
            else:
                responses = [self._lookup(request) for request in requests]
                misses = [i for i, hit in enumerate(responses) if hit is None]
                if misses:
                    executed = execute([requests[i] for i in misses])
                    for i, response in zip(misses, executed):
                        responses[i] = response
                        # Partials are transient degradation, not answers
                        # worth replaying.
                        if response.complete:
                            self._put(response, version)
        finally:
            self._busy(-1)
        self._record(responses)
        return responses

    def _record(self, responses: Sequence[QueryResponse]) -> None:
        """Count answered responses: one query, one latency sample and the
        response's own work counts each."""
        counters = self._counters
        counters["queries"].inc(len(responses))
        for response in responses:
            stats = response.stats
            self._latency.observe(response.latency_s)
            self._window.record(response.latency_s)
            if stats.disk_reads:
                counters["disk_reads"].inc(stats.disk_reads)
            if stats.hicl_cache_lookups:
                counters["hicl_cache_hits"].inc(stats.hicl_cache_hits)
                counters["hicl_cache_lookups"].inc(stats.hicl_cache_lookups)
            if stats.apl_cache_lookups:
                counters["apl_cache_hits"].inc(stats.apl_cache_hits)
                counters["apl_cache_lookups"].inc(stats.apl_cache_lookups)
            if not response.complete:
                counters["partial_responses"].inc()

    def count(self, name: str, n: int) -> None:
        """Add *n* to the :data:`SERVICE_COUNTERS` count *name* — the
        backend's door for what only it sees (fan-out retries, hedges)."""
        if n:
            self._counters[name].inc(n)

    def _busy(self, step: int) -> None:
        """Enter (``+1``) or leave (``-1``) the busy interval: the wall
        time with at least one ``serve`` in flight, so overlapping calls
        never double-count it (``qps = queries / busy wall``)."""
        with self._busy_lock:
            if step > 0 and self._busy_depth == 0:
                self._busy_since = time.perf_counter()
            self._busy_depth += step
            if self._busy_depth == 0:
                self.count("wall_seconds", time.perf_counter() - self._busy_since)

    def _sync_version(self, on_stale) -> object:
        """Invalidate on version movement (``insert_trajectory`` bumps
        ``index.version``): drop the result cache and let the backend
        catch up — all *before* the fresh version is published, so a
        concurrent search that observes the new ``version`` can never run
        on pre-insert state behind it (latecomers block on the lock until
        the backend is done).  Returns the version the caller's lookups
        and puts are valid against."""
        version = self.index.version
        if version != self.version:
            with self._lock:
                if version != self.version:
                    if self._cache is not None:
                        self._cache.clear()
                    if on_stale is not None:
                        on_stale()
                    self.version = version
        return self.version

    def _lookup(self, request: QueryRequest) -> Optional[QueryResponse]:
        t0 = time.perf_counter()
        cached = self._cache.get(request_cache_key(request), self._MISS)
        hit = cached is not self._MISS
        self._counters["result_cache_lookups"].inc()
        if not hit:
            return None
        self._counters["result_cache_hits"].inc()
        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            obs.tracer.start_span(
                "query",
                attrs={
                    "k": request.k,
                    "order_sensitive": request.order_sensitive,
                    "cache_hit": True,
                },
            ).end()
        # A fresh list per response (callers may mutate), zeroed counters
        # (no engine work happened).
        return QueryResponse(
            request=request,
            results=list(cached),
            stats=SearchStats(),
            latency_s=time.perf_counter() - t0,
            shards_answered=self._shards,
            shards_total=self._shards,
        )

    def _put(self, response: QueryResponse, version: object) -> None:
        # Version-guarded: an insert that landed while this query executed
        # must not let pre-insert rankings be re-cached after the
        # invalidation sweep.  _sync_version clears + publishes under the
        # same lock, so the equality check linearises the put against the
        # sweep.
        with self._lock:
            if self.version == version:
                self._cache.put(
                    request_cache_key(response.request), tuple(response.results)
                )

    def close(self) -> None:
        """Refuse further work (idempotent).  The owning service shuts its
        pools down after this; a later ``serve`` raises instead of
        resurrecting them."""
        self._closed = True

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _totals(self) -> Dict[str, float]:
        """Every lifetime total :meth:`stats` reports a movement of."""
        totals = {name: counter.value() for name, counter in self._counters.items()}
        totals["latency_seconds"] = self._latency.snapshot()["sum"]
        (
            totals["breaker_ejections"],
            totals["breaker_restores"],
            totals["breaker_probes"],
        ) = self._health()
        return totals

    def stats(self) -> ServiceStats:
        """Every :class:`ServiceStats` field: the totals' movement since
        the epoch, and the latency window's percentiles."""
        epoch = self._epoch
        now = {name: total - epoch[name] for name, total in self._totals().items()}
        queries = int(now["queries"])
        window = self._window
        return ServiceStats(
            queries=queries,
            wall_seconds=now["wall_seconds"],
            latency_p50_s=window.quantile(0.50),
            latency_p95_s=window.quantile(0.95),
            latency_p99_s=window.quantile(0.99),
            latency_mean_s=now["latency_seconds"] / queries if queries else 0.0,
            hicl_cache_hit_rate=_rate(now["hicl_cache_hits"], now["hicl_cache_lookups"]),
            apl_cache_hit_rate=_rate(now["apl_cache_hits"], now["apl_cache_lookups"]),
            **{
                name: int(now[name])
                for name in (
                    "disk_reads",
                    "result_cache_hits",
                    "result_cache_lookups",
                    "task_retries",
                    "task_hedges",
                    "task_hedges_denied",
                    "partial_responses",
                    "breaker_ejections",
                    "breaker_restores",
                    "breaker_probes",
                )
            },
        )

    def reset_stats(self) -> None:
        """Start a new epoch: snapshot the totals and clear the latency
        window.  A busy interval still open is closed at the epoch and
        reopened, so queries in flight count only their post-reset wall
        time."""
        with self._busy_lock:
            if self._busy_depth:
                now = time.perf_counter()
                self.count("wall_seconds", now - self._busy_since)
                self._busy_since = now
            self._epoch = self._totals()
        self._window.clear()


class QueryService:
    """Batched, concurrent query serving over one shared engine.

    Parameters
    ----------
    engine:
        The (stateless) search engine; shared by every worker thread.
    max_workers:
        Thread-pool width for :meth:`search_many`.
    result_cache_size:
        Capacity of the query-signature result cache: identical requests
        — same query points, ``k``, ``order_sensitive`` and ``explain`` —
        are answered from a thread-safe LRU without touching the engine.
        Entries are invalidated wholesale whenever
        :meth:`~repro.index.gat.index.GATIndex.insert_trajectory` bumps
        the index's version counter (inserts must still quiesce the
        service, as the index requires).  ``0`` disables the cache.
    obs:
        An optional :class:`~repro.obs.Observability` handle.  When set,
        the service counts into its registry, the engine's disks report
        read events, and — if the handle's tracer is enabled — each
        request produces a ``query`` span tree.  ``None`` (the default)
        counts into a private registry and traces nothing.
    """

    def __init__(
        self,
        engine: GATSearchEngine,
        max_workers: int = 8,
        result_cache_size: int = 1024,
        obs=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.engine = engine
        self.obs = obs
        self.max_workers = max_workers
        self._front = ServingFront(engine.index, result_cache_size, obs)
        # One pool for the service's lifetime — per-batch pool setup and
        # teardown would rival the query work for small batches.  Created
        # lazily so a sequential-only service never spawns threads.
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Backend: engine.execute
    # ------------------------------------------------------------------
    def _run_one(self, request: QueryRequest) -> QueryResponse:
        obs = self.obs
        span = None
        if obs is not None and obs.tracer.enabled:
            span = obs.tracer.start_span(
                "query",
                attrs={"k": request.k, "order_sensitive": request.order_sensitive},
            )
        try:
            ctx = self.engine.execute(
                request.query,
                request.k,
                order_sensitive=request.order_sensitive,
                explain=request.explain,
                trace_span=span,
            )
        except BaseException as exc:
            if span is not None:
                span.set_attr("error", repr(exc))
                span.end()
            raise
        if span is not None:
            span.set_attrs(
                latency_s=ctx.latency_s,
                disk_reads=ctx.stats.disk_reads,
                rounds=ctx.stats.rounds,
            )
            span.end()
        return QueryResponse(
            request=request,
            results=ctx.ranked if ctx.ranked is not None else [],
            stats=ctx.stats,
            latency_s=ctx.latency_s,
        )

    def _run_inline(self, requests: Sequence[QueryRequest]) -> List[QueryResponse]:
        return [self._run_one(request) for request in requests]

    def _shared_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-query",
                )
            return self._pool

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------
    def search(
        self,
        query: Union[QueryRequest, Query],
        k: int = 10,
        order_sensitive: bool = False,
        explain: bool = False,
    ) -> QueryResponse:
        """Answer one query (a :class:`Query` plus options, or a prebuilt
        :class:`QueryRequest`) on the calling thread."""
        request = as_request(
            query, k=k, order_sensitive=order_sensitive, explain=explain
        )
        return self._front.serve((request,), self._run_inline)[0]

    def search_many(
        self,
        queries: Sequence[Union[QueryRequest, Query]],
        k: int = 10,
        order_sensitive: bool = False,
        *,
        explain: bool = False,
    ) -> List[QueryResponse]:
        """Answer a batch concurrently; response ``i`` answers request ``i``.

        Bare :class:`Query` items take the shared ``k``/``order_sensitive``
        /``explain`` options; :class:`QueryRequest` items keep their own.
        ``explain`` is keyword-only.
        """
        requests = [
            as_request(q, k=k, order_sensitive=order_sensitive, explain=explain)
            for q in queries
        ]

        def run_pooled(misses: Sequence[QueryRequest]) -> List[QueryResponse]:
            if self.max_workers == 1 or len(misses) <= 1:
                return self._run_inline(misses)
            return list(self._shared_pool().map(self._run_one, misses))

        return self._front.serve(requests, run_pooled)

    def stats(self) -> ServiceStats:
        return self._front.stats()

    def reset_stats(self) -> None:
        """Start a new stats epoch (see :meth:`ServingFront.reset_stats`)."""
        self._front.reset_stats()

    def close(self) -> None:
        """Refuse further work and shut down the worker pool (idempotent;
        the service can be garbage-collected without calling this, but
        long-running hosts should close explicitly)."""
        self._front.close()
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
