"""One request front, two backends.

Everything a query service does *around* executing a query lives in one
object, :class:`ServingFront`: the query-signature result cache, the
index-version guard that invalidates it, the hit/lookup counters, the
:class:`ServingMetrics` busy-wall / latency accounting, the observability
feed and the closed flag.  A service hands it a list of requests and an
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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.context import SearchStats
from repro.core.engine import GATSearchEngine
from repro.core.query import Query
from repro.core.results import SearchResult
from repro.obs.metrics import nearest_rank
from repro.storage.cache import CacheStats, LRUCache

#: Latency percentiles are computed over the most recent window of
#: queries; a long-lived service must not hoard one float per query
#: forever (nor re-sort an unbounded history on every stats() call).
LATENCY_WINDOW = 10_000


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

    Latency percentiles use the nearest-rank method over the most recent
    ``LATENCY_WINDOW`` queries (the mean covers everything); ``qps``
    divides queries by the busy wall time — the union of intervals with
    at least one ``search``/``search_many`` call in flight, so neither
    summed per-query latency nor overlapping concurrent calls inflate
    the denominator.  Cache hit rates are the *delta* since this
    service's construction/reset, excluding everything that happened
    before then; the underlying counters live on the shared engine/index,
    so concurrent non-service use of the same engine still moves them.
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
    #: probation probes — deltas since construction/``reset_stats`` like
    #: every other field here.
    breaker_ejections: int = 0
    breaker_restores: int = 0
    breaker_probes: int = 0

    @property
    def qps(self) -> float:
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def result_cache_hit_rate(self) -> float:
        """Fraction of requests answered straight from the result cache
        (0.0 when the cache is disabled or untouched)."""
        if self.result_cache_lookups <= 0:
            return 0.0
        return self.result_cache_hits / self.result_cache_lookups


def as_request(item: Union[QueryRequest, Query], **defaults) -> QueryRequest:
    """Coerce a bare :class:`Query` (plus shared option defaults) into a
    :class:`QueryRequest`; prebuilt requests pass through untouched."""
    if isinstance(item, QueryRequest):
        return item
    return QueryRequest(query=item, **defaults)


def delta_hit_rate(now: Optional[CacheStats], base: Optional[CacheStats]) -> float:
    """Hit rate of the lookups that happened since *base* was snapshotted
    (0.0 for disabled caches or when nothing has been looked up since)."""
    if now is None or base is None:
        return 0.0
    hits = now.hits - base.hits
    lookups = now.lookups - base.lookups
    return hits / lookups if lookups > 0 else 0.0


def engine_cache_stats(
    engines: Sequence[GATSearchEngine],
) -> Tuple[Optional[CacheStats], Optional[CacheStats]]:
    """Combined ``(HICL, APL)`` cache accounting of *engines* — hits and
    lookups sum without double-counting, since each lookup happened on
    exactly one engine's caches."""
    return (
        CacheStats.combined([engine.index.hicl.cache_stats() for engine in engines]),
        CacheStats.combined([engine.apl_cache_stats() for engine in engines]),
    )


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


class ServingMetrics:
    """Thread-safe serving accounting, owned by :class:`ServingFront`.

    Holds the latency window, the query/disk-read totals, and the
    busy-interval wall clock (overlapping calls must not double-count wall
    time: ``qps = queries / busy wall``).
    """

    __slots__ = (
        "_lock",
        "_latencies",
        "_n_queries",
        "_latency_sum",
        "_wall_seconds",
        "_disk_reads",
        "_busy_depth",
        "_busy_since",
        "_generation",
        "_sorted_gen",
        "_sorted_window",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self._n_queries = 0
        self._latency_sum = 0.0
        self._wall_seconds = 0.0
        self._disk_reads = 0
        self._busy_depth = 0
        self._busy_since = 0.0
        # Window generation counter + the sorted window it last produced:
        # stats() used to re-sort the full latency window on *every* poll;
        # now a poll between recordings reuses the memoized sort and only
        # a moved window pays O(n log n) again.
        self._generation = 0
        self._sorted_gen = -1
        self._sorted_window: List[float] = []

    def enter_busy(self) -> None:
        with self._lock:
            if self._busy_depth == 0:
                self._busy_since = time.perf_counter()
            self._busy_depth += 1

    def exit_busy(self) -> None:
        with self._lock:
            self._busy_depth -= 1
            if self._busy_depth == 0:
                self._wall_seconds += time.perf_counter() - self._busy_since

    def record(self, samples: Iterable[tuple]) -> None:
        """Absorb ``(latency_s, disk_reads)`` pairs, one per answered query."""
        with self._lock:
            for latency_s, disk_reads in samples:
                self._latencies.append(latency_s)
                self._n_queries += 1
                self._latency_sum += latency_s
                self._disk_reads += disk_reads
                self._generation += 1

    def reset(self) -> None:
        with self._lock:
            self._latencies.clear()
            self._n_queries = 0
            self._latency_sum = 0.0
            self._wall_seconds = 0.0
            self._disk_reads = 0
            self._generation += 1
            # Queries may be in flight while stats are being zeroed: the
            # open busy interval must restart *now*, or the first
            # exit_busy() after the reset would fold the entire pre-reset
            # busy stretch back into wall_seconds and deflate qps.
            if self._busy_depth > 0:
                self._busy_since = time.perf_counter()

    def fill(self, stats: ServiceStats) -> ServiceStats:
        """Write the timing/volume fields into *stats* and return it."""
        with self._lock:
            if self._sorted_gen != self._generation:
                self._sorted_window = sorted(self._latencies)
                self._sorted_gen = self._generation
            latencies = self._sorted_window
            stats.queries = self._n_queries
            stats.wall_seconds = self._wall_seconds
            stats.latency_mean_s = (
                self._latency_sum / self._n_queries if self._n_queries else 0.0
            )
            stats.disk_reads = self._disk_reads
        stats.latency_p50_s = nearest_rank(latencies, 0.50)
        stats.latency_p95_s = nearest_rank(latencies, 0.95)
        stats.latency_p99_s = nearest_rank(latencies, 0.99)
        return stats


class ServingFront:
    """The request front both query services serve through.

    Parameters
    ----------
    index:
        Whatever the backend searches — a ``GATIndex`` or a
        ``ShardedGATIndex``; only its ``version`` is read (for the sharded
        index the composite tuple of per-shard versions, so an insert into
        any shard moves it).
    engines:
        Zero-arg callable returning the engines whose HICL/APL caches back
        the hit rates *right now* (a sharded backend swaps engines on
        resync).
    result_cache_size:
        Capacity of the query-signature result cache; ``0`` disables it.
    obs:
        Optional :class:`~repro.obs.Observability` handle, bound to the
        index's disks here and fed per lookup and per answered query.
        ``None`` costs one ``is None`` check at each of those two points.
    shards:
        Coverage stamped on cache hits (only full-coverage responses are
        ever cached, so a hit is complete by construction).
    """

    #: Sentinel distinguishing "cached empty result" from "cache miss".
    _MISS = object()

    def __init__(
        self,
        index,
        engines: Callable[[], Sequence[GATSearchEngine]],
        result_cache_size: int,
        obs=None,
        shards: int = 1,
    ) -> None:
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        self.index = index
        self.obs = obs
        if obs is not None:
            obs.bind_index(index)
        self._engines = engines
        self._shards = shards
        self._cache: Optional[LRUCache] = (
            LRUCache(result_cache_size) if result_cache_size > 0 else None
        )
        # Guards the published version, the cache sweep/put pair, the
        # hit/lookup counters and the hit-rate baselines.  on_stale
        # callbacks run under it, so they must not call back into the
        # front; backends keep their own state under their own lock and
        # never hold that one while calling serve()/stats().
        self._lock = threading.Lock()
        self.version = index.version
        self._hits = 0
        self._lookups = 0
        self._metrics = ServingMetrics()
        self._cache_base = engine_cache_stats(engines())
        # Final (HICL, APL) counters of engines discarded since the last
        # reset: their lookups happened, so they stay in the hit-rate
        # deltas after the caches themselves are gone.
        self._cache_retired: Tuple[Optional[CacheStats], ...] = (None, None)
        self._closed = False

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Sequence[QueryRequest],
        execute: Callable[[Sequence[QueryRequest]], List[QueryResponse]],
        on_stale: Optional[Callable[[], Sequence[GATSearchEngine]]] = None,
    ) -> List[QueryResponse]:
        """Answer *requests* in order: sync the index version, answer what
        the result cache holds, hand the misses to the backend's *execute*
        (one response per request it is given, same order), cache the
        complete ones, then record and feed obs.

        *on_stale* is the backend's reaction to a version move — rebuild
        whatever was derived from the old index and return the engines it
        discarded (see :meth:`_sync_version`)."""
        if self._closed:
            raise RuntimeError("query service used after close()")
        metrics = self._metrics
        metrics.enter_busy()
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
            metrics.exit_busy()
        metrics.record((r.latency_s, r.stats.disk_reads) for r in responses)
        obs = self.obs
        if obs is not None:
            for response in responses:
                obs.observe_response(response)
        return responses

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
                        # The discarded engines' caches vanish from the
                        # "now" side of stats()' hit-rate deltas, so their
                        # counters must move to the retired side — under
                        # the lock stats() reads all three under — or the
                        # deltas read outside [0, 1].
                        gone = engine_cache_stats(on_stale())
                        self._cache_retired = tuple(
                            CacheStats.combined([retired, g])
                            for retired, g in zip(self._cache_retired, gone)
                        )
                    self.version = version
        return self.version

    def _lookup(self, request: QueryRequest) -> Optional[QueryResponse]:
        t0 = time.perf_counter()
        cached = self._cache.get(request_cache_key(request), self._MISS)
        hit = cached is not self._MISS
        with self._lock:
            self._lookups += 1
            if hit:
                self._hits += 1
        obs = self.obs
        if obs is not None:
            obs.observe_cache(hit)
            if hit and obs.tracer.enabled:
                obs.tracer.start_span(
                    "query",
                    attrs={
                        "k": request.k,
                        "order_sensitive": request.order_sensitive,
                        "cache_hit": True,
                    },
                ).end()
        if not hit:
            return None
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
    def stats(self) -> ServiceStats:
        """Timing, volume, result-cache and HICL/APL hit-rate fields (the
        fan-out fields stay zero; a sharded backend fills its own)."""
        with self._lock:
            # Every side of each delta under one lock: _sync_version swaps
            # zero-counter caches in and retires the old ones' counters
            # atomically under this same lock, so a reader must never pair
            # the new "now" with the old retired totals (or vice versa) —
            # that torn diff reads outside [0, 1].
            hicl_rate, apl_rate = (
                delta_hit_rate(CacheStats.combined([now, retired]), base)
                for now, retired, base in zip(
                    engine_cache_stats(self._engines()),
                    self._cache_retired,
                    self._cache_base,
                )
            )
            hits, lookups = self._hits, self._lookups
        stats = self._metrics.fill(ServiceStats())
        stats.hicl_cache_hit_rate = hicl_rate
        stats.apl_cache_hit_rate = apl_rate
        stats.result_cache_hits = hits
        stats.result_cache_lookups = lookups
        return stats

    def reset_stats(self) -> None:
        """Zero the front's own accounting and re-baseline the engine
        cache counters (which live on the engines/indexes and keep
        running)."""
        self._metrics.reset()
        with self._lock:
            self._hits = 0
            self._lookups = 0
            self._cache_base = engine_cache_stats(self._engines())
            self._cache_retired = (None, None)


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
        every answered query feeds the metric registry, the engine's
        disks report read events, and — if the handle's tracer is enabled
        — each request produces a ``query`` span tree.  ``None`` (the
        default) keeps the serving path free of instrumentation.
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
        self._front = ServingFront(
            engine.index, lambda: (engine,), result_cache_size, obs
        )
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
        """Zero the service's own accounting and re-baseline the shared
        cache counters (which live on the engine/index and keep running)."""
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
