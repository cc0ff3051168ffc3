"""ShardedQueryService — the one backend of the request front.

One front, one backend: everything *around* executing a query — result
cache, index-version guard, serving counters and their stats epoch,
use-after-close refusal — is the :class:`~repro.service.service.ServingFront` this service
holds.  What lives here is what runs a cache miss (:meth:`ShardedQueryService._fan_out`)
and what a version move must rebuild (:meth:`ShardedQueryService._resync`).
:class:`QueryService` is its one-shard case over the caller's engine.

Fan-out: every query becomes ``n_shards`` independent :class:`ShardTask`
units; one :class:`~repro.shard.resilience.FanoutSupervisor` launches
them on the calling thread, a thread pool or a process fleet (see
:mod:`repro.shard.executor`), each bound at submission to one of the
``n_replicas`` copies of its shard
(:class:`~repro.shard.replicas.ReplicaPlacement`), and the
per-shard ranked lists are merged in a
:class:`~repro.core.results.TopKCollector` — the same collector the
engine itself uses, so tie-breaks (distance, then trajectory id) are
identical and the merged ranking matches the unsharded engine
byte-for-byte.  Batches are *flattened*: ``search_many`` hands every
(query, shard) task to one supervisor run over one pool, so batch-level
and intra-query parallelism share the same worker budget and no shard
sits idle while another query's slowest shard finishes.

Distributed top-k: shard tasks of one query prune and terminate against a
cross-shard threshold on every backend — the in-process backends share a
merged :class:`TopKCollector` (:class:`_SharedTopK`, one per query, held
by the batch that owns the query), and the process
backend leases a shared-memory ``multiprocessing.Value`` slot per query
into which each worker publishes its shard's local k-th distance (the
fleet minimum upper-bounds the merged k-th, so pruning stays exact; see
:class:`~repro.shard.executor.ProcessShardExecutor`).

Statistics aggregate without double-counting: each shard runs on its own
disk, caches, and counters, so a query's :class:`SearchStats` is the plain
field-wise sum over its shards (``SearchStats.merge``) — HICL / APL cache
lookups and hits included, which is where the service's hit rates come
from, process-fleet workers' caches as much as in-process ones.  A query's
``latency_s`` is its *critical path* — the slowest shard's engine time.
Per-shard work counters under a concurrent backend depend on pruning
timing and are therefore not run-to-run deterministic (rankings always
are).

Resync: the front watches the **composite** index version (the tuple of
per-shard versions), so an insert into any shard drops the result cache
and — before the new version is published — rebinds or rebuilds the
replica banks and, with the process backend, refreshes the worker
snapshot: worker processes rebuild their engines from a fresh spec before
the next query runs.  As with the single index, inserts must quiesce the
service.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.context import SearchStats
from repro.core.engine import EngineConfig, GATSearchEngine
from repro.core.query import Query
from repro.core.results import TopKCollector
from repro.obs.metrics import LatencyWindow
from repro.service.service import (
    QueryRequest,
    QueryResponse,
    ServiceStats,
    ServingFront,
    as_request,
    query_root_attrs,
)
from repro.shard.executor import (
    EXECUTOR_KINDS,
    ProcessShardExecutor,
    ShardEngineSpec,
    ShardResult,
    ShardTask,
    ShardTaskError,
    run_shard_task,
)
from repro.shard.index import ShardedGATIndex
from repro.shard.replicas import BreakerConfig, ReplicaPlacement
from repro.shard.resilience import (
    ALL_OR_NOTHING,
    FanoutOutcome,
    FanoutSupervisor,
    FaultPolicy,
)
from repro.shard.router import ShardRouter
from repro.storage.disk import SimulatedDisk


class _SharedTopK:
    """One query's cross-shard merged top-k, shared by its shard tasks.

    Every result entering any shard's local top-k is offered here; the
    collector's k-th distance is the *distributed-top-k threshold* each
    shard prunes and terminates against.  The per-shard local bound is
    weak (a shard's k-th best over its slice is far worse than the global
    k-th), so sharing the merged bound is what keeps a shard's retrieval
    close to its fair share of the work instead of each shard re-proving
    the whole termination condition alone.
    """

    __slots__ = ("_lock", "_collector")

    def __init__(self, k: int) -> None:
        self._lock = threading.Lock()
        self._collector = TopKCollector(k)

    def offer(self, result) -> None:
        with self._lock:
            self._collector.offer(result)

    def threshold(self) -> float:
        with self._lock:
            return self._collector.kth_distance()


class ShardedQueryService:
    """Query serving across a :class:`ShardedGATIndex`.

    Parameters
    ----------
    index:
        The sharded index fleet.
    engine_config:
        Shared by every per-shard :class:`GATSearchEngine` (and shipped to
        process workers), so all shards score identically — under the
        default metric.
    executor:
        ``'thread'`` (default): a :class:`ThreadPoolExecutor` of
        *max_workers* threads, started on the first submission.
        ``'process'``: a :class:`~repro.shard.executor.ProcessShardExecutor`
        fleet.  ``'serial'``: no pool — the calling thread runs every
        attempt, first launches and retries alike.
    max_workers:
        Width of the fan-out pool.  Thread default is ``4 × n_shards ×
        n_replicas`` (four queries' worth of shard tasks in flight per
        replica fleet); process default is one worker per shard copy,
        ``n_shards × n_replicas`` — capacity grows with the copies, which
        is the point of replication.  The serial backend has no pool, so
        passing a width with ``executor='serial'`` raises.
    result_cache_size:
        Query-signature result cache capacity (``0`` disables), shared
        across shards and invalidated on the composite index version.
    fault_policy:
        Optional :class:`~repro.shard.resilience.FaultPolicy` for the
        fan-out supervisor: per-query deadlines, backoff'd retries,
        hedged attempts, and — when ``allow_partial`` — graceful
        degradation to partial coverage instead of raising.  ``None``
        (default) means all-or-nothing
        (:data:`~repro.shard.resilience.ALL_OR_NOTHING`: no retries, any
        shard failure raises) with ``QueryRequest.deadline_s`` left
        advisory.  Rankings are byte-identical whatever the policy
        whenever every shard answers.  Replicas are what make retries and
        hedges *useful*: a retried or hedged attempt is bound to a healthy
        sibling of the copy it replaces.  Deadlines and hedges need
        a pool: under ``'serial'`` nothing can preempt the caller's
        attempt, so a deadline only stops retries and nothing is hedged.
    obs:
        An optional :class:`~repro.obs.Observability` handle.  Metrics:
        the service counts into its registry (``None``: a private one).
        Traces (a handle with a tracer): each request gets a
        ``query`` root span (:func:`~repro.service.service.query_root_attrs`)
        with one ``shard_task`` child per attempt, engine stages under it —
        in-process attempts span directly (shard/replica/attempt/hedge/
        breaker attributes, disk and fault events), process-fleet
        attempts record spans worker-side and ship them home in
        :attr:`ShardResult.spans` for re-parenting under the root.
        ``None`` (default) = no tracing.
    n_replicas:
        Copies of each shard (default 1).  Every attempt is bound at
        submission, round-robin over the copies the circuit breaker calls
        healthy — see :mod:`repro.shard.replicas`.  The in-process
        backends (serial/thread) hold the replica engine banks in this
        object; the process backend realises replicas as the worker
        processes themselves (each worker its own engines and disks), so
        the replica stamped on a task is a label there.
    replica_disk_factory:
        Called once per replica shard to create its disk.  Default:
        every replica disk clones the primary shard disk's cost model
        (page size, latency, ``concurrent_reads``), so a replica is
        another copy on another identical device.  In-process backends
        only — process workers always rebuild replica disks from the
        spec (the primary's cost model), so passing a factory with
        ``executor='process'`` raises rather than silently ignoring it.
    breaker:
        Optional :class:`~repro.shard.replicas.BreakerConfig` tuning the
        per-replica circuit breaker (eject after N consecutive failures,
        probation probe after a cool-down).
    """

    def __init__(
        self,
        index: ShardedGATIndex,
        engine_config: Optional[EngineConfig] = None,
        executor: str = "thread",
        max_workers: Optional[int] = None,
        result_cache_size: int = 1024,
        fault_policy: Optional[FaultPolicy] = None,
        obs=None,
        n_replicas: int = 1,
        replica_disk_factory: Optional[Callable[[], SimulatedDisk]] = None,
        breaker: Optional[BreakerConfig] = None,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTOR_KINDS}"
            )
        if executor == "serial" and max_workers is not None:
            raise ValueError(
                "max_workers sizes a pool; executor='serial' has none "
                "(the caller runs every attempt)"
            )
        self.index = index
        self.obs = obs
        self.engine_config = (
            engine_config if engine_config is not None else EngineConfig()
        )
        # The one backend fork, guarding only what the process boundary
        # forces: in-process backends run tasks on this object's engine
        # banks against a shared collector and span them directly; the
        # process backend's workers own the engines, prune through a
        # leased threshold slot, ship their spans home, and need their
        # snapshot refreshed after an insert.
        self._in_process = executor != "process"
        self.placement = ReplicaPlacement(
            index,
            n_replicas=n_replicas,
            replica_disk_factory=replica_disk_factory,
            breaker=breaker,
            engine_config=self.engine_config,
            in_process=self._in_process,
            primary=self._primary_bank(),
        )
        self._front = ServingFront(
            index,
            result_cache_size,
            obs,
            shards=index.n_shards,
            health=self.placement.router.health_counters,
        )
        self._executor: Union[None, ThreadPoolExecutor, ProcessShardExecutor] = None
        if executor == "thread":
            if max_workers is None:
                max_workers = 4 * index.n_shards * n_replicas
            self._executor = ThreadPoolExecutor(
                max_workers, thread_name_prefix="repro-shard"
            )
        elif executor == "process":
            if max_workers is None:
                max_workers = index.n_shards * n_replicas
            self._executor = ProcessShardExecutor(
                self._make_spec(), max_workers=max_workers
            )
        self._group_ids = itertools.count(1)
        self.fault_policy = fault_policy
        self._policy = fault_policy if fault_policy is not None else ALL_OR_NOTHING
        # Completed shard-task latencies: the adaptive hedge delay's window.
        self._task_latency = LatencyWindow(512)

    # ------------------------------------------------------------------
    # Executor plumbing
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.index.n_shards

    def _primary_bank(self) -> Optional[List[GATSearchEngine]]:
        """Bank 0 if the caller already holds it (``None``: build it)."""
        return None

    def _run_task(
        self,
        shared: Dict[int, _SharedTopK],
        roots: Dict[int, object],
        task: ShardTask,
    ) -> ShardResult:
        """In-process task runner (serial and thread backends), bound by
        :meth:`_fan_out` to its batch's ``{group: merged top-k}`` and
        ``{group: query root span}``: runs the task on the replica the
        supervisor bound it to, pruning against its query's shared top-k
        (none for a one-shard query: its own top-k is the merge).

        Failure contract: any exception leaves wrapped in a
        :class:`ShardTaskError` naming the shard, replica, and query —
        never as a bare traceback from somewhere inside a pool.  (The
        breaker hears about the outcome from the supervisor, like every
        backend's.)
        """
        tracer = self.obs.tracer if self.obs is not None else None
        placement = self.placement
        try:
            return run_shard_task(
                placement.banks[task.replica][task.shard_id],
                task,
                shared.get(task.group),
                tracer,
                parent=roots.get(task.group),
                breaker=(
                    placement.breaker_state(task.shard_id, task.replica)
                    if tracer is not None
                    else None
                ),
            )
        except Exception as exc:
            raise ShardTaskError(task, exc) from exc

    def _make_spec(self) -> ShardEngineSpec:
        """A picklable snapshot of the current fleet for process workers."""
        shard0 = self.index.shards[0]
        return ShardEngineSpec(
            db_name=self.index.db.name,
            vocabulary=self.index.db.vocabulary,
            shard_columns=tuple(shard.db.columns for shard in self.index.shards),
            bounding_boxes=self.index.shard_boxes,
            gat_configs=tuple(shard.config for shard in self.index.shards),
            engine_config=self.engine_config,
            read_latency_s=shard0.disk.read_latency_s,
            concurrent_reads=shard0.disk.concurrent_reads,
        )

    def _resync(self) -> None:
        """The front's ``on_stale`` callback, run under its lock before
        the moved composite version is published: catch the engine banks
        up with the mutated primary and, with the process backend,
        schedule a worker-snapshot refresh."""
        self.placement.resync()
        if not self._in_process:
            self._executor.refresh(self._make_spec())

    # ------------------------------------------------------------------
    # Fan-out / merge
    # ------------------------------------------------------------------
    def _fanout_tasks(
        self, request: QueryRequest, group: int, threshold_slot: Optional[int] = None
    ) -> List[ShardTask]:
        """One task per shard, **nearest shard first**: tasks are ordered
        by the distance from the query's centroid to each shard's data
        centroid, so the shard most likely to hold the true top-k runs (or
        is dequeued) earliest and seeds the cross-shard threshold that the
        remaining shards prune against.  Matters most under a spatial
        partition, where the far shards can then terminate after a few
        cell pops; a pure ordering heuristic — results never depend on it.
        """
        order = range(self.n_shards)
        if self.n_shards > 1:
            centroids = self.index.shard_centroids
            qx = sum(q.x for q in request.query) / len(request.query)
            qy = sum(q.y for q in request.query) / len(request.query)
            order = sorted(
                order,
                key=lambda sid: math.hypot(centroids[sid][0] - qx, centroids[sid][1] - qy),
            )
        # Only process-fleet tasks carry the trace flag: a worker cannot
        # reach the parent's tracer, so it must be asked to record spans
        # and ship them home.  In-process attempts span in _run_task.
        trace = (
            self.obs is not None
            and self.obs.tracer is not None
            and not self._in_process
        )
        return [
            ShardTask(
                shard_id=sid,
                query=request.query,
                k=request.k,
                order_sensitive=request.order_sensitive,
                explain=request.explain,
                group=group,
                threshold_slot=threshold_slot,
                trace=trace,
            )
            for sid in order
        ]

    def _fan_out(self, requests: Sequence[QueryRequest]) -> List[QueryResponse]:
        """The front's ``execute``: one flattened supervisor run over every
        (request, shard) task, merged back into one response per request.

        The batch owns its queries' shared state: ``shared`` (each query's
        merged top-k, in-process) and ``roots`` (each query's root span)
        are locals the runner is bound to.  A root leaves ``roots`` when
        it ends, so a straggler starting after its query resolved spans
        with no parent."""
        responses: List[QueryResponse] = []
        fanouts: List[List[ShardTask]] = []
        shared: Dict[int, _SharedTopK] = {}
        roots: Dict[int, object] = {}
        slots: List[Optional[int]] = []
        outcomes: List[FanoutOutcome] = []
        in_process = self._in_process
        tracer = self.obs.tracer if self.obs is not None else None
        # Everything a query leases or opens is taken inside the try so
        # *every* failure path hands it back (a half-built batch used to
        # leak the earlier queries' slots).
        try:
            for request in requests:
                group = next(self._group_ids)
                if tracer is not None:
                    roots[group] = tracer.start_span("query")
                slot = None
                if in_process:
                    if self.n_shards > 1:  # one shard has nobody to share with
                        shared[group] = _SharedTopK(request.k)
                else:
                    # Process backend: lease a shared threshold slot so the
                    # query's shard tasks prune against the fleet minimum.
                    slot = self._executor.acquire_slot()
                    slots.append(slot)
                fanouts.append(self._fanout_tasks(request, group, threshold_slot=slot))
            # Without a policy a request's deadline stays advisory: the
            # query finishes late rather than dropping a shard.
            deadlines = (
                [request.deadline_s for request in requests]
                if self.fault_policy is not None
                else None
            )
            outcomes = self._supervised_fanout(
                fanouts, functools.partial(self._run_task, shared, roots), deadlines
            )
            for outcome, request, fanout in zip(outcomes, requests, fanouts):
                root = roots.get(fanout[0].group)
                if root is not None:
                    self._adopt_worker_spans(root, outcome.results.values())
                response = self._assemble(request, fanout, outcome)
                responses.append(response)
                if root is not None:
                    del roots[fanout[0].group]
                    root.set_attrs(**query_root_attrs(response))
                    root.end()
        finally:
            if not in_process:
                # A slot goes back only once the query's abandoned attempts
                # — still publishing into it from their workers — are done
                # (at once when the fan-out never ran or left none behind).
                for slot, outcome in itertools.zip_longest(slots, outcomes):
                    self._executor.release_slot(
                        slot, after=outcome.in_flight if outcome else ()
                    )
            # Roots left here belong to queries that died mid-fan-out; end
            # them so the trace buffer never accumulates open spans.
            for root in roots.values():
                root.set_attr("error", True)
                root.end()
        return responses

    def _adopt_worker_spans(self, root, shard_results) -> None:
        """Re-parent spans recorded inside fleet workers under this
        query's root span.  Breaker state is stamped here, parent-side:
        the worker cannot see the router, and the adoption moment is the
        first time both the span and the breaker live in one process."""
        payloads: List[dict] = []
        for result in shard_results:
            payloads.extend(result.spans)
        if not payloads:
            return
        for span in self.obs.tracer.adopt(payloads, root):
            if span.name != "shard_task":
                continue
            breaker = self.placement.breaker_state(
                span.attrs.get("shard"), span.attrs.get("replica")
            )
            if breaker is not None:
                span.set_attr("breaker", breaker)

    def _supervised_fanout(
        self,
        fanouts: List[List[ShardTask]],
        run_task: Callable[[ShardTask], ShardResult],
        deadlines: Optional[List[Optional[float]]] = None,
    ) -> List[FanoutOutcome]:
        """Run the batch's fan-outs under the service's fault policy.
        *run_task* is the batch's in-process runner (unused by the process
        backend).  ``deadlines[i]`` optionally tightens fan-out *i*'s
        budget below ``fault_policy.deadline_s`` (per-request remaining
        budgets from the serving front-end)."""
        executor = self._executor
        if not self._in_process:
            submit, heal, run_task = executor.submit, executor.heal, None
        elif executor is not None:
            submit, heal = functools.partial(executor.submit, run_task), None
        else:  # serial: no pool, the caller runs every attempt
            submit = heal = None
        supervisor = FanoutSupervisor(
            submit,
            self._policy,
            bind=self.placement.router.route,
            on_outcome=self.placement.router.record,
            tracker=self._task_latency,
            heal=heal,
            run_inline=run_task,
        )
        outcomes = supervisor.run(fanouts, deadlines=deadlines)
        count = self._front.count
        count("task_retries", sum(o.retries for o in outcomes))
        count("task_hedges", sum(o.hedges for o in outcomes))
        return outcomes

    def _assemble(
        self, request: QueryRequest, fanout: List[ShardTask], outcome: FanoutOutcome
    ) -> QueryResponse:
        """Turn one fan-out into a response: a k-way merge of the
        per-shard rankings plus stats aggregation — full when every shard
        answered, partial-coverage when the policy allows it, a
        contextual raise when not."""
        answered = [
            outcome.results[task.shard_id]
            for task in fanout
            if task.shard_id in outcome.results
        ]
        if len(answered) < len(fanout):
            if not self._policy.allow_partial:
                for task in fanout:
                    exc = outcome.failures.get(task.shard_id)
                    if exc is not None:
                        if isinstance(exc, ShardTaskError):
                            raise exc
                        raise ShardTaskError(task, exc) from exc
                raise RuntimeError("fan-out incomplete without a recorded failure")
        if len(answered) == 1:  # one shard's answer is the query's
            results, stats = list(answered[0].results), answered[0].stats
        else:
            collector = TopKCollector(request.k)
            for shard_result in answered:
                for result in shard_result.results:
                    collector.offer(result)
            results = collector.results()
            stats = SearchStats.merged([r.stats for r in answered])
        return QueryResponse(
            request=request,
            results=results,
            stats=stats,
            latency_s=max((r.latency_s for r in answered), default=0.0),
            shards_answered=len(answered),
            shards_total=len(fanout),
        )

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
        """Answer one query across every shard and merge."""
        request = as_request(
            query, k=k, order_sensitive=order_sensitive, explain=explain
        )
        return self._front.serve((request,), self._fan_out, self._resync)[0]

    def search_many(
        self,
        queries: Sequence[Union[QueryRequest, Query]],
        k: int = 10,
        order_sensitive: bool = False,
        *,
        explain: bool = False,
    ) -> List[QueryResponse]:
        """Answer a batch; response ``i`` answers request ``i``.

        The whole batch's shard tasks share one flattened submission, so
        concurrency across queries and across shards comes from the same
        pool — no per-query barrier.  ``explain`` applies to every bare
        :class:`Query` in the batch (prebuilt requests keep their own
        flag), exactly like ``search`` — batched explain queries must not
        silently lose their matched-point annotations.
        """
        requests = [
            as_request(q, k=k, order_sensitive=order_sensitive, explain=explain)
            for q in queries
        ]
        return self._front.serve(requests, self._fan_out, self._resync)

    def close(self) -> None:
        """Refuse further work, then shut down the fan-out pool
        (idempotent)."""
        self._front.close()
        if not self._in_process:
            self._executor.close()
        elif self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Fleet-wide :class:`ServiceStats`.

        Cache hit rates sum hits/lookups over the answered responses,
        whose stats sum their shards' — every copy's HICL and APL caches,
        process-fleet workers' included.  The breaker fields are the
        router's ejections, restores and probes since the epoch.
        """
        return self._front.stats()

    def reset_stats(self) -> None:
        """Start a new stats epoch (see :meth:`ServingFront.reset_stats`)."""
        self._front.reset_stats()


class QueryService(ShardedQueryService):
    """Serving over one :class:`GATSearchEngine`: the one-shard case.

    ``engine.index`` becomes a fleet of one shard whose only bank is
    *engine* (stateless per query, so every pool thread shares it and its
    caches; it keeps its own metric and config, which an engine rebuilt
    after an overflow insert inherits), and a miss runs the same
    supervised fan-out as any sharded query.  With no fault policy the calling thread runs the last task of
    each batch, so ``search`` runs ``engine.execute`` on the caller's
    thread.  *max_workers* is the pool width for ``search_many``;
    *result_cache_size* and *obs* are as for :class:`ShardedQueryService`.
    Engine errors reach callers as :class:`ShardTaskError`, with the
    engine's exception as ``.original``.
    """

    def __init__(
        self,
        engine: GATSearchEngine,
        max_workers: int = 8,
        result_cache_size: int = 1024,
        obs=None,
    ) -> None:
        self.engine = engine
        index = engine.index
        super().__init__(
            ShardedGATIndex(index.db, ShardRouter(1), [index]),
            engine_config=engine.config,
            max_workers=max_workers,
            result_cache_size=result_cache_size,
            obs=obs,
        )

    def _primary_bank(self) -> List[GATSearchEngine]:
        return [self.engine]

    def search(
        self,
        query: Union[QueryRequest, Query],
        k: int = 10,
        order_sensitive: bool = False,
        explain: bool = False,
    ) -> QueryResponse:
        """Answer one query on the calling thread.  Its own method, on the
        front directly: ``benchmarks/e2e/spans.py`` times both searches."""
        request = as_request(
            query, k=k, order_sensitive=order_sensitive, explain=explain
        )
        return self._front.serve((request,), self._fan_out, self._resync)[0]
