"""Shard fan-out backends: the caller, a thread pool, or worker processes.

The sharded service expresses one query as ``n_shards`` independent
:class:`ShardTask` units; its fan-out supervisor
(:class:`~repro.shard.resilience.FanoutSupervisor`) launches them one by
one, and :func:`run_shard_task` runs each against a shard engine.  Where
they run is the deployment's choice (``ShardedQueryService(executor=)``):

* ``'serial'`` — no pool: the calling thread runs every attempt in
  submission order.  The debugging / profiling baseline, and the
  reference the parity suite compares the pooled backends against.
* ``'thread'`` — a plain :class:`ThreadPoolExecutor` held by the service.
  The default: threads overlap the shards' simulated-disk latencies and
  the kernel sections that release the GIL, and they run against the
  service's own in-process engines directly.
* ``'process'`` — :class:`ProcessShardExecutor`, a
  :class:`ProcessPoolExecutor` whose workers each rebuild shard engines
  from a picklable :class:`ShardEngineSpec`.  This closes the residual
  GIL-bound share: pure-Python retrieval/validation work runs truly in
  parallel.  Workers build a shard's engine lazily on the first task
  that touches it, and the pool hands any task to any idle worker, so a
  fleet of ``W`` workers converges to **every** worker holding every
  shard's engine: ``W × n_shards`` index builds (the fleet's
  ``setup_s``); the points themselves are the inherited column arrays,
  which the builds only read.

Process-pool consistency: worker processes hold *snapshots* of the index.
They cannot observe :meth:`ShardedGATIndex.insert_trajectory`, so the
sharded service watches the composite index version and calls
:meth:`ProcessShardExecutor.refresh` with a fresh spec after any mutation.
Refreshes are **coalesced**: the executor only records the newest spec,
and the next query to run tears down and re-initialises the pool at most
once — a burst of inserts costs one re-init, and a refresh whose spec
compares equal to the live pool's costs nothing.

Everything shipped across the process boundary (tasks, specs, ranked
results, stats) is plain picklable data; engines, disks, and locks never
cross.  The spec carries each shard database's column arrays by value; under the
``fork`` start method the pool initializer's arguments are inherited
copy-on-write, so nothing is actually pickled.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import weakref
from concurrent.futures import Future, InvalidStateError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.context import SearchStats
from repro.core.engine import EngineConfig, GATSearchEngine
from repro.core.query import Query
from repro.core.results import SearchResult
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.database import TrajectoryDatabase
from repro.model.trajectory import TrajectoryColumns

EXECUTOR_KINDS = ("serial", "thread", "process")


class ShardTask(NamedTuple):
    """One shard's share of one query: the request options plus the shard
    to run them on.  An immutable, picklable record — the same object
    crosses thread and process boundaries, and the supervisor derives each
    attempt's task from it with ``_replace``.

    ``group`` labels all tasks of one fan-out.  In-process runners use it
    to find the query's shared merged-top-k (the distributed-top-k
    threshold) and root span among their batch's.  Process workers
    instead use ``threshold_slot`` — the index of a
    ``multiprocessing.Value`` allocated at pool start-up (the slots are
    inherited by the workers; synchronised objects cannot ride the task
    queue itself).  Each worker publishes its shard's local k-th distance
    into the slot and prunes against the fleet-wide minimum — an upper
    bound on the merged k-th, hence sound — polled between validation
    rounds via the engine's external-threshold hook.
    ``threshold_slot=None`` (serial/thread backends, or slot exhaustion)
    keeps the run-to-local-completion behaviour.

    ``replica`` names which copy of the shard serves the task
    (:mod:`repro.shard.replicas`), stamped by the
    :class:`~repro.shard.resilience.FanoutSupervisor` as it launches each
    attempt, on every backend.  In-process runners run the task on that
    replica's engine bank.  In a process worker it is metadata only:
    every worker process is already an independent physical copy (own
    engines, own disks), so the service sizes the pool to ``n_shards ×
    n_replicas`` workers rather than duplicating engines inside each
    worker.

    Observability fields: ``trace`` asks a process-fleet worker to build
    a ``shard_task`` span for this task — worker-side spans ride home
    serialized in :attr:`ShardResult.spans` and are re-parented under the
    query root (in-process runners span into the service's tracer).
    ``attempt`` counts prior failures of this fan-out slot (0 = first
    launch) and ``hedge`` marks a speculative duplicate; both are stamped
    alongside ``replica`` so the span of whichever attempt *wins* says
    which attempt it was.
    """

    shard_id: int
    query: Query
    k: int
    order_sensitive: bool = False
    explain: bool = False
    group: int = 0
    threshold_slot: Optional[int] = None
    replica: int = 0
    trace: bool = False
    attempt: int = 0
    hedge: bool = False


@dataclass(slots=True)
class ShardResult:
    """One shard's ranked answer: its local top-k, its work counters, and
    the wall time it took (the merge reports the slowest shard as the
    query's critical path)."""

    shard_id: int
    results: Tuple[SearchResult, ...]
    stats: SearchStats
    latency_s: float
    #: Serialized spans (``Span.to_dict`` payloads) recorded while running
    #: this task — only populated when the task asked for tracing
    #: (``ShardTask.trace``) and the runner was a process-fleet worker;
    #: in-process runners file spans directly with the service's tracer.
    spans: Tuple[dict, ...] = ()


class ShardTaskError(RuntimeError):
    """A shard task failed, wrapped with serving context.

    A raw worker traceback says nothing about *which* shard, replica, or
    query died; every backend wraps task failures here so the failure
    names its place in the fleet.  ``task`` and ``original`` keep the full
    objects for the supervisor's retry/failover machinery; ``shard_id``
    and ``replica`` are the fields operators (and tests) match on.
    """

    def __init__(self, task: ShardTask, original: BaseException) -> None:
        self.task = task
        self.shard_id = task.shard_id
        self.replica = task.replica
        self.original = original
        super().__init__(
            f"shard {self.shard_id} (replica {self.replica}) failed serving "
            f"query group {task.group} (k={task.k}, "
            f"|query|={len(task.query)}): "
            f"{type(original).__name__}: {original}"
        )


# ----------------------------------------------------------------------
# Picklable engine construction (the process backend's worker side)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShardEngineSpec:
    """Everything a worker process needs to rebuild any shard's engine.

    Carries data, never live objects: the shared vocabulary, each shard
    grid's bounding box and build config (per-shard since the
    shard-local-grid build depth-adapts each grid to its own box — all
    equal under ``shard_box='global'``), and the engine config.  Worker
    engines score with the default metric, as the service's own do.

    The data travels by value: ``shard_columns`` holds each shard
    database's :class:`~repro.model.trajectory.TrajectoryColumns` — its
    arrays — and a worker adopts them as its shard's database.

    Specs compare by value (column snapshots by identity: an append
    replaces a database's snapshot), which is what
    :meth:`ProcessShardExecutor.refresh` coalesces on: an unchanged fleet
    produces an equal spec and no pool re-init."""

    db_name: str
    vocabulary: object
    shard_columns: Tuple[TrajectoryColumns, ...]
    bounding_boxes: Tuple[object, ...]
    gat_configs: Tuple[GATConfig, ...]
    engine_config: EngineConfig
    #: Per-read latency and device command depth of the worker-side
    #: simulated disks, carried over from the parent's shard disks so the
    #: process backend reproduces the same I/O cost model as the
    #: in-process engines (``concurrent_reads=None`` = unbounded).
    read_latency_s: float = 0.0
    concurrent_reads: Optional[int] = None


def build_shard_engine(spec: ShardEngineSpec, shard_id: int) -> GATSearchEngine:
    """Rebuild one shard's database, GAT index, and engine from a spec."""
    from repro.storage.disk import SimulatedDisk

    shard_db = TrajectoryDatabase(
        spec.shard_columns[shard_id],
        spec.vocabulary,
        name=f"{spec.db_name}/shard{shard_id}",
    )
    index = GATIndex.build(
        shard_db,
        spec.gat_configs[shard_id],
        disk=SimulatedDisk(
            read_latency_s=spec.read_latency_s,
            concurrent_reads=spec.concurrent_reads,
        ),
        bounding_box=spec.bounding_boxes[shard_id],
    )
    return GATSearchEngine(index, config=spec.engine_config)


def run_shard_task(
    engine: GATSearchEngine,
    task: ShardTask,
    shared=None,
    tracer=None,
    parent=None,
    **attrs,
) -> ShardResult:
    """Execute one shard task against *engine* — the single code path every
    backend funnels through, in-process or in a worker.

    *shared* is the query's cross-shard merged top-k (anything with
    ``threshold()`` and ``offer(result)``, see
    :meth:`GATSearchEngine.execute`); ``None`` runs to local completion.
    With a *tracer* the task runs inside a ``shard_task`` span under
    *parent*, stamped with the task's shard / replica / attempt / hedge,
    the caller's extra *attrs*, and ``error`` when the engine raises; the
    engine reports its stage spans and disk events into it."""
    span = None
    if tracer is not None:
        span = tracer.start_span(
            "shard_task",
            parent=parent,
            attrs={
                "shard": task.shard_id,
                "replica": task.replica,
                "attempt": task.attempt,
                "hedge": task.hedge,
                **attrs,
            },
        )
    try:
        ctx = engine.execute(
            task.query,
            task.k,
            order_sensitive=task.order_sensitive,
            explain=task.explain,
            external_threshold=shared.threshold if shared is not None else None,
            result_sink=shared.offer if shared is not None else None,
            trace_span=span,
        )
    except Exception as exc:
        if span is not None:
            span.set_attr("error", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        if span is not None:
            span.end()
    return ShardResult(
        shard_id=task.shard_id,
        results=tuple(ctx.ranked if ctx.ranked is not None else ()),
        stats=ctx.stats,
        latency_s=ctx.latency_s,
    )


# Per-worker-process state: the spec and threshold slots arrive once via
# the pool initializer; engines are built lazily per shard on first use.
# Keyed by shard only, never (shard, replica): each worker process is
# already a physically independent copy (its own engines and disks), so
# per-replica keying inside one worker would only multiply engine builds
# — up to (n_shards × n_replicas) per worker — without modelling any
# extra device.
_WORKER_SPEC: Optional[ShardEngineSpec] = None
_WORKER_ENGINES: Dict[int, GATSearchEngine] = {}
_WORKER_SLOTS: Sequence = ()


def _worker_init(spec: ShardEngineSpec, slots: Sequence = ()) -> None:
    global _WORKER_SPEC, _WORKER_SLOTS
    _WORKER_SPEC = spec
    _WORKER_SLOTS = slots
    _WORKER_ENGINES.clear()


class _SlotThreshold:
    """One query's cross-process pruning threshold, backed by a shared
    ``multiprocessing.Value`` slot.

    Each worker mirrors its shard's accepted results in a local
    :class:`TopKCollector` and publishes the mirror's k-th distance into
    the slot whenever it improves on the stored fleet minimum.  The slot
    therefore holds ``min`` over shards of the *local* k-th — an upper
    bound on the merged k-th over the union (a union's k-th never exceeds
    any part's), which in turn bounds the final merged k-th from above, so
    pruning and terminating against it is exact for the merged top-k.  The
    engine polls :meth:`threshold` between validation rounds (and inside
    the Lemma-4 scoring prune) through its ``external_threshold`` hook.
    """

    __slots__ = ("_value", "_mirror")

    def __init__(self, value, k: int) -> None:
        from repro.core.results import TopKCollector

        self._value = value
        self._mirror = TopKCollector(k)

    def offer(self, result) -> None:
        self._mirror.offer(result)
        kth = self._mirror.kth_distance()
        if math.isfinite(kth):
            with self._value.get_lock():
                if kth < self._value.value:
                    self._value.value = kth

    def threshold(self) -> float:
        with self._value.get_lock():
            return self._value.value


def _worker_ping() -> int:
    """No-op worker task; :meth:`ProcessShardExecutor.warm_up` uses it to
    force the pool's processes into existence (chaos tests need live pids
    to kill before any real batch has run)."""
    return os.getpid()


def _worker_search(task: ShardTask) -> ShardResult:
    if _WORKER_SPEC is None:  # pragma: no cover - defensive
        raise RuntimeError("shard worker used before initialisation")
    engine = _WORKER_ENGINES.get(task.shard_id)
    if engine is None:
        engine = _WORKER_ENGINES[task.shard_id] = build_shard_engine(
            _WORKER_SPEC, task.shard_id
        )
    shared = None
    if task.threshold_slot is not None and task.threshold_slot < len(_WORKER_SLOTS):
        shared = _SlotThreshold(_WORKER_SLOTS[task.threshold_slot], task.k)
    if not task.trace:
        return run_shard_task(engine, task, shared)
    # Traced: a throwaway worker-local tracer collects this task's span
    # tree (shard_task root + engine stage children + disk events); the
    # spans ride home as plain dicts in ShardResult.spans and the parent
    # re-parents them under the query root (Tracer.adopt).
    from repro.obs.trace import Tracer

    tracer = Tracer(max_spans=256)
    result = run_shard_task(engine, task, shared, tracer, pid=os.getpid())
    result.spans = tuple(s.to_dict() for s in tracer.drain())
    return result


class ProcessShardExecutor:
    """Fan-out over worker processes built from a :class:`ShardEngineSpec`.

    Each worker pays a one-time engine build per shard it serves; after
    warm-up, shard searches run GIL-free in parallel.  Best for CPU-bound
    workloads (large candidate sets, scalar kernels, many cores); for
    I/O-dominated serving the thread backend wins on warm-up cost.

    Distributed top-k: the executor owns a fixed pool of shared
    ``multiprocessing.Value('d')`` threshold slots, created before the
    worker pool so they are inherited through the pool initializer (shared
    memory cannot ride the task queue).  The service leases one slot per
    in-flight query (:meth:`acquire_slot` / :meth:`release_slot`); all the
    query's shard tasks carry the slot index, and workers prune against
    the fleet minimum published there (see :class:`_SlotThreshold`).  When
    every slot is leased, further queries simply run without one —
    correct, just without cross-shard pruning.

    Self-healing: a SIGKILLed (OOM-killed, segfaulted) worker breaks the
    whole :class:`ProcessPoolExecutor` — every in-flight future raises
    :class:`BrokenProcessPool` and the pool is unusable forever.  That is
    a *fleet* event, not a task failure: :meth:`heal` retires the broken
    pool and the next submission re-initialises a fresh one from the
    spec (every worker then rebuilds its engines on first touch).
    :meth:`submit` heals through breakage it meets at submission; futures
    that die mid-flight are the fan-out supervisor's to heal and resubmit
    — at most :attr:`MAX_POOL_REPAIRS` times per fan-out, after which the
    breakage surfaces as a :class:`ShardTaskError`.  A broken pool's
    manager thread fails the pool's pending futures without locking out
    a submission that races it (CPython 3.11), so it can exit and leave a
    future pending with nothing left to resolve it, and a worker alive;
    retiring the pool ends the one and fails the other with
    :class:`BrokenProcessPool`, so it is healed around like the rest.
    Threshold slots are parent-owned ``mp.Value``s inherited by every pool
    generation, so leases survive a repair; a dead worker's last published
    threshold stays a sound (real-result) upper bound for the resubmitted
    task.
    """

    #: Shared threshold slots per executor — bounds the number of
    #: concurrently *pruning* queries, not the number of queries.
    N_SLOTS = 64
    #: Broken pools one fan-out (or one submission) heals through before
    #: the breakage surfaces as a task failure.
    MAX_POOL_REPAIRS = 3

    def __init__(
        self, spec: ShardEngineSpec, max_workers: Optional[int] = None
    ) -> None:
        self.max_workers = max_workers if max_workers is not None else len(spec.shard_columns)
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        #: Broken pools retired so far (chaos tests assert recovery here).
        self.pool_repairs = 0
        self._spec = spec
        #: The spec the live pool was initialised from (``None`` before the
        #: first pool) — :meth:`_shared_pool` compares it against the
        #: latest :meth:`refresh` spec to decide whether a re-init is due.
        self._live_spec: Optional[ShardEngineSpec] = None
        #: Worker-pool initialisations so far — the refresh-coalescing
        #: regression tests count this under insert bursts.
        self.pool_inits = 0
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Submitted futures not yet done, by the pool that issued them,
        #: and the pools retired since (whose leftovers fail at once).
        self._pending: Dict[Future, ProcessPoolExecutor] = {}
        self._retired: "weakref.WeakSet[ProcessPoolExecutor]" = weakref.WeakSet()
        self._closed = False
        self._slots = [
            multiprocessing.Value("d", math.inf) for _ in range(self.N_SLOTS)
        ]
        self._free_slots = list(range(self.N_SLOTS))

    def acquire_slot(self) -> Optional[int]:
        """Lease a threshold slot for one query, reset to ``inf`` (no
        pruning bound yet); ``None`` when all slots are in flight."""
        with self._lock:
            if not self._free_slots:
                return None
            slot = self._free_slots.pop()
        value = self._slots[slot]
        with value.get_lock():
            value.value = math.inf
        return slot

    def release_slot(self, slot: Optional[int], after: Sequence[Future] = ()) -> None:
        """Return a leased threshold slot once every future in *after* is
        done (immediately when there is none).  *after* names the query's
        attempts still running in workers — abandoned at a deadline, or a
        hedge race's loser: they keep publishing the finished query's
        k-th distance into the slot, and the free list is LIFO, so
        handing the slot out under them would make the next query prune
        against a foreign, too-small threshold.  Duplicate-tolerant:
        failure paths may release the same lease twice, and a
        double-append would let two queries share one slot."""
        if slot is None:
            return
        for i, future in enumerate(after):
            if not future.done():
                # Come back for the rest when this one finishes.
                future.add_done_callback(
                    lambda _done: self.release_slot(slot, after[i + 1 :])
                )
                return
        with self._lock:
            if slot not in self._free_slots:
                self._free_slots.append(slot)

    def _shared_pool(self) -> ProcessPoolExecutor:
        # Locked like the thread backend — a raced double-create here
        # would leak a whole pool of worker processes.
        while True:
            stale: Optional[ProcessPoolExecutor] = None
            with self._lock:
                if self._closed:
                    # Use-after-close would silently spawn a whole fresh
                    # pool of worker processes that nothing ever shuts down.
                    raise RuntimeError("ProcessShardExecutor used after close()")
                if (
                    self._pool is not None
                    and self._live_spec is not self._spec
                    and self._live_spec != self._spec
                ):
                    # A refresh landed since this pool was initialised:
                    # retire it and fall through to re-create below.
                    stale, self._pool = self._pool, None
                if stale is None:
                    if self._pool is None:
                        self._pool = ProcessPoolExecutor(
                            max_workers=self.max_workers,
                            initializer=_worker_init,
                            initargs=(self._spec, self._slots),
                        )
                        self._live_spec = self._spec
                        self.pool_inits += 1
                    return self._pool
            # Shut the stale pool down outside the lock (it waits for
            # in-flight tasks) and retry; inserts quiesce the service, so
            # nothing races the snapshot swap itself.
            stale.shutdown(wait=True)

    def _retire_broken(self, pool: ProcessPoolExecutor) -> bool:
        """Drop *pool* so the next submission re-initialises from the
        spec.  Identity-checked — concurrent detectors of one breakage
        retire it once — and never raises: shutting down a pool whose
        workers are already dead must not mask the original failure."""
        retired = False
        with self._lock:
            if self._pool is pool and not self._closed:
                self._pool = None
                self.pool_repairs += 1
                retired = True
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=True)
        except Exception:  # pragma: no cover - defensive
            pass
        # The pool's manager thread has exited: what it left is ours.
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join()
        self._fail_left(pool)
        return retired

    def _fail_left(self, pool: ProcessPoolExecutor) -> None:
        """Fail every future the retired *pool* left pending."""
        with self._lock:
            self._retired.add(pool)
            left = [future for future, owner in self._pending.items() if owner is pool]
        for future in left:
            try:
                future.set_exception(
                    BrokenProcessPool("the process pool broke and left this task pending")
                )
            except InvalidStateError:  # a concurrent retirement failed it first
                pass

    def _track(self, pool: ProcessPoolExecutor, future: Future) -> None:
        """Remember *future* as *pool*'s until it is done; a pool retired
        since it issued *future* fails it now."""
        with self._lock:
            self._pending[future] = pool
            retired = pool in self._retired
        future.add_done_callback(self._untrack)
        if retired:
            self._fail_left(pool)

    def _untrack(self, future: Future) -> None:
        with self._lock:
            self._pending.pop(future, None)

    def heal(self) -> bool:
        """Retire the live pool if it is broken (the supervisor calls this
        when a future dies with :class:`BrokenProcessPool`).  Returns
        whether anything was retired."""
        with self._lock:
            pool = self._pool
        if pool is None or not getattr(pool, "_broken", False):
            return False
        return self._retire_broken(pool)

    def submit(self, task: ShardTask) -> Future:
        """Submit one task, healing through submission-time pool breakage
        (a worker killed while the pool sat idle surfaces here, not on a
        future).  The returned future can still die with
        :class:`BrokenProcessPool` if the kill lands mid-flight — that is
        the supervisor's resubmission to make."""
        last_exc: Optional[BaseException] = None
        for _ in range(self.MAX_POOL_REPAIRS + 1):
            pool = self._shared_pool()
            try:
                future = pool.submit(_worker_search, task)
            except BrokenProcessPool as exc:
                last_exc = exc
                self._retire_broken(pool)
                continue
            self._track(pool, future)
            return future
        raise ShardTaskError(task, last_exc)

    def worker_pids(self) -> List[int]:
        """Pids of the live pool's worker processes (chaos targets)."""
        with self._lock:
            pool = self._pool
        if pool is None:
            return []
        processes = getattr(pool, "_processes", None) or {}
        return [pid for pid, proc in list(processes.items()) if proc.is_alive()]

    def warm_up(self) -> List[int]:
        """Force every worker process into existence (they normally spawn
        lazily per submission) and return their pids."""
        pool = self._shared_pool()
        futures = [pool.submit(_worker_ping) for _ in range(self.max_workers)]
        for future in futures:
            future.result()
        return self.worker_pids()

    def refresh(self, spec: ShardEngineSpec) -> None:
        """Adopt a new worker snapshot after an index mutation —
        **coalesced**: the spec is only recorded here, and the live pool
        is torn down and re-initialised at most once, by the next query
        that actually runs.  A burst of inserts therefore costs one pool
        re-init instead of one per composite-version bump, and a refresh
        whose spec equals the live pool's (nothing really changed — e.g.
        an overflow rebuild that re-derived identical state) costs
        nothing at all."""
        with self._lock:
            self._spec = spec

    def close(self) -> None:
        """Shut the pool down (idempotent).  Must succeed even while
        degraded: closing right after a worker kill — broken pool, dead
        processes — has nothing useful left to do, and raising here would
        leak the service teardown it is part of.  The threshold slots are
        parent-owned and survive untouched either way."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:  # pragma: no cover - defensive
                pass
