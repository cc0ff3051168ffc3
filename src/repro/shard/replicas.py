"""Replica placement: N copies of every shard, round-robin over the healthy ones.

With one copy of each shard, read throughput is capped by that copy:
every query that touches shard *s* queues on shard *s*'s single disk.
:class:`ReplicaPlacement` — owned by every
:class:`~repro.shard.service.ShardedQueryService` — holds
``n_replicas`` complete copies of each shard (replica = its own
:class:`~repro.index.gat.index.GATIndex`, engine, and simulated disk over
the *same* trajectory subset; under the process backend the worker
processes themselves are the copies — the pool is sized ``n_shards ×
n_replicas`` workers, each with its own engines and disks) and one
:class:`ReplicaRouter` that names the copy each
:class:`~repro.shard.executor.ShardTask` attempt runs on.

Exactness: replicas are byte-identical copies, so *which* replica serves
a task can never change the task's ranked list — routing moves latency
and device load, never results.  One query's shard tasks still share a
single distributed-top-k threshold (the group-keyed merged
:class:`~repro.shard.service._SharedTopK` in-process, the leased
``multiprocessing.Value`` slot under the process backend) **across
whichever replicas serve them**, so cross-shard pruning is oblivious to
replica placement and the merged ranking stays byte-identical to the
single-copy fleet's.  ``n_replicas=1`` is not a special case: a router
over one replica always picks replica 0.

Routing: one strategy — round-robin per shard over the copies the
router's per-replica circuit breakers call routable.  It is
perfectly balanced for uniform tasks, keeps no load table, and is the
one setting that fails over on the *first* retry: a load-aware pick ties
back onto the copy that just failed (its depth dropped to zero the
moment it failed), round-robin moves on.  A retry or hedge additionally
names the copy it replaces (``route(shard, avoid=replica)``), so two
queries interleaving on one shard's cursor cannot wrap it back there
while a sibling is routable.

When a replica is bound: at **submission**, on every backend.  The
fan-out supervisor (:class:`~repro.shard.resilience.FanoutSupervisor`)
asks the router for a copy as it launches each attempt — first launch,
retry or hedge — and stamps it on the task; in-process runners then use
``banks[task.replica][task.shard_id]``, process workers carry the stamp
as span metadata.  The supervisor is also the one place outcomes flow
back from (:meth:`ReplicaRouter.record`): routing and health are one
object under one lock.

Mutation: replicas are read-only snapshots.  An insert goes through the
primary :class:`~repro.shard.index.ShardedGATIndex` (quiesce the service,
as always), moves the composite version, and the next query's version
check rebuilds the replica banks from the mutated shards — the same
snapshot-refresh contract the process backend already follows.

Memory: an in-process replica copies index structures, caches, and its
simulated disk — never the trajectories; replicas share the primary
shard's ``shard.db``, so ``n_replicas × n_shards`` engines read a single
copy of the point data.  The process backend is different: its pool is
sized ``n_shards × n_replicas`` workers, every worker ends up building
every shard's engine (any idle worker takes any task), and each holds
its own copy-on-write copy of the trajectories it has touched — see
:mod:`repro.shard.executor`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.engine import EngineConfig, GATSearchEngine
from repro.index.gat.index import GATIndex
from repro.shard.index import ShardedGATIndex
from repro.storage.disk import SimulatedDisk

# ----------------------------------------------------------------------
# Per-replica health: the circuit breaker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker knobs for per-replica health tracking.

    A replica is **ejected** (circuit opens) after ``failure_threshold``
    *consecutive* task failures; after ``probation_after_s`` it becomes a
    probation candidate: exactly one in-flight **probe** task is allowed
    through, whose outcome either restores the replica (circuit closes)
    or re-ejects it for another probation interval.
    """

    failure_threshold: int = 3
    probation_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.probation_after_s <= 0:
            raise ValueError("probation_after_s must be > 0")


#: Breaker states (`ReplicaRouter.replica_state`): serving normally,
#: ejected, or serving a single probation probe.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_PROBING = "probing"


class _ReplicaBreaker:
    __slots__ = ("state", "consecutive_failures", "opened_at", "probe_in_flight")

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probe_in_flight = False


class ReplicaRouter:
    """Names the replica each shard-task attempt runs on, and holds the
    per-(shard, replica) circuit breakers that steer it.

    Routing is round-robin per shard over the routable copies: the scan
    continues from the shard's cursor to the next one.  A copy is
    routable while its breaker is closed; an ejected (open) one becomes
    routable again once ``probation_after_s`` has passed with no probe in
    flight, and routing it *is* its one probe, whose outcome restores or
    re-ejects it.  A probe that never reports (abandoned, or its pool
    died) re-admits the copy after another probation interval instead of
    wedging it in probing.

    Thread-safe: one lock serialises the cursors and the breakers, which
    the fan-out supervisor feeds through :meth:`record`.  Health degrades
    routing, never availability: when every copy of a shard is ejected
    the pick falls back to all of them (a guess at a dead replica beats
    refusing to serve — retries and partial coverage handle the rest).
    While every copy is healthy the pick sequence is the plain cycle:
    health tracking is free until something actually fails.  The *clock*
    is injectable so the eject → probation → restore timeline is
    testable without sleeping.
    """

    def __init__(
        self,
        n_shards: int,
        n_replicas: int,
        breaker: Optional[BreakerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.n_shards = n_shards
        self.n_replicas = n_replicas
        self.config = breaker if breaker is not None else BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._next = [0] * n_shards
        self._breakers = [
            [_ReplicaBreaker() for _ in range(n_replicas)] for _ in range(n_shards)
        ]
        self.ejections = 0
        self.restores = 0
        self.probes = 0

    def _routable(self, breaker: _ReplicaBreaker, now: float) -> bool:
        if breaker.state == BREAKER_CLOSED:
            return True
        expired = now - breaker.opened_at >= self.config.probation_after_s
        if breaker.state == BREAKER_OPEN:
            return expired and not breaker.probe_in_flight
        # Probing: re-eligible when the probe concluded, or when it has
        # been outstanding a whole probation interval.
        return expired or not breaker.probe_in_flight

    def route(self, shard_id: int, avoid: Optional[int] = None) -> int:
        """Pick a replica of *shard_id* for one attempt.  *avoid* is the
        copy a retry or hedge replaces: it is skipped unless it is the
        only routable one."""
        with self._lock:
            now = self._clock()
            breakers = self._breakers[shard_id]
            candidates = [
                r for r, breaker in enumerate(breakers) if self._routable(breaker, now)
            ] or list(range(self.n_replicas))
            if avoid is not None and len(candidates) > 1:
                candidates = [r for r in candidates if r != avoid]
            start = self._next[shard_id]
            replica = min(candidates, key=lambda r: (r - start) % self.n_replicas)
            self._next[shard_id] = (replica + 1) % self.n_replicas
            breaker = breakers[replica]
            # Routing an expired-probation copy is its probe.
            if breaker.state == BREAKER_PROBING or (
                breaker.state == BREAKER_OPEN
                and now - breaker.opened_at >= self.config.probation_after_s
            ):
                breaker.state = BREAKER_PROBING
                breaker.probe_in_flight = True
                breaker.opened_at = now  # the probe's own timeout clock
                self.probes += 1
            return replica

    def record(self, shard_id: int, replica: int, ok: bool) -> None:
        """Feed one attempt's outcome on *replica* to its breaker."""
        with self._lock:
            breaker = self._breakers[shard_id][replica]
            if breaker.state == BREAKER_PROBING:
                breaker.probe_in_flight = False
                if ok:
                    breaker.state = BREAKER_CLOSED
                    breaker.consecutive_failures = 0
                    self.restores += 1
                else:
                    breaker.state = BREAKER_OPEN
                    breaker.opened_at = self._clock()
                    self.ejections += 1
            elif breaker.state == BREAKER_CLOSED:
                if ok:
                    breaker.consecutive_failures = 0
                else:
                    breaker.consecutive_failures += 1
                    if breaker.consecutive_failures >= self.config.failure_threshold:
                        breaker.state = BREAKER_OPEN
                        breaker.opened_at = self._clock()
                        self.ejections += 1
            # BREAKER_OPEN: a straggler from before the ejection — ignored.

    def replica_state(self, shard_id: int, replica: int) -> str:
        """Breaker state (``closed`` / ``open`` / ``probing``) of a copy."""
        with self._lock:
            return self._breakers[shard_id][replica].state

    def health_counters(self) -> Tuple[int, int, int]:
        """One consistent ``(ejections, restores, probes)`` snapshot of
        the breakers' lifetime counters, read under the router lock.  The
        serving front reads them into its stats epoch — the counters
        themselves are monotonic and never rewind."""
        with self._lock:
            return (self.ejections, self.restores, self.probes)


class ReplicaPlacement:
    """Where a shard task runs: ``n_replicas`` engine banks over one
    sharded index, the :class:`ReplicaRouter` that picks among them, and
    — through the router — per-replica breaker health.  Owned by the
    :class:`~repro.shard.service.ShardedQueryService`, which passes its
    replica parameters straight through (they are documented there).

    ``banks[r][s]`` is replica *r*'s engine for shard *s*.  Bank 0 serves
    the primary shards of *index*; banks 1..n-1 are fresh replica slices
    (:meth:`ShardedGATIndex.replicate`).  With ``in_process=False`` (the
    process backend) only bank 0 is built: the worker processes are the
    copies there, and in-process banks would double memory for engines
    nothing ever runs on — the replica id stamped on a task is then a
    label the breaker and the worker's span key on.  *primary* is bank 0
    when the caller already holds it (``QueryService``'s engine).
    """

    def __init__(
        self,
        index: ShardedGATIndex,
        *,
        n_replicas: int,
        replica_disk_factory: Optional[Callable[[], SimulatedDisk]],
        breaker: Optional[BreakerConfig],
        engine_config: EngineConfig,
        in_process: bool,
        primary: Optional[List[GATSearchEngine]] = None,
    ) -> None:
        if replica_disk_factory is not None and not in_process:
            raise ValueError(
                "replica_disk_factory is in-process only: process workers "
                "rebuild replica disks from the engine spec (the primary "
                "shards' cost model)"
            )
        self.router = ReplicaRouter(index.n_shards, n_replicas, breaker=breaker)
        self.index = index
        self._engine_config = engine_config
        self._disk_factory = replica_disk_factory
        if primary is None:
            primary = [self._engine(shard) for shard in index.shards]
        self.banks: List[List[GATSearchEngine]] = [primary]
        for _ in range(n_replicas - 1 if in_process else 0):
            self.banks.append(self._replica_bank())

    def _engine(self, shard: GATIndex) -> GATSearchEngine:
        return GATSearchEngine(shard, config=self._engine_config)

    def _replica_bank(self) -> List[GATSearchEngine]:
        return [self._engine(shard) for shard in self.index.replicate(self._disk_factory)]

    def breaker_state(self, shard_id, replica) -> Optional[str]:
        """Breaker state for a shard-task span's attributes.  Tolerant of
        malformed/missing attrs on adopted worker spans — observability
        must never take a query down."""
        if shard_id is None or replica is None:
            return None
        try:
            return self.router.replica_state(shard_id, replica)
        except (IndexError, TypeError):
            return None

    def resync(self) -> None:
        """Catch the banks up with a mutated primary (inserts quiesce the
        service, so no task is mid-flight on a stale bank).

        Bank 0 rebinds, in place, only the engines whose
        :class:`GATIndex` object was *replaced* — an overflow insert
        (:meth:`ShardedGATIndex._rebuild_expanded`) swaps a new index
        into ``index.shards[sid]``, and the old engine would otherwise
        keep serving the orphaned pre-insert snapshot; an ordinary insert
        mutates the shard the engine already holds.  The new engine takes
        the metric and config of the one it replaces (bank 0 may be the
        caller's own engine).  Replica banks are read-only snapshots of
        the primary, so they are rebuilt wholesale.
        """
        primary = self.banks[0]
        for sid, shard in enumerate(self.index.shards):
            old = primary[sid]
            if old.index is not shard:
                primary[sid] = GATSearchEngine(
                    shard, metric=old.metric, config=old.config
                )
        self.banks[1:] = [self._replica_bank() for _ in self.banks[1:]]
