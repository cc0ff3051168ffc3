"""ShardedGATIndex — one GAT index per trajectory partition.

Each shard owns a full vertical slice of the storage stack: its own
:class:`~repro.model.database.TrajectoryDatabase` subset, its own
:class:`~repro.storage.disk.SimulatedDisk`, and a complete
:class:`~repro.index.gat.index.GATIndex` (grid + HICL + ITL + TAS + APL)
built over that subset.  Nothing is shared between shards except the
vocabulary.

Partition: :meth:`ShardedGATIndex.build` derives its
:class:`~repro.shard.router.ShardRouter` from the database —
``strategy='hash'`` (``id mod n_shards``) or ``'spatial'`` (a Morton
directory of compact regions).  A fleet assembled directly from prebuilt
shards takes any router; ``QueryService``'s one-shard fleet wraps the
caller's :class:`GATIndex` and shares its database.

Shard grids: by default (``shard_box='local'``) every shard's grid spans
its **own** trajectories' bounding box, so per-shard retrieval cost scales
with the shard's spatial footprint instead of the fleet's.  MINDIST
bounds stay sound for arbitrary query locations — cell geometry is exact
for any point, and a shard only ever needs bounds to *its own* points,
all of which lie inside its box.  Under a spatial partition
(``strategy='spatial'``) the local boxes are disjoint-ish compact
regions: a query's expansion does real cell work only on the shards whose
region it touches, where the global-box build made every shard re-walk
the same neighbourhood at ``1/n_shards`` density (the replicated
traversal the ROADMAP called out).  ``shard_box='global'`` restores the
old behaviour — every grid over the full universe — for comparison and
for deployments that insert far outside the build-time footprint.

Exactness: trajectories are partitioned whole (see
:class:`~repro.shard.router.ShardRouter`), so a shard's top-k over its own
trajectories is the restriction of the global ranking to that shard, and a
k-way merge of per-shard top-k lists equals the unsharded top-k —
distances depend only on (query, trajectory), never on which shard scored
them; the grid box moves retrieval order and cost, never scores.

Mutation: :meth:`insert_trajectory` routes to the owning shard and bumps
that shard's version counter; :attr:`version` exposes the *composite*
tuple of per-shard versions, so result caches keyed on it are invalidated
by an insert into any shard — including inserts issued directly against a
shard's own :class:`GATIndex`.  An insert landing outside its shard's
local box triggers that shard's **overflow rebuild**: the grid is rebuilt
over the union of the old box and the newcomer (monotonically expanded,
version still moving forward), so local boxes never reject an insert.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.geometry.primitives import BoundingBox
from repro.index.gat.index import GATConfig, GATIndex, points_outside
from repro.model.database import TrajectoryDatabase
from repro.model.trajectory import TrajectoryColumns
from repro.shard.router import ShardRouter
from repro.storage.disk import SimulatedDisk

SHARD_BOXES = ("local", "global")


class ShardedGATIndex:
    """A fleet of per-partition GAT indexes behind one routing facade."""

    def __init__(
        self,
        db: TrajectoryDatabase,
        router: ShardRouter,
        shards: List[GATIndex],
    ) -> None:
        if len(shards) != router.n_shards:
            raise ValueError("one GATIndex per router shard required")
        self.db = db
        self.router = router
        self.shards = list(shards)
        # Running (sum_x, sum_y, n) per shard — the locality signal behind
        # the service's nearest-shard-first fan-out ordering.  A heuristic
        # (it moves retrieval order and work, never results); inserts fold
        # the newcomer's point sums in incrementally — left to right, as
        # the cumulative sum adds them here.
        self._centroid_sums: List[List[float]] = [
            [*np.cumsum(shard.db.columns.xy, axis=0)[-1].tolist(), float(shard.db.n_points())]
            for shard in self.shards
        ]
        #: The un-adapted build config, kept so an overflow rebuild can
        #: re-derive the depth for the expanded box; ``None`` for fleets
        #: assembled directly from prebuilt shards (those rebuild with the
        #: shard's current config).
        self._base_config: Optional[GATConfig] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        db: TrajectoryDatabase,
        n_shards: int = 2,
        config: Optional[GATConfig] = None,
        strategy: str = "hash",
        disk_factory: Optional[Callable[[], SimulatedDisk]] = None,
        shard_box: str = "local",
    ) -> "ShardedGATIndex":
        """Partition *db* and build one complete GAT index per shard.

        Parameters
        ----------
        n_shards / strategy:
            The :class:`ShardRouter` derived from the database: ``hash``
            (default; ``id mod n_shards``) or ``spatial`` (each shard's
            data in a compact region).
        config:
            The per-shard :class:`GATConfig` (every shard uses the same
            build knobs so merged rankings compare like for like).
        disk_factory:
            Called once per shard to create its simulated disk — inject
            per-read latency here for serving benchmarks.  Defaults to a
            fresh zero-latency :class:`SimulatedDisk` per shard.
        shard_box:
            ``'local'`` (default) builds each shard's grid over its own
            trajectories' bounding box, depth-adapted so leaf cells keep
            the global grid's physical size (see :meth:`_local_config`) —
            per-shard retrieval cost then scales with the shard's
            footprint, and out-of-box inserts trigger an overflow rebuild
            of just that shard.  ``'global'`` spans every grid over the
            full database box (the pre-local behaviour).  Rankings are
            identical either way.

        Every shard must end up non-empty: a GAT index needs at least one
        trajectory, and an accidentally empty shard almost always means the
        shard count outgrew the dataset (or a pathological id distribution
        defeated hash routing, which spatial routing's equal-cardinality
        cut cannot suffer) — fail loudly instead of serving a silently
        degraded fleet.
        """
        if shard_box not in SHARD_BOXES:
            raise ValueError(
                f"unknown shard_box {shard_box!r}; expected one of {SHARD_BOXES}"
            )
        router = ShardRouter.for_database(db, n_shards, strategy)
        parts = router.partition(db.columns.ids.tolist())
        empty = [sid for sid, part in enumerate(parts) if not part]
        if empty:
            raise ValueError(
                f"shards {empty} would be empty ({len(db)} trajectories over "
                f"{n_shards} {strategy!r} shards); lower n_shards "
                "or use spatial routing"
            )
        global_box = db.bounding_box
        base_config = config if config is not None else GATConfig()
        shards: List[GATIndex] = []
        for part in parts:
            shard_db = TrajectoryDatabase(
                db.columns.take([db.row_of(tid) for tid in part]),
                db.vocabulary,
                name=f"{db.name}/shard{len(shards)}",
            )
            disk = disk_factory() if disk_factory is not None else SimulatedDisk()
            if shard_box == "local":
                box = shard_db.bounding_box
                shard_config = cls._local_config(base_config, global_box, box)
            else:
                box = global_box
                shard_config = base_config
            shards.append(
                GATIndex.build(shard_db, shard_config, disk=disk, bounding_box=box)
            )
        sharded = cls(db, router, shards)
        sharded._base_config = base_config
        return sharded

    @staticmethod
    def _local_config(config: GATConfig, global_box, box) -> GATConfig:
        """Depth-adapt a shard's grid to its local box.

        A local box with the global depth would cut the same ``4^d`` cells
        over a smaller area — finer cells, and a best-first expansion that
        pops *more* of them to cover the same k-NN radius.  Dropping one
        level per 4x area shrink keeps leaf cells at roughly the global
        grid's physical size, so a shard's expansion over its own region
        costs what the single index would pay there, scaled to the shard's
        footprint.  Retrieval is exact at any granularity — only work
        counters move, never rankings.
        """
        global_area = global_box.width * global_box.height
        local_area = box.width * box.height
        if local_area <= 0 or global_area <= local_area:
            return config
        drop = int(math.log(global_area / local_area, 4))
        if drop <= 0:
            return config
        depth = max(1, config.depth - drop)
        if depth == config.depth:
            return config
        return replace(
            config, depth=depth, memory_levels=min(config.memory_levels, depth)
        )

    def replicate(
        self, disk_factory: Optional[Callable[[], SimulatedDisk]] = None
    ) -> List[GATIndex]:
        """One fresh :class:`GATIndex` per shard over the **same**
        trajectory subset — a read replica set for the serving tier's
        replica banks (:class:`~repro.shard.replicas.ReplicaPlacement`).

        Each replica is a full vertical slice of its own: the shard's
        database subset re-indexed onto its own simulated disk, with the
        shard's exact build config and grid bounding box, so replica
        rankings are byte-identical to the primary's.  Replicas share the
        primary's ``shard.db``: a replica owns only its index structures,
        caches, and disk, never another copy of the data.  Without a
        *disk_factory* every replica disk inherits the primary shard
        disk's cost model (page size, read latency, and the
        ``concurrent_reads`` command depth) — a replica is another copy of
        the data on another device, not a faster device.

        Replicas are read-only snapshots: they carry the primary's current
        version, and a later :meth:`insert_trajectory` moves only the
        primary's composite version.  The sharded service watches that
        version and rebuilds its replica banks before serving the next
        query, so inserts must quiesce serving exactly as they already
        must for the primary.
        """
        replicas: List[GATIndex] = []
        for shard in self.shards:
            if disk_factory is not None:
                disk = disk_factory()
            else:
                disk = SimulatedDisk(
                    read_latency_s=shard.disk.read_latency_s,
                    concurrent_reads=shard.disk.concurrent_reads,
                )
            replica = GATIndex.build(
                shard.db, shard.config, disk=disk, bounding_box=shard.grid.box
            )
            replica.version = shard.version
            replicas.append(replica)
        return replicas

    # ------------------------------------------------------------------
    # Routing / mutation
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    @property
    def version(self) -> Tuple[int, ...]:
        """Composite mutation counter: the tuple of per-shard versions.

        Reading through to the shards (instead of keeping a counter here)
        means even an insert issued directly against one shard's
        :class:`GATIndex` moves the composite, so cross-shard result caches
        can never serve pre-insert rankings.
        """
        return tuple(shard.version for shard in self.shards)

    @property
    def shard_boxes(self) -> Tuple[object, ...]:
        """Each shard grid's bounding box (per-shard under ``'local'``,
        all equal to the database box under ``'global'``)."""
        return tuple(shard.grid.box for shard in self.shards)

    @property
    def shard_centroids(self) -> Tuple[Tuple[float, float], ...]:
        """Each shard's mean data location — the nearest-shard-first
        fan-out ordering key."""
        return tuple(
            (sx / n, sy / n) if n else (0.0, 0.0)
            for sx, sy, n in self._centroid_sums
        )

    def insert_trajectory(self, trajectory) -> None:
        """Insert one trajectory into its owning shard (and the global
        registry).  Requires exclusive access, like the single-index
        mutator: quiesce any sharded service around maintenance.

        The global id-freshness check runs first — the shard database only
        knows its own ids, and a duplicate living on *another* shard must
        be rejected before any index is touched.

        Overflow: when the newcomer lies outside the owning shard's
        (local) grid box — where the single :class:`GATIndex` demands a
        rebuild — the shard is rebuilt in place over the union of its old
        box and the new points, then the insert is retried; the shard's
        version keeps moving forward so result caches watching the
        composite version still invalidate.
        """
        tid = trajectory.trajectory_id
        if tid in self.db:
            raise ValueError(f"trajectory id {tid} already present")
        columns = TrajectoryColumns.of([trajectory])
        columns.check()  # before the coordinates can move a box
        sid = self.router.shard_of(tid)
        shard = self.shards[sid]
        if points_outside(shard.grid.box, columns.xy).any():
            shard = self.shards[sid] = self._rebuild_expanded(shard, columns.xy)
        shard.insert_trajectory(trajectory)  # validates the bounding box
        # QueryService's one-shard fleet shares its shard's database, which
        # the line above already appended to.
        if shard.db is not self.db:
            self.db.append(columns)
        sums = self._centroid_sums[sid]
        for x, y in columns.xy.tolist():  # point by point, left to right
            sums[:] = sums[0] + x, sums[1] + y, sums[2] + 1.0

    def _rebuild_expanded(self, shard: GATIndex, xy: np.ndarray) -> GATIndex:
        """Rebuild one shard's index over its box expanded to cover the
        points *xy* (same database subset, same disk — the APL/HICL
        records are simply rewritten).  The grid depth is re-derived from
        the base config for the expanded box (see :meth:`_local_config`),
        so leaf cells keep the global physical size as the footprint
        grows.  The rebuilt index resumes the old version counter so the
        caller's subsequent insert bump keeps the composite version
        strictly moving.
        """
        old = shard.grid.box
        expanded = BoundingBox.from_points(
            [(old.min_x, old.min_y), (old.max_x, old.max_y), *map(tuple, xy.tolist())]
        )
        if self._base_config is not None:
            config = self._local_config(
                self._base_config, self.db.bounding_box, expanded
            )
        else:
            config = shard.config
        rebuilt = GATIndex.build(
            shard.db, config, disk=shard.disk, bounding_box=expanded
        )
        rebuilt.version = shard.version
        return rebuilt

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """A no-op: the fleet owns no external resource (its shards are
        plain in-process objects).  Kept so callers written against a
        fleet that held resources still run."""

    # ------------------------------------------------------------------
    # Aggregate accounting (fleet-wide views; per-shard detail stays on
    # each GATIndex)
    # ------------------------------------------------------------------
    def memory_cost_bytes(self) -> int:
        return sum(shard.memory_cost_bytes() for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "+".join(str(len(shard.db)) for shard in self.shards)
        return f"ShardedGATIndex({self.n_shards} shards [{sizes}], {self.router!r})"
