"""GATIndex — assembly of the four GAT components over one database.

Defaults follow the paper's experimental settings (Section VII-A): grid
depth ``d = 8`` (256 x 256 leaf cells), levels 1-6 in main memory with
levels 7-8 on disk, and a small number of TAS intervals (the paper leaves
``M`` to the memory budget; we default to 2, matching the Figure 2 example
where every sketch has two intervals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry.grid import HierarchicalGrid
from repro.index.gat.apl import APLStore
from repro.index.gat.hicl import HICL
from repro.index.gat.itl import ITL
from repro.index.gat.tas import SketchTable, sketch_memory_bytes
from repro.model.database import TrajectoryDatabase
from repro.storage.disk import SimulatedDisk

#: Deepest grid whose ITL keys fit ``int64``.
MAX_DEPTH = 15


@dataclass(frozen=True, slots=True)
class GATConfig:
    """Build-time knobs of the GAT index."""

    depth: int = 8
    memory_levels: int = 6
    sketch_intervals: int = 2

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("grid depth must be >= 1")
        if self.depth > MAX_DEPTH:
            raise ValueError(
                f"grid depth must be <= {MAX_DEPTH}: an ITL key (leaf code << 32 | "
                "activity) is an int64, and a depth-16 leaf code << 32 overflows it"
            )
        if not 0 <= self.memory_levels <= self.depth:
            raise ValueError("memory_levels must be within [0, depth]")
        if self.sketch_intervals < 1:
            raise ValueError("sketch_intervals must be >= 1")


class GATIndex:
    """The hybrid grid index: grid + HICL + ITL + TAS + APL."""

    def __init__(
        self,
        db: TrajectoryDatabase,
        grid: HierarchicalGrid,
        hicl: HICL,
        itl: ITL,
        sketches: SketchTable,
        apl: APLStore,
        config: GATConfig,
        disk: SimulatedDisk,
    ) -> None:
        self.db = db
        self.grid = grid
        self.hicl = hicl
        self.itl = itl
        self.sketches = sketches
        self.apl = apl
        self.config = config
        self.disk = disk
        #: Monotone mutation counter — bumped by every
        #: :meth:`insert_trajectory` so result caches keyed on query
        #: signatures (:class:`repro.service.QueryService`) can detect
        #: that their entries may be stale and drop them.
        self.version = 0

    @classmethod
    def build(
        cls,
        db: TrajectoryDatabase,
        config: Optional[GATConfig] = None,
        disk: Optional[SimulatedDisk] = None,
        bounding_box=None,
    ) -> "GATIndex":
        """Build all four components over *db*.

        A fresh :class:`SimulatedDisk` is created unless one is supplied
        (sharing a disk lets experiments aggregate I/O across components).
        Build-time writes are excluded from the returned disk's counters so
        query-time statistics start clean.

        *bounding_box* overrides the grid universe (default: the database's
        own padded box).  A sharded deployment passes the *global* box so
        every shard grid covers the same universe: inserts then route to any
        shard regardless of where the shard's initial trajectories happened
        to lie, and MINDIST lower bounds stay sound for points anywhere in
        the full dataset.  The box must cover every point of *db*.
        """
        if config is None:
            config = GATConfig()
        if disk is None:  # explicit: an empty SimulatedDisk is falsy (len 0)
            disk = SimulatedDisk()
        grid = HierarchicalGrid(
            db.bounding_box if bounding_box is None else bounding_box, config.depth
        )
        apl = APLStore.build(db, disk)
        codes, activities, starts, rows = apl.image.leaf_lists(grid.leaf_level)
        hicl = HICL.build(codes, activities, grid, config.memory_levels, disk)
        itl = ITL.build(codes, activities, starts, rows)
        sketches = SketchTable(apl, config.sketch_intervals)
        disk.reset_stats()
        return cls(db, grid, hicl, itl, sketches, apl, config, disk)

    # ------------------------------------------------------------------
    # Dynamic maintenance (extension; the paper builds statically)
    # ------------------------------------------------------------------
    def insert_trajectory(self, trajectory) -> None:
        """Insert one new trajectory into the database and all four index
        components.

        Requires exclusive access: the mutators update plain dicts, so
        inserts must not run concurrently with queries (quiesce any
        :class:`~repro.service.QueryService` around maintenance).

        Constraint: the trajectory's points must lie inside the grid's
        bounding box (built from the original database).  Points outside
        would be clamped into edge cells whose MINDIST can exceed the true
        point distance, breaking the lower bound's soundness — rebuild the
        index instead when the spatial universe grows.
        """
        box = self.grid.box
        for p in trajectory:
            if not (box.min_x <= p.x <= box.max_x and box.min_y <= p.y <= box.max_y):
                raise ValueError(
                    f"point {p.coord} outside the index bounding box; rebuild required"
                )
        self.db.add(trajectory)  # validates ID freshness first
        row = len(self.apl)  # the row the store gives it below
        leaf = self.grid.leaf_level
        postings = []
        for point in trajectory:
            if not point.activities:
                continue
            code = leaf.locate(point.coord)
            self.hicl.add_point(code, point.activities)
            postings += [(code, activity) for activity in point.activities]
        self.itl.add_row(postings, row)
        self.apl.store(trajectory)  # the next row of the store …
        self.sketches.extend()  # … and of the sketch table over it
        self.version += 1

    # ------------------------------------------------------------------
    # Sizing (Figure 8's memory-cost series)
    # ------------------------------------------------------------------
    def memory_cost_bytes(self) -> int:
        """In-memory footprint: memory-resident HICL levels + ITL + TAS."""
        return (
            self.hicl.memory_cost_bytes()
            + self.itl.memory_cost_bytes()
            + sketch_memory_bytes(len(self.db), self.config.sketch_intervals)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GATIndex(d={self.config.depth}, mem_levels={self.config.memory_levels}, "
            f"M={self.config.sketch_intervals}, trajectories={len(self.db)})"
        )
