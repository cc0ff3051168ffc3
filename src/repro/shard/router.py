"""ShardRouter — trajectory-id partitioning for the sharded GAT index.

Sharding is by *trajectory*: every trajectory lives wholly inside exactly
one shard, so a shard's top-k over its own trajectories is exact, and
merging per-shard ranked lists reproduces the unsharded ranking
byte-for-byte (distances are functions of (query, trajectory) alone).
Partitioning the *grid* instead would split one trajectory's points
across shards and turn per-shard scores into partial sums — every merge
would need a cross-shard repair pass.

A router is an optional id→shard directory; any id the directory does
not hold routes to ``trajectory_id mod n_shards``.  Two strategies
choose the directory:

* ``hash`` — no directory.  Stateless, uniform for the dense sequential
  ids our generators produce, and inserts route without consulting
  anything.
* ``spatial`` — trajectories sorted by the Morton code of their centroid
  and cut into ``n_shards`` equal-cardinality chunks, recorded as the
  directory.  Spatially-close trajectories land on the same shard, so
  each shard's data occupies a compact region: combined with shard-local
  grids (``ShardedGATIndex.build(shard_box='local')``) a query's
  best-first expansion does real work only on the shards whose region it
  touches, instead of every shard re-traversing the same cells at
  ``1/n_shards`` density.  Ids inserted later are not in the directory
  and route by ``mod`` — the sharded index's insert-overflow handling
  rebuilds the target shard's grid when the newcomer lies outside its
  local box.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

STRATEGIES = ("hash", "spatial")


class ShardRouter:
    """Maps a trajectory id to the shard that owns it.

    A router with a directory is ``spatial`` and is built through
    :meth:`for_database`; one without is ``hash``.
    """

    __slots__ = ("n_shards", "_assignments")

    def __init__(self, n_shards: int, assignments: Optional[Dict[int, int]] = None) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        bad = [s for s in (assignments or {}).values() if not 0 <= s < n_shards]
        if bad:
            raise ValueError(f"assignments reference unknown shards: {bad[:3]}")
        self.n_shards = n_shards
        self._assignments: Dict[int, int] = dict(assignments or {})

    @classmethod
    def for_database(cls, db, n_shards: int, strategy: str = "hash") -> "ShardRouter":
        """A router over *db*'s current trajectory ids.

        ``spatial`` sorts trajectories by the Morton code of their centroid
        on a ``1024 x 1024`` grid over the database bounding box and cuts
        the order into ``n_shards`` equal-cardinality chunks — balanced
        shard sizes with spatially compact shard regions.  Centroid ties
        (and everything else) break by trajectory id, so the directory is
        deterministic.  ``hash`` needs nothing from *db*.
        """
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if strategy == "hash":
            return cls(n_shards)
        if len(db) < n_shards:
            raise ValueError(
                f"spatial routing needs at least one trajectory per shard "
                f"({len(db)} trajectories for {n_shards} shards)"
            )
        from repro.geometry.grid import GridLevel

        leaf = GridLevel(db.bounding_box, 10)
        columns = db.columns
        xs, ys = columns.xy.T.tolist()
        bounds = columns.point_offsets.tolist()
        keyed = sorted(
            (
                leaf.locate(
                    (sum(xs[lo:hi]) / (hi - lo), sum(ys[lo:hi]) / (hi - lo))
                ),
                tid,
            )
            for tid, lo, hi in zip(columns.ids.tolist(), bounds, bounds[1:])
        )
        n = len(keyed)
        assignments = {
            tid: min(n_shards - 1, (i * n_shards) // n)
            for i, (_code, tid) in enumerate(keyed)
        }
        return cls(n_shards, assignments)

    def shard_of(self, trajectory_id: int) -> int:
        """The shard owning *trajectory_id*: its directory entry, else
        ``trajectory_id mod n_shards`` (total: every id routes, so freshly
        inserted trajectories always have a home)."""
        shard = self._assignments.get(trajectory_id)
        return shard if shard is not None else trajectory_id % self.n_shards

    def partition(self, trajectory_ids: Iterable[int]) -> List[List[int]]:
        """Split ids into per-shard lists (input order preserved per shard)."""
        parts: List[List[int]] = [[] for _ in range(self.n_shards)]
        for tid in trajectory_ids:
            parts[self.shard_of(tid)].append(tid)
        return parts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        strategy = "spatial" if self._assignments else "hash"
        return f"ShardRouter(n_shards={self.n_shards}, strategy={strategy!r})"
