"""RT — the R-tree baseline (Section III-B), adapting the k-BCT search of
Chen et al. (SIGMOD 2010) to activity trajectories.

All trajectory points go into one R-tree.  For each query point an
incremental best-first stream retrieves ever-farther points; every
retrieved point surfaces its trajectory as a candidate, which is scored
with the full minimum (order-sensitive) match distance if it matches the
query activities.  The best match distance ``Dbm`` — the sum over query
points of the distance to the *nearest unretrieved point* — lower-bounds
``Dmm`` (Lemma 2) and, via Lemma 3, ``Dmom``; the search stops when the
running k-th best distance beats it.

Spatial-only pruning: activity information plays no part in retrieval, so
the paper finds RT insensitive to ``|q.Φ|`` and increasingly ineffective on
datasets whose nearest points rarely match the activities.
"""

from __future__ import annotations

import heapq
import itertools
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.baselines.base import Searcher
from repro.core.match import INFINITY
from repro.core.query import Query
from repro.core.results import SearchResult, TopKCollector
from repro.index.rtree import RTree, RTreeEntry, RTreeNode
from repro.model.database import TrajectoryDatabase
from repro.model.distance import DistanceMetric
from repro.model.trajectory import TrajectoryColumns


def point_items(columns: TrajectoryColumns) -> List[Tuple[float, float, Tuple[int, int]]]:
    """Every point of *columns* as ``(x, y, (trajectory id, position))``,
    in row and position order."""
    offsets = columns.point_offsets
    counts = np.diff(offsets)
    ids = np.repeat(columns.ids, counts).tolist()
    positions = (np.arange(len(columns.xy)) - np.repeat(offsets[:-1], counts)).tolist()
    return [(x, y, (tid, pos)) for (x, y), tid, pos in zip(columns.xy.tolist(), ids, positions)]


class _NearestStream:
    """Incremental nearest-point iterator over an R-tree for one query
    point (the classic best-first MINDIST traversal).

    Given *activities* (IRT), the stream queues a node or point only when
    its activity set meets them — the IR-tree's inverted-file check — so
    it surfaces only points carrying one of *activities*.
    """

    __slots__ = ("coord", "activities", "heap", "_tick", "stats")

    def __init__(
        self,
        tree: RTree,
        coord: Tuple[float, float],
        stats,
        activities: Optional[FrozenSet[int]] = None,
    ) -> None:
        self.coord = coord
        self.activities = activities
        self.heap: List[Tuple[float, int, object]] = []
        self._tick = itertools.count()
        self.stats = stats
        root = tree.root
        if tree.size and (activities is None or not activities.isdisjoint(root.activities)):
            heapq.heappush(self.heap, (root.min_dist(coord), next(self._tick), root))

    def top_distance(self) -> float:
        """Lower bound on the distance of every not-yet-returned point."""
        return self.heap[0][0] if self.heap else INFINITY

    def pop_point(self) -> Optional[Tuple[float, RTreeEntry]]:
        """Return the next nearest point entry, or None when exhausted.

        Expanding a node computes every child's key in one batched NumPy
        call (:meth:`RTreeNode.child_min_dists`) — point distances for
        leaves, MINDIST for internal nodes — instead of one Python metric
        call per child.
        """
        activities = self.activities
        while self.heap:
            dist, _tick, item = heapq.heappop(self.heap)
            if isinstance(item, RTreeEntry):
                self.stats.points_popped += 1
                return dist, item
            node: RTreeNode = item
            self.stats.nodes_accessed += 1
            for d, child in zip(node.child_min_dists(self.coord), node.children):
                if activities is None or not activities.isdisjoint(child.activities):
                    heapq.heappush(self.heap, (d, next(self._tick), child))
        return None


class RTreeSearch(Searcher):
    """ATSQ/OATSQ via incremental spatial retrieval (k-BCT style)."""

    def __init__(self, db: TrajectoryDatabase, metric: Optional[DistanceMetric] = None) -> None:
        super().__init__(db, metric)
        self.tree = self._pack(db.columns)

    @staticmethod
    def _pack(columns: TrajectoryColumns) -> RTree:
        """The tree over every point of *columns*."""
        return RTree.bulk_load(point_items(columns))

    def _stream_activities(self, query: Query) -> Optional[FrozenSet[int]]:
        """The activities a stream's nodes and points must meet: RT
        retrieves by space alone."""
        return None

    def _search(self, query: Query, k: int, order_sensitive: bool) -> List[SearchResult]:
        activities = self._stream_activities(query)
        streams = [_NearestStream(self.tree, q.coord, self.stats, activities) for q in query]
        results = TopKCollector(k)
        seen: set[int] = set()

        while True:
            # Advance the stream whose next point is globally nearest: this
            # grows the Dbm lower bound as slowly as possible, maximising
            # the chance of early termination.
            best_idx = -1
            best_top = INFINITY
            for idx, stream in enumerate(streams):
                top = stream.top_distance()
                if top < best_top:
                    best_top = top
                    best_idx = idx
            if best_idx < 0:
                break  # every stream exhausted: all points seen
            popped = streams[best_idx].pop_point()
            if popped is None:
                continue
            tid, _pos = popped[1].payload
            if tid not in seen:
                seen.add(tid)
                self.stats.candidates_retrieved += 1
                distance = self.score_candidate(
                    query, tid, order_sensitive, results.kth_distance()
                )
                if distance != INFINITY:
                    results.offer(SearchResult(tid, distance))
            lower = sum(s.top_distance() for s in streams)
            if results.kth_distance() < lower:
                break  # Lemma 2 (and Lemma 3 for OATSQ): unseen can't win
        return results.results()
