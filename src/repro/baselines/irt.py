"""IRT — the IR-tree baseline (Section III-C).

The RT search with one extra pruning rule: "before probing the entries in
a node of IR-tree, we first check its inverted file to see if it contains
any activity of the query.  If not, all the places enclosed in this node
can be pruned directly."  The tree is RT's, packed with each point's
activity set (so each node carries its subtree's union — the term set of
its inverted file), and every nearest-point stream carries ``Q.Φ``.

The per-query-point stream therefore only surfaces points that carry at
least one *whole-query* activity.  The sum of stream tops still
lower-bounds ``Dmm`` of unseen trajectories: a minimum point match only
ever uses points with at least one query activity, and every such point of
an unseen trajectory is still in some unexplored, unpruned subtree.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.baselines.rt import RTreeSearch, point_items
from repro.core.query import Query
from repro.index.rtree import RTree
from repro.model.trajectory import TrajectoryColumns


def point_activities(columns: TrajectoryColumns) -> List[FrozenSet[int]]:
    """Every point's activity set, in row and position order."""
    activities = columns.activities.tolist()
    bounds = columns.activity_offsets.tolist()
    return [frozenset(activities[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


class IRTreeSearch(RTreeSearch):
    """ATSQ/OATSQ over the IR-tree with whole-query activity pruning."""

    @staticmethod
    def _pack(columns: TrajectoryColumns) -> RTree:
        """The tree over every point of *columns*, with its inverted files."""
        return RTree.bulk_load(point_items(columns), activities=point_activities(columns))

    def _stream_activities(self, query: Query) -> FrozenSet[int]:
        # The paper prunes with "any activity of the query" — the union
        # over all query points — not per-query-point activity sets.
        return query.all_activities
