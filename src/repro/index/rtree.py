"""An R-tree over trajectory points, built from scratch (Section III-B).

The RT baseline "treat[s] the points of all trajectories as a point set and
index[es] these points using an R-tree" [Guttman 1984].  The tree is built
once, by :meth:`RTree.bulk_load` — Sort-Tile-Recursive (STR) packing, the
standard way to build a static R-tree over a known point set (the paper's
trees are also built once over a static database).

Leaf entries carry an opaque payload — the searchers store
``(trajectory_id, position)`` so a popped point immediately identifies its
trajectory.  Packed with a per-point activity column, the tree is the
IR-tree of Section III-C (after Cong et al., VLDB 2009): each entry keeps
its point's activity set and each node the union over its subtree — the
term set of the node's inverted file, which is all the IRT search asks of
it ("does this node contain any activity of the query?").
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from typing import Any, Callable, FrozenSet, List, Optional, Sequence, Tuple

import numpy as _np

from repro.geometry.primitives import Coord, Rect

#: Node fan-out ``M``: STR packs at most ``M`` children per node.
MAX_ENTRIES = 32

#: Below this fan-out the scalar loop beats NumPy's fixed call overhead;
#: a full node (32) sits comfortably above it, and only a tree's short
#: last nodes (or a tree of fewer points) fall below it.
MIN_BATCH = 8


class RTreeEntry:
    """A leaf entry: a point plus payload, and the point's activity set
    (``None`` in a tree packed without activities)."""

    __slots__ = ("x", "y", "payload", "activities")

    def __init__(
        self, x: float, y: float, payload: Any, activities: Optional[FrozenSet[int]] = None
    ) -> None:
        self.x = x
        self.y = y
        self.payload = payload
        self.activities = activities


class RTreeNode:
    """Internal or leaf node.  ``children`` holds nodes (internal) or
    :class:`RTreeEntry` objects (leaf); ``activities`` is the union of the
    children's sets (``None`` in a tree packed without activities)."""

    __slots__ = ("rect", "children", "is_leaf", "activities")

    def __init__(self, is_leaf: bool, children: Sequence[Any] = ()) -> None:
        self.children: List[Any] = list(children)
        self.is_leaf = is_leaf
        self.rect: Optional[Rect] = None
        self.activities: Optional[FrozenSet[int]] = None
        if not self.children:
            return
        if is_leaf:
            xs = [e.x for e in self.children]
            ys = [e.y for e in self.children]
            self.rect = Rect(min(xs), min(ys), max(xs), max(ys))
        else:
            self.rect = reduce(Rect.union, [child.rect for child in self.children])
        if self.children[0].activities is not None:
            self.activities = frozenset().union(*[c.activities for c in self.children])

    def min_dist(self, point: Coord) -> float:
        assert self.rect is not None
        return self.rect.min_dist(point)

    # ------------------------------------------------------------------
    # Batched candidate distances (the best-first searchers expand one
    # node at a time; computing all child keys in one NumPy call replaces
    # the per-child Python MINDIST loop)
    # ------------------------------------------------------------------
    def child_min_dists(self, point: Coord) -> List[float]:
        """MINDIST from *point* to every child rectangle, in child order.

        Batched via NumPy for nodes of at least :data:`MIN_BATCH`
        children; narrower nodes take the scalar :meth:`Rect.min_dist` (or
        ``math.hypot``) per child.  ``np.hypot`` can differ from
        ``math.hypot`` in the last ulp on a small fraction of inputs.
        The values returned here feed heap ordering and the RT baseline's
        Lemma-2 termination bound, so a 1-ulp overestimate could in
        principle terminate one pop early and miss a candidate whose true
        distance falls inside that sub-ulp window — the same (half-ulp)
        caveat the scalar rounding already carries, measure-zero on
        continuous coordinates, and bounded by the cross-method agreement
        suite's tolerances.  Final rankings always come from the shared
        evaluator's exact distances.
        """
        children = self.children
        if len(children) < MIN_BATCH:
            if self.is_leaf:
                x, y = point
                return [math.hypot(x - e.x, y - e.y) for e in children]
            return [child.rect.min_dist(point) for child in children]
        x, y = point
        if self.is_leaf:
            cx = _np.array([e.x for e in children])
            cy = _np.array([e.y for e in children])
            return _np.hypot(x - cx, y - cy).tolist()
        rects = [child.rect for child in children]
        min_x = _np.array([r.min_x for r in rects])
        min_y = _np.array([r.min_y for r in rects])
        max_x = _np.array([r.max_x for r in rects])
        max_y = _np.array([r.max_y for r in rects])
        # MINDIST per axis: distance to the rect's interval, zero inside
        # (the two one-sided gaps can never both be positive).
        dx = _np.maximum(_np.maximum(min_x - x, x - max_x), 0.0)
        dy = _np.maximum(_np.maximum(min_y - y, y - max_y), 0.0)
        return _np.hypot(dx, dy).tolist()


class RTree:
    """The tree proper: a root and a point count, with at most
    :data:`MAX_ENTRIES` children per node."""

    def __init__(self) -> None:
        self.root = RTreeNode(is_leaf=True)
        self.size = 0

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        items: Sequence[Tuple[float, float, Any]],
        activities: Optional[Sequence[FrozenSet[int]]] = None,
    ) -> "RTree":
        """Pack ``(x, y, payload)`` items into a balanced tree with STR.

        Sort by x, cut into vertical slabs of ~sqrt(P) leaves each, sort
        each slab by y, pack leaves; repeat one level up until a single
        root remains.  Both sorts are stable, so ties keep *items* order.

        *activities*, when given, is each item's activity set: the
        entries carry them and every node the union over its subtree
        (the IR-tree's inverted files).
        """
        tree = cls()
        if not items:
            return tree
        sets = repeat(None) if activities is None else activities
        entries = [RTreeEntry(x, y, payload, acts) for (x, y, payload), acts in zip(items, sets)]
        level = cls._str_pack(entries, lambda e: e.x, lambda e: e.y, is_leaf=True)
        while len(level) > 1:
            level = cls._str_pack(
                level,
                lambda n: n.rect.center[0],
                lambda n: n.rect.center[1],
                is_leaf=False,
            )
        tree.root = level[0]
        tree.size = len(entries)
        return tree

    @staticmethod
    def _str_pack(
        items: List[Any],
        key_x: Callable[[Any], float],
        key_y: Callable[[Any], float],
        is_leaf: bool,
    ) -> List[RTreeNode]:
        n_nodes = math.ceil(len(items) / MAX_ENTRIES)
        n_slabs = max(1, math.ceil(math.sqrt(n_nodes)))
        per_slab = math.ceil(len(items) / n_slabs)
        by_x = sorted(items, key=key_x)
        nodes: List[RTreeNode] = []
        for s in range(0, len(by_x), per_slab):
            slab = sorted(by_x[s : s + per_slab], key=key_y)
            for c in range(0, len(slab), MAX_ENTRIES):
                nodes.append(RTreeNode(is_leaf, slab[c : c + MAX_ENTRIES]))
        return nodes
