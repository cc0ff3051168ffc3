"""An R-tree over trajectory points, built from scratch (Section III-B).

The RT baseline "treat[s] the points of all trajectories as a point set and
index[es] these points using an R-tree" [Guttman 1984].  The tree is built
once, by :meth:`RTree.bulk_load` — Sort-Tile-Recursive (STR) packing, the
standard way to build a static R-tree over a known point set (the paper's
trees are also built once over a static database).

Leaf entries carry an opaque payload — the searchers store
``(trajectory_id, position)`` so a popped point immediately identifies its
trajectory.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as _np

from repro.geometry.primitives import Coord, Rect

DEFAULT_MAX_ENTRIES = 32

#: Below this fan-out the scalar loop beats NumPy's fixed call overhead;
#: the default node size (32) sits comfortably above it.
MIN_BATCH = 8


class RTreeEntry:
    """A leaf entry: a point (degenerate rectangle) plus payload."""

    __slots__ = ("x", "y", "payload")

    def __init__(self, x: float, y: float, payload: Any) -> None:
        self.x = x
        self.y = y
        self.payload = payload

    def rect(self) -> Rect:
        return Rect(self.x, self.y, self.x, self.y)


class RTreeNode:
    """Internal or leaf node.  ``children`` holds nodes (internal) or
    :class:`RTreeEntry` objects (leaf)."""

    __slots__ = ("rect", "children", "is_leaf", "activities")

    def __init__(self, is_leaf: bool) -> None:
        self.rect: Optional[Rect] = None
        self.children: List[Any] = []
        self.is_leaf = is_leaf
        # Used by the IR-tree subclass/annotator; None for a plain R-tree.
        self.activities: Optional[frozenset] = None

    def recompute_rect(self) -> None:
        rects = [
            child.rect() if isinstance(child, RTreeEntry) else child.rect
            for child in self.children
        ]
        rect = rects[0]
        for r in rects[1:]:
            rect = rect.union(r)
        self.rect = rect

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

        Batched via NumPy when available and worthwhile; otherwise the
        scalar :meth:`Rect.min_dist` per child.  ``np.hypot`` can differ
        from ``math.hypot`` in the last ulp on a small fraction of inputs.
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
    """The tree proper.

    Parameters
    ----------
    max_entries:
        Node fan-out ``M``: STR packs at most ``M`` children per node.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        self.max_entries = max_entries
        self.root = RTreeNode(is_leaf=True)
        self.size = 0

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        items: Sequence[Tuple[float, float, Any]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "RTree":
        """Pack ``(x, y, payload)`` items into a balanced tree with STR.

        Sort by x, cut into vertical slabs of ~sqrt(P) leaves each, sort
        each slab by y, pack leaves; repeat one level up until a single
        root remains.
        """
        tree = cls(max_entries=max_entries)
        if not items:
            return tree
        entries = [RTreeEntry(x, y, payload) for x, y, payload in items]
        leaves = cls._str_pack(
            entries,
            max_entries,
            key_x=lambda e: e.x,
            key_y=lambda e: e.y,
            make_node=lambda chunk: cls._make_leaf(chunk),
        )
        level = leaves
        while len(level) > 1:
            level = cls._str_pack(
                level,
                max_entries,
                key_x=lambda n: n.rect.center[0],
                key_y=lambda n: n.rect.center[1],
                make_node=lambda chunk: cls._make_internal(chunk),
            )
        tree.root = level[0]
        tree.size = len(entries)
        return tree

    @staticmethod
    def _make_leaf(entries: List[RTreeEntry]) -> RTreeNode:
        node = RTreeNode(is_leaf=True)
        node.children = list(entries)
        node.recompute_rect()
        return node

    @staticmethod
    def _make_internal(children: List[RTreeNode]) -> RTreeNode:
        node = RTreeNode(is_leaf=False)
        node.children = list(children)
        node.recompute_rect()
        return node

    @staticmethod
    def _str_pack(
        items: List[Any],
        max_entries: int,
        key_x: Callable[[Any], float],
        key_y: Callable[[Any], float],
        make_node: Callable[[List[Any]], RTreeNode],
    ) -> List[RTreeNode]:
        n_nodes = math.ceil(len(items) / max_entries)
        n_slabs = max(1, math.ceil(math.sqrt(n_nodes)))
        per_slab = math.ceil(len(items) / n_slabs)
        by_x = sorted(items, key=key_x)
        nodes: List[RTreeNode] = []
        for s in range(0, len(by_x), per_slab):
            slab = sorted(by_x[s : s + per_slab], key=key_y)
            for c in range(0, len(slab), max_entries):
                nodes.append(make_node(slab[c : c + max_entries]))
        return nodes
