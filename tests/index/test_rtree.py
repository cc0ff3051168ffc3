"""Unit tests for the from-scratch (STR bulk-loaded) R-tree."""

import math
import random

import pytest

from repro.index.rtree import RTree

from rect_oracle import contains_point, contains_rect


def _points(n, seed=0, extent=100.0):
    rng = random.Random(seed)
    return [(rng.uniform(0, extent), rng.uniform(0, extent), i) for i in range(n)]


def _entries(tree):
    stack, out = [tree.root], []
    while stack:
        node = stack.pop()
        if node.is_leaf:
            out.extend(node.children)
        else:
            stack.extend(node.children)
    return out


def _height(tree):
    h, node = 1, tree.root
    while not node.is_leaf:
        node, h = node.children[0], h + 1
    return h


def _node_count(tree):
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend(node.children)
    return count


def _check_invariants(tree):
    """Every node's rect covers its children; leaves hold entries only."""

    def walk(node):
        assert node.rect is not None, "node without rect"
        for child in node.children:
            if node.is_leaf:
                assert contains_point(node.rect, (child.x, child.y))
            else:
                assert contains_rect(node.rect, child.rect)
                walk(child)

    if tree.size:
        walk(tree.root)


class TestBulkLoad:
    def test_empty(self):
        tree = RTree.bulk_load([])
        assert tree.size == 0
        assert _entries(tree) == []

    def test_single_point(self):
        tree = RTree.bulk_load([(5.0, 5.0, "p")])
        assert tree.size == 1
        assert [e.payload for e in _entries(tree)] == ["p"]

    def test_all_entries_present(self):
        pts = _points(500)
        tree = RTree.bulk_load(pts, max_entries=16)
        assert tree.size == 500
        assert sorted(e.payload for e in _entries(tree)) == list(range(500))

    def test_invariants(self):
        tree = RTree.bulk_load(_points(300, seed=3), max_entries=8)
        _check_invariants(tree)

    def test_balanced_height(self):
        tree = RTree.bulk_load(_points(1000, seed=1), max_entries=16)
        # STR packs tightly: height ~ ceil(log16(1000/16)) + 1.
        assert _height(tree) <= 4

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)


class TestNodeGeometry:
    def test_min_dist_zero_inside_root(self):
        tree = RTree.bulk_load(_points(50, seed=9))
        assert tree.root.min_dist((50.0, 50.0)) == 0.0

    def test_min_dist_monotone_down_the_tree(self):
        """MINDIST of a child is >= MINDIST of its parent: required for
        best-first search correctness."""
        tree = RTree.bulk_load(_points(400, seed=10), max_entries=8)
        q = (-10.0, -10.0)

        def walk(node):
            if node.is_leaf:
                for e in node.children:
                    d = math.hypot(q[0] - e.x, q[1] - e.y)
                    assert d >= node.min_dist(q) - 1e-9
            else:
                for child in node.children:
                    assert child.min_dist(q) >= node.min_dist(q) - 1e-9
                    walk(child)

        walk(tree.root)

    def test_node_count_reasonable(self):
        tree = RTree.bulk_load(_points(256, seed=11), max_entries=16)
        # At least ceil(256/16) leaves plus internal nodes, far fewer than entries.
        assert 17 <= _node_count(tree) <= 64

    def test_child_min_dists_match_scalar(self):
        """The batched NumPy candidate distances agree with the per-child
        scalar computation on every node, leaf and internal, for query
        points inside, outside, and axis-aligned with the rects."""
        tree = RTree.bulk_load(_points(400, seed=12), max_entries=16)
        rng = random.Random(13)
        queries = [(rng.uniform(-120, 220), rng.uniform(-120, 220)) for _ in range(6)]
        # Axis-aligned with a node edge: exercises the dx==0 / dy==0 exact
        # branches of the scalar MINDIST.
        queries.append((tree.root.rect.min_x, -50.0))
        queries.append((250.0, tree.root.rect.max_y))

        def walk(node):
            for q in queries:
                got = node.child_min_dists(q)
                if node.is_leaf:
                    want = [math.hypot(q[0] - e.x, q[1] - e.y) for e in node.children]
                else:
                    want = [child.rect.min_dist(q) for child in node.children]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            if not node.is_leaf:
                for child in node.children:
                    walk(child)

        walk(tree.root)


def _leaf_depths(tree):
    depths, stack = set(), [(tree.root, 1)]
    while stack:
        node, d = stack.pop()
        if node.is_leaf:
            depths.add(d)
        else:
            stack.extend((child, d + 1) for child in node.children)
    return depths


class TestSTRPacking:
    @pytest.mark.parametrize(
        "n, max_entries",
        [(1, 2), (7, 2), (33, 4), (100, 8), (257, 16), (1000, 32)],
    )
    def test_packed_tree_is_complete_balanced_and_bounded(self, n, max_entries):
        tree = RTree.bulk_load(_points(n, seed=n), max_entries=max_entries)
        assert tree.size == n
        assert sorted(e.payload for e in _entries(tree)) == list(range(n))
        _check_invariants(tree)
        # STR packs level by level, so every leaf sits at the same depth.
        assert len(_leaf_depths(tree)) == 1
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert 1 <= len(node.children) <= max_entries
            if not node.is_leaf:
                stack.extend(node.children)

    def test_duplicate_coordinates_kept_apart(self):
        tree = RTree.bulk_load([(1.0, 1.0, i) for i in range(20)], max_entries=4)
        assert sorted(e.payload for e in _entries(tree)) == list(range(20))
        assert tree.root.rect.width == tree.root.rect.height == 0.0

    def test_root_rect_is_tight_over_points(self):
        pts = _points(200, seed=21)
        tree = RTree.bulk_load(pts, max_entries=8)
        r = tree.root.rect
        assert r.min_x == min(x for x, _, _ in pts)
        assert r.max_x == max(x for x, _, _ in pts)
        assert r.min_y == min(y for _, y, _ in pts)
        assert r.max_y == max(y for _, y, _ in pts)


class TestScalarChildMinDists:
    @pytest.mark.parametrize("max_entries", [2, 4, 7])
    def test_below_batch_threshold_uses_exact_scalar_distances(self, max_entries):
        """Nodes narrower than the NumPy batch threshold take the scalar
        path, which must equal ``math.hypot`` / ``Rect.min_dist`` exactly."""
        tree = RTree.bulk_load(_points(60, seed=max_entries), max_entries=max_entries)
        q = (130.0, -7.5)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            got = node.child_min_dists(q)
            if node.is_leaf:
                assert got == [math.hypot(q[0] - e.x, q[1] - e.y) for e in node.children]
            else:
                assert got == [c.rect.min_dist(q) for c in node.children]
                stack.extend(node.children)
