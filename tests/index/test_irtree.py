"""Unit tests for the IR-tree: the R-tree packed with per-point activity
sets, each node carrying its subtree's union (its inverted file)."""

import random

from repro.index.rtree import RTree


def _items(n, seed=0, n_acts=6):
    rng = random.Random(seed)
    items, activities = [], []
    for i in range(n):
        items.append((rng.uniform(0, 50), rng.uniform(0, 50), i))
        activities.append(frozenset(rng.sample(range(n_acts), rng.randint(0, 3))))
    return items, activities


def _nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend(node.children)


class TestInvertedFiles:
    def test_root_union_is_total_union(self):
        items, activities = _items(800, seed=1)
        tree = RTree.bulk_load(items, activities=activities)
        assert tree.root.activities == frozenset().union(*activities)

    def test_node_unions_cover_children(self):
        items, activities = _items(1200, seed=2)
        tree = RTree.bulk_load(items, activities=activities)
        for node in _nodes(tree):
            assert node.activities == frozenset().union(*(c.activities for c in node.children))

    def test_entries_carry_their_point_sets(self):
        items, activities = _items(480, seed=3)
        tree = RTree.bulk_load(items, activities=activities)
        entries = [e for node in _nodes(tree) if node.is_leaf for e in node.children]
        assert sorted((e.payload, e.activities) for e in entries) == sorted(
            (payload, acts) for (_x, _y, payload), acts in zip(items, activities)
        )

    def test_activities_do_not_change_the_packing(self):
        items, activities = _items(1025, seed=4)
        plain = RTree.bulk_load(items)
        inverted = RTree.bulk_load(items, activities=activities)
        shape = lambda tree: [  # noqa: E731
            (node.rect, [getattr(c, "payload", None) for c in node.children])
            for node in _nodes(tree)
        ]
        assert shape(plain) == shape(inverted)

    def test_tree_packed_without_activities_has_none_sets(self):
        items, _activities = _items(400, seed=5)
        tree = RTree.bulk_load(items)
        for node in _nodes(tree):
            assert node.activities is None
            if node.is_leaf:
                assert all(e.activities is None for e in node.children)

    def test_empty_tree(self):
        tree = RTree.bulk_load([], activities=[])
        assert tree.size == 0
        assert tree.root.activities is None
