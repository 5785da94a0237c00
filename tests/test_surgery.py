"""Tree surgery on the alive mask agrees with building the surviving tree anew.

Each step cuts two siblings from one tree, a leaf and a subtree, and checks
the parent and both siblings against ``RootedTree.from_parents`` over a
parent map kept separately, so state shared between the trees of one
recursion cannot leak from one sibling into another.
"""

import random

from conftest import classify_subtree
from multipacking.randgen import random_tree
from multipacking.rooted_tree import RootedTree, bfs_tree, deepest_vertices


def rebuilt(root, parent_of):
    return RootedTree.from_parents(root, parent_of) if parent_of is not None else RootedTree.empty()


def without_subtree(parent_of, u):
    """The parent map with u and its descendants removed."""
    gone = {u}
    for v in sorted(parent_of, key=lambda v: depth_in(parent_of, v)):
        if parent_of[v] in gone:
            gone.add(v)
    return {v: p for v, p in parent_of.items() if v not in gone}


def depth_in(parent_of, v):
    d = 0
    while v in parent_of:
        v, d = parent_of[v], d + 1
    return d


def assert_same(t, expected):
    assert t.n == expected.n
    assert t.height == expected.height
    assert t.root == expected.root
    assert t.vertices() == expected.vertices()
    assert deepest_vertices(t) == deepest_vertices(expected)
    assert t.parent == expected.parent
    for v in t.vertices():
        assert classify_subtree(t, v) == classify_subtree(expected, v)
        assert sorted(t.subtree_vertices(v)) == sorted(expected.subtree_vertices(v))
        assert t.is_leaf(v) == expected.is_leaf(v)


def test_surgery_equals_rebuilding():
    rng = random.Random(20)
    for case in range(200):
        n = rng.randint(1, 20)
        t = bfs_tree(random_tree(n, rng), rng.randrange(n))
        if case % 2:  # sparse ids: vertex v becomes 3v + 1
            t = RootedTree.from_parents(
                3 * t.root + 1, {3 * v + 1: 3 * p + 1 for v, p in t.parent.items() if p is not None}
            )
        root = t.root
        parent_of = {v: p for v, p in t.parent.items() if p is not None}
        while not t.is_empty():
            leaf = rng.choice([v for v in t.vertices() if t.is_leaf(v)])
            top = rng.choice(t.vertices())
            by_leaf, by_top = t.remove_leaf(leaf), t.remove_subtree(top)
            leaf_map = None if leaf == root else {v: p for v, p in parent_of.items() if v != leaf}
            top_map = None if top == root else without_subtree(parent_of, top)
            assert_same(t, rebuilt(root, parent_of))
            assert_same(by_leaf, rebuilt(root, leaf_map))
            assert_same(by_top, rebuilt(root, top_map))
            t, parent_of = rng.choice([(by_leaf, leaf_map), (by_top, top_map)])
