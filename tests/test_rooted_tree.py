import pytest

from conftest import classify_subtree, path, star, tree_catalog
from multipacking.rooted_tree import RootedTree, bfs_tree, deepest_vertices


def chain(n):
    return RootedTree.from_parents(0, {i: i - 1 for i in range(1, n)})


def spider(k1, k2):
    """H2(k1,k2) rooted at 0: legs 1..k1 with bottoms k1+1..2k1, leaves after."""
    parents = {}
    for i in range(1, k1 + 1):
        parents[i] = 0
        parents[k1 + i] = i
    for j in range(k2):
        parents[2 * k1 + 1 + j] = 0
    return RootedTree.from_parents(0, parents)


def test_empty_tree_conventions():
    e = RootedTree.empty()
    assert e.is_empty() and e.n == 0 and e.height == -1
    assert deepest_vertices(e) == []


def test_deepest_vertices_examples():
    assert deepest_vertices(chain(3)) == [2]
    s = bfs_tree(star(4), 0)
    assert deepest_vertices(s) == [1, 2, 3, 4]
    assert deepest_vertices(chain(1)) == [0]


def test_remove_subtree_examples():
    t = chain(3)
    assert sorted(t.remove_subtree(1).parent) == [0]
    assert t.remove_subtree(0).is_empty()
    sp = spider(2, 1)
    smaller = sp.remove_subtree(1)  # drop one full leg
    assert classify_subtree(smaller, 0) == classify_subtree(spider(1, 1), 0)
    with pytest.raises(ValueError):
        t.remove_subtree(9)


def test_remove_leaf_examples():
    t = chain(3)
    assert sorted(t.remove_leaf(2).parent) == [0, 1]
    s = bfs_tree(star(3), 0)
    assert s.remove_leaf(3).n == 3
    assert chain(1).remove_leaf(0).is_empty()
    with pytest.raises(ValueError):
        t.remove_leaf(0)  # has a child


def test_classify_subtree_examples():
    s = bfs_tree(star(3), 0)
    assert classify_subtree(s, 0).kind == "H1"
    assert classify_subtree(s, 0).k == 3
    t = chain(3)
    shape = classify_subtree(t, 0)
    assert (shape.kind, shape.k1, shape.k2) == ("H2", 1, 0)
    sp = spider(2, 1)
    shape = classify_subtree(sp, 0)
    assert (shape.kind, shape.k1, shape.k2) == ("H2", 2, 1)
    # leaf is a degenerate star
    assert classify_subtree(t, 2) == classify_subtree(chain(1), 0)


def all_rooted_trees(n_max):
    for g in tree_catalog(n_max):
        for root in range(g.n):
            yield bfs_tree(g, root)


def test_deepest_parent_is_star_in_height_ge_2():
    for t in all_rooted_trees(9):
        if t.height < 2:
            continue
        for w in deepest_vertices(t):
            shape = classify_subtree(t, t.parent[w])
            assert shape.kind == "H1" and shape.k >= 1


def test_branch_completeness_exhaustive():
    """When neither in/out branching rule applies, every deepest vertex's
    grandparent subtree is a spider with at least one full leg."""
    for t in all_rooted_trees(9):
        if t.height < 2:
            continue
        deep = deepest_vertices(t)
        if any(
            classify_subtree(t, t.parent[w]).k >= 2
            and classify_subtree(t, t.parent[w]).kind == "H1"
            for w in deep
        ):
            continue
        if any(
            classify_subtree(t, t.parent[t.parent[w]])
            == classify_subtree(chain(3), 0)
            for w in deep
        ):
            continue
        for w in deep:
            shape = classify_subtree(t, t.parent[t.parent[w]])
            assert shape.kind == "H2" and shape.k1 >= 1
