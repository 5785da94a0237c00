import random

import networkx as nx
import pytest

from conftest import complete, cycle, path
from multipacking.graph import (
    Graph,
    all_pairs,
    ball_rows,
    bfs_distances,
    biconnected_blocks,
    connected_components,
    induced_subgraph,
    is_connected,
    members,
)
from multipacking.randgen import random_connected_graph
from multipacking.rooted_tree import bfs_tree


def test_canonical_form_and_validation():
    g = Graph.from_edges(3, [(2, 0), (1, 2)])
    assert g.adj == ((2,), (2,), (0, 1))
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_equal_rows_are_shared_and_the_table_stays_bounded(monkeypatch):
    import multipacking.graph as graph_module

    a = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    b = Graph.from_edges(4, [(3, 0), (3, 1), (3, 2)])
    assert a == b
    assert a.adj is b.adj
    assert all(ra is rb for ra, rb in zip(a.adj, b.adj))
    assert a.adj[0] is a.adj[1] is a.adj[2]

    monkeypatch.setattr(graph_module, "_SHARED_ROWS", {})
    monkeypatch.setattr(graph_module, "_SHARED_ROWS_MAX", 8)
    rng = random.Random(5)
    for _ in range(50):
        g = random_connected_graph(6, rng, 0.4)
        assert len(graph_module._SHARED_ROWS) <= 8
        assert Graph.from_edges(g.n, g.edges()) == g
    big = Graph.from_edges(9, [(i, i + 1) for i in range(8)])
    assert big == Graph(9, ((1,), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8), (7,)))
    assert len(graph_module._SHARED_ROWS) <= 8


def test_bfs_distances_examples():
    assert bfs_distances(path(4), 0) == [0, 1, 2, 3]
    assert bfs_distances(complete(3), 1) == [1, 0, 1]
    g = Graph.from_edges(2, [])
    assert bfs_distances(g, 0) == [0, g.n]
    with pytest.raises(ValueError):
        bfs_distances(path(3), 5)


def test_all_pairs_examples():
    assert all_pairs(path(4))[0][3] == 3
    assert all_pairs(cycle(4))[0][2] == 2
    assert all_pairs(Graph.from_edges(1, [])) == ((0,),)


def test_ball_examples():
    rows = ball_rows(path(4))
    assert members(rows[1][1]) == [0, 1, 2]
    assert members(rows[2][0]) == [2]
    assert members(ball_rows(cycle(4))[0][2]) == [0, 1, 2, 3]


def test_ball_monotone_and_radius_cover():
    rng = random.Random(5)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 10), rng)
        D = all_pairs(g)
        rad = min(map(max, D))
        rows = ball_rows(g)
        center = min(range(g.n), key=lambda v: max(D[v]))
        assert rows[center][rad] == (1 << g.n) - 1
        for row in rows:
            assert len(row) > rad
            for inner, outer in zip(row, row[1:]):
                assert inner & outer == inner != outer


def test_ball_rows_match_all_pairs():
    """rows[v][r] is {u : d(v, u) <= r} for r up to v's eccentricity within its
    component, and the last row entry is that component, on every atlas graph
    (n <= 7), on random graphs (a quarter or more disconnected) and on the
    empty, one-vertex and edgeless graphs."""
    graphs = [Graph.from_edges(n, []) for n in (0, 1, 5)]
    graphs += [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()]
    rng = random.Random(83)
    randoms = []
    for _ in range(120):
        n = rng.randint(2, 16)
        p = rng.choice((0.08, 0.2, 0.5))
        randoms.append(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    assert sum(not is_connected(g) for g in randoms) >= len(randoms) // 4
    for g in graphs + randoms:
        D = all_pairs(g)
        rows = ball_rows(g)
        assert len(rows) == g.n
        for comp in connected_components(g):
            for v in comp:
                row, dist = rows[v], D[v]
                assert len(row) - 1 == max(d for d in dist if d < g.n), g.adj
                assert row[-1] == sum(1 << u for u in comp), g.adj
                for r, mask in enumerate(row):
                    assert mask == sum(1 << u for u, d in enumerate(dist) if d <= r), g.adj


def _clique_with_path(a, b):
    """K_a with a path of b further vertices hung off vertex a - 1."""
    clique = [(u, v) for u in range(a) for v in range(u + 1, a)]
    return Graph.from_edges(a + b, clique + [(v, v + 1) for v in range(a - 1, a + b - 1)])


@pytest.mark.parametrize(
    "g",
    [_clique_with_path(a, b) for a, b in ((3, 1), (20, 40), (60, 60), (100, 100), (180, 20), (10, 190))]
    + [Graph.from_edges(h.number_of_nodes(), list(h.edges()))
       for h in (nx.barbell_graph(5, 2), nx.barbell_graph(30, 40), nx.barbell_graph(90, 20), nx.barbell_graph(8, 184))],
    ids=lambda g: f"n{g.n}-m{g.num_edges()}",
)
def test_ball_rows_match_all_pairs_on_dense_and_long_graphs(g):
    """Dense blocks joined by long paths, up to n = 200: wide BFS layers in
    the clique, one-vertex layers along the path."""
    rows = ball_rows(g)
    for v, dist in enumerate(all_pairs(g)):
        layers = [0] * (max(dist) + 1)
        for u, d in enumerate(dist):
            layers[d] |= 1 << u
        expected, ball = [], 0
        for layer in layers:
            ball |= layer
            expected.append(ball)
        assert rows[v] == expected, v


def test_all_pairs_symmetric_triangle():
    rng = random.Random(9)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 9), rng)
        D = all_pairs(g)
        for u in range(g.n):
            assert D[u][u] == 0
            for v in range(g.n):
                assert D[u][v] == D[v][u]
                for w in range(g.n):
                    assert D[u][w] <= D[u][v] + D[v][w]


def test_bfs_tree_examples():
    t = bfs_tree(path(4), 0)
    assert t.parent == {0: None, 1: 0, 2: 1, 3: 2}
    t = bfs_tree(cycle(4), 0)
    assert t.parent[1] == 0 and t.parent[3] == 0 and t.parent[2] == 1
    t = bfs_tree(complete(3), 0)
    assert t.parent == {0: None, 1: 0, 2: 0}
    with pytest.raises(ValueError):
        bfs_tree(Graph.from_edges(2, []), 0)


def test_spanning_tree_distances_dominate():
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 12), rng)
        Dg = all_pairs(g)
        t = bfs_tree(g, 0)
        tree_g = Graph.from_edges(
            g.n, [(v, p) for v, p in t.parent.items() if p is not None]
        )
        Dt = all_pairs(tree_g)
        for u in range(g.n):
            assert Dt[0][u] == Dg[0][u]  # tree depth = BFS distance
            for v in range(g.n):
                assert Dt[u][v] >= Dg[u][v]


def test_components_and_induced():
    g = Graph.from_edges(5, [(0, 1), (3, 4)])
    assert connected_components(g) == [[0, 1], [2], [3, 4]]
    sub, old = induced_subgraph(g, [3, 4])
    assert old == [3, 4] and sub.adj == ((1,), (0,))


def test_induced_subgraph_on_all_vertices_is_the_graph():
    rng = random.Random(89)
    for n in range(0, 12):
        g = random_connected_graph(n, rng) if n else Graph.from_edges(0, [])
        for order in (range(n), reversed(range(n))):
            sub, old = induced_subgraph(g, order)
            assert sub is g and old == list(range(n))
    # A disconnected graph: each component is relabelled in id order.
    g = Graph.from_edges(7, [(0, 4), (4, 6), (1, 3), (2, 5), (5, 3)])
    for comp in connected_components(g):
        sub, old = induced_subgraph(g, comp)
        assert old == comp
        assert sub.edges() == sorted(
            (old.index(u), old.index(v)) for u, v in g.edges() if u in comp and v in comp
        )


def block_sets(g: Graph) -> set[frozenset[int]]:
    return {frozenset(b) for b in biconnected_blocks(g)}


def networkx_blocks(g: Graph) -> set[frozenset[int]]:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return {frozenset(b) for b in nx.biconnected_components(h)}


def test_biconnected_blocks_match_networkx_on_the_atlas():
    count = 0
    for h in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(h):
            continue
        g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
        blocks = biconnected_blocks(g)
        assert all(b == sorted(b) for b in blocks)
        assert block_sets(g) == networkx_blocks(g), g.adj
        count += 1
    assert count == 996  # connected graphs with 1 <= n <= 7


def test_biconnected_blocks_match_networkx_on_random_graphs():
    rng = random.Random(31)
    disconnected = 0
    for _ in range(200):
        n = rng.randint(1, 40)
        p = rng.choice((0.02, 0.05, 0.1, 0.2, 0.5))
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        disconnected += len(connected_components(g)) > 1
        assert block_sets(g) == networkx_blocks(g), g.adj
    assert disconnected >= 50


def test_biconnected_blocks_of_a_long_path_do_not_recurse():
    blocks = biconnected_blocks(path(5000))
    assert len(blocks) == 4999
    assert sorted(blocks) == [[i, i + 1] for i in range(4999)]
