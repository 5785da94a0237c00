import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest

from conftest import complete, cycle, path, star
from multipacking.checkers import (
    _verify_peo,
    hyperbolicity,
    is_bipartite,
    is_chordal,
    is_clawfree,
    lexbfs_order,
    regularity,
)
from multipacking.graph import Graph, all_pairs, biconnected_blocks, is_connected
from multipacking.randgen import (
    random_connected_chordal,
    random_connected_graph,
    random_hitting_set_instance,
    random_tree,
)
from multipacking.reductions import reduce_hs_half_hyperbolic
from test_cli import c5_chain


def brute_is_chordal(g: Graph) -> bool:
    """Reference check: no chordless cycle of length >= 4 (small n only)."""
    for length in range(4, g.n + 1):
        for verts in itertools.permutations(range(g.n), length):
            if verts[0] != min(verts):
                continue
            cyc = all(
                g.has_edge(verts[i], verts[(i + 1) % length])
                for i in range(length)
            )
            if not cyc:
                continue
            chords = any(
                g.has_edge(verts[i], verts[j])
                for i in range(length)
                for j in range(i + 2, length)
                if (i, j) != (0, length - 1)
            )
            if not chords:
                return False
    return True


def check_peo(g: Graph, order: list[int]) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        for a, b in itertools.combinations(later, 2):
            if not g.has_edge(a, b):
                return False
    return True


def check_chordless_cycle(g: Graph, cyc: list[int]) -> bool:
    k = len(cyc)
    if k < 4 or len(set(cyc)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(cyc[i], cyc[j])
            on_cycle = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != on_cycle:
                return False
    return True


def test_lexbfs_is_permutation():
    order = lexbfs_order(cycle(5))
    assert sorted(order) == list(range(5))


def reference_lexbfs_order(g: Graph) -> list[int]:
    """Reference LexBFS on label lists: each step visits the unvisited vertex
    with the largest label, smallest id on ties, then appends the step number
    (counting down from n) to the labels of its unvisited neighbours."""
    labels: list[list[int]] = [[] for _ in range(g.n)]
    visited = [False] * g.n
    order: list[int] = []
    for step in range(g.n, 0, -1):
        v = max(
            (u for u in range(g.n) if not visited[u]),
            key=lambda u: (labels[u], -u),
        )
        visited[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not visited[u]:
                labels[u].append(step)
    return order


def reference_is_clawfree(g: Graph):
    """Reference claw search: the first pairwise nonadjacent neighbour triple
    of the first center, triples in ``combinations`` order."""
    for c in range(g.n):
        nbrs = g.adj[c]
        for x, y, z in itertools.combinations(nbrs, 3):
            if not (g.has_edge(x, y) or g.has_edge(x, z) or g.has_edge(y, z)):
                return False, (c, x, y, z)
    return True, None


def atlas_and_random_graphs() -> list[Graph]:
    """The networkx atlas (every graph with n <= 7), random graphs with
    n <= 40 (many disconnected), and line graphs of random graphs (claw-free)."""
    graphs = [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()]
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 40)
        p = rng.choice((0.03, 0.1, 0.3, 0.6, 0.9))
        graphs.append(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for _ in range(40):
        h = nx.gnp_random_graph(rng.randint(3, 10), rng.choice((0.3, 0.6, 1.0)), seed=rng.randrange(10**6))
        line = nx.convert_node_labels_to_integers(nx.line_graph(h), ordering="sorted")
        graphs.append(Graph.from_edges(line.number_of_nodes(), list(line.edges())))
    return graphs


def test_lexbfs_and_claw_search_match_their_references():
    disconnected = clawfree = 0
    for g in atlas_and_random_graphs():
        assert lexbfs_order(g) == reference_lexbfs_order(g), g.adj
        assert is_clawfree(g) == reference_is_clawfree(g), g.adj
        disconnected += not is_connected(g)
        clawfree += is_clawfree(g)[0]
    assert disconnected >= 300 and clawfree >= 500


SPIDER = Graph.from_edges(3001, [(0, i) for i in range(1, 1501)] + [(i, i + 1500) for i in range(1, 1501)])


@pytest.mark.parametrize(
    "check, g", [(is_chordal, path(3000)), (is_chordal, SPIDER), (is_clawfree, complete(100))]
)
def test_chordal_and_claw_checks_scale(check, g):
    """LexBFS refines only the classes of the visited vertex's neighbours
    instead of comparing the labels of all unvisited vertices, or refining
    every class, at each step; the claw search tests neighbour masks instead
    of every neighbour triple.  Those take seconds on these graphs (the
    spider has 1 500 two-edge legs and ends with 1 500 singleton classes)."""
    start = time.perf_counter()
    assert check(g)[0]
    assert time.perf_counter() - start < 0.5


def reference_verify_peo(g: Graph, peo: list[int]):
    """Reference PEO check: the first later neighbour w of each v, in id order,
    that is not adjacent to v's first later neighbour p in peo."""
    pos = {v: i for i, v in enumerate(peo)}
    for i, v in enumerate(peo):
        later = [u for u in g.adj[v] if pos[u] > i]
        if len(later) < 2:
            continue
        p = min(later, key=lambda u: pos[u])
        for w in later:
            if w != p and not g.has_edge(p, w):
                return v, p, w
    return None


def test_verify_peo_matches_its_reference():
    rng = random.Random(47)
    failing = 0
    for g in atlas_and_random_graphs():
        orders = [lexbfs_order(g)[::-1], rng.sample(range(g.n), g.n)]
        for peo in orders:
            assert _verify_peo(g, peo) == reference_verify_peo(g, peo), (g.adj, peo)
            failing += _verify_peo(g, peo) is not None
    assert failing >= 500


def test_peo_check_tests_each_neighbour_with_one_mask():
    """Each later neighbour is looked up in a neighbour set built once per
    distinct p, not found by a scan of an adjacency tuple, which is cubic on
    complete graphs (about 0.4 s for K_600)."""
    g = complete(600)
    start = time.perf_counter()
    ok, peo = is_chordal(g)
    assert time.perf_counter() - start < 0.25
    assert ok and sorted(peo) == list(range(600))


@pytest.mark.parametrize("check", [is_chordal, is_clawfree])
def test_neighbour_masks_stay_linear_on_a_long_path(check):
    """The ordering check holds neighbour sets and the claw search masks that
    span only their vertex's neighbour ids: masks from bit 0 would take about
    24 MiB on P_20000 (n²/16 bytes)."""
    g = path(20_000)
    tracemalloc.start()
    try:
        assert check(g)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def fan(n: int) -> Graph:
    """Hub 0 joined to every vertex of the path 1..n-1."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])


def relabelled_path(n: int, seed: int) -> Graph:
    label = random.Random(seed).sample(range(n), n)
    return Graph.from_edges(n, [(label[i], label[i + 1]) for i in range(n - 1)])


@pytest.mark.parametrize("g", [fan(20_000), relabelled_path(20_000, 1)])
def test_chordal_check_stays_linear_when_neighbour_ids_spread(g):
    """Neighbour masks spanning each vertex's neighbour ids still grow about
    4x per doubling of n here (every rim vertex of the fan is adjacent to the
    hub, and a relabelled path's neighbours lie far apart); the neighbour
    sets of the ordering check take O(n + m) memory."""
    tracemalloc.start()
    try:
        assert is_chordal(g)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_is_chordal_examples():
    ok, peo = is_chordal(path(5))
    assert ok and check_peo(path(5), peo)
    ok, peo = is_chordal(complete(4))
    assert ok and check_peo(complete(4), peo)
    ok, cyc = is_chordal(cycle(4))
    assert not ok and check_chordless_cycle(cycle(4), cyc)
    ok, cyc = is_chordal(cycle(6))
    assert not ok and check_chordless_cycle(cycle(6), cyc)
    assert is_chordal(Graph.from_edges(1, []))[0]


def test_is_chordal_agrees_with_brute():
    rng = random.Random(7)
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 7), rng, extra_edge_prob=0.4)
        ok, witness = is_chordal(g)
        assert ok == brute_is_chordal(g)
        if ok:
            assert check_peo(g, witness)
        else:
            assert check_chordless_cycle(g, witness)


def test_chordal_generator_certified():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_chordal(rng.randint(1, 12), rng)
        ok, peo = is_chordal(g)
        assert ok and check_peo(g, peo)


def test_is_bipartite_examples():
    ok, (s0, s1) = is_bipartite(path(4))
    assert ok and set(s0) | set(s1) == {0, 1, 2, 3}
    assert is_bipartite(cycle(6))[0]
    ok, walk = is_bipartite(cycle(5))
    assert not ok
    assert walk[0] == walk[-1] and len(walk) % 2 == 0  # closed, odd # of edges
    assert all(
        cycle(5).has_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1)
    )


def test_bipartition_verifies():
    rng = random.Random(19)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 9), rng)
        ok, witness = is_bipartite(g)
        if ok:
            s0, s1 = witness
            for u, v in g.edges():
                assert (u in s0) != (v in s0)
        else:
            walk = witness
            assert walk[0] == walk[-1] and len(walk) % 2 == 0
            assert all(
                g.has_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1)
            )


def test_is_clawfree_examples():
    assert is_clawfree(cycle(4)) == (True, None)
    assert is_clawfree(complete(5))[0]
    assert is_clawfree(path(6))[0]
    ok, (c, x, y, z) = is_clawfree(star(3))
    assert not ok and c == 0
    s = star(3)
    assert all(s.has_edge(c, v) for v in (x, y, z))
    assert not any(
        s.has_edge(a, b) for a, b in itertools.combinations((x, y, z), 2)
    )


def test_regularity():
    assert regularity(cycle(5)) == 2
    assert regularity(complete(4)) == 3
    assert regularity(path(3)) is None
    assert regularity(Graph.from_edges(1, [])) == 0
    assert regularity(Graph.from_edges(0, [])) == 0


def test_hyperbolicity_examples():
    assert hyperbolicity(cycle(4)) == 1
    assert hyperbolicity(path(7)) == 0
    assert hyperbolicity(cycle(5)) == Fraction(1, 2)
    assert hyperbolicity(complete(3)) == 0  # n < 4
    d = hyperbolicity(cycle(6))
    assert isinstance(d, Fraction) and 2 * d == int(2 * d)
    with pytest.raises(ValueError):
        hyperbolicity(Graph.from_edges(5, []))


def reference_hyperbolicity(g: Graph) -> Fraction:
    """Reference four-point scan: sort the three pairing sums of every 4-set."""
    D = all_pairs(g)
    twice_best = 0
    for u, v, x, y in itertools.combinations(range(g.n), 4):
        s1 = D[u][v] + D[x][y]
        s2 = D[u][x] + D[v][y]
        s3 = D[u][y] + D[v][x]
        a, b, c = sorted((s1, s2, s3))
        twice_best = max(twice_best, c - b)
    return Fraction(twice_best, 2)


def whole_graph_hyperbolicity(g: Graph) -> Fraction:
    """Reference four-point scan over all C(n, 4) sets of V, ignoring blocks."""
    n = g.n
    dist = all_pairs(g)
    twice_best = 0
    for u in range(n - 3):
        du = dist[u]
        for v in range(u + 1, n - 2):
            dv = dist[v]
            duv = du[v]
            for x in range(v + 1, n - 1):
                dx = dist[x]
                dux = du[x]
                dvx = dv[x]
                for y in range(x + 1, n):
                    s1 = duv + dx[y]
                    s2 = dux + dv[y]
                    if s1 < s2:
                        s1, s2 = s2, s1
                    s3 = du[y] + dvx
                    if s3 >= s1:
                        twice = s3 - s1
                    elif s3 > s2:
                        twice = s1 - s3
                    else:
                        twice = s1 - s2
                    if twice > twice_best:
                        twice_best = twice
    return Fraction(twice_best, 2)


def test_hyperbolicity_matches_reference():
    rng = random.Random(10)  # criterion 10's inputs, in its order
    graphs = [random_tree(rng.randint(1, 14), rng) for _ in range(100)]
    graphs.append(cycle(4))
    graphs += [random_connected_chordal(rng.randint(1, 10), rng) for _ in range(200)]
    rng = random.Random(41)
    while len(graphs) < 340:
        inst = random_hitting_set_instance(5, 5, 4, rng, k_min=3)
        if inst.k <= inst.n:
            graphs.append(reduce_hs_half_hyperbolic(inst).graph)
    for _ in range(40):
        graphs.append(random_connected_graph(rng.randint(4, 30), rng, rng.choice((0.05, 0.15, 0.4))))
    for g in graphs:
        delta = hyperbolicity(g)
        assert isinstance(delta, Fraction)
        assert delta == reference_hyperbolicity(g), g.adj


def test_trees_are_zero_hyperbolic():
    rng = random.Random(29)
    for _ in range(20):
        assert hyperbolicity(random_tree(rng.randint(4, 12), rng)) == 0


def test_chordal_graphs_at_most_one_hyperbolic():
    rng = random.Random(37)
    for _ in range(25):
        g = random_connected_chordal(rng.randint(4, 11), rng)
        assert hyperbolicity(g) <= 1


def two_cycles(a: int, b: int, link: int) -> Graph:
    """C_a and C_b joined by a path of ``link`` edges (0: glued at a vertex)."""
    start = a - 1 + link  # first vertex of C_b, the far end of the path
    edges = [(i, (i + 1) % a) for i in range(a)]
    edges += [(i, i + 1) for i in range(a - 1, start)]
    edges += [(start + i, start + (i + 1) % b) for i in range(b)]
    return Graph.from_edges(start + b, edges)


def random_cactus(rng: random.Random, pieces: int) -> Graph:
    """Pendant edges and cycles of length 3..8 hung on random earlier vertices."""
    n, edges = 1, []
    for _ in range(pieces):
        ring = [rng.randrange(n)] + list(range(n, n + rng.randint(1, 7)))
        n = ring[-1] + 1
        edges += list(zip(ring, ring[1:]))
        if len(ring) > 2:
            edges.append((ring[-1], ring[0]))
    return Graph.from_edges(n, edges)


def test_hyperbolicity_is_the_maximum_over_the_blocks():
    graphs = []
    for a in range(4, 10):
        for b in range(4, 10):
            g = two_cycles(a, b, link=0 if (a + b) % 2 else 2)
            assert hyperbolicity(g) == max(reference_hyperbolicity(cycle(a)), reference_hyperbolicity(cycle(b)))
            graphs.append(g)
    rng = random.Random(23)
    graphs += [random_cactus(rng, rng.randint(3, 8)) for _ in range(25)]
    graphs += [random_connected_graph(rng.randint(4, 30), rng, 0.05) for _ in range(25)]
    outputs = []
    while len(outputs) < 40:
        inst = random_hitting_set_instance(5, 5, 4, rng, k_min=3)
        if inst.k <= inst.n:
            outputs.append(reduce_hs_half_hyperbolic(inst).graph)
    graphs += outputs
    several = 0
    for g in graphs:
        assert hyperbolicity(g) == whole_graph_hyperbolicity(g) == reference_hyperbolicity(g), g.adj
        several += sum(len(b) >= 4 for b in biconnected_blocks(g)) >= 2
    assert 3 * several >= len(graphs)


@pytest.mark.parametrize("g, delta", [(path(1000), 0), (c5_chain(50), Fraction(1, 2))])
def test_hyperbolicity_holds_only_block_distances(g, delta):
    """Distances come from BFS inside each block with >= 4 vertices, so a
    long path needs none and a chain of C5s needs 25 per block: no n² table
    (a 1 000-vertex one alone takes several MiB)."""
    tracemalloc.start()
    try:
        assert hyperbolicity(g) == delta
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def ladder(rungs: int) -> Graph:
    """Two paths of ``rungs`` vertices, i joined to rungs + i."""
    edges = [(i, rungs + i) for i in range(rungs)]
    edges += [(r + i, r + i + 1) for r in (0, rungs) for i in range(rungs - 1)]
    return Graph.from_edges(2 * rungs, edges)


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def wheel(spokes: int) -> Graph:
    """A hub 0 joined to every vertex of a cycle on 1..spokes."""
    ring = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return Graph.from_edges(spokes + 1, ring + [(0, i) for i in range(1, spokes + 1)])


def complete_minus_edge(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, n - 1)])


def cliques_on_an_edge(m: int) -> Graph:
    """Two copies of K_m sharing the edge 01: 0..m-1 and 0, 1, m..2m-3."""
    other = [0, 1] + list(range(m, 2 * m - 2))
    edges = list(itertools.combinations(range(m), 2))
    edges += [e for e in itertools.combinations(other, 2) if e != (0, 1)]
    return Graph.from_edges(2 * m - 2, edges)


def spoked_cycle(length: int, gap: int) -> Graph:
    """C_length plus a hub joined to every gap-th cycle vertex."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    return Graph.from_edges(length + 1, edges + [(length, v) for v in range(0, length, gap)])


def twinned_cycle(length: int, twins: int) -> Graph:
    """C_length plus ``twins`` vertices with the neighbours of vertex 0."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    return Graph.from_edges(length + twins, edges + [(length + j, v) for j in range(twins) for v in (1, length - 1)])


def test_hyperbolicity_is_exact_on_the_atlas_and_on_families():
    """The pair-ordered scan equals both four-set scans on every connected
    atlas graph with n >= 4 and on families whose far-apart pairs and stop
    differ: ladders and grids (few far-apart pairs), cycles, wheels, cliques
    (skipped), a clique less an edge, two cliques on an edge (every pair at
    distance 1 far apart), and cycles with spokes or twins."""
    graphs = [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()]
    graphs = [g for g in graphs if g.n >= 4 and is_connected(g)]
    assert len(graphs) > 800
    graphs += [ladder(r) for r in range(2, 9)]
    graphs += [grid(a, b) for a in range(2, 5) for b in range(a, 5)]
    graphs += [cycle(n) for n in range(4, 17)]
    graphs += [wheel(k) for k in range(3, 13)]
    graphs += [complete(n) for n in range(4, 11)]
    graphs += [complete_minus_edge(n) for n in range(4, 11)]
    graphs += [cliques_on_an_edge(m) for m in range(3, 9)]
    graphs += [spoked_cycle(n, gap) for n in range(6, 19) for gap in (2, 3, 5)]
    graphs += [twinned_cycle(n, t) for n in range(4, 13) for t in (1, 3, 6)]
    for g in graphs:
        assert hyperbolicity(g) == whole_graph_hyperbolicity(g) == reference_hyperbolicity(g), g.adj


@pytest.mark.parametrize(
    "g, delta, seconds",
    [(cycle(1000), 250, 2), (grid(30, 30), 29, 2), (twinned_cycle(12, 100), 3, 0.5), (spoked_cycle(300, 15), 4, 0.5)],
)
def test_hyperbolicity_stops_at_far_apart_pairs(g, delta, seconds):
    """Each graph is one block.  A scan over four-sets would visit about 4e10
    of them in C_1000 and 3e10 in the 30x30 grid.  The twins of vertex 0
    add C(100, 2) far-apart pairs at distance 2, below the best value, so
    the stop skips them; in the spoked cycle the hub sees the far side of
    every segment as far from it, but not the other way round, so only the
    two-sided test keeps those pairs out.  Either scan without its
    restriction takes over a second on the last two."""
    start = time.perf_counter()
    assert hyperbolicity(g) == delta
    assert time.perf_counter() - start < seconds


def test_hyperbolicity_on_a_long_chain_of_small_blocks():
    """5 000 C4s in a row, each sharing a cut vertex with the next: each
    block's BFS holds rows of its own 4 vertices, never of all 15 001
    (rows of length n would fill 3e8 cells)."""
    edges = []
    for i in range(5000):
        a = 3 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    g = Graph.from_edges(15001, edges)
    start = time.perf_counter()
    assert hyperbolicity(g) == 1
    assert time.perf_counter() - start < 1
    tracemalloc.start()
    try:
        assert hyperbolicity(g) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_chordless_cycle_starts_at_the_failing_triple():
    """On every non-chordal graph the witness is a chordless cycle through the
    vertex whose later neighbours fail the ordering check."""
    failing = 0
    for g in atlas_and_random_graphs():
        ok, witness = is_chordal(g)
        if ok:
            continue
        v, p, w = _verify_peo(g, lexbfs_order(g)[::-1])
        assert check_chordless_cycle(g, witness), (g.adj, witness)
        assert witness[:2] == [v, p] and witness[-1] == w, (g.adj, witness)
        failing += 1
    assert failing >= 900


def c4_after_a_path(n: int, fan: bool) -> Graph:
    """The path 1..n with a C4 n, n+1, n+2, n+3 hung on its end; vertex 0 is
    joined to vertex 1, or for a fan to every vertex of the path."""
    edges = [(i, i + 1) for i in range(1, n + 3)] + [(n + 3, n)]
    return Graph.from_edges(n + 4, edges + [(0, i) for i in range(1, n + 1 if fan else 2)])


@pytest.mark.parametrize("fan", [False, True])
def test_chordless_cycle_takes_one_search(fan):
    """The cycle comes from one BFS closing the ordering check's failing
    triple.  A search from every vertex over each nonadjacent neighbour pair
    takes seconds here: on the path each pair's BFS sweeps the path, and the
    fan's hub alone has C(4 000, 2) pairs."""
    g = c4_after_a_path(4000, fan)
    start = time.perf_counter()
    ok, witness = is_chordal(g)
    assert time.perf_counter() - start < 0.5
    assert not ok and check_chordless_cycle(g, witness)
    assert sorted(witness) == [4000, 4001, 4002, 4003]
