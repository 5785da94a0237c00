"""Seeded random graph and tree generators for benchmarks and sweeps.

All randomness flows from a single 64-bit seed through ``random.Random``;
no ambient entropy, so every run is byte-reproducible.
"""

from __future__ import annotations

import heapq
import random

from .graph import Graph
from .reductions import HittingSetInstance


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree via a random attachment sequence."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return Graph.from_edges(1, [])
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return Graph.from_edges(n, edges)


def random_connected_graph(n: int, rng: random.Random, extra_edge_prob: float = 0.3) -> Graph:
    """Random spanning tree plus Bernoulli extra edges: always connected."""
    tree = random_tree(n, rng)
    present = {tuple(sorted(e)) for e in tree.edges()}
    edges = list(present)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra_edge_prob:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_connected_chordal(n: int, rng: random.Random) -> Graph:
    """Random connected chordal graph by incremental clique attachment.

    Each new vertex connects to one to three vertices of a previously
    recorded clique, so its earlier neighbors always form a clique (a
    reversed perfect elimination ordering).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    cliques: list[list[int]] = [[0]]
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        base = rng.choice(cliques)
        size = rng.randint(1, min(len(base), 3))
        attach = rng.sample(base, size)
        edges += [(u, v) for u in attach]
        cliques.append(sorted(attach + [v]))
    return Graph.from_edges(n, edges)


def random_hitting_set_instance(
    n_max: int, m_max: int, k_max: int, rng: random.Random, k_min: int = 2
) -> HittingSetInstance:
    """Random instance with universe <= n_max, family <= m_max, k in [k_min, k_max]."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    k = rng.randint(k_min, k_max)
    family = []
    for _ in range(m):
        size = rng.randint(1, n)
        family.append(frozenset(rng.sample(range(n), size)))
    return HittingSetInstance.make(n, family, k)
