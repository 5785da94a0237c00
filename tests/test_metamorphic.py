"""Metamorphic check: a disjoint union adds up its parts' multipacking numbers."""

import random

from multipacking.graph import Graph
from multipacking.oracle import brute_force_mp
from multipacking.randgen import random_connected_graph
from multipacking.solver import solve_detailed


def disjoint_union(g, h):
    """g on ids 0..g.n-1 and h shifted to g.n..g.n+h.n-1."""
    shifted = [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph.from_edges(g.n + h.n, g.edges() + shifted)


def test_disjoint_union_is_additive():
    rng = random.Random(46)
    for _ in range(100):
        g, h = (
            random_connected_graph(rng.randint(1, 10), rng, rng.choice([0.05, 0.2, 0.5]))
            for _ in range(2)
        )
        union = disjoint_union(g, h)
        brute = brute_force_mp(union)
        for algo in ("a158", "a162"):
            mp_g, wit_g, _ = solve_detailed(g, algo)
            mp_h, wit_h, _ = solve_detailed(h, algo)
            mp, wit, _ = solve_detailed(union, algo)
            assert mp == mp_g + mp_h
            assert wit == tuple(sorted(wit_g + tuple(v + g.n for v in wit_h)))
            assert (mp, wit) == brute
