"""Property tests: both solvers agree with the oracle on arbitrary small graphs.

Graphs are drawn as edge subsets on n <= 9 vertices, so disconnected graphs
and isolated vertices come up next to connected ones.  The examples are
derandomized, so every run checks the same graphs.
"""

import itertools
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from multipacking.graph import Graph
from multipacking.oracle import brute_force_mp
from multipacking.solver import solve_detailed


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def bfs(g, source):
    """Distances from source; unreachable vertices are left out."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def naive_is_multipacking(g, members):
    """Every ball N_r[v] with 1 <= r <= n holds at most r members."""
    for v in range(g.n):
        dist = bfs(g, v)
        for r in range(1, g.n + 1):
            if sum(1 for u in members if dist.get(u, r + 1) <= r) > r:
                return False
    return True


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(graphs())
def test_solvers_match_oracle_and_naive_check(g):
    mp, witness = brute_force_mp(g)
    for algo in ("a158", "a162"):
        got_mp, got_witness, _ = solve_detailed(g, algo)
        assert (got_mp, got_witness) == (mp, witness)
    assert len(witness) == mp == len(set(witness))
    assert naive_is_multipacking(g, witness)
