"""Undirected simple graphs with BFS-based metric helpers.

Vertices are dense integer ids 0..n-1, and a vertex set is an int bitmask
(bit v for vertex v; ``members`` lists its vertices), and the solver and the
oracle read every ball N_r[v] as one from ``ball_rows``: one bitmask BFS per
vertex, which walks each layer's bits in place.  Distances are
plain rows, ``D[u][v]``, with the sentinel value ``n`` (an impossible finite
hop count) for unreachable pairs, so hot loops never deal with optionals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

# Equal adjacency rows, and equal adjacencies, are shared between graphs,
# so a process that holds many graphs (reduction outputs, parsed instances)
# keeps one tuple per distinct row and per distinct graph.  The table is
# emptied before it would pass _SHARED_ROWS_MAX entries, which bounds its
# memory; emptying it changes no graph, only which later tuples are shared.
_SHARED_ROWS: dict[tuple, tuple] = {}
_SHARED_ROWS_MAX = 1 << 14


@dataclass(frozen=True)
class Graph:
    """Canonical undirected simple graph: sorted adjacency lists, no loops."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        adj = tuple(tuple(sorted(s)) for s in nbrs)
        if n < _SHARED_ROWS_MAX:
            if len(_SHARED_ROWS) + n + 1 > _SHARED_ROWS_MAX:
                _SHARED_ROWS.clear()
            adj = tuple(_SHARED_ROWS.setdefault(row, row) for row in adj)
            adj = _SHARED_ROWS.setdefault(adj, adj)
        return Graph(n, adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def complement(self) -> "Graph":
        edges = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if v not in self.adj[u]
        ]
        return Graph.from_edges(self.n, edges)


# All-pairs hop distances, one row per vertex; disconnected pairs read ``n``.
DistanceMatrix = tuple[tuple[int, ...], ...]


def members(mask: int) -> list[int]:
    """The set bits of ``mask`` as ascending vertex ids."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from ``source``; unreachable vertices get ``g.n``."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    inf = g.n
    dist = [inf] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] == inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def all_pairs(g: Graph) -> DistanceMatrix:
    return tuple(tuple(bfs_distances(g, s)) for s in range(g.n))


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return g.n not in bfs_distances(g, 0)


def ball_rows(g: Graph) -> list[list[int]]:
    """rows[v][r] is the ball N_r[v] as a bitmask for r = 0..ecc(v), taken within
    v's component, so rows[v][-1] is that component.  One bitmask BFS per
    vertex: layer r + 1 is the neighbours of layer r that lie outside N_r[v],
    with layer r's bits walked in place, so each source ORs every neighbour
    mask once (n² ORs in all; the recurrence N_{r+1}[v] = ∪ N_r[u] over N[v]
    ORs Σ ecc·deg balls, about n³/8 on K_{n/2} with P_{n/2} hung off it)."""
    nbrs = [sum(1 << u for u in row) for row in g.adj]
    rows = []
    for v in range(g.n):
        row, layer = [1 << v], 1 << v
        while layer:
            reach = 0
            while layer:
                low = layer & -layer
                reach |= nbrs[low.bit_length() - 1]
                layer ^= low
            layer = reach & ~row[-1]
            if layer:
                row.append(row[-1] | layer)
        rows.append(row)
    return rows


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, smallest id first."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def biconnected_blocks(g: Graph) -> list[list[int]]:
    """Sorted vertex lists of the blocks (biconnected components) with an edge.

    Hopcroft–Tarjan on an explicit stack, so long paths do not recurse.  A
    bridge is a 2-vertex block; an isolated vertex lies in no block.
    """
    disc = [0] * g.n  # discovery times from 1; 0 = not reached yet
    low = [0] * g.n
    clock = count(1)
    blocks: list[list[int]] = []
    for root in range(g.n):
        if disc[root]:
            continue
        disc[root] = low[root] = next(clock)
        trail = [root]  # reached vertices not yet closed into a block
        frames = [(root, iter(g.adj[root]))]
        while frames:
            v, nbrs = frames[-1]
            for w in nbrs:
                if not disc[w]:
                    disc[w] = low[w] = next(clock)
                    trail.append(w)
                    frames.append((w, iter(g.adj[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:  # u cuts v's subtree off: close its block
                        block = [u]
                        while block[-1] != v:
                            block.append(trail.pop())
                        blocks.append(sorted(block))
    return blocks


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``vertices`` with dense relabeling (g itself on all of g).

    Returns (subgraph, old_ids) where old_ids[new] is the original id.
    """
    old = sorted(vertices)
    if len(old) == g.n and old == list(range(g.n)):
        return g, old
    pos = {v: i for i, v in enumerate(old)}
    edges = [
        (pos[u], pos[v])
        for u in old
        for v in g.adj[u]
        if u < v and v in pos
    ]
    return Graph.from_edges(len(old), edges), old
