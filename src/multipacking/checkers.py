"""Decision procedures for structural graph classes, each with a witness.

Positive witnesses re-verify (perfect elimination ordering, bipartition,
...); negative witnesses exhibit the violation (chordless cycle, odd walk,
induced claw).  Hyperbolicity is computed in exact half-integers from
distances found by BFS inside each biconnected block, never from all n²
distances of the graph.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Optional

from .graph import Graph, all_pairs, biconnected_blocks, induced_subgraph, is_connected, members


def lexbfs_order(g: Graph) -> list[int]:
    """Lexicographic BFS order; ties broken by smallest vertex id.

    Partition refinement (Rose, Tarjan and Lueker): unvisited vertices sit in
    bitmask classes of equal label, linked largest label first after class 0.
    A step visits the lowest id of the first nonempty class and moves each
    unvisited neighbour into a new class linked just before its own, so it
    touches only its neighbours' classes; an emptied class is unlinked when
    it reaches the front.
    """
    mask, prev, after = [0, (1 << g.n) - 1], [None, 0], [1, None]
    class_of = [1] * g.n  # 0 once visited
    order: list[int] = []
    while len(order) < g.n:
        first = after[0]
        while not mask[first]:
            first = after[0] = after[first]
        prev[first] = 0
        v = (mask[first] & -mask[first]).bit_length() - 1
        order.append(v)
        mask[first] ^= 1 << v
        class_of[v] = 0
        parts: dict[int, int] = {}  # class -> the new class of its neighbours
        for u in g.adj[v]:
            c = class_of[u]
            if c:
                if c not in parts:
                    parts[c] = len(mask)
                    mask.append(0)
                    prev.append(prev[c])
                    after.append(c)
                    after[prev[c]] = prev[c] = parts[c]
                mask[c] ^= 1 << u
                mask[parts[c]] |= 1 << u
                class_of[u] = parts[c]
    return order


def _verify_peo(g: Graph, peo: list[int]) -> Optional[tuple[int, int, int]]:
    """None if peo is a perfect elimination ordering, else a failing triple
    (v, p, w): p and w occur after v, both adjacent to v, but not adjacent."""
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


def _chordless_cycle(g: Graph) -> list[int]:
    """Some chordless cycle of length >= 4 of a non-chordal graph.

    For each vertex v and nonadjacent neighbor pair (x, y), a shortest x-y
    path avoiding N[v] \\ {x, y} closes into a chordless cycle through v.
    """
    for v in range(g.n):
        nbrs = g.adj[v]
        blocked = set(nbrs) | {v}
        for x, y in itertools.combinations(nbrs, 2):
            if g.has_edge(x, y):
                continue
            prev: dict[int, Optional[int]] = {x: None}
            queue = deque([x])
            while queue:
                u = queue.popleft()
                if u == y:
                    break
                for z in g.adj[u]:
                    if z not in prev and (z not in blocked or z == y):
                        prev[z] = u
                        queue.append(z)
            if y in prev:
                path = [y]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                path.reverse()  # x .. y
                return [v] + path
    raise ValueError("graph is chordal: no chordless cycle of length >= 4")


def is_chordal(g: Graph) -> tuple[bool, list[int]]:
    """(True, perfect elimination ordering) or (False, chordless cycle >= 4).

    The candidate ordering is the reverse of a lexicographic BFS; it is a
    perfect elimination ordering iff the graph is chordal, and the
    verification failure guarantees a chordless-cycle witness exists.
    """
    peo = lexbfs_order(g)[::-1]
    if _verify_peo(g, peo) is None:
        return True, peo
    return False, _chordless_cycle(g)


def is_bipartite(g: Graph) -> tuple[bool, tuple]:
    """(True, (side0, side1)) or (False, odd closed walk)."""
    color = [-1] * g.n
    parent: list[Optional[int]] = [None] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    # closed walk root -> u, edge (u, v), v -> root: the two
                    # tree legs have equal-parity length, so the total is odd
                    up: list[int] = []
                    node: Optional[int] = u
                    while node is not None:
                        up.append(node)
                        node = parent[node]
                    down: list[int] = []
                    node = v
                    while node is not None:
                        down.append(node)
                        node = parent[node]
                    return False, tuple(up[::-1] + down)
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    return True, (side0, side1)


def is_clawfree(g: Graph) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """(True, None) or (False, (center, x, y, z)) for the first induced claw by
    center, then leaves x < y < z: y and z are in ``rest``, c's neighbours
    above x not adjacent to x, and z is above y and not adjacent to it."""
    nbrs = [sum(1 << u for u in row) for row in g.adj]
    for c in range(g.n):
        for x in g.adj[c]:
            rest = nbrs[c] & ~nbrs[x] & -(2 << x)
            for y in members(rest):
                zs = rest & ~nbrs[y] & -(2 << y)
                if zs:
                    return False, (c, x, y, (zs & -zs).bit_length() - 1)
    return True, None


def regularity(g: Graph) -> Optional[int]:
    """Common degree if the graph is regular, else None."""
    if g.n == 0:
        return 0
    degs = {g.degree(v) for v in range(g.n)}
    return degs.pop() if len(degs) == 1 else None


def hyperbolicity(g: Graph) -> Fraction:
    """Exact Gromov hyperbolicity by the four-point condition, block by block.

    For each 4-set {u, v, x, y} the three pairings give the distance sums
    d(u,v)+d(x,y), d(u,x)+d(v,y) and d(u,y)+d(v,x); its contribution is
    half the difference between the largest and the middle sum.  The graph's
    value is the maximum over its biconnected blocks, and each block is an
    isometric subgraph (Cohen, Coudert and Lancin, "On computing the Gromov
    hyperbolicity"), so each block with >= 4 vertices is scanned alone on
    its own BFS distances: sum of C(|B|, 4) sets, not C(n, 4), and sum of
    |B|² distances, not n².  The maximum is returned as an exact
    half-integer.
    """
    if not is_connected(g):
        raise ValueError("hyperbolicity requires a connected graph")
    twice_best = 0
    for block in biconnected_blocks(g):
        n = len(block)
        if n < 4:
            continue
        dist = all_pairs(induced_subgraph(g, block)[0])
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
