"""Definitional multipacking checker, independent of the package under test.

The solver and the brute-force oracle share ``oracle.is_multipacking``, so a
bug there would pass every comparison between them.  This checker shares no
code with the package: it runs its own BFS from every vertex and tests every
radius r = 1..n straight from the definition |N_r[v] ∩ M| <= r.

``max_multipacking`` and ``min_hitting_set`` are exhaustive searches of the
same independence.  They give the benchmark's reference answers, with the
package's tie-break: maximum size first, then the lexicographically
smallest member tuple.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Sequence


def bfs_hops(adj: Sequence[Sequence[int]], source: int) -> list[int | None]:
    """Hop distance from ``source`` to every vertex; None when unreachable."""
    dist: list[int | None] = [None] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_multipacking_def(adj: Sequence[Sequence[int]], members: Sequence[int]) -> bool:
    """True iff ``members`` is a set of vertices with |N_r[v] ∩ M| <= r for all v, r."""
    n = len(adj)
    if len(set(members)) != len(members):
        return False
    if any(not (isinstance(u, int) and 0 <= u < n) for u in members):
        return False
    for v in range(n):
        dist = bfs_hops(adj, v)
        for r in range(1, n + 1):
            inside = sum(1 for u in members if dist[u] is not None and dist[u] <= r)
            if inside > r:
                return False
    return True


def max_multipacking(adj: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """A largest multipacking, lexicographically smallest among the largest.

    Depth-first over member tuples in lexicographic order.  Members lie
    pairwise at distance >= 3 (two members within distance 2 share an
    N_1[v]), which gives each branch its candidate list and a size bound.
    A branch is cut only when it cannot beat the best size found so far,
    so the first largest set found is the lexicographically smallest.
    """
    n = len(adj)
    dist = [bfs_hops(adj, v) for v in range(n)]
    # balls[v][r]: bitmask of N_r[v]
    balls = [[sum(1 << u for u in range(n) if row[u] is not None and row[u] <= r) for r in range(n + 1)]
             for row in dist]
    far = [[w for w in range(n) if dist[u][w] is None or dist[u][w] >= 3] for u in range(n)]
    best: tuple[int, ...] = ()

    def fits(mask: int, size: int, u: int) -> bool:
        """Does adding u to the multipacking ``mask`` of ``size`` members keep it one?"""
        mask |= 1 << u
        for v in range(n):
            d = dist[v][u]
            if d is None:
                continue
            for r in range(max(d, 1), size + 1):  # larger radii hold at most size + 1 <= r
                if (mask & balls[v][r]).bit_count() > r:
                    return False
        return True

    def extend(members: tuple[int, ...], mask: int, cands: list[int]) -> None:
        nonlocal best
        if len(members) > len(best):
            best = members
        for i, u in enumerate(cands):
            if len(members) + len(cands) - i <= len(best):
                return
            if fits(mask, len(members), u):
                rest = [w for w in cands[i + 1:] if w in far_sets[u]]
                extend(members + (u,), mask | 1 << u, rest)

    far_sets = [set(f) for f in far]
    extend((), 0, list(range(n)))
    return len(best), best


def min_hitting_set(universe_size: int, family: Sequence[Sequence[int]]) -> int:
    """Size of a smallest subset of 0..universe_size-1 meeting every set."""
    sets = [set(s) for s in family]
    for size in range(universe_size + 1):
        for chosen in combinations(range(universe_size), size):
            if all(s.intersection(chosen) for s in sets):
                return size
    raise ValueError("no hitting set: the family has an empty set")
