"""Decision procedures for structural graph classes, each with a witness.

Positive witnesses re-verify (perfect elimination ordering, bipartition,
...); negative witnesses exhibit the violation (chordless cycle, odd walk,
induced claw).  LexBFS refines bitmask classes, the ordering check reads
neighbour sets and the claw search neighbour bitmasks.  Hyperbolicity is
computed in exact half-integers from distances found by bitmask BFS inside
each biconnected block, never from all n² distances of the graph, by a scan
over far-apart pairs in order of decreasing distance that stops once no
remaining pair can raise the best value.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Optional

from .graph import Graph, biconnected_blocks, is_connected, members


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
    (v, p, w): p and w occur after v, both adjacent to v, but not adjacent;
    p is v's first later neighbour in peo and w the lowest id that fails.
    p's neighbour set is built once per distinct p: O(n + m) time and memory."""
    pos = {v: i for i, v in enumerate(peo)}
    nbrs: dict[int, set[int]] = {}
    for i, v in enumerate(peo):
        later = [u for u in g.adj[v] if pos[u] > i]
        if len(later) < 2:
            continue
        p = min(later, key=pos.__getitem__)
        if p not in nbrs:
            nbrs[p] = set(g.adj[p])
        for w in later:
            if w != p and w not in nbrs[p]:
                return v, p, w
    return None


def _trail(parent, v: int) -> list[int]:
    """v, its parent, its parent's parent, ... up to a vertex whose parent is None."""
    trail = [v]
    while parent[trail[-1]] is not None:
        trail.append(parent[trail[-1]])
    return trail


def _chordless_cycle(g: Graph, v: int, p: int, w: int) -> list[int]:
    """Chordless cycle [v, p, ..., w] for a triple (v, p, w) failing the check
    of a reversed LexBFS order σ (p, w ~ v, p ≁ w, w <σ p <σ v), closed by one
    BFS's shortest p-w path in G - (N[v] \\ {p, w}): induced, so no chord.

    The path exists by the LexBFS four-point property: if a <σ b <σ c, ac ∈ E
    and ab ∉ E, the first vertex d of σ whose adjacency to b and to c differs
    has d <σ a, d ~ b and d ≁ c, and every x <σ d is adjacent to b iff to c.
    Let s0, s1, s2 = v, p, w and, while s(i+2) ≁ s(i+1), let s(i+3) be the d
    of (s(i+2), s(i+1), s(i)).  The s(i) strictly decrease in σ, so this
    stops; the chains s1 s3 s5 ... and s2 s4 ... (s(i+3) ~ s(i+1)) and the
    closing edge form a p-w path.  Chaining the iff clauses gives s(j) ~ v
    iff s(j) ~ s(j-3), false by construction, so no inner vertex is in N[v].
    """
    parent: dict[int, Optional[int]] = dict.fromkeys({v, *g.adj[v]} - {p})  # seen; root w
    queue = deque([w])
    while p not in parent:
        u = queue.popleft()
        for z in g.adj[u]:
            if z not in parent:
                parent[z] = u
                queue.append(z)
    return [v] + _trail(parent, p)


def is_chordal(g: Graph) -> tuple[bool, list[int]]:
    """(True, perfect elimination ordering) or (False, chordless cycle >= 4).

    The candidate ordering is the reverse of a lexicographic BFS; it is a
    perfect elimination ordering iff the graph is chordal, and a failing
    triple of the check closes a chordless cycle in linear time.
    """
    peo = lexbfs_order(g)[::-1]
    failure = _verify_peo(g, peo)
    if failure is None:
        return True, peo
    return False, _chordless_cycle(g, *failure)


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
                    return False, tuple(_trail(parent, u)[::-1] + _trail(parent, v))
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    return True, (side0, side1)


def is_clawfree(g: Graph) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """(True, None) or (False, (center, x, y, z)) for the first induced claw by
    center, then leaves x < y < z: y and z are in ``rest``, c's neighbours
    above x not adjacent to x, and z is above y and not adjacent to it."""
    # nbrs[v] << lo[v] is v's neighbour mask, lo[v] its lowest neighbour: O(n)
    # words on a path, but on a fan every rim mask reaches the hub, Θ(n²) bits
    lo = [row[0] if row else 0 for row in g.adj]
    nbrs = [sum(1 << u - b for u in row) for b, row in zip(lo, g.adj)]
    for c in range(g.n):
        for x in g.adj[c]:
            rest = nbrs[c] << lo[c] & ~(nbrs[x] << lo[x]) & -(2 << x)
            for y in members(rest):
                zs = rest & ~(nbrs[y] << lo[y]) & -(2 << y)
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

    For a 4-set with pairing sums S1 >= S2 >= S3 (of d(u,v)+d(x,y),
    d(u,x)+d(v,y), d(u,y)+d(v,x)), twice its value is S1 - S2.  The graph's
    value is the maximum over its biconnected blocks, each an isometric
    subgraph, so each block with >= 4 vertices is scanned alone on distances
    found by BFS inside it (Σ |B|² distances, not n²), with one best value
    carried across blocks; a clique block is 0-hyperbolic and skipped.  The
    scan follows Cohen, Coudert and Lancin ("On computing the Gromov
    hyperbolicity"):

    - Bound.  If {u,v}, {x,y} is the max-sum pairing, then
      d(u,x) + d(u,y) >= d(x,y) and d(v,x) + d(v,y) >= d(x,y) give
      2·S1 - S2 - S3 <= 2·d(u,v), so S1 - S2 <= min(d(u,v), d(x,y)).
    - Lemma.  u, v are far apart when no neighbour of v is farther from u
      and no neighbour of u is farther from v.  If v has a neighbour w with
      d(u,w) = d(u,v) + 1, swapping v for w raises S1 by one and S2, S3 by
      at most one, so the value does not drop; as S1 is bounded, some
      optimal 4-set has both of its max-sum pairs far apart.

    So the scan keeps only far-apart pairs, sorted by decreasing distance,
    and combines each with every earlier one; it stops at the first pair
    whose distance is at most the best S1 - S2 so far, which no later pair
    can lift.  The maximum is returned as an exact half-integer.
    """
    if not is_connected(g):
        raise ValueError("hyperbolicity requires a connected graph")
    twice_best = 0
    for block in biconnected_blocks(g):
        n = len(block)
        if n < 4:
            continue
        pos = {v: i for i, v in enumerate(block)}
        nbrs = [sum(1 << pos[w] for w in g.adj[v] if w in pos) for v in block]
        if all(mask.bit_count() == n - 1 for mask in nbrs):
            continue
        dist: list[list[int]] = []
        ends: list[int] = []  # ends[s]: the vertices with no neighbour farther from s
        for s in range(n):
            row = [0] * n
            prev, layer, seen, k, end = 0, 1 << s, 1 << s, 0, 0
            while layer:
                reach, rest = 0, layer
                while rest:
                    low = rest & -rest
                    v = low.bit_length() - 1
                    row[v] = k
                    reach |= nbrs[v]
                    rest ^= low
                end |= prev & ~reach
                prev, layer, k = layer, reach & ~seen, k + 1
                seen |= layer
            dist.append(row)
            ends.append(end | prev)
        pairs = sorted(  # the far-apart pairs u < v
            ((dist[u][v], u, v) for u in range(n) for v in members(ends[u] & -(2 << u)) if ends[v] >> u & 1),
            reverse=True,
        )
        for i, (d, x, y) in enumerate(pairs):
            if d <= twice_best:
                break
            dx, dy = dist[x], dist[y]
            for e, u, v in itertools.islice(pairs, i):
                # d + e - s2 is S1 - S2 if {x,y}, {u,v} is the max-sum pairing, else <= 0
                s2 = dx[u] + dy[v]
                s3 = dx[v] + dy[u]
                if s3 > s2:
                    s2 = s3
                if d + e - s2 > twice_best:
                    twice_best = d + e - s2
    return Fraction(twice_best, 2)
