"""Exact maximum-multipacking solvers via candidate families over BFS trees.

Every multipacking of a connected graph G is a multipacking of any spanning
tree T (tree distances dominate graph distances).  Both solvers build a
family of vertex sets guaranteed to contain every multipacking of T, filter
the family against G's metric, and keep the best survivor.  The simple
recursion gives an O*(1.62^n) family; the gadget-aware recursion gives
O*(1.58^n).

The filter tests each set against ball bitmasks of G precomputed once per
component (``ball_masks``, ``fits_balls``).  It shares no code with
``multipacking.oracle``, so comparing the solvers with the oracle compares
two independent multipacking checkers.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, NamedTuple

from .graph import (
    DistanceMatrix,
    Graph,
    all_pairs,
    connected_components,
    induced_subgraph,
)
from .rooted_tree import (
    RootedTree,
    bfs_tree,
    classify_subtree,
    deepest_vertices,
)

Family = set[frozenset[int]]


def enumerate_h1(vertex_ids: Iterable[int]) -> Family:
    """All multipackings of a height<=1 star: the empty set plus singletons."""
    fam: Family = {frozenset()}
    for v in vertex_ids:
        fam.add(frozenset({v}))
    return fam


def h2_roles(t: RootedTree, u: int) -> tuple[list[int], list[int], list[int]]:
    """Leg tops A, leg bottoms B, and leaf children C of an H2-shaped subtree."""
    shape = classify_subtree(t, u)
    if shape.kind != "H2":
        raise ValueError(f"subtree at {u} is {shape.kind}, not H2")
    A: list[int] = []
    B: list[int] = []
    C: list[int] = []
    for c in t.children[u]:
        grand = t.children[c]
        if grand:
            A.append(c)
            B.append(grand[0])
        else:
            C.append(c)
    return A, B, C


def enumerate_h2(t: RootedTree, u: int) -> Family:
    """All multipackings of an H2(k1,k2) spider subtree rooted at u.

    Size-2 members are exactly the pairs at tree distance >= 3: leg bottoms
    with leaf children, two distinct leg bottoms, and a leg top with the
    bottom of a different leg.
    """
    A, B, C = h2_roles(t, u)
    fam = enumerate_h1(t.subtree_vertices(u))  # empty set + all singletons
    for b in B:
        for c in C:
            fam.add(frozenset({b, c}))
    for i in range(len(B)):
        for j in range(i + 1, len(B)):
            fam.add(frozenset({B[i], B[j]}))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            if i != j:
                fam.add(frozenset({a, b}))
    return fam


def candidate_family(t: RootedTree) -> Family:
    """Superset of all multipackings of t, of size O(1.58^n).

    Height >= 2 branches, tried in order for the deepest vertices w:
    (a) the parent subtree is a star with k >= 2 leaves: branch on w in/out;
    (b) the grandparent subtree is a bare 3-vertex leg: branch on w in/out;
    (c) otherwise the grandparent subtree of the smallest-id deepest vertex
        is a spider, whose multipackings are enumerated in closed form and
        combined with the family of the rest of the tree.
    """
    if t.is_empty():
        return {frozenset()}
    if t.height <= 1:
        return enumerate_h1(t.vertices())
    deepest = deepest_vertices(t)
    for w in deepest:
        w1 = t.parent[w]
        shape = classify_subtree(t, w1)
        if shape.kind == "H1" and shape.k >= 2:
            with_w = {m | {w} for m in candidate_family(t.remove_subtree(w1))}
            return with_w | candidate_family(t.remove_leaf(w))
    for w in deepest:
        w2 = t.parent[t.parent[w]]
        shape = classify_subtree(t, w2)
        if shape.kind == "H2" and shape.k1 == 1 and shape.k2 == 0:
            with_w = {m | {w} for m in candidate_family(t.remove_subtree(w2))}
            return with_w | candidate_family(t.remove_leaf(w))
    w = deepest[0]
    w2 = t.parent[t.parent[w]]
    spider = enumerate_h2(t, w2)
    rest = candidate_family(t.remove_subtree(w2))
    return {m1 | m2 for m1 in rest for m2 in spider}


def candidate_family_162(t: RootedTree) -> Family:
    """Superset of all multipackings of t via the simple Fibonacci recursion."""
    if t.is_empty():
        return {frozenset()}
    if t.n == 1:
        return {frozenset(), frozenset({t.root})}
    w = deepest_vertices(t)[0]
    y = t.parent[w]
    with_w = {m | {w} for m in candidate_family_162(t.remove_subtree(y))}
    return with_w | candidate_family_162(t.remove_leaf(w))


class BallMasks(NamedTuple):
    """The balls of a connected graph that decide whether a set is a multipacking.

    Vertex sets are int bitmasks (bit v for vertex v).  ``near[u]`` is
    N_2[u] without u; ``maximal[r]`` holds the inclusion-maximal balls N_r[v]
    for 2 <= r < rad, and is empty for other r.
    """

    rad: int
    near: tuple[int, ...]
    maximal: tuple[tuple[int, ...], ...]


def ball_masks(D: DistanceMatrix) -> BallMasks:
    """Ball bitmasks of the connected graph with distance matrix D."""
    rows = []  # rows[v][r] = N_r[v] for r = 0..ecc(v)
    for v in range(D.n):
        dist = D[v]
        row = [0] * (max(dist) + 1)
        for u, d in enumerate(dist):
            row[d] |= 1 << u
        for r in range(1, len(row)):
            row[r] |= row[r - 1]
        rows.append(row)
    rad = min(len(row) for row in rows) - 1
    # N_2[u] is everything when ecc(u) < 2, so the last row entry stands in.
    near = tuple(row[min(2, len(row) - 1)] & ~(1 << u) for u, row in enumerate(rows))
    maximal: list[tuple[int, ...]] = [()] * max(rad, 2)
    for r in range(2, rad):
        balls = {row[r] for row in rows}
        maximal[r] = tuple(b for b in balls if not any(b != c and b & c == b for c in balls))
    return BallMasks(rad, near, tuple(maximal))


def fits_balls(balls: BallMasks, members: Collection[int]) -> bool:
    """True iff ``members`` is a multipacking of the graph ``balls`` describes.

    |N_r[v] ∩ M| <= r is checked as follows.  A set larger than rad fails at
    the center, whose radius-rad ball is the whole graph; radii r >= |M| are
    vacuous.  r = 1 holds iff no two members are within distance 2.  For
    2 <= r < |M| a ball inside another ball of the same radius holds no more
    members, so only the maximal balls are counted.
    """
    k = len(members)
    if k <= 1:
        return True
    if k > balls.rad:
        return False
    mask = 0
    for u in members:
        mask |= 1 << u
    near = balls.near
    for u in members:
        if near[u] & mask:
            return False
    maximal = balls.maximal
    for r in range(2, k):
        for b in maximal[r]:
            if (b & mask).bit_count() > r:
                return False
    return True


def _solve_component(
    g: Graph, family_fn: Callable[[RootedTree], Family]
) -> tuple[int, tuple[int, ...], int]:
    balls = ball_masks(all_pairs(g))
    fam = family_fn(bfs_tree(g, 0))
    size = 0
    largest: list[frozenset[int]] = []  # survivors of the largest size so far
    for s in fam:
        if len(s) >= size and fits_balls(balls, s):
            if len(s) > size:
                size, largest = len(s), []
            largest.append(s)
    witness = min(tuple(sorted(s)) for s in largest)
    return size, witness, len(fam)


def solve_detailed(
    g: Graph, family_fn: Callable[[RootedTree], Family]
) -> tuple[int, tuple[int, ...], int]:
    """(MP, witness, total family size), decomposed per connected component.

    A set is a multipacking of a disconnected graph iff its restriction to
    each component is one, so per-component optima concatenate.
    """
    total = 0
    witness: list[int] = []
    family_total = 0
    for comp in connected_components(g):
        sub, old_ids = induced_subgraph(g, comp)
        size, local, fam_size = _solve_component(sub, family_fn)
        total += size
        witness.extend(old_ids[v] for v in local)
        family_total += fam_size
    return total, tuple(sorted(witness)), family_total


def max_multipacking_158(g: Graph) -> tuple[int, tuple[int, ...]]:
    size, witness, _ = solve_detailed(g, candidate_family)
    return size, witness


def max_multipacking_162(g: Graph) -> tuple[int, tuple[int, ...]]:
    size, witness, _ = solve_detailed(g, candidate_family_162)
    return size, witness
