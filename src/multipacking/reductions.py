"""Certified instance generators for the six hardness reductions.

Each generator emits the constructed graph together with per-vertex
provenance labels and the structural claims the construction is supposed
to satisfy (checkable with the class checkers).  Five variants share one
vertex layout (`_layout`): sets S_j first, then one path u_i^1..u_i^L per
element, then the variant's own block.  The Hitting-Set heads u_i^1 link
to the sets that miss i (`_misses`); CONV has no sets and joins its heads
along the complement of the input.  The regular variant lays out one
gadget per input vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .checkers import regularity
from .graph import Graph

# Largest output any reduction builds; each reduce_* checks its vertex and
# edge counts, computed from the input's sizes and k, before it allocates.
MAX_OUTPUT_VERTICES = 100_000
MAX_OUTPUT_EDGES = 1_000_000


@dataclass(frozen=True)
class HittingSetInstance:
    """Universe 0..n-1, a family of nonempty subsets, and a target size k."""

    n: int
    family: tuple[frozenset[int], ...]
    k: int

    @staticmethod
    def make(n: int, family, k: int) -> "HittingSetInstance":
        fam = tuple(frozenset(s) for s in family)
        for s in fam:
            if not s:
                raise ValueError("family contains an empty set")
            if any(not 0 <= e < n for e in s):
                raise ValueError("family element outside the universe")
        if k < 2:
            raise ValueError(f"target k={k} must be at least 2")
        return HittingSetInstance(n, fam, k)

    @property
    def m(self) -> int:
        return len(self.family)


@dataclass(frozen=True)
class ReductionOutput:
    """Constructed graph with provenance labels and claimed properties."""

    graph: Graph
    labels: tuple[str, ...]
    claims: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != self.graph.n:
            raise ValueError("one label per vertex required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("provenance labels must be unique")


def _check_output_size(variant: str, vertices: int, edges: int) -> None:
    """Raise ValueError when an output with at most these counts exceeds the caps."""
    if vertices > MAX_OUTPUT_VERTICES or edges > MAX_OUTPUT_EDGES:
        raise ValueError(
            f"{variant} reduction would build {vertices} vertices and up to {edges} edges;"
            f" the caps are {MAX_OUTPUT_VERTICES} and {MAX_OUTPUT_EDGES}"
        )


def _check_hs(variant: str, inst: HittingSetInstance, floor: int, vertices: int, edges: int) -> None:
    """Raise ValueError unless floor <= k, the output fits the caps
    (``_check_output_size``) and k <= n, checked in that order."""
    if inst.k < floor:
        raise ValueError(f"{variant} reduction needs k >= {floor}")
    _check_output_size(variant, vertices, edges)
    if inst.k > inst.n:
        raise ValueError(f"{variant} reduction needs k <= n = {inst.n}, got k = {inst.k}")


def _layout(m: int, n: int, length: int):
    """Family vertices S_0..S_{m-1} at ids 0..m-1, then element i's path
    u_i^1..u_i^length at ids m + i*length + (0..length-1).
    Returns (path ids, path edges, labels in id order)."""
    paths = [[m + i * length + j for j in range(length)] for i in range(n)]
    edges = [(row[j], row[j + 1]) for row in paths for j in range(length - 1)]
    labels = [f"S_{j}" for j in range(m)] + [
        f"u_{i}^{j + 1}" for i in range(n) for j in range(length)
    ]
    return paths, edges, labels


def _misses(inst: HittingSetInstance) -> list[tuple[int, int]]:
    """The pairs (j, i) with element i not in S_j, set-major."""
    return [(j, i) for j, S in enumerate(inst.family) for i in range(inst.n) if i not in S]


def reduce_hs_chordal(inst: HittingSetInstance) -> ReductionOutput:
    """Hitting Set -> Multipacking on a chordal graph.

    Family clique; per universe element a path of k-1 vertices whose head
    is adjacent to exactly the family sets NOT containing the element.
    |V| = m + n(k-1); min-HS <= k iff MP >= k (2 <= k <= n).
    """
    n, m, k = inst.n, inst.m, inst.k
    _check_hs("chordal", inst, 2, m + n * (k - 1), comb(m, 2) + n * (k - 2) + n * m)
    paths, edges, labels = _layout(m, n, k - 1)
    edges += itertools.combinations(range(m), 2)
    edges += [(paths[i][0], j) for j, i in _misses(inst)]
    g = Graph.from_edges(len(labels), edges)
    return ReductionOutput(g, tuple(labels), ("chordal",))


def reduce_hs_half_hyperbolic(inst: HittingSetInstance) -> ReductionOutput:
    """Hitting Set -> Multipacking on a chordal, 1/2-hyperbolic graph.

    Adds a pair vertex y_{i,j} for every i<j adjacent to both path heads,
    and the family together with all pair vertices forms one clique.
    |V| = m + n(k-1) + C(n,2); min-HS <= k iff MP >= k (3 <= k <= n).
    """
    n, m, k = inst.n, inst.m, inst.k
    y = comb(n, 2)
    _check_hs("half-hyperbolic", inst, 3, m + n * (k - 1) + y,
              n * (k - 2) + n * m + 2 * y + comb(m + y, 2))
    paths, edges, labels = _layout(m, n, k - 1)
    edges += [(paths[i][0], j) for j, i in _misses(inst)]
    y_base = len(labels)
    pairs = list(itertools.combinations(range(n), 2))
    edges += [(y_base + t, paths[i][0]) for t, pair in enumerate(pairs) for i in pair]
    labels += [f"y_{{{i},{j}}}" for i, j in pairs]
    edges += itertools.combinations([*range(m), *range(y_base, len(labels))], 2)
    g = Graph.from_edges(len(labels), edges)
    return ReductionOutput(g, tuple(labels), ("chordal", "half_hyperbolic"))


def _hit_by_two(inst: HittingSetInstance) -> bool:
    """Whether one element or one pair hits every set (an empty family
    is hit by the empty set).  Such a set holds an element a of the
    smallest set, and the sets missing a share its other element."""
    if not inst.family:
        return True
    for a in min(inst.family, key=len):
        missed = [S for S in inst.family if a not in S]
        if not missed or frozenset.intersection(*missed):
            return True
    return False


def reduce_hs_bipartite(inst: HittingSetInstance) -> ReductionOutput:
    """Hitting Set -> Multipacking on a bipartite graph.

    No family clique; instead an apex vertex C adjacent to every family
    vertex.  |V| = m + 1 + n(k-1); min-HS <= k iff MP >= k (2 <= k <= n).

    k = 2 needs its own branch.  In any graph MP >= 2 iff two vertices are
    at distance >= 3 or in different components.  A head u_i^1 and a
    family vertex S_j with i in S_j lie on opposite sides and are not
    joined, so they are at odd distance >= 3 and the gadget alone gives
    MP >= 2 on every instance.  A bipartite output of a no-instance must
    then have diameter <= 2, i.e. be complete bipartite, which no
    per-element gadget achieves.  So at k = 2 min-HS <= 2 is decided
    directly (`_hit_by_two`, O(|S_min| sum |S|) work): a yes-instance gets
    the gadget unchanged, a no-instance gets every head joined to every
    S_j, which makes the output complete bipartite between {S_j} and
    {u_i^1, C} (MP = 1).  Size, ids, labels and C's neighbourhood are the
    same in both branches.
    """
    n, m, k = inst.n, inst.m, inst.k
    _check_hs("bipartite", inst, 2, m + n * (k - 1) + 1, n * (k - 2) + n * m + m)
    paths, edges, labels = _layout(m, n, k - 1)
    join_all = k == 2 and not _hit_by_two(inst)
    links = itertools.product(range(m), range(n)) if join_all else _misses(inst)
    edges += [(paths[i][0], j) for j, i in links]
    edges += [(len(labels), j) for j in range(m)]  # the apex C
    labels.append("C")
    g = Graph.from_edges(len(labels), edges)
    return ReductionOutput(g, tuple(labels), ("bipartite",))


def reduce_hs_clawfree(inst: HittingSetInstance) -> ReductionOutput:
    """Hitting Set -> Multipacking on a claw-free graph.

    Element paths are one vertex shorter (k-2 vertices) and each
    non-membership link is subdivided through a vertex w_{j,i}; two w
    vertices are adjacent iff they share the family index or the element
    index.  |V| = m + n(k-2) + sum_j |U \\ S_j|; min-HS <= k iff MP >= k
    (3 <= k <= n; k >= 3 so the element paths are nonempty).
    """
    n, m, k = inst.n, inst.m, inst.k
    w_max = n * m  # at most one w vertex per (set, element) pair
    w_clique = m * comb(n, 2) + n * comb(m, 2)  # w pairs sharing a set or an element
    _check_hs("claw-free", inst, 3, m + n * (k - 2) + w_max,
              comb(m, 2) + n * (k - 3) + 2 * w_max + w_clique)
    paths, edges, labels = _layout(m, n, k - 2)
    edges += itertools.combinations(range(m), 2)
    w_base = len(labels)
    w_pairs = _misses(inst)
    groups: dict[tuple[str, int], list[int]] = {}  # the w vertices of one set or one element
    for t, (j, i) in enumerate(w_pairs):
        w = w_base + t
        edges += [(j, w), (w, paths[i][0])]
        groups.setdefault(("S", j), []).append(w)
        groups.setdefault(("u", i), []).append(w)
    for group in groups.values():
        edges += itertools.combinations(group, 2)
    labels += [f"w_{{{j},{i}}}" for j, i in w_pairs]
    g = Graph.from_edges(len(labels), edges)
    return ReductionOutput(g, tuple(labels), ("claw_free",))


def havel_hakimi_regular(n: int, d: int) -> Graph:
    """Simple d-regular graph on n vertices by the Havel-Hakimi reduction.

    Repeatedly satisfies the highest-residual vertex (smallest id on ties)
    by connecting it to the next-highest residual vertices.  Requires
    n*d even and d < n.
    """
    if not 0 <= d < n:
        raise ValueError(f"need 0 <= d < n, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d = {n * d} is odd: no d-regular graph exists")
    residual = [d] * n
    edges: list[tuple[int, int]] = []
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = max(range(n), key=lambda u: (residual[u], -u))
        need = residual[v]
        if need == 0:
            break
        targets = sorted(
            (u for u in range(n) if u != v and u not in adj[v]),
            key=lambda u: (-residual[u], u),
        )[:need]
        if len(targets) < need or any(residual[u] == 0 for u in targets):
            raise AssertionError("regular degree sequence must be graphical")
        for u in targets:
            edges.append((v, u))
            adj[v].add(u)
            adj[u].add(v)
            residual[u] -= 1
        residual[v] = 0
    return Graph.from_edges(n, edges)


def reduce_tds_regular(g: Graph, k: int) -> ReductionOutput:
    """Total Dominating Set on cubic graphs -> Multipacking on 2d-regular graphs.

    Per input vertex a gadget: apex u_a^1, clique layer S_a^2, complete
    bipartite chains up to S_a^{k-2}, and a (2d-1)-regular block T_a of d^2
    vertices partitioned into d groups each wired to one vertex of the last
    layer.  Apexes are joined along the complement of the input.
    d = n - 4; |V| = n(1 + (k-3)d + d^2).  Gadget a is the id range from
    base = a(1 + (k-3)d + d^2): u_a^1 at base, the layers S_a^2..S_a^{k-2}
    of d ids each, then T_a from t = base + 1 + (k-3)d, group j from t + jd.
    """
    n = g.n
    if regularity(g) != 3:
        raise ValueError("input must be 3-regular")
    if n < 6:
        raise ValueError("input must have at least 6 vertices")
    if k < 4:
        raise ValueError("regular reduction needs k >= 4")
    d = n - 4
    size = 1 + (k - 3) * d + d * d
    _check_output_size("regular", n * size, n * size * d)  # the output is 2d-regular
    t_edges = havel_hakimi_regular(d * d, 2 * d - 1).edges()
    edges: list[tuple[int, int]] = []
    labels: list[str] = []
    for a in range(n):
        base = a * size
        labels.append(f"H_{a}:u^1")
        for i in range(2, k - 1):
            labels += [f"H_{a}:u^{{{i},{j + 1}}}" for j in range(d)]
        labels += [f"H_{a}:u^{{k-1,{j + 1}}}" for j in range(d * d)]
        layers = [range(base + 1 + i * d, base + 1 + (i + 1) * d) for i in range(k - 3)]
        t = base + 1 + (k - 3) * d
        edges += itertools.combinations([base, *layers[0]], 2)  # u_a^1 and the clique S_a^2
        for cur, nxt in zip(layers, layers[1:]):
            edges += itertools.product(cur, nxt)
        edges += [(t + u, t + v) for u, v in t_edges]
        edges += [(s, t + j * d + p) for j, s in enumerate(layers[-1]) for p in range(d)]
    edges += [(a * size, b * size) for a, b in g.complement().edges()]
    out = Graph.from_edges(n * size, edges)
    return ReductionOutput(out, tuple(labels), (f"regular({2 * d})",))


def regular_forward_witness(
    g: Graph, tds: list[int], k: int
) -> tuple[int, ...]:
    """Designated multipacking witness from a total dominating set of size <= k.

    The TDS is extended deterministically to exactly k vertices (smallest
    ids first; any superset of a TDS is one), and the witness picks the
    first T_a vertex of each selected gadget.
    """
    d = g.n - 4
    size = 1 + (k - 3) * d + d * d
    chosen = sorted(tds)
    for v in range(g.n):
        if len(chosen) >= k:
            break
        if v not in chosen:
            chosen.append(v)
    return tuple(sorted(a * size + 1 + (k - 3) * d for a in chosen))


def reduce_tds_conv(g: Graph, k: int) -> ReductionOutput:
    """Total Dominating Set on planar graphs -> Multipacking on CONV graphs.

    Per input vertex a path of k-1 vertices; path heads are joined along
    the complement of the input.  Planarity of the input is a caller
    promise (recorded as a claim tag, not verified).  |V| = n(k-1).
    """
    n = g.n
    if k < 2:
        raise ValueError("CONV reduction needs k >= 2")
    _check_output_size("CONV", n * (k - 1), n * (k - 2) + comb(n, 2))
    paths, edges, labels = _layout(0, n, k - 1)
    edges += [(paths[a][0], paths[b][0]) for a, b in g.complement().edges()]
    out = Graph.from_edges(len(labels), edges)
    return ReductionOutput(out, tuple(labels), ("conv_promise",))
