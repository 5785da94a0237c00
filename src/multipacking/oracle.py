"""Ground-truth brute-force oracles at desk scale.

Everything here is exhaustive and independent of the candidate-family
solvers, so it can arbitrate their answers.  Witness tie-break throughout:
maximum size first, then lexicographically smallest member tuple.

Each search checks its vertex cap first, then reads its balls from
`graph.ball_rows`; only `is_multipacking` and `is_dominating_broadcast`, the
definitional referees of the searches, read distances (their caller's D).
One DFS, `_search`, passes each multipacking to `visit` as an int bitmask,
in lexicographic order of sorted member tuples, until `visit` returns a
true value.  `enumerate_multipackings` never stops it and lists them all as
sorted tuples (`pathcount` reads the maximal sets from that list);
`brute_force_mp` keeps only the best mask seen and stops once its size
reaches the sum over components of max(1, rad), which bounds MP
(MP <= gamma_b <= rad per component).  The first set of a new largest size
is the lexicographically smallest of that size, so that set is the witness.

Each DFS node holds two masks: its members M, and the vertices after its
last member that lie outside blocked(M).  For a multipacking M, blocked(M)
is the union of the balls N_r[c], 1 <= r <= |M|, that already hold exactly
r members of M.  Adding v changes only the counts of the balls that contain
v, and no radius r > |M| can overfill, so M ∪ {v} is a multipacking iff v
is not in blocked(M).  For M' = M ∪ {v}, a ball without v keeps its count
(at most |M|, so never full at the new radius |M| + 1), and no ball with v
was full for M.  So blocked(M') is blocked(M) plus the balls N_r[c] with
max(d(c, v), 1) <= r <= |M| + 1 that hold exactly r members of M' (no
ball of a center in another component holds v).  The solver reads the same
`graph.ball_rows`, but this DFS shares no code with its `fits_balls`, so the
two stay independent checkers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .checkers import is_chordal
from .graph import DistanceMatrix, Graph, ball_rows, members

DEFAULT_MP_CAP = 22
DEFAULT_GAMMA_CAP = 12


def _check_cap(n: int, cap: int) -> None:
    """Refuse graphs above the vertex cap before any balls or distances are computed."""
    if n > cap:
        raise ValueError(f"n={n} exceeds cap {cap}")


def is_multipacking(g: Graph, D: DistanceMatrix, members: Sequence[int]) -> bool:
    """True iff |N_r[v] ∩ M| <= r for every vertex v and every r >= 1.

    Radii r >= |M| are vacuous (the intersection can never exceed |M|),
    so only r = 1..|M|-1 are checked.  Only the members' rows of D are
    read, as d(v, u) = D[u][v], so a caller may leave the other rows empty.
    """
    M = sorted(set(members))
    for v in M:
        if not 0 <= v < g.n:
            raise ValueError(f"member {v} out of range")
    if len(M) <= 1:
        return True
    rmax = len(M) - 1
    rows = [D[u] for u in M]
    for v in range(g.n):
        ds = sorted(row[v] for row in rows)
        # ds[r] <= r means at least r+1 members sit inside N_r[v]
        for r in range(1, rmax + 1):
            if ds[r] <= r:
                return False
    return True


def _search(rows: list[list[int]], visit) -> None:
    """Call visit on the member bitmask of every multipacking of the graph
    with ball rows ``rows`` (``graph.ball_rows``), in lexicographic order of
    sorted member tuples, until a call of visit returns a true value.

    Only extensions of multipackings are explored (they are downward
    closed), so the running time is polynomial in the output size.  Each
    node holds `free`: the vertices after its last member that are outside
    blocked(cur) (see the module docstring), each an extension to accept.
    """
    n = len(rows)
    # balls[c][r] is N_r[c] for r = 0..n; past ecc(c) it is c's component.
    balls = [row + row[-1:] * (n + 1 - len(row)) for row in rows]
    # near[v] pairs the centers c in v's component, nearest first, with
    # max(d(v, c), 1): the smallest radius at which N_r[c] holds v.  extend
    # ORs whole balls, so the order among the centers of one radius does not
    # matter.  Each list is built the first time the DFS extends from v, so
    # a search that stops early pays only for the vertices it reached.
    near: list[Optional[list[tuple[int, list[int]]]]] = [None] * n

    if visit(0):
        return

    def extend(cur: int, size: int, free: int) -> bool:
        """Visit each child cur | {v}, v in free ascending, and its subtree;
        size is the children's member count."""
        while free:
            low = free & -free
            free ^= low
            new = cur | low
            if visit(new):
                return True
            if free:  # the child's free vertices are some of these
                full = 0
                v = low.bit_length() - 1
                if near[v] is None:
                    row = rows[v]
                    near[v] = [(d or 1, balls[c]) for d in range(len(row))
                               for c in members(row[d] & ~(row[d - 1] if d else 0))]
                for lo, ball in near[v]:
                    if lo > size:
                        break
                    # counts grow with r but never pass it: a count k < r rules
                    # out radii k+1..r, and the largest full ball holds the rest
                    r = size
                    while r >= lo:
                        k = (ball[r] & new).bit_count()
                        if k == r:
                            full |= ball[r]
                            break
                        r = k
                if extend(new, size + 1, free & ~full):
                    return True
        return False

    extend(0, 1, (1 << n) - 1)


def enumerate_multipackings(g: Graph, cap: int = DEFAULT_MP_CAP) -> list[tuple[int, ...]]:
    """All multipackings of g, in lexicographic order of sorted member tuples."""
    _check_cap(g.n, cap)
    masks: list[int] = []
    _search(ball_rows(g), masks.append)
    return [tuple(members(m)) for m in masks]


def pick_best(sets: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """Maximum-size set, ties broken by lexicographically smallest tuple."""
    best: Optional[tuple[int, ...]] = None
    for s in sets:
        t = tuple(sorted(s))
        if best is None or len(t) > len(best) or (len(t) == len(best) and t < best):
            best = t
    if best is None:
        raise ValueError("empty family")
    return len(best), best


def brute_force_mp(g: Graph, cap: int = DEFAULT_MP_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact MP(G) with the lexicographically smallest maximum witness.

    Keeps only the best set: the search runs in lexicographic order, so the
    first set of each new largest size is the witness.  The search ends once
    that size reaches the sum over components of max(1, rad): on each
    component MP <= gamma_b <= rad (a single vertex has MP 1), and MP of a
    disjoint union is the sum over its parts, so no larger set exists.
    """
    _check_cap(g.n, cap)
    rows = ball_rows(g)
    # component -> radius: a shorter row, later in the sort, overwrites a longer
    rad = {row[-1]: len(row) - 1 for row in sorted(rows, key=len, reverse=True)}
    bound = sum(max(1, r) for r in rad.values())
    best, best_size = 0, 0

    def keep(s: int) -> bool:
        nonlocal best, best_size
        size = s.bit_count()
        if size > best_size:
            best, best_size = s, size
        return best_size >= bound

    _search(rows, keep)
    return best_size, tuple(members(best))


def is_total_dominating(g: Graph, S: Sequence[int]) -> bool:
    """True iff every vertex of g has a neighbor in S."""
    members = set(S)
    return all(any(u in members for u in g.adj[v]) for v in range(g.n))


def brute_force_min_tds(g: Graph) -> int:
    """Exact minimum total dominating set size; errors on isolated vertices.

    A set totally dominates g iff it hits every open neighbourhood N(v).
    """
    _check_cap(g.n, DEFAULT_MP_CAP)
    if any(not g.adj[v] for v in range(g.n)):
        raise ValueError("no total dominating set exists: isolated vertex")
    return brute_force_min_hs(g.n, g.adj)


def brute_force_min_hs(universe_size: int, family: Sequence[Sequence[int]]) -> int:
    """Exact minimum hitting set size over subsets of 0..universe_size-1."""
    if universe_size > DEFAULT_MP_CAP:
        raise ValueError(f"universe size {universe_size} exceeds cap {DEFAULT_MP_CAP}")
    sets = [frozenset(s) for s in family]
    if any(not s for s in sets):
        raise ValueError("unhittable: family contains an empty set")
    for s in sets:
        if any(not 0 <= e < universe_size for e in s):
            raise ValueError("family element out of universe range")
    for size in range(universe_size + 1):
        for H in itertools.combinations(range(universe_size), size):
            if all(not s.isdisjoint(H) for s in sets):
                return size
    raise AssertionError("unreachable: the whole universe hits every nonempty set")


def is_dominating_broadcast(g: Graph, D: DistanceMatrix, powers: Sequence[int]) -> bool:
    """True iff the broadcast f(v) = powers[v] dominates g: every vertex lies
    within distance powers[v] of some v with powers[v] >= 1."""
    supports = [v for v, p in enumerate(powers) if p >= 1]
    if not supports:
        return g.n == 0
    return all(
        any(D[v][u] <= powers[v] for v in supports) for u in range(g.n)
    )


def brute_force_gamma_b(g: Graph, cap: int = DEFAULT_GAMMA_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact broadcast domination number and an optimal broadcast, as
    (cost, powers) with powers[v] = f(v) and cost = sum(powers), by
    ascending-cost exhaustive search.

    An optimal broadcast exists with all powers <= rad(G), so the search
    terminates at cost rad(G) (cost 1 for the single-vertex graph).  Power
    vectors run in lexicographic order, each carrying its covered mask: power
    p >= 1 at v covers the ball N_p[v], all of V once p reaches ecc(v).
    """
    _check_cap(g.n, cap)
    rows = ball_rows(g)
    if g.n == 0 or rows[0][-1] != (1 << g.n) - 1:
        raise ValueError("broadcast domination requires a connected nonempty graph")
    pmax = max(min(map(len, rows)) - 1, 1)
    powers = [0] * g.n

    def rec(v: int, rem: int, covered: int) -> bool:
        if rem == 0:
            return covered == rows[0][-1]
        if v == g.n:
            return False
        for p in range(0, min(pmax, rem) + 1):
            powers[v] = p
            ball = rows[v][min(p, len(rows[v]) - 1)] if p else 0
            if rec(v + 1, rem - p, covered | ball):
                return True
        powers[v] = 0
        return False

    for cost in range(1, pmax + 1):
        if rec(0, cost, 0):
            return cost, tuple(powers)
    raise AssertionError("unreachable: a central vertex at full power dominates")


@dataclass(frozen=True)
class DualityReport:
    """MP and broadcast-domination values with witnesses and bound flags."""

    mp: int
    gamma_b: int
    mp_witness: tuple[int, ...]
    broadcast_witness: tuple[int, ...]  # powers f(v), as brute_force_gamma_b gives them
    bound_2mp3_ok: bool
    bound_chordal_ok: Optional[bool]  # None when the graph is not chordal


def duality_report(
    g: Graph,
    mp_cap: int = DEFAULT_MP_CAP,
    gamma_cap: int = DEFAULT_GAMMA_CAP,
) -> DualityReport:
    """Exact MP vs gamma_b comparison with both duality bounds checked."""
    # gamma_b first: its cap of 12 and its connectivity check refuse at once
    gamma, f = brute_force_gamma_b(g, cap=gamma_cap)
    mp, witness = brute_force_mp(g, cap=mp_cap)
    chordal, _ = is_chordal(g)
    chordal_ok = (gamma <= -(-3 * mp // 2)) if chordal else None
    return DualityReport(
        mp=mp,
        gamma_b=gamma,
        mp_witness=witness,
        broadcast_witness=f,
        bound_2mp3_ok=gamma <= 2 * mp + 3,
        bound_chordal_ok=chordal_ok,
    )
