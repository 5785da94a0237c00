"""Exact maximum-multipacking solvers via candidate families over BFS trees.

Every multipacking of a connected graph G is a multipacking of any spanning
tree T (tree distances dominate graph distances).  Both solvers branch over
T to get a family of vertex sets guaranteed to contain every multipacking
of T, and keep the best member that is a multipacking of G.  The simple
rule (``split_162``) gives an O*(1.62^n) family; the gadget-aware rule
(``split_158``) gives O*(1.58^n).

The solve (``solve_detailed``) builds the family as int bitmasks with
``family_packings``, which branches on trees cut by O(1) mask surgery
(``multipacking.rooted_tree``) and drops every set with two vertices within
distance 2 of G while it builds.  A cut tree is identified by its ``alive``
mask, and different branch paths reach the same mask, so the kernel runs in
two passes over the distinct masks: a plan pass (``_plan``) calls the rule
once per mask, records its step and its number of uses, and counts the full
unpruned family size without materialising it (``family_count`` runs this
pass alone); a build pass builds each pruned list once, shares it with every
parent and frees it after its last use.  A build also takes a size floor: it
drops every set that cannot grow into a root set of that many members.
Before it builds, the solve walks the multipackings in lexicographic order
for at most ``PREFIX_BUDGET`` children; the walk answers when it reaches
max(rad, 1) members, an upper bound on MP, or runs out of sets.  Otherwise
the solve builds once, at a lower bound on MP (the proofs are in
``family_packings`` and ``_solve_component``).  The witness pick is one pass over
the survivors that skips sets above rad and sets that cannot beat the best so
far, and calls ``fits_balls`` on the rest: the kernel already settled radius
1, so it counts members only at radii 2..rad-1, in one radius-ordered tuple
of maximal ball bitmasks that ``ball_masks`` reads off ``graph.ball_rows``.
The walk tests each set the same way.  The oracle reads the same rows, but
neither the walk nor ``fits_balls`` shares code with its DFS, so comparing
the solvers with the oracle compares two independent checkers.
``candidate_family`` and ``candidate_family_162`` build the unpruned
families as ``frozenset``s and are the reference the kernel is tested
against.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .graph import Graph, ball_rows, bfs_distances, connected_components, induced_subgraph, members
from .rooted_tree import RootedTree, bfs_tree, deepest_vertices

Family = set[frozenset[int]]

# The longest pruned list ``family_packings`` builds.  A solve's peak memory
# is about 50 bytes per set of its longest list, and the unpruned count can
# be larger by orders of magnitude.  Measured with the solve's size floors:
# it admits a158 and a162 on P_n for n <= 41 (P_42 is refused by the
# shortest-path bound), a158 on C_n for n <= 81 and a162 on C_n for
# n <= 67, and 16 random trees with n = 40 (lists to 8.0e6 sets, 394 MiB);
# it still refuses nine random trees with 45 <= n <= 120.  It bounds each
# list, not their sum, so a refusal can hold more.
MAX_FAMILY = 10**7

# The most children the prefix search of a solve (``_solve_component``)
# tries before it builds the family.  Each is one ``fits_balls`` call.  A
# larger budget answers more solves without a build but wastes more steps
# on the solves that build anyway.  Chosen in process on the 400 seed-1
# ``trees`` bench instances (a158, per solve, best of 5, a 2-core host):
# 0.69 ms with no prefix and two rounds of builds; 0.53 ms at 50 (-23 %,
# 230 of 400 answered), 0.56 ms at 20 and at 100, 0.58 ms at 200 (-16 %),
# and 0.84 ms at 1 000 (+22 %).
PREFIX_BUDGET = 50


def enumerate_h1(vertex_ids: Iterable[int]) -> Family:
    """All multipackings of a height<=1 star: the empty set plus singletons."""
    return {frozenset()} | {frozenset({v}) for v in vertex_ids}


def h2_roles(t: RootedTree, u: int) -> tuple[list[int], list[int], list[int]]:
    """Leg tops A, leg bottoms B, and leaf children C of an H2-shaped subtree,
    read from child masks: each a in A has exactly one kid b, itself a leaf."""
    kids, alive = t.arrays.kids, t.alive
    A = [c for c in members(kids[u] & alive) if kids[c] & alive]
    B = [(kids[a] & alive).bit_length() - 1 for a in A]
    if not A or any(kids[a] & alive != 1 << b or kids[b] & alive for a, b in zip(A, B)):
        raise ValueError(f"subtree at {u} is not H2")
    return A, B, [c for c in members(kids[u] & alive) if not kids[c] & alive]


def spider_masks(t: RootedTree, u: int) -> list[int]:
    """All multipackings of an H2(k1,k2) spider subtree rooted at u, as bitmasks.

    Size-2 members are exactly the pairs at tree distance >= 3: leg bottoms
    with leaf children, two distinct leg bottoms, and a leg top with the
    bottom of a different leg.
    """
    A, B, C = h2_roles(t, u)
    out = [0] + [1 << v for v in t.subtree_vertices(u)]
    out += [1 << b | 1 << c for b in B for c in C]
    out += [1 << b | 1 << B[j] for i, b in enumerate(B) for j in range(i + 1, len(B))]
    out += [1 << a | 1 << b for i, a in enumerate(A) for j, b in enumerate(B) if i != j]
    return out


def enumerate_h2(t: RootedTree, u: int) -> Family:
    """``spider_masks`` as a set of ``frozenset``s."""
    return {frozenset(members(m)) for m in spider_masks(t, u)}


Step = Optional[tuple[Optional[int], int]]  # None at the base case, else (w, top)
Split = Callable[[RootedTree], Step]


def split_158(t: RootedTree) -> Step:
    """The O(1.58^n) branching rule: ``None`` at height <= 1, else ``(w, top)``.

    The family is "sets with w over t - subtree(top), plus sets over t - w".
    Height >= 2 branches, tried in order for the deepest vertices w:
    (a) the parent subtree is a star with k >= 2 leaves: top is the parent;
    (b) the grandparent subtree is a bare 3-vertex leg: top is the grandparent;
    (c) otherwise the grandparent of the smallest-id deepest vertex roots a
        spider, returned as ``(None, top)``: its multipackings, enumerated in
        closed form, are combined with the family of t - subtree(top).
    w and its siblings are deepest, so leaves: (a) is "the parent has >= 2
    children".  After (a) fails for every w, each w is an only child: (b) is
    "the parent is the grandparent's only child".
    """
    if t.height <= 1:
        return None
    deepest = deepest_vertices(t)
    parent, kids, alive = t.arrays.parent, t.arrays.kids, t.alive
    for w in deepest:
        if (kids[parent[w]] & alive).bit_count() >= 2:
            return w, parent[w]
    for w in deepest:
        w1 = parent[w]
        if kids[parent[w1]] & alive == 1 << w1:
            return w, parent[w1]
    return None, parent[parent[deepest[0]]]


def split_162(t: RootedTree) -> Step:
    """The Fibonacci rule: ``None`` for at most one vertex, else ``(w, parent(w))``
    for the smallest-id deepest vertex w."""
    if t.n <= 1:
        return None
    w = deepest_vertices(t)[0]
    return w, t.arrays.parent[w]


def _reference_family(
    t: RootedTree, split: Split, recurse: Callable[[RootedTree], Family]
) -> Family:
    step = split(t)
    if step is None:
        return enumerate_h1(t.vertices())
    w, top = step
    rest = recurse(t.remove_subtree(top))
    if w is None:
        spider = enumerate_h2(t, top)
        return {m1 | m2 for m1 in rest for m2 in spider}
    return {m | {w} for m in rest} | recurse(t.remove_leaf(w))


def candidate_family(t: RootedTree) -> Family:
    """Superset of all multipackings of t, of size O(1.58^n) (rule ``split_158``).

    The reference for ``family_packings``, which the solve uses instead.
    """
    return _reference_family(t, split_158, candidate_family)


def candidate_family_162(t: RootedTree) -> Family:
    """Superset of all multipackings of t via the simple Fibonacci recursion
    (rule ``split_162``); the reference for ``family_packings``."""
    return _reference_family(t, split_162, candidate_family_162)


def _plan(t: RootedTree, split: Split) -> tuple[int, dict[int, tuple], dict[int, int]]:
    """The plan pass: t's unpruned family size, the step of every state, and
    how many times each state is used.

    A state is a tree cut from t, keyed by its ``alive`` mask; each distinct
    state calls ``split`` once.  Its step is ``(count, w, rest, without)``
    for "sets with w over rest, plus sets over without", ``(count, None,
    rest, spider)`` with the spider's multipackings as bitmasks, or
    ``(count, None, None, None)`` at the base case.  Uses count one per
    parent edge, and one for t itself.
    """
    steps: dict[int, tuple] = {}
    uses: dict[int, int] = {}

    def visit(t: RootedTree) -> int:
        key = t.alive
        if key in uses:
            uses[key] += 1
            return steps[key][0]
        uses[key] = 1
        step = split(t)
        if step is None:
            steps[key] = (t.n + 1, None, None, None)
            return t.n + 1
        w, top = step
        rest = t.remove_subtree(top)
        count = visit(rest)
        if w is None:
            spider = spider_masks(t, top)
            count *= len(spider)
            steps[key] = (count, None, rest.alive, spider)
        else:
            without = t.remove_leaf(w)
            count += visit(without)
            steps[key] = (count, w, rest.alive, without.alive)
        return count

    # One frame per nested state, so chains about n deep (a star's leaves
    # under split_162) pass the limit; raising it could overflow the C stack.
    try:
        return visit(t), steps, uses
    except RecursionError:
        raise ValueError(f"the candidate family of a {t.n}-vertex tree nests deeper "
                         f"than the recursion limit of {sys.getrecursionlimit()}") from None


def family_count(t: RootedTree, split: Split) -> int:
    """The size of t's unpruned candidate family under ``split``, from the
    plan pass alone: no family member is built."""
    return _plan(t, split)[0]


def _lows(steps: dict[int, tuple], floor: int) -> dict[int, int]:
    """For every state S of the plan, the fewest members a set in S's list
    needs to end in a root set of at least ``floor`` members: floor minus
    gain(S), and never below 0.

    gain(S) is the most members a branch path from the root to S adds above
    S: a with-w step adds w to the sets of ``rest``, a spider step adds a
    spider member (at most two vertices), and the step to ``without`` adds
    nothing.  ``steps`` is filled in post-order, so its reverse visits every
    parent before its children and the max over parents is final when read.
    """
    gain = dict.fromkeys(steps, 0)
    for key in reversed(steps):
        _, w, rest, other = steps[key]
        if rest is None:
            continue
        gain[rest] = max(gain[rest], gain[key] + (2 if w is None else 1))
        if w is not None:
            gain[other] = max(gain[other], gain[key])
    return {key: max(floor - g, 0) for key, g in gain.items()}


def _at_least(k: int, sets: list[int], held: int) -> list[int]:
    """The sets with at least k members, of a list whose sets hold at least
    ``held``; the list itself when that is enough."""
    return sets if held >= k else [m for m in sets if m.bit_count() >= k]


def _build(root: int, plan: tuple[int, dict[int, tuple], dict[int, int]],
           near: Sequence[int], floor: int) -> list[int]:
    """The build pass of ``family_packings`` over a ``_plan`` of the tree
    whose ``alive`` mask is ``root``; the plan is left as it was."""
    count, steps, uses = plan
    uses = dict(uses)
    lows = _lows(steps, floor)
    lists: dict[int, list[int]] = {}

    def build(key: int) -> list[int]:
        uses[key] -= 1
        if key in lists:
            return lists[key] if uses[key] else lists.pop(key)
        _, w, rest, other = steps[key]
        low = lows[key]
        if rest is None:
            # The empty set, then the singletons.
            out = ([0] + [1 << v for v in members(key)])[low:] if low < 2 else []
        elif w is None:
            # A member has at most two vertices, its lowest and its highest bit.
            ends = ((m, near[(m & -m).bit_length() - 1] | near[m.bit_length() - 1])
                    for m in other if m)
            blocks = [(0, 0)] + [(m, block) for m, block in ends if not m & block]
            if low <= lows[rest]:
                out = [m1 | m2 for m1 in build(rest) for m2, block in blocks if not m1 & block]
            else:
                # sized[j]: the blocks of at least j vertices (blocks[0] is
                # the empty one); fit[k]: those that lift k members to ``low``.
                pairs = [(m, block) for m, block in blocks if m & (m - 1)]
                sized = (blocks, blocks[1:], pairs, [])
                fit = [sized[min(max(low - k, 0), 3)] for k in range(rest.bit_count() + 1)]
                out = [m1 | m2 for m1 in build(rest) for m2, block in fit[m1.bit_count()]
                       if not m1 & block]
        else:
            bit, block = 1 << w, near[w]
            # The sets with w come first; building them before ``without``
            # lets ``rest``'s list go before the other branch is built.
            out = [m | bit for m in _at_least(low - 1, build(rest), lows[rest]) if not m & block]
            out += _at_least(low, build(other), lows[other])
        if len(out) > MAX_FAMILY:
            raise ValueError(f"candidate family of {count} sets: a pruned list of {len(out)} "
                             f"exceeds the budget of {MAX_FAMILY}")
        if uses[key]:
            lists[key] = out
        return out

    return build(root)


def family_packings(
    t: RootedTree, split: Split, near: Sequence[int], floor: int = 0
) -> tuple[list[int], int]:
    """The members of t's candidate family under ``split`` that have at least
    ``floor`` members and no two vertices u, v with bit v in ``near[u]``, as
    bitmasks; and the size of the whole family.  ``near`` must be symmetric
    and leave out u itself.

    With ``near = ball_masks(g).near`` this keeps the family members with no
    two vertices within distance 2 of G.  Pruning while building is sound:
    the radius-1 ball around a middle vertex holds both, and no superset of a
    pruned set is a multipacking either.  The count is exact without
    materialising the family because the branches are disjoint.

    The branching is a DAG: different branch paths cut t down to the same
    ``alive`` mask, whose list is then the same.  So the plan pass
    (``_plan``) first finds every distinct state, its step and its number of
    uses, calling ``split`` once per state.  The build pass then walks the
    plan, builds each state's pruned list once, hands it to every parent,
    and drops it from its table when the last use has taken it.  A pruned
    list longer than ``MAX_FAMILY`` raises ``ValueError`` as soon as it is
    built.

    The size floor: a set m in state S's list reaches the root as m plus at
    most gain(S) members (``_lows``), so the build drops m when
    |m| + gain(S) < ``floor`` and drops only root sets with fewer than
    ``floor`` members; at the root, gain is 0.  Each list is the floor-0
    list with some sets left out, in the same order, so the root list is the
    floor-0 list's sets of at least ``floor`` members, and no list is longer
    than at floor 0, so the budget refuses nothing that floor 0 admits.
    """
    plan = _plan(t, split)
    return _build(t.alive, plan, near, floor), plan[0]


class BallMasks(NamedTuple):
    """The balls of a connected graph that decide whether a set is a multipacking.

    Vertex sets are int bitmasks (bit v for vertex v).  ``rad`` and ``diam``
    are the graph's radius and diameter.  ``near[u]`` is N_2[u] without u.
    ``maximal`` holds the (r, ball) pairs with 2 <= r < rad, in descending
    r, whose ball N_r[v] is inclusion-maximal among the balls of radius r.
    """

    rad: int
    diam: int
    near: tuple[int, ...]
    maximal: tuple[tuple[int, int], ...]


def ball_masks(g: Graph) -> BallMasks:
    """Ball bitmasks of the connected graph g, read off ``ball_rows``."""
    rows = ball_rows(g)
    rad = min(len(row) for row in rows) - 1
    # N_2[u] is everything when ecc(u) < 2, so the last row entry stands in.
    near = tuple(row[min(2, len(row) - 1)] & ~(1 << u) for u, row in enumerate(rows))
    maximal: list[tuple[int, int]] = []
    # Widest radius first: the sets of rad members that a pick tests mostly
    # fail there (a pick that found none was 2-3x faster at n = 40).
    for r in range(rad - 1, 1, -1):
        # Largest first: a ball that holds b is kept or held by a kept ball.
        kept: list[int] = []
        for b in sorted({row[r] for row in rows}, key=int.bit_count, reverse=True):
            # A for loop: any() over a generator cost a quarter of this filter.
            for c in kept:
                if b & c == b:
                    break
            else:
                kept.append(b)
        maximal += ((r, b) for b in kept)
    return BallMasks(rad, max(len(row) for row in rows) - 1, near, tuple(maximal))


def fits_balls(balls: BallMasks, mask: int) -> bool:
    """True iff ``mask`` is a multipacking of the graph ``balls`` describes,
    for a set with at most max(rad, 1) members and no two within distance 2.

    Those are the sets the solve tests: the kernel and the prefix search
    settle r = 1, and a set above rad fails at the center, whose radius-rad
    ball is the whole graph.
    Radii r >= |M| are vacuous, and a ball inside another ball of the same
    radius holds no more members, so ``maximal`` read whole decides.
    """
    # A for loop: all() over a generator cost a quarter of the pick.
    for r, b in balls.maximal:
        if (b & mask).bit_count() > r:
            return False
    return True


_SPLITS: dict[str, Split] = {"a158": split_158, "a162": split_162}


def _solve_component(g: Graph, split: Split) -> tuple[int, tuple[int, ...], int]:
    """(MP, witness, unpruned family size) of the connected g.

    First, before any ball or tree is built, it refuses g when a shortest
    path has more multipackings than ``MAX_FAMILY``.  The BFS tree from
    vertex 0 has height h = ecc(0), and its root-to-deepest path is a
    shortest path of g with h + 1 vertices.  A ball N_r[v] meets a shortest
    path inside a stretch of length <= 2r, which lies in the path's own
    radius-r ball about its middle, so every multipacking of that path is one
    of g.  The root's floor-0 list holds every multipacking of g, so it has
    at least c_{h+1} sets, where c_k = c_{k-1} + c_{k-3} (c_1..c_3 = 2, 3, 4)
    counts the multipackings of P_k.  The solve builds at a size floor, whose
    lists can be shorter, so the refusal is the budget of the floor-0 family;
    it comes before ``ball_masks``, whose rows take memory cubic in the
    length of a long path.  The message leaves c out, as it can pass
    Python's int-to-str digit limit.

    Then one plan pass, which counts the family and refuses deep
    branching, and a prefix search before any build.  MP <= gamma_b <= rad
    (Brewster and Duchesne), and MP = 1 on one vertex, so top = max(rad, 1)
    bounds MP.  The floor-0 list holds every multipacking, so its pick is
    the lexicographically smallest sorted member tuple among the largest.
    - The prefix walks vertex sets in lexicographic order of their sorted
      member tuples, extends a set only by vertices above its last member,
      and keeps a child only if it is a multipacking (no two members within
      distance 2, then ``fits_balls``, as it has at most top members); each
      child tried counts against ``PREFIX_BUDGET``.  Multipackings are
      downward closed, so each is reached through its own prefixes, and the
      walk visits every multipacking of at most top members, in that
      order.  If it reaches a set of top members, MP = top and that set is
      the pick's; if it runs out of sets within the budget, it has seen
      every multipacking, and its first set of the largest size is the
      pick's.
    - Otherwise its best set L is a multipacking, and so is every third
      vertex of a diametral path, a shortest path of diam + 1 vertices
      (every multipacking of a shortest path is one of g).  So the floor
      max(ceil((diam + 1) / 3), |L|) is at most MP, the one build at that
      floor keeps every set of size MP, and the pick returns the (MP,
      witness) of the floor-0 list.
    """
    h = max(bfs_distances(g, 0))
    a, b, c = 1, 1, 1  # c_{-2}, c_{-1}, c_0
    for _ in range(h + 1):
        a, b, c = b, c, c + a
        if c > MAX_FAMILY:
            raise ValueError(f"a shortest path of {h + 1} vertices has more multipackings "
                             f"than the budget of {MAX_FAMILY}")
    balls = ball_masks(g)
    t = bfs_tree(g, 0)
    plan = _plan(t, split)
    top = max(balls.rad, 1)
    # The walk: cur is the set of the members on path, v the next vertex to try.
    left, path, cur, best, v = PREFIX_BUDGET, [], 0, 0, 0
    while len(path) < top and (path or v < g.n):
        if v == g.n:
            v = path.pop()  # every set that starts with path is seen
            cur ^= 1 << v
        elif not balls.near[v] & cur:
            if not left:
                floor = max((balls.diam + 3) // 3, best.bit_count())
                best = _pick(balls, _build(t.alive, plan, balls.near, floor))
                break
            left -= 1
            if fits_balls(balls, cur | 1 << v):
                cur |= 1 << v
                path.append(v)
                if len(path) > best.bit_count():
                    best = cur
        v += 1
    return best.bit_count(), tuple(members(best)), plan[0]


def _pick(balls: BallMasks, packings: list[int]) -> int:
    """The largest set of ``packings`` that fits ``balls``, the
    lexicographically smallest member tuple among equals; 0 if none fits.
    ``packings`` holds the kernel's sets, with no two members within
    distance 2, and a set above top = max(rad, 1) cannot fit."""
    top = max(balls.rad, 1)
    size = best = 0
    for m in packings:
        k = m.bit_count()
        if k < size:
            continue
        if k == size:
            # Of two sets of one size the earlier sorted tuple holds the
            # lowest differing vertex; a later set cannot win.
            d = m ^ best
            if not m & d & -d:
                continue
        elif k > top:
            continue
        if fits_balls(balls, m):
            size, best = k, m
    return best


def solve_detailed(g: Graph, algo: str) -> tuple[int, tuple[int, ...], int]:
    """(MP, witness, total candidate-family size) of g with algorithm
    ``"a158"`` (O*(1.58^n)) or ``"a162"`` (O*(1.62^n)), per connected component.

    Each component contributes the smallest sorted member tuple among its
    largest multipackings in the family; the witness is their sorted union.
    The family size counts the whole unpruned family, which is never built.
    A set is a multipacking of a disconnected graph iff its restriction to
    each component is one, so per-component optima concatenate.
    """
    if algo not in _SPLITS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {sorted(_SPLITS)}")
    total = 0
    witness: list[int] = []
    family_total = 0
    for comp in connected_components(g):
        sub, old_ids = induced_subgraph(g, comp)
        size, local, fam_size = _solve_component(sub, _SPLITS[algo])
        total += size
        witness.extend(old_ids[v] for v in local)
        family_total += fam_size
    return total, tuple(sorted(witness)), family_total


def max_multipacking_158(g: Graph) -> tuple[int, tuple[int, ...]]:
    size, witness, _ = solve_detailed(g, "a158")
    return size, witness


def max_multipacking_162(g: Graph) -> tuple[int, tuple[int, ...]]:
    size, witness, _ = solve_detailed(g, "a162")
    return size, witness
