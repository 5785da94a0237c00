import random
from itertools import combinations

import networkx as nx
import pytest

import multipacking.solver as solver_module
from conftest import classify_subtree, complete, cycle, path, star, tree_catalog
from multipacking.graph import (
    Graph,
    all_pairs,
    connected_components,
    induced_subgraph,
    is_connected,
    members,
)
from multipacking.oracle import (
    brute_force_mp,
    enumerate_multipackings,
    is_multipacking,
)
from multipacking.pathcount import count_all_path
from multipacking.randgen import random_connected_graph, random_tree
from multipacking.rooted_tree import RootedTree, bfs_tree, deepest_vertices
from multipacking.solver import (
    PREFIX_BUDGET,
    ball_masks,
    candidate_family,
    candidate_family_162,
    enumerate_h1,
    enumerate_h2,
    family_count,
    family_packings,
    fits_balls,
    h2_roles,
    max_multipacking_158,
    max_multipacking_162,
    solve_detailed,
    spider_masks,
    split_158,
    split_162,
)
from test_acceptance import random_graph_batch
from test_rooted_tree import chain, spider

# The prefix search off, at one child, and at its default.
BUDGETS = (0, 1, PREFIX_BUDGET)


def test_enumerate_h1_counts():
    for k in range(0, 8):
        fam = enumerate_h1(range(k + 1))  # star on k+1 vertices
        assert len(fam) == k + 2
        assert frozenset() in fam


def test_h2_roles(trees_up_to_9):
    sp = spider(2, 1)
    A, B, C = h2_roles(sp, 0)
    assert A == [1, 2] and B == [3, 4] and C == [5]
    with pytest.raises(ValueError):
        h2_roles(bfs_tree(star(3), 0), 0)
    # h2_roles accepts exactly the subtrees the reference classifies as H2
    for g in trees_up_to_9:
        for r in range(g.n):
            t = bfs_tree(g, r)
            for u in range(g.n):
                shape = classify_subtree(t, u)
                if shape.kind == "H2":
                    A, B, C = h2_roles(t, u)
                    assert (len(A), len(C)) == (shape.k1, shape.k2)
                else:
                    with pytest.raises(ValueError):
                        h2_roles(t, u)


def test_enumerate_h2_closed_form():
    from math import comb

    for k1 in range(1, 5):
        for k2 in range(0, 5):
            sp = spider(k1, k2)
            fam = enumerate_h2(sp, 0)
            n = 1 + 2 * k1 + k2
            pairs = k1 * k2 + comb(k1, 2) + k1 * (k1 - 1)
            assert len(fam) == 1 + n + pairs
            assert all(len(m) <= 2 for m in fam)


def test_enumerate_h2_matches_brute_enumeration():
    for k1 in range(1, 4):
        for k2 in range(0, 4):
            sp = spider(k1, k2)
            edges = [(v, p) for v, p in sp.parent.items() if p is not None]
            g = Graph.from_edges(sp.n, edges)
            brute = {frozenset(m) for m in enumerate_multipackings(g)}
            assert enumerate_h2(sp, 0) == brute


def test_candidate_family_small_traces():
    assert candidate_family(RootedTree.empty()) == {frozenset()}
    assert candidate_family(chain(1)) == {frozenset(), frozenset({0})}
    assert candidate_family(chain(3)) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    }
    # whole tree is one spider: closed-form enumeration, 12 sets
    assert len(candidate_family(spider(2, 1))) == 12


def test_candidate_family_superset_exhaustive(trees_up_to_9):
    for g in trees_up_to_9:
        t = bfs_tree(g, 0)
        fam = candidate_family(t)
        fam162 = candidate_family_162(t)
        for m in enumerate_multipackings(g):
            assert frozenset(m) in fam
            assert frozenset(m) in fam162


def test_candidate_family_superset_random_trees():
    rng = random.Random(23)
    for _ in range(30):
        g = random_tree(rng.randint(2, 13), rng)
        fam = candidate_family(bfs_tree(g, 0))
        for m in enumerate_multipackings(g):
            assert frozenset(m) in fam


def test_solvers_agree_with_oracle_exhaustive(trees_up_to_9):
    for g in trees_up_to_9:
        size, witness = brute_force_mp(g)
        assert max_multipacking_158(g) == (size, witness)
        assert max_multipacking_162(g) == (size, witness)


def test_solvers_agree_with_oracle_random_graphs():
    rng = random.Random(41)
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 9), rng)
        size, witness = brute_force_mp(g)
        assert max_multipacking_158(g) == (size, witness)
        assert max_multipacking_162(g) == (size, witness)


def test_known_values():
    assert max_multipacking_158(path(4)) == (2, (0, 3))
    assert max_multipacking_158(cycle(4)) == (1, (0,))
    assert max_multipacking_158(path(10))[0] == 4
    assert max_multipacking_158(star(5))[0] == 1


def test_cross_component_additivity():
    two_p4 = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    )
    size, witness, _ = solve_detailed(two_p4, "a158")
    assert size == 4 and witness == (0, 3, 4, 7)
    with_isolated = Graph.from_edges(3, [(0, 1)])
    size, witness, _ = solve_detailed(with_isolated, "a158")
    assert size == 2 and witness == (0, 2)


def test_family_size_reported():
    g = path(6)
    _, _, fam158 = solve_detailed(g, "a158")
    _, _, fam162 = solve_detailed(g, "a162")
    assert fam158 >= 1 and fam162 >= 1


def _subsets(n: int):
    return (tuple(v for v in range(n) if bits >> v & 1) for bits in range(1 << n))


def _assert_mask_check_agrees(g: Graph, subsets) -> None:
    """The solve's split of the check: the size bound, the kernel's radius-1
    prune, then ``fits_balls``; against the definitional check."""
    D = all_pairs(g)
    balls = ball_masks(g)
    for m in subsets:
        mask = sum(1 << v for v in m)
        fits = len(m) <= 1 or (
            len(m) <= balls.rad
            and not any(balls.near[u] & mask for u in m)
            and fits_balls(balls, mask)
        )
        assert fits == is_multipacking(g, D, m), m


def test_mask_check_matches_oracle_on_all_subsets_of_trees(trees_up_to_9):
    for g in trees_up_to_9:
        _assert_mask_check_agrees(g, _subsets(g.n))


def test_mask_check_matches_oracle_on_random_graphs():
    rng = random.Random(59)
    for _ in range(80):
        n = rng.randint(2, 24)
        g = random_connected_graph(n, rng, rng.choice((0.3, 0.05, 1 / n)))
        D = all_pairs(g)
        subsets = []
        for _ in range(30):
            p = rng.choice((0.15, 0.3, 0.5))
            subsets.append(tuple(v for v in range(g.n) if rng.random() < p))
            # members pairwise >= 3 apart pass radius 1, so radii >= 2 decide
            spread: list[int] = []
            for v in rng.sample(range(g.n), g.n):
                if all(D[v][u] >= 3 for u in spread):
                    spread.append(v)
            subsets.append(tuple(spread))
        _assert_mask_check_agrees(g, subsets)


def test_mask_check_on_one_and_two_vertex_components():
    # Some ball rows here stop before radius 2, at the vertex's eccentricity.
    for g in (Graph.from_edges(1, []), path(2), path(3)):
        _assert_mask_check_agrees(g, _subsets(g.n))
    assert ball_masks(path(2)).rad == 1


def test_maximal_balls_match_the_quadratic_filter():
    """ball_masks keeps, per radius, the same maximal balls as the filter
    that tests every distinct ball against every other, with balls read off
    all_pairs, on the connected atlas graphs and on seeded trees."""
    graphs = [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()[1:]]
    rng = random.Random(31)
    graphs = [g for g in graphs if is_connected(g)] + [random_tree(rng.randint(2, 40), rng) for _ in range(150)]
    for g in graphs:
        D = all_pairs(g)
        masks = ball_masks(g)
        for r in range(2, masks.rad):
            maximal = [b for s, b in masks.maximal if s == r]
            balls = {sum(1 << u for u, d in enumerate(row) if d <= r) for row in D}
            expected = {b for b in balls if not any(b != c and b & c == b for c in balls)}
            assert len(maximal) == len(expected) and set(maximal) == expected, g.adj


def test_solve_detailed_on_small_components():
    # K1 + K2 + P4 on ids 0 | 1-2 | 3-4-5-6
    g = Graph.from_edges(7, [(1, 2), (3, 4), (4, 5), (5, 6)])
    expected = brute_force_mp(g)
    assert expected == (4, (0, 1, 3, 6))
    for algo in ("a158", "a162"):
        size, witness, _ = solve_detailed(g, algo)
        assert (size, witness) == expected


def shape_split_158(t: RootedTree):
    """Reference 1.58 rule: cases (a) and (b) read from the ``GadgetShape``
    of the parent and the grandparent of each deepest vertex."""
    if t.height <= 1:
        return None
    deepest = deepest_vertices(t)
    parent = t.arrays.parent
    for w in deepest:
        w1 = parent[w]
        shape = classify_subtree(t, w1)
        if shape.kind == "H1" and shape.k >= 2:
            return w, w1
    for w in deepest:
        w2 = parent[parent[w]]
        shape = classify_subtree(t, w2)
        if shape.kind == "H2" and shape.k1 == 1 and shape.k2 == 0:
            return w, w2
    return None, parent[parent[deepest[0]]]


def test_split_158_matches_the_shape_rule(trees_up_to_9):
    """On every state the family kernel reaches, from every rooting of the
    trees with n <= 9 and from random trees with n <= 24."""
    rng = random.Random(89)
    trees = [bfs_tree(g, r) for g in trees_up_to_9 for r in range(g.n)]
    trees += [bfs_tree(random_tree(rng.randint(10, 24), rng), 0) for _ in range(100)]
    states = 0
    for t in trees:
        seen, todo = set(), [t]
        while todo:
            s = todo.pop()
            if s.alive in seen:
                continue
            seen.add(s.alive)
            step = split_158(s)
            assert step == shape_split_158(s), (s.parent, step)
            if step is not None:
                w, top = step
                todo.append(s.remove_subtree(top))
                if w is not None:
                    todo.append(s.remove_leaf(w))
        states += len(seen)
    assert states > 6000


RULES = ((split_158, candidate_family), (split_162, candidate_family_162))


def _as_masks(family) -> set[int]:
    return {sum(1 << v for v in m) for m in family}


def test_family_packings_unpruned_is_the_reference_family(trees_up_to_9):
    rng = random.Random(61)
    trees = trees_up_to_9 + [random_tree(rng.randint(2, 18), rng) for _ in range(40)]
    for g in trees:
        t = bfs_tree(g, 0)
        for split, reference in RULES:
            ref = reference(t)
            masks, count = family_packings(t, split, [0] * g.n)
            assert len(masks) == len(set(masks))
            assert set(masks) == _as_masks(ref)
            assert count == len(ref)


def test_family_packings_drops_exactly_the_sets_with_close_pairs():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(2, 16)
        g = random_connected_graph(n, rng, rng.choice((0.3, 0.1, 1 / n)))
        D = all_pairs(g)
        near = ball_masks(g).near
        t = bfs_tree(g, 0)
        for split, reference in RULES:
            ref = reference(t)
            spread = [m for m in ref if all(D[u][v] >= 3 for u, v in combinations(m, 2))]
            masks, count = family_packings(t, split, near)
            assert sorted(masks) == sorted(_as_masks(spread))
            assert count == len(ref)


def test_relabeling_keeps_mp_and_matches_oracle():
    # A relabeled graph has another BFS tree, family and pruning.
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_connected_graph(n, rng, rng.choice((0.4, 0.15, 1 / n)))
        perm = rng.sample(range(n), n)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        expected = brute_force_mp(h)
        for algo in ("a158", "a162"):
            assert solve_detailed(h, algo)[:2] == expected
            assert solve_detailed(g, algo)[0] == expected[0]


def _plain_family_packings(t, split, near):
    """The family kernel as a plain recursion, before memoisation: every
    branch path rebuilds the states it reaches."""
    step = split(t)
    if step is None:
        return [0] + [1 << v for v in t.vertices()], t.n + 1
    w, top = step
    rest, count = _plain_family_packings(t.remove_subtree(top), split, near)
    if w is None:
        spider = spider_masks(t, top)
        ends = ((m, near[(m & -m).bit_length() - 1] | near[m.bit_length() - 1])
                for m in spider if m)
        blocks = [(0, 0)] + [(m, block) for m, block in ends if not m & block]
        kept = [m1 | m2 for m1 in rest for m2, block in blocks if not m1 & block]
        return kept, count * len(spider)
    bit, block = 1 << w, near[w]
    without, count_without = _plain_family_packings(t.remove_leaf(w), split, near)
    return [m | bit for m in rest if not m & block] + without, count + count_without


def test_family_packings_equals_unmemoised_kernel_in_order():
    rng = random.Random(73)
    for i in range(60):
        n = rng.randint(1, 22)
        if i % 2:
            g = random_tree(n, rng)
        else:
            g = random_connected_graph(n, rng, rng.choice((0.3, 0.1, 1 / n)))
        t = bfs_tree(g, 0)
        for near in ([0] * n, ball_masks(g).near):
            for split in (split_158, split_162):
                assert family_packings(t, split, near) == _plain_family_packings(t, split, near)


def test_count_pass_equals_family_size():
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(1, 20)
        t = bfs_tree(random_tree(n, rng), 0)
        for split in (split_158, split_162):
            assert family_count(t, split) == family_packings(t, split, [0] * n)[1]


def test_count_pass_on_paths_is_fibonacci():
    # Under split_162 the family of P_n rooted at an end has F(n + 2) sets.
    fib = [0, 1]
    while len(fib) < 203:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 201):
        assert family_count(bfs_tree(path(n), 0), split_162) == fib[n + 2], n


def test_count_pass_keeps_158_bound_beyond_brute_force():
    rng = random.Random(83)
    for n in (40, 60, 100):
        for _ in range(10):
            count = family_count(bfs_tree(random_tree(n, rng), 0), split_158)
            assert count ** (1.0 / n) <= 1.58, (n, count)


def _scan_solve(g: Graph, split) -> tuple[int, tuple[int, ...], int]:
    """``solve_detailed`` with the pick as a plain scan: every packing is read,
    and the definitional ``is_multipacking`` runs on each set that would
    become the new best, so no ball list of ``ball_masks`` is trusted."""
    total, witness, family_total = 0, [], 0
    for comp in connected_components(g):
        sub, old_ids = induced_subgraph(g, comp)
        D = all_pairs(sub)
        packings, family_size = family_packings(bfs_tree(sub, 0), split, ball_masks(sub).near)
        size = best = 0
        for m in packings:
            k = m.bit_count()
            if k < size:
                continue
            d = m ^ best
            if (k > size or m & d & -d) and is_multipacking(sub, D, members(m)):
                size, best = k, m
        total += size
        witness.extend(old_ids[v] for v in members(best))
        family_total += family_size
    return total, tuple(sorted(witness)), family_total


def test_pick_equals_the_definitional_scan(monkeypatch):
    """The solve equals the scan at every prefix budget, where budgets 2, 5
    and 10 stop the walk after it has found some sets.  Every build floor is
    at most MP + 1, and some build runs at MP + 1: the floor max(|L| + 1, |G|)
    is one above the walk's best set L when L is at least the greedy's, and
    the solve answers with L when no larger set fits.  Every floor is also at
    least ceil((diam + 1) / 3), the size of every third vertex of a diametral
    path, a lower bound on MP that the solve meets without computing it."""
    rng = random.Random(83)
    graphs = [random_tree(rng.randint(16, 24), rng) for _ in range(12)]
    graphs += [random_connected_graph(rng.randint(2, 20), rng, rng.choice((0.3, 0.05, 0.1))) for _ in range(40)]
    # No kernel set of a path or a cycle reaches rad.
    graphs += [path(n) for n in range(1, 31)] + [cycle(n) for n in range(3, 31)]
    # A spider with rad = MP = 2 whose greedy, run past rad members, takes
    # 3, 5 and 4, a set that ``fits_balls`` accepts but is no multipacking.
    graphs.append(Graph.from_edges(6, [(0, 1), (1, 3), (0, 2), (2, 5), (0, 4)]))
    # Graphs whose largest multipacking is smaller than rad.
    low = [cycle(7), path(9), Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])]
    for g in low:
        assert solve_detailed(g, "a158")[0] < ball_masks(g).rad
    floors = []
    build = solver_module._build
    monkeypatch.setattr(solver_module, "_build", lambda *args: floors.append(args[3]) or build(*args))
    lifted = 0
    for g in graphs + low:
        diam_floor = (max(ball_masks(g).ecc) + 3) // 3
        for algo, split in (("a158", split_158), ("a162", split_162)):
            expected = _scan_solve(g, split)
            for budget in BUDGETS + (2, 5, 10):
                monkeypatch.setattr(solver_module, "PREFIX_BUDGET", budget)
                floors.clear()
                assert solve_detailed(g, algo) == expected, (budget, algo, g.adj)
                assert all(diam_floor <= f <= expected[0] + 1 for f in floors), (floors, budget, algo, g.adj)
                lifted += expected[0] + 1 in floors
    assert lifted


def test_size_floor_keeps_every_large_set_and_the_answer(monkeypatch):
    """At every floor f from 0 to max(rad, 1) + 1, the root list is the
    floor-0 list's sets of at least f members, in the same order, and the
    solve equals the floor-0 scan at every prefix budget of ``BUDGETS``."""
    rng = random.Random(89)
    graphs = [random_tree(rng.randint(1, 22), rng) for _ in range(24)]
    graphs += [random_connected_graph(rng.randint(1, 18), rng, rng.choice((0.3, 0.1, 0.05))) for _ in range(24)]
    graphs += [path(n) for n in range(1, 31)] + [cycle(n) for n in range(3, 31)]
    graphs += [star(k) for k in range(1, 8)]
    for g in graphs:
        balls = ball_masks(g)
        assert balls.ecc == tuple(max(row) for row in all_pairs(g))
        t = bfs_tree(g, 0)
        for algo, split in (("a158", split_158), ("a162", split_162)):
            whole, count = family_packings(t, split, balls.near)
            for f in range(max(balls.rad, 1) + 2):
                kept, kept_count = family_packings(t, split, balls.near, f)
                assert kept_count == count
                assert kept == [m for m in whole if m.bit_count() >= f], (algo, f, g.adj)
            expected = _scan_solve(g, split)
            for budget in BUDGETS:
                monkeypatch.setattr(solver_module, "PREFIX_BUDGET", budget)
                assert solve_detailed(g, algo) == expected, (budget, algo, g.adj)


@pytest.mark.parametrize("n, edges, mp, family_158, family_162", [
    pytest.param(17, [(0, 1), (0, 8), (1, 2), (1, 6), (1, 7), (2, 3), (2, 14), (3, 4), (3, 5),
                      (4, 9), (4, 15), (6, 13), (8, 10), (8, 12), (9, 16), (10, 11)],
                 (5, (0, 5, 11, 13, 16)), 2592, 2318, id="n17"),
    pytest.param(18, [(0, 1), (0, 2), (0, 14), (1, 3), (1, 12), (1, 15), (2, 5), (2, 11), (3, 4),
                      (3, 6), (4, 7), (4, 8), (5, 9), (8, 10), (12, 13), (12, 17), (13, 16)],
                 (4, (0, 4, 9, 16)), 3888, 3173, id="n18"),
])
def test_worst_case_tree_at_n18(n, edges, mp, family_158, family_162):
    """The n = 17 and n = 18 trees with the largest split_158 families a hill
    climb found; at n = 17 the growth, 2592^(1/17) = 1.5878, is above 1.58."""
    g = Graph.from_edges(n, edges)
    t = bfs_tree(g, 0)
    assert family_count(t, split_158) == len(candidate_family(t)) == family_158
    assert len(family_packings(t, split_158, [0] * n)[0]) == family_158
    expected = brute_force_mp(g)
    assert expected == mp
    assert solve_detailed(g, "a158") == expected + (family_158,)
    assert solve_detailed(g, "a162") == expected + (family_162,)


def test_family_budget_bounds_the_pruned_lists_not_the_count(monkeypatch):
    """P_12 under split_162: 377 candidate sets, of which the kernel keeps
    129, its longest list, and P_12 has c_12 = 129 multipackings. A budget
    of 129 admits the solve; 128 refuses it by the shortest-path bound. The
    12-leaf star keeps its whole family of 14 sets in one list at floor 0.
    The prefix search answers the star at its first set, so it is turned
    off: the solve then builds at floor max(|L| + 1, |G|) = max(0 + 1, 1) = 1,
    which drops the empty set, so a budget of 13 admits it and 12 refuses it at
    that list."""
    g = path(12)
    t = bfs_tree(g, 0)
    kept = len(family_packings(t, split_162, ball_masks(g).near)[0])
    assert (family_count(t, split_162), kept) == (377, 129)
    monkeypatch.setattr(solver_module, "MAX_FAMILY", kept)
    assert solve_detailed(g, "a162") == (4, (0, 3, 6, 9), 377)
    monkeypatch.setattr(solver_module, "MAX_FAMILY", kept - 1)
    with pytest.raises(ValueError, match="a shortest path of 12 vertices has more multipackings than the budget of 128"):
        solve_detailed(g, "a162")
    g = star(12)
    t = bfs_tree(g, 0)
    assert family_count(t, split_162) == len(family_packings(t, split_162, ball_masks(g).near)[0]) == 14
    monkeypatch.setattr(solver_module, "PREFIX_BUDGET", 0)
    monkeypatch.setattr(solver_module, "MAX_FAMILY", 13)
    assert solve_detailed(g, "a162") == (1, (0,), 14)
    monkeypatch.setattr(solver_module, "MAX_FAMILY", 12)
    with pytest.raises(ValueError, match="family of 14 sets: a pruned list of 13 exceeds the budget of 12"):
        solve_detailed(g, "a162")


def test_prefix_off_equals_brute_force(monkeypatch, trees_up_to_9):
    """Criterion 1's inputs with the prefix search off, so every answer comes
    from the one build; criterion 1 runs them at the default budget, where
    most answers come from the prefix."""
    monkeypatch.setattr(solver_module, "PREFIX_BUDGET", 0)
    for g in trees_up_to_9 + random_graph_batch():
        expected = brute_force_mp(g)
        assert max_multipacking_158(g) == expected, g.adj
        assert max_multipacking_162(g) == expected, g.adj


def test_prefix_answers_at_the_upper_bound_without_a_build(monkeypatch):
    """The 12-leaf star, P_3 and K_5 (rad 1) and a seeded tree with
    MP = rad: the prefix reaches max(rad, 1) members, so no list is built,
    and the family size still comes from the plan pass."""
    rng = random.Random(7)
    tree = random_tree(13, rng)
    assert brute_force_mp(tree)[0] == ball_masks(tree).rad == 4

    def fail(*args):
        raise AssertionError("built a list")

    monkeypatch.setattr(solver_module, "_build", fail)
    for g in (star(12), path(3), complete(5), tree):
        for algo, split in (("a158", split_158), ("a162", split_162)):
            assert solve_detailed(g, algo) == brute_force_mp(g) + (family_count(bfs_tree(g, 0), split),)


def test_one_build_when_the_prefix_stops_short(monkeypatch):
    """C_7, P_9 and K_{3,3} have MP < rad, so the prefix never reaches
    rad members.  Within the default budget it runs out of sets and answers
    alone; at budgets 0 and 1 it stops short, and the solve builds once."""
    calls = []
    build = solver_module._build
    monkeypatch.setattr(solver_module, "_build", lambda *args: calls.append(args) or build(*args))
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    for g in (cycle(7), path(9), k33):
        expected = brute_force_mp(g)
        assert expected[0] < ball_masks(g).rad
        for budget, builds in ((0, 1), (1, 1), (PREFIX_BUDGET, 0)):
            monkeypatch.setattr(solver_module, "PREFIX_BUDGET", budget)
            for algo in ("a158", "a162"):
                calls.clear()
                assert solve_detailed(g, algo)[:2] == expected
                assert len(calls) == builds, (budget, algo, g.adj)


def test_greedy_floor_builds_at_rad_on_a_forty_vertex_tree(monkeypatch):
    """The first n = 40 tree after four at n = 30 from random.Random(5) has
    MP = rad = 10, and the walk stops short of it at the default budget.
    The greedy reaches 10 members, so the one build runs at floor 10, where
    the walk's best set alone gave floor 8 and lists 2-3x as long."""
    rng = random.Random(5)
    for _ in range(4):
        random_tree(30, rng)
    g = random_tree(40, rng)
    assert ball_masks(g).rad == 10
    floors = []
    build = solver_module._build
    monkeypatch.setattr(solver_module, "_build", lambda *args: floors.append(args[3]) or build(*args))
    assert solve_detailed(g, "a158")[:2] == brute_force_mp(g, cap=40)
    assert floors == [10]


def test_shortest_path_refusal_builds_no_ball_or_tree(monkeypatch):
    """With the budget at 129 = c_12, P_12 still solves, and P_13
    (c_13 = 189) is refused before ``ball_masks`` or ``bfs_tree`` runs."""
    monkeypatch.setattr(solver_module, "MAX_FAMILY", 129)
    assert solve_detailed(path(12), "a162") == (4, (0, 3, 6, 9), 377)

    def fail(*args):
        raise AssertionError("built before the refusal")

    monkeypatch.setattr(solver_module, "ball_masks", fail)
    monkeypatch.setattr(solver_module, "bfs_tree", fail)
    with pytest.raises(ValueError, match="a shortest path of 13 vertices has more multipackings than the budget of 129"):
        solve_detailed(path(13), "a162")


def test_root_list_holds_the_multipackings_of_a_shortest_path():
    """The bound the shortest-path refusal rests on: the root's pruned list
    has at least c_{h+1} sets, h the height of the BFS tree from vertex 0."""
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_connected_graph(n, rng, rng.choice((0.3, 0.05, 1 / n)))
        t = bfs_tree(g, 0)
        c = count_all_path(t.height + 1)[-1]
        for split in (split_158, split_162):
            assert len(family_packings(t, split, ball_masks(g).near)[0]) >= c, g.adj


def test_worst_families_of_all_trees_up_to_12():
    """The largest unpruned family over every tree with n <= 12 vertices and
    every root: split_158 reaches 2^a 3^b, split_162 the Fibonacci F(n + 2)."""
    worst_158 = [2, 3, 4, 6, 12, 18, 27, 36, 72, 108, 162, 243]
    worst_162 = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
    for n in range(1, 13):
        trees = [Graph.from_edges(1, [])] if n == 1 else [
            Graph.from_edges(n, list(h.edges())) for h in nx.nonisomorphic_trees(n)
        ]
        for split, expected in ((split_158, worst_158[n - 1]), (split_162, worst_162[n - 1])):
            worst = max(family_count(bfs_tree(g, r), split) for g in trees for r in range(n))
            assert worst == expected, (split.__name__, n, worst)
