import itertools
import random
import tracemalloc

import networkx as nx
import pytest

from conftest import complete, cycle, path, star
from multipacking.graph import (
    Graph,
    all_pairs,
    ball_rows,
    connected_components,
    induced_subgraph,
    is_connected,
    members,
)
from multipacking.oracle import (
    DEFAULT_MP_CAP,
    _search,
    brute_force_gamma_b,
    brute_force_min_hs,
    brute_force_min_tds,
    brute_force_mp,
    duality_report,
    enumerate_multipackings,
    is_dominating_broadcast,
    is_multipacking,
    is_total_dominating,
    pick_best,
)
from multipacking.randgen import random_connected_graph, random_hitting_set_instance
from multipacking.reductions import (
    reduce_hs_bipartite,
    reduce_hs_chordal,
    reduce_hs_clawfree,
    reduce_hs_half_hyperbolic,
)


def test_is_multipacking_examples():
    p4 = path(4)
    D = all_pairs(p4)
    assert is_multipacking(p4, D, [0, 3])
    assert not is_multipacking(p4, D, [0, 1])  # two members in N_1[0]
    assert not is_multipacking(p4, D, [0, 2])  # two members in N_1[1]
    assert is_multipacking(p4, D, [])
    assert is_multipacking(p4, D, [2])
    c4 = cycle(4)
    assert not is_multipacking(c4, all_pairs(c4), [0, 2])
    with pytest.raises(ValueError):
        is_multipacking(p4, D, [7])


def test_is_multipacking_duplicates_collapse():
    p4 = path(4)
    D = all_pairs(p4)
    assert is_multipacking(p4, D, [3, 0, 3])


def test_is_multipacking_reads_only_the_members_rows():
    rng = random.Random(31)
    graphs = [random_connected_graph(rng.randint(1, 8), rng, rng.choice((0.05, 0.3))) for _ in range(30)]
    # Disconnected graphs, whose rows hold the unreachable sentinel n.
    graphs += [Graph.from_edges(7, [(0, 1), (1, 2), (4, 5)]), Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])]
    for g in graphs:
        D = all_pairs(g)
        for k in range(g.n + 1):
            for M in itertools.combinations(range(g.n), k):
                rows = [D[u] if u in M else () for u in range(g.n)]
                assert is_multipacking(g, rows, M) == is_multipacking(g, D, M), (g.adj, M)


def test_enumerate_multipackings_p3():
    p3 = path(3)
    assert enumerate_multipackings(p3) == [(), (0,), (1,), (2,)]


def test_enumerate_multipackings_downward_closed_and_lex():
    g = random_connected_graph(8, random.Random(2))
    fam = enumerate_multipackings(g)
    assert fam == sorted(fam)
    members = set(fam)
    for m in fam:
        for i in range(len(m)):
            assert m[:i] + m[i + 1 :] in members
    # brute-force cross-check against the definition
    D = all_pairs(g)
    expected = sum(
        1
        for size in range(g.n + 1)
        for s in itertools.combinations(range(g.n), size)
        if is_multipacking(g, D, s)
    )
    assert len(fam) == expected


def _definitional_multipackings(g):
    """Every subset of g that passes is_multipacking, in lexicographic order."""
    D = all_pairs(g)
    subsets = sorted(
        s for size in range(g.n + 1) for s in itertools.combinations(range(g.n), size)
    )
    return [s for s in subsets if is_multipacking(g, D, s)]


def _small_graphs():
    """Every graph on n <= 5 vertices, the edgeless graphs with n <= 10, and
    100 seeded random graphs with n <= 10, many disconnected or with
    isolated vertices."""
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
    for n in range(11):
        yield Graph.from_edges(n, [])
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 10)
        p = rng.choice([0.1, 0.2, 0.35, 0.6])
        lone = rng.randrange(n) if rng.random() < 0.3 else None
        edges = [
            (a, b)
            for a, b in itertools.combinations(range(n), 2)
            if lone not in (a, b) and rng.random() < p
        ]
        yield Graph.from_edges(n, edges)


def test_search_matches_the_definition_on_small_graphs():
    """The DFS checks only the balls that contain the new vertex; it must
    list exactly the subsets that the whole-set definition accepts, and
    brute_force_mp must return the first largest of them."""
    graphs = list(_small_graphs())
    # beyond n = 5, the random part must still hold both awkward shapes
    assert any(not is_connected(g) and all(g.adj) for g in graphs if g.n > 5)
    assert any(not all(g.adj) and any(g.adj) for g in graphs if g.n > 5)
    for g in graphs:
        expected = _definitional_multipackings(g)
        assert enumerate_multipackings(g) == expected, g.adj
        best = max(expected, key=len)
        assert brute_force_mp(g) == (len(best), best), g.adj


def _reference_search(g):
    """Every multipacking of g in DFS order, by the oracle's earlier check:
    an extension cur + (v,) is accepted iff no ball N_r[c] with
    max(d(c, v), 1) <= r <= len(cur) holds more than r of its members."""
    D = all_pairs(g)
    n = g.n
    balls = [[sum(1 << u for u in range(n) if D[c][u] <= r) for r in range(n + 1)] for c in range(n)]
    out = [()]

    def extend(cur, mask, start):
        for v in range(start, n):
            new = mask | 1 << v
            if all(
                (balls[c][r] & new).bit_count() <= r
                for c in range(n)
                for r in range(max(D[v][c], 1), len(cur) + 1)
            ):
                out.append(cur + (v,))
                extend(cur + (v,), new, v + 1)

    extend((), 0, 0)
    return out


# (builder, k, universe size) in the benchmark's reduction slots; None keeps
# randgen's own universe size
HS_SLOTS = [
    (reduce_hs_chordal, 4, 5),
    (reduce_hs_half_hyperbolic, 4, 5),
    (reduce_hs_bipartite, 4, 5),
    (reduce_hs_clawfree, 4, 5),
    (reduce_hs_chordal, 2, None),
    (reduce_hs_half_hyperbolic, 3, 6),
    (reduce_hs_bipartite, 2, None),
    (reduce_hs_clawfree, 3, 6),
]


def _reduction_outputs(per_slot, seed):
    rng = random.Random(seed)
    for builder, k, n in HS_SLOTS * per_slot:
        while True:
            inst = random_hitting_set_instance(n or 6, 7, k, rng, k_min=k)
            if inst.k <= inst.n and n in (None, inst.n):
                break
        yield builder(inst).graph


def test_search_matches_the_reference_on_reduction_outputs():
    """The blocked-mask DFS lists exactly what the per-candidate check
    accepts, in the same order, on Hitting-Set reduction outputs of the
    sizes the benchmark decides."""
    graphs = list(_reduction_outputs(4, seed=3))
    assert max(g.n for g in graphs) >= 34
    for g in graphs:
        expected = _reference_search(g)
        assert enumerate_multipackings(g, cap=64) == expected, g.adj
        best = max(expected, key=len)
        assert brute_force_mp(g, cap=64) == (len(best), best), g.adj


def test_search_stops_at_the_first_true_visit():
    """A visit that returns a true value on its k-th call ends the search
    after exactly k calls, at the root (k = 1) as at every later node."""
    g = path(7)
    every = enumerate_multipackings(g)
    assert len(every) > 10
    for k in range(1, len(every) + 1):
        seen = []

        def visit(s):
            seen.append(s)
            return len(seen) == k

        _search(ball_rows(g), visit)
        assert [tuple(members(m)) for m in seen] == every[:k]


def test_center_lists_are_built_on_first_use(monkeypatch):
    """brute_force_mp(K_{1,63}) stops at its first singleton, the radius bound
    1, before the DFS extends from any vertex, so it builds no center list:
    the only member listing is the witness's."""
    calls = []

    def spy(mask):
        calls.append(mask)
        return members(mask)

    monkeypatch.setattr("multipacking.oracle.members", spy)
    assert brute_force_mp(star(63), cap=64) == (1, (0,))
    assert calls == [1]


def test_search_stops_at_the_first_true_visit_on_a_disconnected_graph():
    """An early stop on a graph with several components, an isolated vertex
    among them, visits exactly a prefix of the full listing."""
    g = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
    every = enumerate_multipackings(g)
    assert len(every) > 50
    for k in range(1, len(every) + 1):
        seen = []

        def visit(s):
            seen.append(s)
            return len(seen) == k

        _search(ball_rows(g), visit)
        assert [tuple(members(m)) for m in seen] == every[:k]


def _radius_bound(g):
    """Sum over the components of max(1, rad), each component taken alone."""
    total = 0
    for comp in connected_components(g):
        h, _ = induced_subgraph(g, comp)
        total += max(1, min(map(max, all_pairs(h))))
    return total


def _assert_first_largest(g):
    """brute_force_mp is the first largest set that the full listing holds;
    returns that set's size."""
    every = enumerate_multipackings(g)
    best = max(every, key=len)
    assert brute_force_mp(g) == (len(best), best), g.adj
    return len(best)


def test_brute_force_mp_when_the_radius_bound_is_not_tight():
    """brute_force_mp stops only at the bound; below it the search runs on
    and must still return the first largest set."""
    for n in range(7, 13):  # MP(C_n) = floor(n/3) < floor(n/2) = rad
        assert _assert_first_largest(cycle(n)) == n // 3 < _radius_bound(cycle(n))
    rng = random.Random(15)
    loose = 0
    for _ in range(80):
        g = random_connected_graph(rng.randint(6, 13), rng, rng.choice([0.05, 0.15, 0.3]))
        loose += _assert_first_largest(g) < _radius_bound(g)
    assert loose >= 5


def test_brute_force_mp_on_disconnected_graphs_with_isolated_vertices():
    """An isolated vertex is a component with rad 0 and adds max(1, 0) = 1
    to the bound; its vertex ids are spread among the other components'."""
    rng = random.Random(16)
    tight = 0
    for _ in range(60):
        parts = [random_connected_graph(rng.randint(2, 7), rng) for _ in range(rng.randint(1, 2))]
        parts += [Graph.from_edges(1, [])] * rng.randint(1, 3)
        n = sum(h.n for h in parts)
        label = list(range(n))
        rng.shuffle(label)
        edges, base = [], 0
        for h in parts:
            edges += [(label[base + u], label[base + v]) for u, v in h.edges()]
            base += h.n
        g = Graph.from_edges(n, edges)
        assert not all(g.adj) and not is_connected(g)
        tight += _assert_first_largest(g) == _radius_bound(g)
    assert 10 <= tight < 60


def test_radius_bound_holds_on_the_criterion_1_graphs(trees_up_to_9):
    """MP <= sum over components of max(1, rad) on the trees with n <= 9
    and the 1000 seeded random graphs of criterion 1."""
    from test_acceptance import random_graph_batch

    for g in trees_up_to_9 + random_graph_batch():
        assert max(map(len, enumerate_multipackings(g))) <= _radius_bound(g), g.adj


def test_pick_best_tie_break():
    assert pick_best([(2,), (0, 3), (1, 3)]) == (2, (0, 3))
    assert pick_best([()]) == (0, ())
    with pytest.raises(ValueError):
        pick_best([])


def test_brute_force_mp_examples():
    assert brute_force_mp(path(4)) == (2, (0, 3))
    assert brute_force_mp(cycle(4)) == (1, (0,))
    assert brute_force_mp(Graph.from_edges(1, [])) == (1, (0,))
    assert brute_force_mp(complete(5))[0] == 1
    with pytest.raises(ValueError):
        brute_force_mp(Graph.from_edges(30, []), cap=22)


def test_total_domination():
    p4 = path(4)
    assert is_total_dominating(p4, [1, 2])
    assert not is_total_dominating(p4, [1, 3])  # 3 has no neighbor in S
    assert brute_force_min_tds(p4) == 2
    assert brute_force_min_tds(cycle(4)) == 2
    assert brute_force_min_tds(star(4)) == 2
    with pytest.raises(ValueError):
        brute_force_min_tds(Graph.from_edges(2, []))


def test_min_tds_of_the_empty_graph_is_zero():
    """The empty set total-dominates a graph with no vertices."""
    assert brute_force_min_tds(Graph.from_edges(0, [])) == 0


def test_min_tds_and_min_hs_refuse_inputs_above_the_cap():
    """Both searches admit DEFAULT_MP_CAP vertices and refuse one more, each
    with its own message, before any search runs."""
    n = DEFAULT_MP_CAP
    assert brute_force_min_tds(complete(n)) == 2
    assert brute_force_min_hs(n, []) == 0
    with pytest.raises(ValueError, match=f"^n={n + 1} exceeds cap {n}$"):
        brute_force_min_tds(complete(n + 1))
    with pytest.raises(ValueError, match=f"^universe size {n + 1} exceeds cap {n}$"):
        brute_force_min_hs(n + 1, [])


def test_brute_force_mp_keeps_only_the_best_set():
    """Every subset of an edgeless graph is a multipacking (2^12 of them
    here); the search must not hold them all.  The edgeless graph reaches
    the radius bound at its first 12-set, so a C7 is added as well: MP 14
    stays below the bound 15, and all 15 * 2^12 sets are visited."""
    c7 = [(i, (i + 1) % 7) for i in range(7)]
    cases = [
        (Graph.from_edges(12, []), (12, tuple(range(12)))),
        (Graph.from_edges(19, c7), (14, (0, 3) + tuple(range(7, 19)))),
    ]
    for g, expected in cases:
        tracemalloc.start()
        try:
            assert brute_force_mp(g) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2**20


def test_min_hitting_set():
    assert brute_force_min_hs(3, [{0, 1}, {1, 2}]) == 1
    assert brute_force_min_hs(3, [{0}, {1}, {2}]) == 3
    assert brute_force_min_hs(4, []) == 0
    with pytest.raises(ValueError):
        brute_force_min_hs(3, [set()])
    with pytest.raises(ValueError):
        brute_force_min_hs(2, [{5}])


def test_broadcast_basics():
    p4 = path(4)
    D = all_pairs(p4)
    assert is_dominating_broadcast(p4, D, (0, 2, 0, 0))
    assert not is_dominating_broadcast(p4, D, (1, 0, 0, 0))
    assert not is_dominating_broadcast(p4, D, (0, 0, 0, 0))


def test_brute_force_gamma_b_examples():
    cost, f = brute_force_gamma_b(path(4))
    assert cost == 2 and sum(f) == 2
    assert brute_force_gamma_b(Graph.from_edges(1, []))[0] == 1
    assert brute_force_gamma_b(cycle(4))[0] == 2
    assert brute_force_gamma_b(complete(4))[0] == 1
    assert brute_force_gamma_b(cycle(6))[0] == 2
    assert brute_force_gamma_b(path(7))[0] == 3
    with pytest.raises(ValueError):
        brute_force_gamma_b(Graph.from_edges(2, []))


def test_gamma_b_witness_verifies():
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 8), rng)
        D = all_pairs(g)
        cost, f = brute_force_gamma_b(g)
        assert sum(f) == cost
        assert is_dominating_broadcast(g, D, f)


def _reference_gamma_b(g):
    """Reference search: every power vector with powers <= max(rad, 1), in
    ascending cost and then lexicographic order, each judged whole by
    is_dominating_broadcast on all_pairs."""
    D = all_pairs(g)
    pmax = max(min(map(max, D)), 1)
    powers = [0] * g.n

    def rec(v, rem):
        if rem == 0:
            return tuple(powers) if is_dominating_broadcast(g, D, powers) else None
        if v == g.n:
            return None
        for p in range(min(pmax, rem) + 1):
            powers[v] = p
            found = rec(v + 1, rem - p)
            if found is not None:
                return found
            powers[v] = 0
        return None

    for cost in range(1, pmax + 1):
        found = rec(0, cost)
        if found is not None:
            return cost, found


def test_gamma_b_matches_the_reference_search():
    """The search on ball-row masks returns the same cost and powers as the
    per-leaf definitional check, on every connected atlas graph and on
    seeded connected graphs up to the cap."""
    graphs = [
        Graph.from_edges(h.number_of_nodes(), list(h.edges()))
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() and nx.is_connected(h)
    ]
    rng = random.Random(23)
    graphs += [random_connected_graph(rng.randint(1, 12), rng, rng.choice((0.0, 0.1, 0.3))) for _ in range(200)]
    for g in graphs:
        assert brute_force_gamma_b(g) == _reference_gamma_b(g), g.adj


@pytest.mark.parametrize("g", [path(13), Graph.from_edges(3, [(0, 1)])])
def test_duality_report_refuses_before_the_mp_search(g, monkeypatch):
    """gamma_b's cap of 12 and its connectivity check run before the MP search."""

    def fail(*args, **kwargs):
        raise AssertionError("brute_force_mp ran")

    monkeypatch.setattr("multipacking.oracle.brute_force_mp", fail)
    with pytest.raises(ValueError):
        duality_report(g)


def test_duality_report_p4():
    rep = duality_report(path(4))
    assert rep.mp == 2 and rep.gamma_b == 2
    assert rep.mp_witness == (0, 3)
    assert rep.bound_2mp3_ok
    assert rep.bound_chordal_ok  # P4 is chordal, 2 <= ceil(3)
    rep = duality_report(cycle(5))
    assert rep.bound_chordal_ok is None  # C5 is not chordal


def test_duality_bounds_random():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 8), rng)
        rep = duality_report(g)
        assert rep.mp <= rep.gamma_b <= 2 * rep.mp + 3
