import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import complete, cycle, path
from multipacking.checkers import (
    hyperbolicity,
    is_bipartite,
    is_chordal,
    is_clawfree,
    regularity,
)
from multipacking.cli import main
from multipacking.graph import Graph, all_pairs, induced_subgraph
from multipacking.oracle import (
    brute_force_min_hs,
    brute_force_min_tds,
    brute_force_mp,
    is_multipacking,
    is_total_dominating,
)
from multipacking.randgen import random_hitting_set_instance
from multipacking.reductions import (
    MAX_OUTPUT_EDGES,
    MAX_OUTPUT_VERTICES,
    HittingSetInstance,
    ReductionOutput,
    havel_hakimi_regular,
    reduce_hs_bipartite,
    reduce_hs_chordal,
    reduce_hs_clawfree,
    reduce_hs_half_hyperbolic,
    reduce_tds_conv,
    reduce_tds_regular,
    regular_forward_witness,
)

EXAMPLE = HittingSetInstance.make(3, [{0, 1}, {1, 2}, {0, 2}], 2)


def k33() -> Graph:
    return Graph.from_edges(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])


def prism() -> Graph:
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


def test_instance_validation():
    with pytest.raises(ValueError):
        HittingSetInstance.make(3, [set()], 2)
    with pytest.raises(ValueError):
        HittingSetInstance.make(3, [{5}], 2)
    with pytest.raises(ValueError):
        HittingSetInstance.make(3, [{0}], 1)
    assert EXAMPLE.m == 3


def test_output_validation():
    with pytest.raises(ValueError):
        ReductionOutput(path(2), ("a",), ())
    with pytest.raises(ValueError):
        ReductionOutput(path(2), ("a", "a"), ())


def test_chordal_variant_layout():
    out = reduce_hs_chordal(EXAMPLE)
    n, m, k = EXAMPLE.n, EXAMPLE.m, EXAMPLE.k
    assert out.graph.n == m + n * (k - 1) == 6
    assert out.labels[:3] == ("S_0", "S_1", "S_2")
    assert out.labels[3] == "u_0^1"
    assert out.claims == ("chordal",)
    # family block is a clique
    assert all(out.graph.has_edge(a, b) for a, b in itertools.combinations(range(m), 2))
    # head of element 0's path joins exactly the sets not containing 0
    assert out.graph.has_edge(3, 1) and not out.graph.has_edge(3, 0)
    assert is_chordal(out.graph)[0]


def test_hyperbolic_variant_layout():
    inst = HittingSetInstance.make(3, [{0, 1}, {1, 2}], 3)
    out = reduce_hs_half_hyperbolic(inst)
    n, m, k = inst.n, inst.m, inst.k
    assert out.graph.n == m + n * (k - 1) + n * (n - 1) // 2
    assert out.labels[-1] == "y_{1,2}"
    assert is_chordal(out.graph)[0]
    assert hyperbolicity(out.graph) <= Fraction(1, 2)
    with pytest.raises(ValueError):
        reduce_hs_half_hyperbolic(EXAMPLE)  # k = 2 too small


def test_bipartite_variant_layout():
    out = reduce_hs_bipartite(EXAMPLE)
    n, m, k = EXAMPLE.n, EXAMPLE.m, EXAMPLE.k
    assert out.graph.n == m + 1 + n * (k - 1)
    assert out.labels[-1] == "C"
    apex = out.graph.n - 1
    assert set(out.graph.adj[apex]) == set(range(m))
    assert is_bipartite(out.graph)[0]


def test_clawfree_variant_layout():
    inst = HittingSetInstance.make(3, [{0, 1}, {1, 2}], 3)
    out = reduce_hs_clawfree(inst)
    n, m, k = inst.n, inst.m, inst.k
    nonmember = sum(n - len(S) for S in inst.family)
    assert out.graph.n == m + n * (k - 2) + nonmember
    assert is_clawfree(out.graph)[0]
    with pytest.raises(ValueError):
        reduce_hs_clawfree(EXAMPLE)


def roundtrip_ok(builder, inst) -> bool:
    out = builder(inst)
    hs = brute_force_min_hs(inst.n, inst.family)
    mp, _ = brute_force_mp(out.graph)
    return (hs <= inst.k) == (mp >= inst.k)


def sweep(builder, k_min, count=40, seed=0):
    rng = random.Random(seed)
    done = 0
    while done < count:
        inst = random_hitting_set_instance(4, 4, 4, rng, k_min=k_min)
        if inst.k > inst.n:  # equivalence needs enough universe elements
            continue
        assert roundtrip_ok(builder, inst), (inst,)
        done += 1


def test_roundtrip_chordal():
    sweep(reduce_hs_chordal, 2, seed=101)


def test_roundtrip_hyperbolic():
    sweep(reduce_hs_half_hyperbolic, 3, seed=102)


def test_roundtrip_bipartite_k3():
    sweep(reduce_hs_bipartite, 3, seed=103)


def test_roundtrip_clawfree():
    sweep(reduce_hs_clawfree, 3, seed=104)


def test_bipartite_k2_equivalence_gap():
    """Lemma: MP >= 2 iff two vertices are at distance >= 3 or in different
    components.  In the bipartite gadget S_j and u_i^1 with i in S_j are on
    opposite sides and not adjacent, hence at distance >= 3, so at k = 2 a
    no-instance must map to a complete bipartite graph: every head and C
    joined to every family vertex, and MP = 1."""
    inst = HittingSetInstance.make(3, [{0, 1, 2}, {1}, {2}, {0}], 2)
    assert brute_force_min_hs(inst.n, inst.family) == 3
    out = reduce_hs_bipartite(inst)
    mp, _ = brute_force_mp(out.graph)
    assert mp == 1
    family = set(range(inst.m))
    other = set(range(inst.m, out.graph.n))  # heads u_i^1, then C
    for v in family:
        assert set(out.graph.adj[v]) == other
    for v in other:
        assert set(out.graph.adj[v]) == family


def test_bipartite_k2_decision_is_fast_on_a_wide_universe():
    """Deciding min-HS <= 2 tries only the elements of the smallest set, so
    30 000 elements with the no-instance {0}, {1}, {2} take well under 2 s."""
    inst = HittingSetInstance.make(30000, [{0}, {1}, {2}], 2)
    start = time.perf_counter()
    out = reduce_hs_bipartite(inst)
    assert time.perf_counter() - start < 2.0
    heads = range(inst.m, inst.m + 5)  # k = 2: each element path is just its head
    assert all(out.graph.has_edge(h, j) for h in heads for j in range(inst.m))


def test_reductions_cap_their_output_before_building():
    """Each variant rejects an instance whose output would exceed the caps."""
    cases = [
        # the chordal family clique alone has C(2000, 2) edges
        (reduce_hs_chordal, HittingSetInstance.make(1, [{0}] * 2000, 2)),
        # C(60, 2) pair vertices join the family clique
        (reduce_hs_half_hyperbolic, HittingSetInstance.make(60, [{0}], 3)),
        # every head misses all 600 sets
        (reduce_hs_bipartite, HittingSetInstance.make(2000, [{0}] * 600, 2)),
        # w vertices sharing a set or an element form cliques
        (reduce_hs_clawfree, HittingSetInstance.make(200, [{0}] * 60, 3)),
        # C(600, 2) pair vertices exceed the vertex cap on their own
        (reduce_hs_half_hyperbolic, HittingSetInstance.make(600, [], 3)),
    ]
    for builder, inst in cases:
        with pytest.raises(ValueError, match="caps are"):
            builder(inst)
    assert 600 * 599 // 2 > MAX_OUTPUT_VERTICES and 2000 * 1999 // 2 > MAX_OUTPUT_EDGES


HS_FLOORS = [(reduce_hs_chordal, 2), (reduce_hs_half_hyperbolic, 3), (reduce_hs_bipartite, 2), (reduce_hs_clawfree, 3)]


def test_reductions_reject_k_above_the_universe(tmp_path, capsys):
    """The iff min-HS <= k <=> MP >= k is proved for floor <= k <= n only: a
    hitting set is padded to exactly k distinct elements.  Above n every
    instance is a yes-instance, yet the outputs can have MP < k (the chordal
    output of universe {0}, family {{0}}, k = 3 has MP 2), so each builder
    refuses k > n and the CLI exits 3 without writing a graph."""
    for builder, floor in HS_FLOORS:
        for n in range(1, 5):
            for family in ([range(n)], [{i} for i in range(n)]):
                for k in range(max(floor, n + 1), n + 4):
                    with pytest.raises(ValueError, match="k <= n"):
                        builder(HittingSetInstance.make(n, family, k))
    hs = tmp_path / "one.hs"
    hs.write_text("1 1 3\n1 0\n")
    for variant in ("chordal", "hyperbolic", "bipartite", "clawfree"):
        assert main(["reduce", "hs", str(hs), "--variant", variant, "--out", str(tmp_path / "x")]) == 3
        assert "k <= n = 1, got k = 3" in capsys.readouterr().err
    assert not (tmp_path / "x.graph").exists()


def test_havel_hakimi():
    for n in range(3, 12):
        for d in range(1, n):
            if (n * d) % 2:
                with pytest.raises(ValueError):
                    havel_hakimi_regular(n, d)
            else:
                assert regularity(havel_hakimi_regular(n, d)) == d
    with pytest.raises(ValueError):
        havel_hakimi_regular(4, 4)


def test_regular_variant_k33():
    g = k33()
    d = g.n - 4
    for k in (4, 5, 6):
        out = reduce_tds_regular(g, k)
        size = 1 + (k - 3) * d + d * d
        assert out.graph.n == g.n * size == 42 + 12 * (k - 4)
        assert regularity(out.graph) == 2 * d
        assert out.claims == (f"regular({2 * d})",)
        # apex subgraph is the complement of the input
        apexes = [a * size for a in range(g.n)]
        sub, _ = induced_subgraph(out.graph, apexes)
        comp = g.complement()
        assert sub.adj == comp.adj


def test_regular_variant_forward_witness():
    for g in (k33(), prism()):
        tds = None
        for S in itertools.combinations(range(g.n), brute_force_min_tds(g)):
            if is_total_dominating(g, S):
                tds = list(S)
                break
        for k in (4, 5, 6):
            assert tds is not None and len(tds) <= k
            out = reduce_tds_regular(g, k)
            witness = regular_forward_witness(g, tds, k)
            assert len(witness) == k
            assert is_multipacking(out.graph, all_pairs(out.graph), witness)


def test_regular_variant_validation():
    with pytest.raises(ValueError):
        reduce_tds_regular(cycle(6), 4)  # 2-regular, not cubic
    with pytest.raises(ValueError):
        reduce_tds_regular(complete(4), 4)  # cubic but too small
    with pytest.raises(ValueError):
        reduce_tds_regular(k33(), 3)


def test_conv_variant_layout_and_iff():
    for g in (path(3), cycle(4), path(5)):
        for k in (2, 3):
            out = reduce_tds_conv(g, k)
            assert out.graph.n == g.n * (k - 1)
            assert out.claims == ("conv_promise",)
            heads = [a * (k - 1) for a in range(g.n)]
            for a in range(g.n):
                for b in range(a + 1, g.n):
                    assert out.graph.has_edge(heads[a], heads[b]) == (
                        not g.has_edge(a, b)
                    )
            tds = brute_force_min_tds(g)
            mp, _ = brute_force_mp(out.graph)
            assert (tds <= k) == (mp >= k)
    with pytest.raises(ValueError):
        reduce_tds_conv(path(3), 1)
