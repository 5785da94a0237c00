"""Tests of the benchmark's own logic: statistics, spans, the independent
checker and searches, host-speed normalisation and instance
reproducibility.  Run with

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import itertools
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import calibrate  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from mpcheck import is_multipacking_def, max_multipacking, min_hitting_set  # noqa: E402
from multipacking import formats, randgen  # noqa: E402
from multipacking.graph import Graph, all_pairs  # noqa: E402
from multipacking.oracle import brute_force_min_hs, brute_force_mp, is_multipacking  # noqa: E402
from tracing import Span, Target, Tracer, self_times  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([1, 2, 3], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_ten_samples_beyond_rule():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.reportable(100, 90)
    assert stats.samples_beyond(99, 90) == 9
    assert not stats.reportable(99, 90)
    assert stats.reportable(1000, 99)
    assert not stats.reportable(999, 99)
    # the smallest sample count that makes each percentile reportable
    assert min(n for n in range(1, 2000) if stats.reportable(n, 90)) == 100
    assert min(n for n in range(1, 2000) if stats.reportable(n, 50)) == 20


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(1.5 / 10)


def _span(id, parent, start, end, busy=None):
    return Span(id, parent, 0, f"s{id}", start, end, end - start if busy is None else busy)


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 5.0, 6.0),
        _span(3, 1, 1.5, 2.0),  # grandchild: covered by span 1, not again by 0
        _span(4, 0, 6.0, 9.0, busy=1.5),  # aggregate: only its calls count
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 2.0 - 1.0 - 1.5)
    assert got[1] == pytest.approx(2.0 - 0.5)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(0.5)
    assert got[4] == pytest.approx(1.5)


def test_tracer_wraps_restores_and_counts_recursion():
    import multipacking.solver as solver
    from multipacking.rooted_tree import bfs_tree

    original = solver.candidate_family
    tracer = Tracer()
    tracer.install("multipacking", [
        Target("solver", "candidate_family", "fam", aggregate=True),
        Target("solver", "no_such_function", "gone"),
    ])
    try:
        tree = bfs_tree(randgen.random_tree(12, random.Random(4)), 0)
        with tracer.span("op"):
            fam = solver.candidate_family(tree)
    finally:
        tracer.uninstall()
    assert solver.candidate_family is original
    assert tracer.absent == {"gone"}
    op, agg = tracer.spans
    assert agg.parent == op.id and agg.calls > 1
    assert 0 < agg.busy <= op.busy
    assert fam == original(tree)


def test_definitional_checker_matches_oracle_on_small_graphs():
    rng = random.Random(11)
    graphs = []
    for n in range(1, 8):
        for _ in range(4):
            graphs.append(randgen.random_tree(n, rng))
            graphs.append(randgen.random_connected_graph(n, rng, rng.choice([0.1, 0.3, 0.6])))
            graphs.append(randgen.random_connected_chordal(n, rng))
    for g in graphs:
        D = all_pairs(g)
        for size in range(g.n + 1):
            for members in itertools.combinations(range(g.n), size):
                assert is_multipacking_def(g.adj, members) == is_multipacking(g, D, members), (g.adj, members)


def test_definitional_checker_rejects_bad_member_lists():
    path3 = ((1,), (0, 2), (1,))
    assert is_multipacking_def(path3, [0, 2]) is False  # both in N_1[1]
    assert is_multipacking_def(path3, [0, 0]) is False
    assert is_multipacking_def(path3, [5]) is False
    assert is_multipacking_def(((), ()), [0, 1]) is True  # disconnected pair


def test_own_searches_match_the_oracle():
    rng = random.Random(12)
    graphs = [Graph.from_edges(4, []), Graph.from_edges(5, [(0, 1), (3, 4)])]  # disconnected
    for n in range(1, 11):
        for _ in range(3):
            graphs.append(randgen.random_tree(n, rng))
            graphs.append(randgen.random_connected_graph(n, rng, rng.choice([0.05, 0.2, 0.5])))
    for g in graphs:
        mp, witness = max_multipacking(g.adj)
        assert (mp, witness) == brute_force_mp(g), g.adj
    for _ in range(60):
        inst = randgen.random_hitting_set_instance(6, 7, 4, rng)
        assert min_hitting_set(inst.n, inst.family) == brute_force_min_hs(inst.n, inst.family)


@pytest.mark.parametrize("variant,k,known", [("bipartite", 2, True), ("bipartite", 4, False), ("chordal", 2, False)])
def test_broken_iff_fails_the_op_except_for_the_known_defect(variant, k, known):
    inst = workloads.Instance("0000", "", {"variant": variant, "k": k}, None)
    outcome = {"roundtrip": True, "certs": {}, "hs": 3, "mp": 2, "witness": [0, 3], "adj": [], "iff": False}
    ref = {"hs": 3, "mp": 2, "witness": [0, 3]}
    c = workloads.check("reductions", inst, outcome, ref, lambda *_: True)
    assert (c.ok, c.known_defect) == (known, known)
    assert "iff" in c.reason
    # the known defect never hides a wrong answer
    c = workloads.check("reductions", inst, outcome, {**ref, "mp": 3}, lambda *_: True)
    assert not c.ok and not c.known_defect


def test_speed_factor_uses_the_nearest_samples():
    speed = calibrate.Speed()
    speed.at = [float(t) for t in range(40)]
    speed.took = [calibrate.REF_UNIT_S] * 20 + [2 * calibrate.REF_UNIT_S] * 20  # host halves speed at t = 20
    assert speed.factor(3.0) == pytest.approx(1.0)
    assert speed.factor(-5.0) == pytest.approx(1.0)
    assert speed.factor(33.0) == pytest.approx(2.0)
    assert speed.factor(99.0) == pytest.approx(2.0)
    assert speed.factor(20.0) == pytest.approx(1.5)  # five samples on either side


class _Pkg:
    randgen = randgen
    formats = formats


@pytest.mark.parametrize("workload", ["trees", "reductions"])
def test_instance_set_is_byte_identical_per_seed(workload):
    def instances(seed):
        return workloads.generate(_Pkg, workload, random.Random(f"{workload}/{seed}"), 12)

    first, again, other = instances(5), instances(5), instances(6)
    assert [i.text for i in first] == [i.text for i in again]
    assert workloads.digest(first) == workloads.digest(again)
    assert workloads.digest(first) != workloads.digest(other)
