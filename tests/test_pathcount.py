import random

import pytest

from multipacking.graph import Graph, all_pairs
from multipacking.pathcount import (
    count_all_path,
    count_maximal_path,
    enumerate_maximal_multipackings,
    path_graph,
)
from multipacking.oracle import enumerate_multipackings, is_multipacking
from multipacking.randgen import random_connected_graph


def test_count_all_first_values():
    assert count_all_path(6) == [2, 3, 4, 6, 9, 13]
    assert count_all_path(1) == [2]
    with pytest.raises(ValueError):
        count_all_path(0)


def test_count_maximal_first_values():
    assert count_maximal_path(6) == [1, 2, 3, 3, 4, 6]
    with pytest.raises(ValueError):
        count_maximal_path(0)


def test_counts_match_enumeration():
    all_counts = count_all_path(12)
    max_counts = count_maximal_path(12)
    for n in range(1, 13):
        p = path_graph(n)
        assert len(enumerate_multipackings(p)) == all_counts[n - 1]
        assert len(enumerate_maximal_multipackings(p)) == max_counts[n - 1]


def test_maximal_enumeration_p4():
    assert enumerate_maximal_multipackings(path_graph(4)) == [(0, 3), (1,), (2,)]


def test_maximal_sets_really_are_maximal():
    p = path_graph(9)
    fam = set(enumerate_multipackings(p))
    for m in enumerate_maximal_multipackings(p):
        assert m in fam
        assert not any(
            tuple(sorted(set(m) | {v})) in fam
            for v in range(p.n)
            if v not in m
        )


def _maximal_by_extension(g):
    """The definition: multipackings to which no single vertex can be added."""
    D = all_pairs(g)
    return [
        m
        for m in enumerate_multipackings(g)
        if not any(v not in m and is_multipacking(g, D, m + (v,)) for v in range(g.n))
    ]


def test_maximal_sets_match_extension_check_off_paths():
    rng = random.Random(71)
    graphs = [
        random_connected_graph(rng.randint(1, 10), rng, rng.choice([0.05, 0.2, 0.5]))
        for _ in range(200)
    ]
    graphs += [  # disconnected, with and without isolated vertices
        Graph.from_edges(3, []),
        Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]),
        Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (6, 7)]),
    ]
    for g in graphs:
        assert enumerate_maximal_multipackings(g) == _maximal_by_extension(g)


def test_growth_constants():
    all_counts = count_all_path(40)
    max_counts = count_maximal_path(40)
    assert abs(all_counts[39] / all_counts[38] - 1.46557) < 0.01
    assert abs(max_counts[39] / max_counts[38] - 1.3248) < 0.01


def test_big_n_exact_integers():
    c = count_all_path(120)
    assert c[119] == c[118] + c[116]  # no overflow: exact bignums
