"""Closed-form multipacking counts on paths, plus maximal-set enumeration.

Counts use Python integers (arbitrary precision); the recurrences grow
exponentially and overflow fixed-width types near n = 90.
"""

from __future__ import annotations

from .graph import Graph
from .oracle import enumerate_multipackings


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def count_all_path(N: int) -> list[int]:
    """[|M(P_1)|, ..., |M(P_N)|]: c_n = c_{n-1} + c_{n-3}, c_1..3 = 2, 3, 4."""
    if N < 1:
        raise ValueError("N must be at least 1")
    c = [2, 3, 4]
    for n in range(4, N + 1):
        c.append(c[-1] + c[-3])
    return c[:N]


def count_maximal_path(N: int) -> list[int]:
    """Counts of inclusion-maximal multipackings of P_1..P_N.

    Recurrence c_n = c_{n-3} + c_{n-4} + c_{n-5} with c_1, c_2, c_3 = 1, 2, 3.
    The below-range boundary values c_0 = c_{-1} = 1 and c_{-2} = 0 are
    fixed by agreement with brute-force enumeration at n = 4, 5, 6.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    c = [0, 1, 1, 1, 2, 3]  # c_{-2} .. c_3
    for _ in range(4, N + 1):
        c.append(c[-3] + c[-4] + c[-5])
    return c[3:N + 3]


def enumerate_maximal_multipackings(g: Graph) -> list[tuple[int, ...]]:
    """All inclusion-maximal multipackings of g, in lexicographic order.

    Multipackings are downward closed, so a set is not maximal iff it is
    some multipacking with one member dropped.
    """
    fam = enumerate_multipackings(g)
    dropped = {s[:i] + s[i + 1:] for s in fam for i in range(len(s))}
    return [m for m in fam if m not in dropped]
