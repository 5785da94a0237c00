from typing import NamedTuple

import networkx as nx
import pytest

from multipacking.graph import Graph, members
from multipacking.rooted_tree import RootedTree


def tree_catalog(n_max: int) -> list[Graph]:
    """All non-isomorphic free trees with 1 <= n <= n_max."""
    trees = [Graph.from_edges(1, [])]
    for n in range(2, n_max + 1):
        trees += [
            Graph.from_edges(n, list(T.edges()))
            for T in nx.nonisomorphic_trees(n)
        ]
    return trees


@pytest.fixture(scope="session")
def trees_up_to_9() -> list[Graph]:
    return tree_catalog(9)


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class GadgetShape(NamedTuple):
    """Structural class of a subtree: height-1 star, height-2 spider, or other."""

    kind: str  # "H1" | "H2" | "other"
    k: int = 0
    k1: int = 0
    k2: int = 0


def classify_subtree(t: RootedTree, u: int) -> GadgetShape:
    """Classify the subtree rooted at u as a star H1(k), spider H2(k1,k2), or other.

    H1(k): all children of u are leaves.  H2(k1,k2): the subtree has height
    exactly 2, each depth-1 child that has children has exactly one child
    (a leaf); k1 counts those legs and k2 the leaf children of u.  The
    reference the solver's shape tests (``split_158``, ``h2_roles``) and the
    surgery tests compare against.
    """
    t._check(u)
    kids, alive = t.arrays.kids, t.alive
    k1 = k2 = 0
    for c in members(kids[u] & alive):
        grand = kids[c] & alive
        if not grand:
            k2 += 1
        elif grand & (grand - 1) or kids[grand.bit_length() - 1] & alive:
            return GadgetShape("other")
        else:
            k1 += 1
    return GadgetShape("H2", k1=k1, k2=k2) if k1 else GadgetShape("H1", k=k2)
