"""Rooted trees whose surgery is one mask operation.

``bfs_tree`` and ``RootedTree.from_parents`` compute a tree's arrays once,
indexed by vertex id: parent, child masks, depth-layer masks and subtree
masks.  A tree obtained by surgery shares those arrays and differs only in
``alive``, the int bitmask of the vertices still present, so
``remove_subtree`` and ``remove_leaf`` are O(1) mask operations, and the
solver reads gadget shapes from child masks ANDed with ``alive``.  Vertex
ids are preserved across removals.  The empty tree has height -1.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graph import Graph, members


class _Arrays(NamedTuple):
    """Per-vertex arrays shared by a tree and every tree cut from it."""

    root: Optional[int]
    parent: list[Optional[int]]
    kids: list[int]  # child masks
    layers: list[int]  # layers[d]: the vertices at depth d
    sub: list[int]  # sub[u]: the vertices of the subtree rooted at u


class RootedTree:
    """Immutable rooted tree: shared per-vertex arrays plus the mask ``alive``."""

    __slots__ = ("arrays", "alive", "height")

    def __init__(self, arrays: _Arrays, alive: int, height: int):
        self.arrays = arrays
        self.alive = alive
        self.height = height

    @staticmethod
    def empty() -> "RootedTree":
        return RootedTree(_Arrays(None, [], [], [], []), 0, -1)

    @staticmethod
    def from_parents(root: int, parent_of: dict[int, int]) -> "RootedTree":
        """Build from a {child: parent} map (root excluded from the map)."""
        ids = parent_of.keys() | parent_of.values() | {root}
        if root in parent_of or min(ids) < 0:
            raise ValueError("vertex ids must be nonnegative and the root must have no parent")
        size = max(ids) + 1
        parent: list[Optional[int]] = [None] * size
        kids = [0] * size
        for c, p in parent_of.items():
            parent[c] = p
            kids[p] |= 1 << c
        depth = [0] * size
        order = [root]
        for u in order:  # BFS; grows while it is read
            for c in members(kids[u]):
                depth[c] = depth[u] + 1
                order.append(c)
        if len(order) != len(parent_of) + 1:
            raise ValueError("parent map is not a tree rooted at the given root")
        layers = [0] * (depth[order[-1]] + 1)
        sub = [1 << v for v in range(size)]
        for u in reversed(order):  # children before parents
            layers[depth[u]] |= 1 << u
            if u != root:
                sub[parent[u]] |= sub[u]
        arrays = _Arrays(root, parent, kids, layers, sub)
        return RootedTree(arrays, sub[root], len(layers) - 1)

    @property
    def root(self) -> Optional[int]:
        return self.arrays.root if self.alive else None

    @property
    def n(self) -> int:
        return self.alive.bit_count()

    def is_empty(self) -> bool:
        return not self.alive

    def vertices(self) -> list[int]:
        return members(self.alive)

    @property
    def parent(self) -> dict[int, Optional[int]]:
        """{vertex: parent} over the live vertices, the root mapped to None.
        A view for callers; the surgery and the solver read ``arrays``."""
        return {v: self.arrays.parent[v] for v in self.vertices()}

    def _check(self, v: int) -> None:
        if v < 0 or not self.alive >> v & 1:
            raise ValueError(f"vertex {v} not in tree")

    def is_leaf(self, v: int) -> bool:
        self._check(v)
        return not self.arrays.kids[v] & self.alive

    def subtree_vertices(self, u: int) -> list[int]:
        self._check(u)
        return members(self.arrays.sub[u] & self.alive)

    def _cut(self, alive: int) -> "RootedTree":
        layers, h = self.arrays.layers, self.height
        while h >= 0 and not layers[h] & alive:
            h -= 1
        return RootedTree(self.arrays, alive, h)

    def remove_subtree(self, u: int) -> "RootedTree":
        """Delete the whole subtree rooted at u; removing the root yields the empty tree."""
        self._check(u)
        return self._cut(self.alive & ~self.arrays.sub[u])

    def remove_leaf(self, w: int) -> "RootedTree":
        if not self.is_leaf(w):
            raise ValueError(f"vertex {w} is not a leaf")
        return self._cut(self.alive & ~(1 << w))


def deepest_vertices(t: RootedTree) -> list[int]:
    """All vertices of maximum depth, ascending ids."""
    if t.is_empty():
        return []
    return members(t.arrays.layers[t.height] & t.alive)


def bfs_tree(g: Graph, root: int) -> RootedTree:
    """Deterministic BFS spanning tree: neighbors explored in ascending id order.

    Tree depths equal BFS distances in g.  Raises on disconnected input.
    """
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range")
    parent_of: dict[int, int] = {}
    order = [root]
    for u in order:
        for v in g.adj[u]:
            if v != root and v not in parent_of:
                parent_of[v] = u
                order.append(v)
    if len(order) != g.n:
        raise ValueError("BFS tree undefined for disconnected graphs")
    return RootedTree.from_parents(root, parent_of)
