"""Which package functions the traced run wraps, and the per-layer metrics.

Per-operation metrics are totals over the traced operations divided by
their number.  A metric whose wrapped function no longer exists is
reported with value ``None`` (absent), never as 0; a layer that a
workload does not exercise reads 0.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Optional

from tracing import Span, Target, self_times


def _count_true(span: Span, args: tuple, result) -> None:
    span.add("true", bool(result))


def _family(span: Span, args: tuple, result) -> None:
    tree, size = args[0], len(result)
    span.add("family_size", size)
    if tree.n:
        growth = size ** (1.0 / tree.n)
        span.extra["growth_max"] = max(span.extra.get("growth_max", 0.0), growth)


def _quads(span: Span, args: tuple, result) -> None:
    span.add("quads", comb(args[0].n, 4))


def _out_vertices(span: Span, args: tuple, result) -> None:
    span.add("out_vertices", result.graph.n)


TARGETS = (
    Target("cli", "main", "cli.main"),
    Target("formats", "parse_graph", "formats.parse_graph"),
    Target("formats", "serialize_graph", "formats.serialize_graph"),
    Target("formats", "parse_hitting_set", "formats.parse_hitting_set"),
    Target("graph", "all_pairs", "graph.all_pairs"),
    Target("graph", "connected_components", "graph.connected_components"),
    Target("rooted_tree", "bfs_tree", "rooted_tree.bfs_tree"),
    Target("solver", "solve_detailed", "solver.solve_detailed"),
    Target("solver", "candidate_family", "solver.candidate_family", True, _family),
    Target("oracle", "is_multipacking", "oracle.is_multipacking", True, _count_true),
    Target("oracle", "pick_best", "oracle.pick_best"),
    Target("oracle", "brute_force_mp", "oracle.brute_force_mp"),
    Target("oracle", "brute_force_min_hs", "oracle.brute_force_min_hs"),
    Target("reductions", "reduce_hs_chordal", "reductions.build", hook=_out_vertices),
    Target("reductions", "reduce_hs_half_hyperbolic", "reductions.build", hook=_out_vertices),
    Target("reductions", "reduce_hs_bipartite", "reductions.build", hook=_out_vertices),
    Target("reductions", "reduce_hs_clawfree", "reductions.build", hook=_out_vertices),
    Target("checkers", "is_chordal", "checkers.is_chordal"),
    Target("checkers", "is_bipartite", "checkers.is_bipartite"),
    Target("checkers", "is_clawfree", "checkers.is_clawfree"),
    Target("checkers", "hyperbolicity", "checkers.hyperbolicity", hook=_quads),
    Target("randgen", "random_tree", "randgen.generate"),
    Target("randgen", "random_hitting_set_instance", "randgen.generate"),
)


class Summary:
    """Sums over spans, by name and optionally by the parent span's name."""

    def __init__(self, spans: list[Span], ops: int):
        self.spans = spans
        self.ops = ops
        self.by_id = {s.id: s for s in spans}
        self.self_time = self_times(spans)

    def select(self, name: str, parent: Optional[str] = None, in_ops: bool = True) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.name == name
            and (not in_ops or s.op is not None)
            and (parent is None or (s.parent is not None and self.by_id[s.parent].name == parent))
        ]

    def total(self, name: str, what: str = "busy", parent: Optional[str] = None, in_ops: bool = True) -> float:
        spans = self.select(name, parent, in_ops)
        if what == "busy":
            return sum(s.busy for s in spans)
        if what == "calls":
            return sum(s.calls for s in spans)
        if what == "self":
            return sum(self.self_time[s.id] for s in spans)
        return sum(s.extra.get(what, 0) for s in spans)

    def per_op(self, *args, **kwargs) -> float:
        return self.total(*args, **kwargs) / self.ops


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


FILTER = ("oracle.is_multipacking", "solver.solve_detailed")  # the solver's filter
DFS = ("oracle.is_multipacking", "oracle.brute_force_mp")  # the oracle's search

# metric name -> (unit, spans it needs, value from a Summary)
METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[Summary], float]]] = {
    "solver.candidate_family_s": ("s", ("solver.candidate_family",), lambda s: s.per_op("solver.candidate_family")),
    "solver.family_calls": ("count", ("solver.candidate_family",), lambda s: s.per_op("solver.candidate_family", "calls")),
    "solver.family_size": ("count", ("solver.candidate_family",), lambda s: s.per_op("solver.candidate_family", "family_size")),
    "solver.family_growth_max": (
        "ratio",
        ("solver.candidate_family",),
        lambda s: max((x.extra.get("growth_max", 0.0) for x in s.select("solver.candidate_family")), default=0.0),
    ),
    "oracle.filter_s": ("s", FILTER, lambda s: s.per_op(FILTER[0], parent=FILTER[1])),
    "oracle.filter_checks": ("count", FILTER, lambda s: s.per_op(FILTER[0], "calls", parent=FILTER[1])),
    "oracle.survivors": ("count", FILTER, lambda s: s.per_op(FILTER[0], "true", parent=FILTER[1])),
    "oracle.filter_yield": (
        "ratio",
        FILTER,
        lambda s: _ratio(s.total(FILTER[0], "true", parent=FILTER[1]), s.total(FILTER[0], "calls", parent=FILTER[1])),
    ),
    "oracle.pick_best_s": ("s", ("oracle.pick_best",), lambda s: s.per_op("oracle.pick_best")),
    # The oracle metrics include the traced reference solves, which run
    # outside the operations on trees.
    "oracle.brute_mp_s": ("s", ("oracle.brute_force_mp",), lambda s: s.per_op("oracle.brute_force_mp", in_ops=False)),
    "oracle.dfs_nodes": ("count", DFS, lambda s: s.per_op(DFS[0], "calls", parent=DFS[1], in_ops=False)),
    "oracle.dfs_yield": (
        "ratio",
        DFS,
        lambda s: _ratio(
            s.total(DFS[0], "true", parent=DFS[1], in_ops=False),
            s.total(DFS[0], "calls", parent=DFS[1], in_ops=False),
        ),
    ),
    "oracle.min_hs_s": ("s", ("oracle.brute_force_min_hs",), lambda s: s.per_op("oracle.brute_force_min_hs")),
    "checkers.chordal_s": ("s", ("checkers.is_chordal",), lambda s: s.per_op("checkers.is_chordal")),
    "checkers.bipartite_s": ("s", ("checkers.is_bipartite",), lambda s: s.per_op("checkers.is_bipartite")),
    "checkers.clawfree_s": ("s", ("checkers.is_clawfree",), lambda s: s.per_op("checkers.is_clawfree")),
    "checkers.hyperbolicity_s": ("s", ("checkers.hyperbolicity",), lambda s: s.per_op("checkers.hyperbolicity")),
    "checkers.hyperbolicity_quads": (
        "count",
        ("checkers.hyperbolicity",),
        lambda s: s.per_op("checkers.hyperbolicity", "quads"),
    ),
    "reductions.build_s": ("s", ("reductions.build",), lambda s: s.per_op("reductions.build")),
    "reductions.out_vertices": ("count", ("reductions.build",), lambda s: s.per_op("reductions.build", "out_vertices")),
    "graph.all_pairs_s": ("s", ("graph.all_pairs",), lambda s: s.per_op("graph.all_pairs")),
    "graph.all_pairs_calls": ("count", ("graph.all_pairs",), lambda s: s.per_op("graph.all_pairs", "calls")),
    "graph.components_s": ("s", ("graph.connected_components",), lambda s: s.per_op("graph.connected_components")),
    "rooted_tree.bfs_tree_s": ("s", ("rooted_tree.bfs_tree",), lambda s: s.per_op("rooted_tree.bfs_tree")),
    "formats.parse_graph_s": ("s", ("formats.parse_graph",), lambda s: s.per_op("formats.parse_graph")),
    "formats.serialize_graph_s": ("s", ("formats.serialize_graph",), lambda s: s.per_op("formats.serialize_graph")),
    "cli.self_s": ("s", ("cli.main",), lambda s: s.per_op("cli.main", "self")),
    # Total time of one set-up's generator calls, not per operation.
    "randgen.generate_s": (
        "s",
        ("randgen.generate",),
        lambda s: s.total("randgen.generate", parent="setup", in_ops=False),
    ),
}


def per_layer(spans: list[Span], ops: int, absent: set[str], overhead_ratio: float) -> dict:
    summary = Summary(spans, ops)
    out = {}
    for name, (unit, needs, fn) in METRICS.items():
        value = None if any(n in absent for n in needs) else fn(summary)
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return out
