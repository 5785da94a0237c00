"""Text file formats: edge lists, hitting-set instances, vertex sets.

Graph format: header line "n m", then m lines "u v" with 0 <= u,v < n and
u != v; '#' starts a comment line.  A header with n above MAX_VERTICES or
m above n(n-1)/2 is rejected before anything is allocated.  Hitting-set
format: header "n m k", then m lines "s a_1 ... a_s" of distinct elements;
a header with m + n*k above MAX_VERTICES is rejected before the family is
read, since a reduction lays out m family vertices plus n element paths of
up to k - 1 vertices each.  Set format: a size line, then distinct members.
Serialization of a canonically parsed file is byte-identical to the input.
"""

from __future__ import annotations

from .graph import Graph
from .reductions import HittingSetInstance


MAX_VERTICES = 100_000  # largest n a graph header may declare, and m + n*k a Hitting-Set one


class InputError(ValueError):
    """Malformed input file; message carries the offending line number."""


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _ints(line: str, lineno: int, expect: int | None = None) -> list[int]:
    try:
        vals = [int(tok) for tok in line.split()]
    except ValueError:
        raise InputError(f"line {lineno}: expected integers, got {line!r}")
    if expect is not None and len(vals) != expect:
        raise InputError(
            f"line {lineno}: expected {expect} integers, got {len(vals)}"
        )
    return vals


def _header(text: str, what: str, expect: int):
    """The data lines after the header, its line number and its integers."""
    lines = _data_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise InputError(f"empty {what} file")
    return lines, lineno, _ints(header, lineno, expect)


def parse_graph(text: str) -> Graph:
    lines, lineno, (n, m) = _header(text, "graph", 2)
    if n > MAX_VERTICES:
        raise InputError(f"line {lineno}: {n} vertices exceed the cap {MAX_VERTICES}")
    if m > n * (n - 1) // 2:
        raise InputError(f"line {lineno}: {m} edges exceed n(n-1)/2 for n={n}")
    edges = []
    for lineno, line in lines:
        u, v = _ints(line, lineno, expect=2)
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    if len(edges) != m:
        raise InputError(f"header declares {m} edges, file has {len(edges)}")
    try:
        return Graph.from_edges(n, edges)
    except ValueError as e:
        raise InputError(str(e))


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_hitting_set(text: str) -> HittingSetInstance:
    lines, lineno, (n, m, k) = _header(text, "hitting-set", 3)
    if m + n * k > MAX_VERTICES:
        raise InputError(
            f"line {lineno}: m + n*k = {m + n * k} exceeds the cap {MAX_VERTICES}"
        )
    family = []
    for lineno, line in lines:
        size, *members = _ints(line, lineno)
        if size != len(members):
            raise InputError(
                f"line {lineno}: declared size {size}, got {len(members)} members"
            )
        if size == 0:
            raise InputError(f"line {lineno}: empty set in family")
        if any(not 0 <= e < n for e in members):
            raise InputError(f"line {lineno}: element out of range 0..{n - 1}")
        if len(set(members)) != size:
            raise InputError(f"line {lineno}: repeated element in set")
        family.append(frozenset(members))
    if len(family) != m:
        raise InputError(f"header declares {m} sets, file has {len(family)}")
    try:
        return HittingSetInstance.make(n, family, k)
    except ValueError as e:
        raise InputError(str(e))


def serialize_hitting_set(inst: HittingSetInstance) -> str:
    lines = [f"{inst.n} {inst.m} {inst.k}"]
    for s in inst.family:
        members = sorted(s)
        lines.append(" ".join([str(len(members))] + [str(e) for e in members]))
    return "\n".join(lines) + "\n"


def parse_vertex_set(text: str) -> tuple[int, ...]:
    lines, _, (size,) = _header(text, "set", 1)
    members: set[int] = set()
    for lineno, line in lines:
        for v in _ints(line, lineno):
            if v in members:
                raise InputError(f"line {lineno}: repeated member {v}")
            members.add(v)
    if len(members) != size:
        raise InputError(f"header declares {size} members, file has {len(members)}")
    return tuple(sorted(members))


def serialize_vertex_set(members) -> str:
    ms = sorted(members)
    return "\n".join([str(len(ms))] + [str(v) for v in ms]) + "\n"


def serialize_labels(labels) -> str:
    return "".join(f"{i}\t{lab}\n" for i, lab in enumerate(labels))


def serialize_claims(claims) -> str:
    return "".join(f"{c}\n" for c in claims)
