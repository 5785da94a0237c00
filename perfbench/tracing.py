"""In-memory spans recorded around calls into the package under test.

The package is not edited: ``Tracer.install`` replaces every binding of a
target function in the package's loaded modules with a timing wrapper and
``Tracer.uninstall`` puts the originals back.  A wrapped call that encloses
other wrapped calls becomes their parent span.  Functions that run
thousands of times per operation are recorded as one aggregate span per
parent, holding the call count and the summed time of the outermost calls,
so recursion is counted but never timed twice.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

Hook = Callable[["Span", tuple, Any], None]


@dataclass(eq=False)
class Span:
    """One timed interval.  ``busy`` is the time it covers: ``end - start``
    for a plain span, the summed outermost calls for an aggregate one."""

    id: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    start: float = 0.0
    end: float = 0.0
    busy: float = 0.0
    calls: int = 0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def record(self, origin: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start": self.start - origin,
            "end": self.end - origin,
            "busy": self.busy,
            "calls": self.calls,
            **self.extra,
        }


@dataclass(frozen=True)
class Target:
    """A package function to wrap, the span name it records, and how."""

    module: str
    func: str
    span: str
    aggregate: bool = False
    hook: Optional[Hook] = None


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's busy time minus the time its child spans cover.

    The client is single-threaded, so the children of one span never
    overlap and the covered time is the sum of their busy times.
    """
    spans = list(spans)
    out = {s.id: s.busy for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.busy
    return out


class Tracer:
    """Records spans; ``op`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.op: Optional[int] = None
        self._stack: list[Span] = []
        self._aggregates: dict[tuple[Optional[int], str], Span] = {}
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _new(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        """A plain span around a block of the benchmark's own code."""
        span = self._new(name)
        span.calls = 1
        self._stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            span.busy = span.end - span.start
            self._stack.pop()

    def _plain(self, fn, name: str, hook: Optional[Hook]):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, args, result)
            return result

        return wrapper

    def _aggregate(self, fn, name: str, hook: Optional[Hook]):
        self._depth[name] = 0

        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = self._aggregates.get((parent, name))
            if span is None:
                span = self._aggregates[(parent, name)] = self._new(name)
                span.start = perf_counter()
            span.calls += 1
            if self._depth[name]:
                return fn(*args, **kwargs)
            self._depth[name] = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._depth[name] = 0
                span.busy += t1 - t0
                span.end = t1
            if hook is not None:
                hook(span, args, result)
            return result

        return wrapper

    def install(self, package: str, targets: Iterable[Target]) -> None:
        """Wrap each target wherever the package's modules bind it.

        A target that no longer exists is recorded in ``absent`` so that
        its metrics read as missing, not as zero.
        """
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for t in targets:
            owner = sys.modules.get(f"{package}.{t.module}")
            original = getattr(owner, t.func, None)
            if not callable(original):
                self.absent.add(t.span)
                continue
            make = self._aggregate if t.aggregate else self._plain
            wrapper = make(original, t.span, t.hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def records(self) -> list[dict]:
        return [s.record(self.origin) for s in self.spans]
