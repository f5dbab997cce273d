"""In-memory spans around the calls one pdegreedy module makes into another.

A probe replaces a name in the *caller's* module namespace (for example
``training.forward_jet_with_cache``) with a wrapper that records a span
and then calls the original. The library code runs unchanged; the
probes are removed when the ``installed`` block ends.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str          # "<callee layer>.<function>", e.g. "siren.jet_backward"
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at top level
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans while ``enabled``; one tracer per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around the benchmark's own call into a layer."""
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def wrapper(self, name: str, original, annotate=None):
        """Callable that records ``name`` around ``original``.

        ``annotate(args, kwargs, result)`` returns extra span attributes; it
        runs after the span has closed, so its cost is not in the span.
        """
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if annotate is not None:
                self.spans[index].attrs.update(annotate(args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, probes):
        """Patch each ``(module, attribute, layer, annotate)`` probe, then restore."""
        saved = []
        try:
            for module, attr, layer, annotate in probes:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrapper(f"{layer}.{attr}", original, annotate))
            self.enabled = True
            yield
        finally:
            self.enabled = False
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "attrs": s.attrs} for s in self.spans], fh)
            fh.write("\n")

    # -- summaries -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        out = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] += s.duration
        return out

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus their direct children."""
        children = self.child_time()
        return sum(s.duration - children[i] for i, s in enumerate(self.spans)
                   if s.name == name)

    def layer_self_time(self, layer: str) -> float:
        """Time inside spans of one layer not covered by a child span."""
        children = self.child_time()
        return sum(s.duration - children[i] for i, s in enumerate(self.spans)
                   if s.layer == layer)


@contextlib.contextmanager
def iteration_clock(training_module):
    """Timestamp every training iteration through the per-iteration
    ``cyclic_lr`` call, which ``train`` makes just before it records the
    iteration's trajectory row. Costs one clock read per iteration."""
    stamps: list[float] = []
    original = training_module.cyclic_lr

    def stamped(*args, **kwargs):
        stamps.append(perf_counter())
        return original(*args, **kwargs)

    training_module.cyclic_lr = stamped
    try:
        yield stamps
    finally:
        training_module.cyclic_lr = original
