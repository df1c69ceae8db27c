"""In-memory spans recorded from outside the solver.

A traced pass replaces public functions of the fracvisco modules, in every
module namespace the callers look them up in, by wrappers that record one
span per call.  The solver itself is not changed.  A span is named
``<layer>.<function>``; the layer is the fracvisco module that owns the
function.  Spans carry the id of the span that was open when they started
(their parent) and the id of the solver run they belong to.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder and the function patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), name, self.run,
                    self._open[-1] if self._open else None,
                    time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn: Callable, name: str,
             note: Callable[..., dict] | None = None) -> Callable:
        """fn with a span around every call.

        note(result, args, kwargs), if given, returns attributes for the span.
        """
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if note is not None:
                span.attrs.update(note(out, args, kwargs))
            return out
        traced.__wrapped__ = fn
        return traced

    def patch(self, modules: list[object], attr: str, name: str,
              note: Callable[..., dict] | None = None) -> None:
        """Trace attr in each module namespace that calls it by that name."""
        for mod in modules:
            orig = getattr(mod, attr)
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, name, note))

    def unpatch(self) -> None:
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)

    def totals(self, names: tuple[str, ...]) -> float:
        return sum((s.duration for s in self.spans if s.name in names), 0.0)

    def self_times(self, upto: int | None = None) -> dict[str, float]:
        """Per layer: span time minus the time covered by child spans,
        over the first upto spans (all by default)."""
        spans = self.spans[:upto]
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = {}
        for s in spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - child[s.id]
        return out

    def export(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
