"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program, around calls into each
layer's public functions: name, start, end, parent span and run id. They
stay in memory and are written out with the run record when the run ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name`` (0 if none)."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def children(self, parent: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == parent.id]

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
