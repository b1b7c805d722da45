"""The ledger's own span recorder.

The traced run wraps every call *into* a layer from outside: nothing
under ``src/`` is instrumented.  A layer's children are the same inputs
replayed one layer down (SQL text -> ``db.range_query`` -> tree ->
``decompose_box``), so they are linked by parent id rather than nested
in time, and a span's self time is its duration minus the durations of
its direct children.

Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

from harness import median_ms

__all__ = ["Span", "Recorder"]


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    request: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``request`` is inherited from the parent so all
    spans of one replayed operation share an identifier."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        request: Optional[int] = None,
    ) -> Iterator[Span]:
        if parent is not None and request is None:
            request = parent.request
        span = Span(
            id=len(self.spans),
            name=name,
            parent=None if parent is None else parent.id,
            request=request,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self, name: str) -> List[float]:
        """Duration minus direct children's durations, per span."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = (
                    children.get(span.parent, 0.0) + span.duration
                )
        return [
            s.duration - children.get(s.id, 0.0)
            for s in self.spans
            if s.name == name
        ]

    def median_ms(self, name: str, self_time: bool = False) -> Optional[float]:
        return median_ms(self.self_times(name) if self_time else self.durations(name))

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")
