"""Query traces: a span tree with typed counters.

Section 5 of the paper is an *analytical* cost model — ``E(U, V)``
element counts, ``O(vN)`` page accesses.  This module supplies the
*measured* side of that ledger: a :class:`QueryTrace` is a tree of
:class:`Span` objects, each holding wall-clock time, free-form
attributes (the plan's estimates live here) and integer/float counters
(the measured quantities).  Every instrumented layer — the range-search
merge, the spatial-join sweep, the zkd B+-tree, the buffer manager, the
relational operators — publishes its counters into the active trace, so
``EXPLAIN ANALYZE`` can print estimated-vs-actual for a whole plan and
the benchmarks can regress-gate the deterministic counters.

Design constraints:

* **near-zero overhead when disabled** — instrumented code asks
  :func:`current` once per *query or operator* (never per record) and
  does nothing when it returns ``None``; hot loops keep using their
  existing local counters and publish a single batch at the end;
* **deterministic counters** — everything except ``elapsed_s`` is a
  pure function of the workload, so fixed-seed runs are byte-stable and
  CI can diff them against a committed baseline;
* **JSON round-trip** — ``trace.to_json()`` / ``QueryTrace.from_json``
  lose nothing the gate needs.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "QueryTrace",
    "current",
    "trace",
    "add",
    "span",
]

Number = Union[int, float]

#: Per-thread active trace, or None when tracing is disabled (the common
#: case).  Thread-local rather than a plain global so concurrent
#: sessions and the server's batch thread never publish into (and race
#: on) another thread's span stack; each thread starts untraced.
_STATE = threading.local()


def current() -> Optional["QueryTrace"]:
    """The calling thread's active trace, or ``None`` when tracing is
    disabled.

    Instrumented code calls this once per query/operator and skips all
    bookkeeping on ``None`` — that is the entire disabled-mode cost.
    """
    return getattr(_STATE, "active", None)


class Span:
    """One node of the trace tree.

    ``counters`` hold measured quantities (summed on merge), ``attrs``
    hold one-off annotations (estimates, parameters; overwritten on
    merge), ``children`` the nested spans.
    """

    __slots__ = ("name", "attrs", "counters", "children", "elapsed_s", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = {}
        self.counters: Dict[str, Number] = {}
        self.children: List["Span"] = []
        self.elapsed_s: float = 0.0
        self._t0: Optional[float] = None

    # -- recording ------------------------------------------------------

    def add(self, key: str, n: Number = 1) -> None:
        """Increment counter ``key`` by ``n``."""
        self.counters[key] = self.counters.get(key, 0) + n

    def add_counters(self, counters: Dict[str, Number]) -> None:
        for key, n in counters.items():
            self.add(key, n)

    def set(self, key: str, value: Any) -> None:
        """Set attribute ``key`` (estimates, parameters)."""
        self.attrs[key] = value

    def child(self, name: str) -> "Span":
        node = Span(name)
        self.children.append(node)
        return node

    def merge_from(self, other: "Span") -> None:
        """Fold another span into this one: counters sum, attributes of
        ``other`` win, elapsed time adds, children concatenate."""
        self.add_counters(other.counters)
        self.attrs.update(other.attrs)
        self.elapsed_s += other.elapsed_s
        self.children.extend(other.children)

    # -- timing ---------------------------------------------------------

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._t0 is not None:
            self.elapsed_s += time.perf_counter() - self._t0
            self._t0 = None

    # -- aggregation ----------------------------------------------------

    def total_counters(self) -> Dict[str, Number]:
        """Counters summed over this span and its whole subtree."""
        total = dict(self.counters)
        for node in self.children:
            for key, n in node.total_counters().items():
                total[key] = total.get(key, 0) + n
        return total

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in a pre-order walk."""
        if self.name == name:
            return self
        for node in self.children:
            found = node.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        yield self
        for node in self.children:
            yield from node.walk()

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "elapsed_s": self.elapsed_s,
            "children": [node.to_dict() for node in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        node = cls(str(data["name"]))
        node.attrs = dict(data.get("attrs", {}))
        node.counters = dict(data.get("counters", {}))
        node.elapsed_s = float(data.get("elapsed_s", 0.0))
        node.children = [
            cls.from_dict(sub) for sub in data.get("children", ())
        ]
        return node

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {len(self.counters)} counters, "
            f"{len(self.children)} children)"
        )


class QueryTrace:
    """A span tree under construction: a root plus a stack of open spans.

    Use as a context manager (times the root) or through the module's
    :func:`trace` context manager (also makes it the active trace):

    >>> t = QueryTrace("q")
    >>> with t:
    ...     with t.span("child") as sp:
    ...         sp.add("rows", 3)
    >>> t.root.children[0].counters["rows"]
    3
    """

    def __init__(self, name: str = "query") -> None:
        self.root = Span(name)
        self._stack: List[Span] = [self.root]

    # -- recording ------------------------------------------------------

    @property
    def active_span(self) -> Span:
        return self._stack[-1]

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a child span of the innermost open span."""
        node = self.active_span.child(name)
        self._stack.append(node)
        try:
            with node:
                yield node
        finally:
            self._stack.pop()

    def add(self, key: str, n: Number = 1) -> None:
        """Increment a counter on the innermost open span."""
        self.active_span.add(key, n)

    def set(self, key: str, value: Any) -> None:
        self.active_span.set(key, value)

    def __enter__(self) -> "QueryTrace":
        self.root.__enter__()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.root.__exit__(*exc)

    # -- reading --------------------------------------------------------

    def total_counters(self) -> Dict[str, Number]:
        return self.root.total_counters()

    def find(self, name: str) -> Optional[Span]:
        return self.root.find(name)

    # -- serialization --------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.root.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QueryTrace":
        out = cls.__new__(cls)
        out.root = Span.from_dict(json.loads(text))
        out._stack = [out.root]
        return out

    def __repr__(self) -> str:
        return f"QueryTrace({self.root.name!r})"


@contextmanager
def trace(
    name: str = "query", enabled: bool = True
) -> Iterator[Optional[QueryTrace]]:
    """Run a block with an active :class:`QueryTrace`.

    With ``enabled=False`` this yields ``None`` and installs nothing —
    the block runs exactly as untraced code does.  Nested ``trace``
    blocks stack: the inner trace is active inside, the outer one is
    restored on exit.
    """
    if not enabled:
        yield None
        return
    t = QueryTrace(name)
    previous = current()
    _STATE.active = t
    try:
        with t:
            yield t
    finally:
        _STATE.active = previous


def add(key: str, n: Number = 1) -> None:
    """Increment a counter on the active trace; no-op when disabled."""
    t = current()
    if t is not None:
        t.add(key, n)


@contextmanager
def span(name: str) -> Iterator[Optional[Span]]:
    """Open a span on the active trace; yields ``None`` (and costs one
    thread-local load) when tracing is disabled."""
    t = current()
    if t is None:
        yield None
        return
    with t.span(name) as node:
        yield node
