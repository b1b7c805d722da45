"""Query-level observability: traced plan execution with the paper's
Section-5 cost accounting.

Usage::

    from repro import obs

    with obs.trace("my query") as t:
        db.range_query("cities", ("x", "y"), box)
    print(obs.format_trace(t))      # EXPLAIN ANALYZE-style tree
    payload = t.to_json()           # what the CI perf gate diffs

Instrumented layers publish into the active trace only — with no trace
installed every probe is a single ``is None`` check per query/operator,
which is the "near-zero overhead when disabled" contract the kernel
benchmarks hold the library to.
"""

from repro.obs.explain import explain_analyze_text, format_trace
from repro.obs.gate import GateReport, compare_counters
from repro.obs.trace import (
    QueryTrace,
    Span,
    add,
    current,
    span,
    trace,
)

__all__ = [
    "QueryTrace",
    "Span",
    "add",
    "current",
    "span",
    "trace",
    "format_trace",
    "explain_analyze_text",
    "GateReport",
    "compare_counters",
]
