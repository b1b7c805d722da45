"""Rendering traces: the ``EXPLAIN ANALYZE`` printout.

A plan annotates its span with ``est_*`` attributes (the Section-5 cost
model's predictions) and the execution publishes the matching measured
counters; this module lines the two up, one ``estimated=x actual=y``
pair per quantity, plus the raw counter tallies for everything else.
"""

from __future__ import annotations

from typing import Any, List, Optional, Union

from repro.obs.trace import QueryTrace, Span

__all__ = ["format_trace", "explain_analyze_text"]

#: est_<name> attributes pair up with these measured counters.
_ACTUAL_FOR = {
    "rows": ("rows_out", "rows", "matches"),
    "pages": ("pages_accessed",),
}


def _fmt_num(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def _est_actual_lines(node: Span) -> List[str]:
    """``estimated vs actual`` lines for every est_* attribute that has
    a measured counterpart in the span's subtree."""
    lines = []
    totals = node.total_counters()
    for key, value in node.attrs.items():
        if not key.startswith("est_"):
            continue
        quantity = key[len("est_") :]
        actual: Optional[Union[int, float]] = None
        for counter in _ACTUAL_FOR.get(quantity, (quantity,)):
            if counter in totals:
                actual = totals[counter]
                break
        if actual is None:
            lines.append(f"{quantity}: estimated={_fmt_num(value)} actual=?")
        else:
            lines.append(
                f"{quantity}: estimated={_fmt_num(value)} "
                f"actual={_fmt_num(actual)}"
            )
    return lines


def _render(node: Span, indent: int, out: List[str]) -> None:
    pad = "  " * indent
    if node.name.startswith("client[") and not node.children:
        # Per-client leaves of the SERVER trace section: one compact
        # served/rejected/errors line each so many clients stay readable.
        parts = [f"{pad}{node.name}"]
        for key in ("served", "rejected", "errors"):
            if key in node.counters:
                parts.append(f"{key}={_fmt_num(node.counters[key])}")
        out.append("  ".join(parts))
        return
    if node.name.startswith("filter[") and not node.children:
        # Per-conjunct leaves of a multi-predicate plan: one compact
        # rows_in→rows_out line each so long WHERE chains stay readable.
        rows_in = node.counters.get("rows_in", 0)
        rows_out = node.counters.get("rows_out", 0)
        parts = [
            f"{pad}{node.name}  rows={_fmt_num(rows_in)}"
            f"->{_fmt_num(rows_out)}"
        ]
        if "kind" in node.attrs:
            parts.append(f"kind={node.attrs['kind']}")
        if "est_selectivity" in node.attrs:
            est = node.attrs["est_selectivity"]
            actual = rows_out / rows_in if rows_in else 0.0
            parts.append(
                f"selectivity: estimated={est:.4f} actual={actual:.4f}"
            )
        out.append("  ".join(parts))
        return
    timing = f"  [{node.elapsed_s * 1e3:.2f} ms]" if node.elapsed_s else ""
    out.append(f"{pad}{node.name}{timing}")
    detail_pad = pad + "    "
    plain_attrs = {
        k: v for k, v in node.attrs.items() if not k.startswith("est_")
    }
    if plain_attrs:
        rendered = ", ".join(
            f"{k}={_fmt_num(v)}" for k, v in sorted(plain_attrs.items())
        )
        out.append(f"{detail_pad}{rendered}")
    for line in _est_actual_lines(node):
        out.append(f"{detail_pad}{line}")
    if node.counters:
        rendered = ", ".join(
            f"{k}={_fmt_num(v)}" for k, v in sorted(node.counters.items())
        )
        out.append(f"{detail_pad}{rendered}")
    for sub in node.children:
        _render(sub, indent + 1, out)


def format_trace(trace: QueryTrace) -> str:
    """The whole span tree as an indented ``EXPLAIN ANALYZE`` printout."""
    out: List[str] = []
    _render(trace.root, 0, out)
    return "\n".join(out)


def explain_analyze_text(trace: QueryTrace) -> str:
    """Alias with the user-facing name (what the CLI prints)."""
    return format_trace(trace)
