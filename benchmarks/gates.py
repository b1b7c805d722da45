"""Uniform benchmark gating: one grep-able GATE line, one exit code.

Every ``bench_*.py`` CLI gate funnels its floor checks through
:func:`gate` so CI can grep a single format::

    GATE PASS: kernels - 2-d batched shuffle speedup 3.4x (floor 3.0x)
    GATE FAIL: server - 16-client batched dispatch 1.29x serial qps (floor 1.7x)

A failing gate prints the line on stderr and returns exit code 1; a
passing gate prints on stdout and returns 0.  Environment caveats that
waive a floor (single-core hosts, smoke mode) are reported as ``NOTE:``
lines ahead of the verdict, so a waived floor still passes loudly.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence, Tuple

__all__ = ["gate"]

#: A check: (passed, description).  The description reads as a reason
#: when failed and as supporting detail when passed.
Check = Tuple[bool, str]


def gate(
    name: str,
    checks: Sequence[Check],
    notes: Iterable[str] = (),
) -> int:
    """Print ``NOTE:`` lines, then exactly one GATE verdict line.

    Returns the process exit code (0 pass, 1 fail) so mains can end
    with ``return gate(...)``.
    """
    for note in notes:
        print(f"NOTE: {note}")
    failures = [detail for ok, detail in checks if not ok]
    if failures:
        print(f"GATE FAIL: {name} - {'; '.join(failures)}", file=sys.stderr)
        return 1
    passed = [detail for ok, detail in checks if detail]
    detail = "; ".join(passed) if passed else "all checks passed"
    print(f"GATE PASS: {name} - {detail}")
    return 0
