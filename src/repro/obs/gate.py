"""Counter-gate logic for the perf-trajectory CI job.

The deterministic trace counters (fixed seeds make them byte-stable)
are the repo's measured cost ledger: elements generated, pages
accessed, node visits, merge advances, buffer hits, rows out.  CI
compares a fresh collection against the committed baseline and fails
the build when any counter differs from its pinned value, in either
direction: a counter has no single good direction (fewer buffer hits
or result rows is no gain), and one that moved at all means the change
did something the baseline did not see.  An intended change re-pins
the baseline; counters appearing or disappearing fail too, because a
stale baseline gates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

__all__ = ["GateReport", "compare_counters"]

Number = Union[int, float]


@dataclass
class GateReport:
    """Outcome of one baseline comparison; ``ok`` is the CI verdict."""

    changed: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.changed or self.added or self.removed)

    def summary(self) -> str:
        lines: List[str] = []
        for counter in self.changed:
            lines.append(
                f"CHANGED {counter} (re-pin the baseline if intended)"
            )
        for counter in self.added:
            lines.append(f"NOT IN BASELINE {counter} (re-pin the baseline)")
        for counter in self.removed:
            lines.append(f"MISSING {counter} (present in baseline only)")
        if not lines:
            lines.append("all counters match the baseline")
        verdict = "PASS" if self.ok else "FAIL"
        return "\n".join(lines + [f"counter gate: {verdict}"])


def compare_counters(
    current: Dict[str, Number], baseline: Dict[str, Number]
) -> GateReport:
    """Diff measured counters against the committed baseline.

    Every counter is gated as an exact value: any difference from the
    baseline fails, and strict key equality is required in both
    directions.
    """
    report = GateReport()
    for key in sorted(set(current) | set(baseline)):
        if key not in baseline:
            report.added.append(f"{key}={current[key]}")
        elif key not in current:
            report.removed.append(f"{key}={baseline[key]}")
        elif current[key] != baseline[key]:
            report.changed.append(f"{key}: {baseline[key]} -> {current[key]}")
    return report
