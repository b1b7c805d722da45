"""Measurement plumbing shared by every workload.

One timed phase is ``SLICES`` equal slices with ``gc.collect()`` before
each and the collector left on.  Every metric is taken over the pooled
samples of the phase (on a shared host, interference comes in phases of
seconds, and no per-slice statistic tried was steadier than using all
the data) and carries its sample count and the spread of its per-slice
values, which is what ``run.py --compare`` uses to call a difference
unresolved.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

SLICES = 3
#: Share of timed operations whose output is checked against an oracle.
CHECK_RATE = 0.05
#: Exceptions that mean "this optional probe's API is gone".
PROBE_GONE = (ImportError, AttributeError, TypeError, KeyError)


def stream_rng(seed: int, *tags: str) -> random.Random:
    """One independent generator per (seed, purpose): string seeding is
    stable across processes and python versions."""
    return random.Random(":".join([str(seed), *tags]))


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of unsorted samples."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered))))
    return ordered[rank]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bytes_written() -> Optional[int]:
    """Bytes this process has handed to write(2) so far (Linux), the
    outside view of what the storage layer writes; None elsewhere."""
    try:
        with open("/proc/self/io") as io:
            for line in io:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def optional(probe: Callable[[], Any]) -> Any:
    """Run an optional probe; None when the API it needs is gone."""
    try:
        return probe()
    except PROBE_GONE as exc:
        print(f"probe unavailable: {exc!r}", file=sys.stderr)
        return None


def median_ms(samples: List[float]) -> Optional[float]:
    return statistics.median(samples) * 1e3 if samples else None


@dataclass
class Timed:
    """Raw outcome of one timed phase."""

    #: per-slice operation latencies, seconds
    latencies: List[List[float]] = field(default_factory=list)
    #: per-slice clock the operations of that slice shared, seconds
    clocks: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {what}", file=sys.stderr)


def _spread(values: List[float]) -> float:
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def summarize(timed: Timed) -> Dict[str, Dict[str, Any]]:
    """ops_per_s / p50_ms / p95_ms with sample counts and slice spreads."""
    pooled = [s for lat in timed.latencies for s in lat]
    n = len(pooled)
    rates = [len(lat) / clock for lat, clock in zip(timed.latencies, timed.clocks)]
    p50s = [statistics.median(lat) * 1e3 for lat in timed.latencies]
    p95s = [percentile(lat, 0.95) * 1e3 for lat in timed.latencies]
    return {
        "ops_per_s": {
            "value": n / sum(timed.clocks),
            "unit": "1/s",
            "n": n,
            "spread": _spread(rates),
        },
        "p50_ms": {
            "value": statistics.median(pooled) * 1e3,
            "unit": "ms",
            "n": n,
            "spread": _spread(p50s),
        },
        "p95_ms": {
            "value": percentile(pooled, 0.95) * 1e3,
            "unit": "ms",
            "n": n,
            # fewer than ten samples beyond the percentile: weak tail
            "weak": n - int(0.95 * n) < 10,
            "spread": _spread(p95s),
        },
    }


def closed_loop(
    stream: Iterator[Any],
    execute: Callable[[Any], Any],
    check: Callable[[Any, Any], bool],
    seconds: float,
    check_rng: random.Random,
) -> Timed:
    """One client, next operation only after the previous one returns.

    The slice clock counts time inside ``execute`` only, so drawing the
    next input and checking a sampled output are not billed to the
    program.  An exception or a wrong output is a failed operation.
    """
    timed = Timed()
    for _ in range(SLICES):
        gc.collect()
        latencies: List[float] = []
        busy = 0.0
        while busy < seconds / SLICES:
            op = next(stream)
            timed.attempted += 1
            start = time.perf_counter()
            try:
                out = execute(op)
            except Exception as exc:  # the loop must outlive a bad op
                latencies.append(time.perf_counter() - start)
                busy += latencies[-1]
                timed.fail(f"{op!r}: {exc!r}")
                continue
            latencies.append(time.perf_counter() - start)
            busy += latencies[-1]
            if check_rng.random() < CHECK_RATE and not check(op, out):
                timed.fail(f"wrong output for {op!r}")
        timed.latencies.append(latencies)
        timed.clocks.append(busy)
    return timed
