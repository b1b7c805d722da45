"""The Zones algorithm: epsilon cross-matching of point catalogs.

Gray et al.'s zones algorithm (the SDSS cross-match workhorse) buckets
one catalog into horizontal *zones* of height ``h >= eps`` on the last
axis and sorts each zone's run by the first axis.  A match candidate
for point ``a`` can then only live in the zone containing ``a`` or one
of its two neighbours (``|y_a - y_b| <= eps <= h`` pins the zone id to
``+/- 1``), and within each zone a binary search clips the run to
``x in [x_a - eps, x_a + eps]``.  An exact Euclidean test finishes each
candidate, so the algorithm is a pure *filter* — results are identical
to the O(n^2) nested loop, just reached through ~``3 * eps``-height
strips instead of the whole plane.

:func:`zones_epsilon_join` yields ordinal pairs, so callers can join
full rows (the SQL eps-join) or raw points (the differential oracle
suite) through the same sweep.  Output order is canonical — sorted by
``(point_a, point_b)`` — making byte-for-byte comparison against the
nested-loop oracle meaningful.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.trace import current as _trace_current

__all__ = ["ZonesIndex", "zones_epsilon_join", "zone_height_for"]

Point = Tuple[int, ...]


def zone_height_for(eps: float) -> int:
    """The zone height used for radius ``eps``: ``max(1, ceil(eps))``,
    the smallest integer height satisfying the neighbour-zone
    invariant ``h >= eps``."""
    return max(1, math.ceil(eps))


class ZonesIndex:
    """One catalog bucketed into zone-height rows over the last axis,
    each zone's run sorted by the first axis."""

    def __init__(
        self, points: Sequence[Sequence[int]], zone_height: int
    ) -> None:
        if zone_height < 1:
            raise ValueError("zone height must be >= 1")
        self.zone_height = zone_height
        self.zones: Dict[int, Tuple[List[int], List[Tuple[Point, int]]]] = {}
        buckets: Dict[int, List[Tuple[int, Point, int]]] = {}
        for ordinal, p in enumerate(points):
            p = tuple(p)
            buckets.setdefault(p[-1] // zone_height, []).append(
                (p[0], p, ordinal)
            )
        for zid, entries in buckets.items():
            entries.sort()
            self.zones[zid] = (
                [x for x, _, _ in entries],
                [(p, ordinal) for _, p, ordinal in entries],
            )

    @property
    def nzones(self) -> int:
        return len(self.zones)

    def zone_of(self, point: Sequence[int]) -> int:
        return tuple(point)[-1] // self.zone_height

    def candidates(
        self, point: Sequence[int], eps: float
    ) -> Iterable[Tuple[Point, int]]:
        """Every indexed ``(point, ordinal)`` whose zone neighbours
        ``point``'s zone and whose first axis lies within ``eps`` —
        the superset the exact distance test then filters."""
        p = tuple(point)
        zid = p[-1] // self.zone_height
        xlo, xhi = p[0] - eps, p[0] + eps
        for z in (zid - 1, zid, zid + 1):
            zone = self.zones.get(z)
            if zone is None:
                continue
            xs, entries = zone
            lo = bisect_left(xs, xlo)
            hi = bisect_right(xs, xhi)
            yield from entries[lo:hi]


def zones_epsilon_join(
    catalog_a: Sequence[Sequence[int]],
    catalog_b: Sequence[Sequence[int]],
    eps: float,
    zone_height: int | None = None,
) -> List[Tuple[int, int]]:
    """All ordinal pairs ``(i, j)`` with ``dist(a_i, b_j) <= eps``,
    sorted canonically by ``(a_i, b_j, i, j)``.

    The zones index is built over the *smaller* side's role — here
    always ``catalog_b`` — and probed once per ``catalog_a`` point.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    height = zone_height_for(eps) if zone_height is None else zone_height
    index = ZonesIndex(catalog_b, height)
    limit = eps * eps
    pts_a = [tuple(p) for p in catalog_a]
    examined = 0
    out: List[Tuple[Point, Point, int, int]] = []
    for i, a in enumerate(pts_a):
        for b, j in index.candidates(a, eps):
            examined += 1
            if sum((x - y) ** 2 for x, y in zip(a, b)) <= limit:
                out.append((a, b, i, j))
    out.sort()
    trace = _trace_current()
    if trace is not None:
        trace.add("zones.joins", 1)
        trace.add("zones.zones", index.nzones)
        trace.add("zones.candidates", examined)
        trace.add("zones.pairs", len(out))
    return [(i, j) for _, _, i, j in out]
