"""The Zones algorithm: epsilon cross-matching of point catalogs.

Gray et al.'s zones algorithm (the SDSS cross-match workhorse) buckets
a catalog into horizontal *zones* of height ``h >= eps`` on the last
axis and sorts each zone's run by the first axis.  A match candidate
for point ``a`` can then only live in the zone containing ``a`` or one
of its two neighbours (``|y_a - y_b| <= eps <= h`` pins the zone id to
``+/- 1``), and within each zone only the stretch of the run with
``x in [x_a - eps, x_a + eps]`` can match.  Both catalogs are zoned, so
each (zone, neighbour zone) pair is one sliding-window merge of two
x-sorted runs whose window ends only move forward.  An exact Euclidean
test finishes each candidate, so the algorithm is a pure *filter* —
results are identical to the O(n^2) nested loop, just reached through
~``3 * eps``-height strips instead of the whole plane.

:func:`zones_epsilon_join` yields ordinal pairs, so callers can join
full rows (the SQL eps-join) or raw points (the differential oracle
suite) through the same sweep.  Output order is canonical — sorted by
``(point_a, point_b)`` — making byte-for-byte comparison against the
nested-loop oracle meaningful.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

from repro.obs.trace import current as _trace_current

__all__ = ["ZonesIndex", "ball_filter", "zones_epsilon_join", "zone_height_for"]

Point = Tuple[int, ...]


def zone_height_for(eps: float) -> int:
    """The zone height used for radius ``eps``: ``max(1, ceil(eps))``,
    the smallest integer height satisfying the neighbour-zone
    invariant ``h >= eps``."""
    return max(1, math.ceil(eps))


def ball_filter(
    ndims: int, eps: float
) -> Callable[[Point, Sequence[Point]], List[int]]:
    """``near(p, qs)``: the indices of the ``qs`` within Euclidean
    ``eps`` of ``p``.  Exact — the squared integer distance against
    ``eps * eps`` — and unrolled in the plane, where it runs once per
    candidate: the generic sum over ``zip`` makes the 50k-row
    windowed SQL eps-join about 1.5x slower."""
    limit = eps * eps
    if ndims == 2:

        def near_2d(p: Point, qs: Sequence[Point]) -> List[int]:
            x, y = p
            return [
                k
                for k, (qx, qy) in enumerate(qs)
                if (qx - x) ** 2 + (qy - y) ** 2 <= limit
            ]

        return near_2d

    def near(p: Point, qs: Sequence[Point]) -> List[int]:
        return [
            k
            for k, q in enumerate(qs)
            if sum((a - b) ** 2 for a, b in zip(p, q)) <= limit
        ]

    return near


class ZonesIndex:
    """One catalog bucketed into zone-height rows over the last axis,
    each zone's run sorted by the first axis: ``zones[zid]`` holds the
    run's first coordinates, points and ordinals, in step."""

    def __init__(
        self, points: Sequence[Sequence[int]], zone_height: int
    ) -> None:
        if zone_height < 1:
            raise ValueError("zone height must be >= 1")
        self.zone_height = zone_height
        self.zones: Dict[int, Tuple[List[int], List[Point], List[int]]] = {}
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
                [p for _, p, _ in entries],
                [ordinal for _, _, ordinal in entries],
            )

    @property
    def nzones(self) -> int:
        return len(self.zones)

    def zone_of(self, point: Sequence[int]) -> int:
        return tuple(point)[-1] // self.zone_height


def zones_epsilon_join(
    catalog_a: Sequence[Sequence[int]],
    catalog_b: Sequence[Sequence[int]],
    eps: float,
    zone_height: int | None = None,
) -> List[Tuple[int, int]]:
    """All ordinal pairs ``(i, j)`` with ``dist(a_i, b_j) <= eps``,
    sorted canonically by ``(a_i, b_j, i, j)``.

    The zones index is built over ``catalog_b``; ``catalog_a`` is zoned
    the same way, and each of its zones sweeps its (up to) three
    neighbouring ``catalog_b`` zones, one sliding-window merge each.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    height = zone_height_for(eps) if zone_height is None else zone_height
    index = ZonesIndex(catalog_b, height)
    pts = [tuple(p) for p in catalog_a]
    near = ball_filter(len(pts[0]) if pts else 0, eps)
    examined = 0
    out: List[Tuple[Point, Point, int, int]] = []
    for zid, (xs_a, pts_a, ords_a) in ZonesIndex(pts, height).zones.items():
        for z in (zid - 1, zid, zid + 1):
            zone = index.zones.get(z)
            if zone is None:
                continue
            xs, pts_b, ords_b = zone
            n = len(xs)
            lo = hi = 0
            for xa, a, i in zip(xs_a, pts_a, ords_a):
                xlo = xa - eps
                while lo < n and xs[lo] < xlo:
                    lo += 1
                xhi = xa + eps
                while hi < n and xs[hi] <= xhi:
                    hi += 1
                if hi > lo:
                    examined += hi - lo
                    for k in near(a, pts_b[lo:hi]):
                        out.append((a, pts_b[lo + k], i, ords_b[lo + k]))
    out.sort()
    trace = _trace_current()
    if trace is not None:
        trace.add("zones.joins", 1)
        trace.add("zones.zones", index.nzones)
        trace.add("zones.candidates", examined)
        trace.add("zones.pairs", len(out))
    return [(i, j) for _, _, i, j in out]
