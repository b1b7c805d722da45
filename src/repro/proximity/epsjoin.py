"""Epsilon-join execution strategies beside the zones sweep.

All strategies share one output contract with
:func:`~repro.proximity.zones.zones_epsilon_join` — canonical
``(point_a, point_b, i, j)``-sorted ordinal pairs with exact Euclidean
distance at most ``eps`` — so the planner's choice is invisible in the
rows, exactly like the OVERLAPS join's z-merge/nested-loop pair.

* :func:`nested_epsilon_join` — the O(na * nb) reference: every pair,
  one distance test each.  The oracle the differential suite trusts and
  the baseline the bench gate measures speedups against.
* :func:`zmerge_epsilon_join` — Section 3/4 machinery re-aimed at
  proximity: each left point's eps-ball bounding box is decomposed into
  z elements on a grid coarsened to roughly the ball size ("coarser
  grid" optimization of Section 5.1, so each ball costs O(3^d)
  elements), the right catalog is sorted by z code once, and each
  element's ``[zlo, zhi]`` interval binary-searches the sorted run —
  a sort-merge over z order.  Candidates then pass the exact test.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

from repro.core.decompose import Element, decompose_box
from repro.core.geometry import Box, Grid
from repro.obs.trace import current as _trace_current
from repro.proximity.zones import zones_epsilon_join

__all__ = [
    "epsilon_join_pairs",
    "nested_epsilon_join",
    "zmerge_epsilon_join",
    "ball_cover_depth",
]

Point = Tuple[int, ...]


def nested_epsilon_join(
    catalog_a: Sequence[Sequence[int]],
    catalog_b: Sequence[Sequence[int]],
    eps: float,
) -> List[Tuple[int, int]]:
    """Every ordinal pair within ``eps``, by exhaustive comparison."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    limit = eps * eps
    pts_a = [tuple(p) for p in catalog_a]
    pts_b = [tuple(p) for p in catalog_b]
    out = [
        (a, b, i, j)
        for i, a in enumerate(pts_a)
        for j, b in enumerate(pts_b)
        if sum((x - y) ** 2 for x, y in zip(a, b)) <= limit
    ]
    out.sort()
    return [(i, j) for _, _, i, j in out]


def ball_cover_depth(grid: Grid, eps: float) -> int:
    """Decomposition depth (in z-value bits) whose cells are at least
    one eps-ball wide — a box of side ``2*eps + 1`` then covers at most
    ``3^d`` cells, keeping the per-ball element count constant."""
    levels = grid.depth - max(0, math.ceil(math.log2(max(eps, 1.0))))
    return grid.ndims * max(1, min(levels, grid.depth))


def zmerge_epsilon_join(
    grid: Grid,
    catalog_a: Sequence[Sequence[int]],
    catalog_b: Sequence[Sequence[int]],
    eps: float,
) -> List[Tuple[int, int]]:
    """Sort-merge over z order: coarse-decomposed left eps-balls
    against the z-sorted right catalog (see module docs)."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    limit = eps * eps
    reach = math.ceil(eps)
    max_depth = ball_cover_depth(grid, eps)
    pts_a = [tuple(p) for p in catalog_a]
    sorted_b = sorted(
        (grid.zvalue(tuple(p)).bits, tuple(p), j)
        for j, p in enumerate(catalog_b)
    )
    codes_b = [code for code, _, _ in sorted_b]
    elements_total = 0
    examined = 0
    out: List[Tuple[Point, Point, int, int]] = []
    for i, a in enumerate(pts_a):
        ball = Box(tuple((c - reach, c + reach) for c in a))
        elements = decompose_box(grid, ball, max_depth)
        elements_total += len(elements)
        for zvalue in elements:
            element = Element.of(zvalue, grid)
            lo = bisect_left(codes_b, element.zlo)
            hi = bisect_right(codes_b, element.zhi)
            for _, b, j in sorted_b[lo:hi]:
                examined += 1
                if sum((x - y) ** 2 for x, y in zip(a, b)) <= limit:
                    out.append((a, b, i, j))
    out.sort()
    trace = _trace_current()
    if trace is not None:
        trace.add("zones.zmerge_elements", elements_total)
        trace.add("zones.zmerge_candidates", examined)
    return [(i, j) for _, _, i, j in out]


def epsilon_join_pairs(
    grid: Grid,
    catalog_a: Sequence[Sequence[int]],
    catalog_b: Sequence[Sequence[int]],
    eps: float,
    strategy: str,
) -> List[Tuple[int, int]]:
    """The eps-join by the named ``strategy`` — ``"zones"``,
    ``"z-merge"`` or ``"nested-loop"``; every caller that lets the
    planner (or the user) pick dispatches here."""
    if strategy == "zones":
        return zones_epsilon_join(catalog_a, catalog_b, eps)
    if strategy == "z-merge":
        return zmerge_epsilon_join(grid, catalog_a, catalog_b, eps)
    if strategy == "nested-loop":
        return nested_epsilon_join(catalog_a, catalog_b, eps)
    raise ValueError(f"unknown epsilon-join strategy {strategy!r}")
