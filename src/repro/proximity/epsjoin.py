"""The nested-loop epsilon join: the oracle beside the zones sweep.

Shares one output contract with
:func:`~repro.proximity.zones.zones_epsilon_join` — canonical
``(point_a, point_b, i, j)``-sorted ordinal pairs with exact Euclidean
distance at most ``eps`` — so the differential suite can compare the
two byte for byte.  No read path calls it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["nested_epsilon_join"]


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
