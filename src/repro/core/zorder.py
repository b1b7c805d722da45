"""Z-order curve utilities (Section 3.2, Figure 4) and jump computation.

Besides tracing the recursive "N" curve, this module implements the
*next interesting record* computation used to optimize the range-search
merge: given a z code that fell outside the query box, find the smallest
z code greater than it that lies inside the box (``bigmin``) or the
largest smaller one (``litmax``).  The paper obtains the same skipping
effect indirectly, via random accesses keyed on the decomposed box's
element boundaries (Section 3.3); ``bigmin`` gives a decomposition-free
alternative that we bench as an ablation.

The algorithm is the classic bit-table walk (Tropf & Herzog 1981),
generalized to any number of dimensions.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.core.fastz import deinterleave_fast, deinterleave_many
from repro.core.geometry import Box, Grid
from repro.core.interleave import interleave

__all__ = [
    "curve_points",
    "curve_ranks",
    "zcode_in_box",
    "bigmin",
    "litmax",
    "box_zbounds",
]


def curve_points(grid: Grid) -> List[Tuple[int, ...]]:
    """All pixels of ``grid`` in z order — the path of Figure 4.

    Exponential in the grid size; intended for figures and tests.
    """
    return deinterleave_many(
        range(grid.npixels), grid.ndims, grid.depth
    )


def curve_ranks(grid: Grid) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Pairs of (pixel, z rank) in z order."""
    for rank, coords in enumerate(curve_points(grid)):
        yield coords, rank


def box_zbounds(box: Box, depth: int) -> Tuple[int, int]:
    """The z codes of a box's low and high corners.

    Every z code of a pixel inside the box lies between these two values
    (the converse does not hold — that gap is exactly what decomposition
    or ``bigmin`` skipping eliminates).
    """
    return (
        interleave(box.low_corner, depth),
        interleave(box.high_corner, depth),
    )


def zcode_in_box(code: int, box: Box, depth: int) -> bool:
    """Does the pixel with z code ``code`` lie inside ``box``?"""
    return box.contains_point(deinterleave_fast(code, box.ndims, depth))


def _dim_mask(position: int, ndims: int, total: int) -> Tuple[int, int]:
    """Masks over bit positions strictly below ``position`` (MSB-first
    indexing): ``same`` selects later bits of the same dimension,
    ``ones`` is ``same`` itself (kept separate for readability)."""
    same = 0
    p = position + ndims
    while p < total:
        same |= 1 << (total - 1 - p)
        p += ndims
    return same, same


def _load_pattern(
    code: int, position: int, leading_bit: int, ndims: int, total: int
) -> int:
    """The LOAD operation of the BIGMIN algorithm.

    Set bit ``position`` of ``code`` to ``leading_bit`` and force all
    *later bits of the same dimension* to the complement pattern
    (``10...0`` when loading 1, ``01...1`` when loading 0).  Bits of
    other dimensions are untouched.
    """
    bit_mask = 1 << (total - 1 - position)
    same, _ = _dim_mask(position, ndims, total)
    if leading_bit:
        return (code | bit_mask) & ~same
    return (code & ~bit_mask) | same


def bigmin(code: int, box: Box, depth: int) -> Optional[int]:
    """Smallest z code ``> code`` whose pixel lies inside ``box``.

    Returns ``None`` when no such code exists.  ``code`` itself may or
    may not be inside the box.
    """
    ndims = box.ndims
    total = ndims * depth
    zmin, zmax = box_zbounds(box, depth)
    if code < zmin:
        return zmin
    if code >= zmax:
        return None
    best: Optional[int] = None
    for position in range(total):
        shift = total - 1 - position
        zb = (code >> shift) & 1
        minb = (zmin >> shift) & 1
        maxb = (zmax >> shift) & 1
        if zb == 0 and minb == 0 and maxb == 0:
            continue
        if zb == 0 and minb == 0 and maxb == 1:
            best = _load_pattern(zmin, position, 1, ndims, total)
            zmax = _load_pattern(zmax, position, 0, ndims, total)
        elif zb == 0 and minb == 1 and maxb == 1:
            return zmin
        elif zb == 1 and minb == 0 and maxb == 0:
            return best
        elif zb == 1 and minb == 0 and maxb == 1:
            zmin = _load_pattern(zmin, position, 1, ndims, total)
        elif zb == 1 and minb == 1 and maxb == 1:
            continue
        else:  # (0,1,0) and (1,1,0) cannot occur for a valid box
            raise AssertionError("inconsistent box bounds")
    # The walk completed: code is inside the box; the next inside code
    # greater than it is not determined by this walk.
    return best


def litmax(code: int, box: Box, depth: int) -> Optional[int]:
    """Largest z code ``< code`` whose pixel lies inside ``box``."""
    ndims = box.ndims
    total = ndims * depth
    zmin, zmax = box_zbounds(box, depth)
    if code > zmax:
        return zmax
    if code <= zmin:
        return None
    best: Optional[int] = None
    for position in range(total):
        shift = total - 1 - position
        zb = (code >> shift) & 1
        minb = (zmin >> shift) & 1
        maxb = (zmax >> shift) & 1
        if zb == 0 and minb == 0 and maxb == 0:
            continue
        if zb == 0 and minb == 0 and maxb == 1:
            zmax = _load_pattern(zmax, position, 0, ndims, total)
        elif zb == 0 and minb == 1 and maxb == 1:
            return best
        elif zb == 1 and minb == 0 and maxb == 0:
            return zmax
        elif zb == 1 and minb == 0 and maxb == 1:
            best = _load_pattern(zmax, position, 0, ndims, total)
            zmin = _load_pattern(zmin, position, 1, ndims, total)
        elif zb == 1 and minb == 1 and maxb == 1:
            continue
        else:
            raise AssertionError("inconsistent box bounds")
    return best
