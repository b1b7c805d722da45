"""Decomposition of spatial objects into elements (Section 3.1).

A spatial object is approximated by the set of grid regions ("elements")
that a recursive splitting process leaves unsplit: regions entirely
inside the object are emitted whole, regions outside are discarded, and
regions crossing the boundary are split further — down to single pixels
or an optional coarser cut-off depth.

The recursion visits children low-half first, so elements are produced
**already sorted in z order**, which is what the merge-based algorithms
of Sections 3.3 and 4 require.  :class:`ElementCursor` exposes the same
stream lazily with a ``seek`` operation, supporting the paper's
optimization that "elements of the box may be generated on demand, i.e.
when a sequential or random access on sequence B is performed".

An axis-aligned box — every range query — never reaches that generic
machinery: :class:`_BoxKernel` runs the same recursion on plain ints
under both :class:`BoxElementCursor` (lazy) and :func:`decompose_box` /
:func:`box_intervals` (eager), and walks it only as far as a planner's
estimate needs (:meth:`_BoxKernel.cover`).  The generic path serves circles,
polygons and Section 6 objects, and is the kernel's test oracle.

Boundary handling at the cut-off depth is selectable:

* ``CoverMode.OUTER`` — emit boundary regions, producing a superset of
  the object (safe for filtering: no false negatives);
* ``CoverMode.INNER`` — drop them, producing a subset.

For pixel-aligned boxes the two coincide at full depth because a single
pixel is never BOUNDARY.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    Box,
    ClassifyFn,
    Grid,
    box_classifier,
)
from repro.core.zvalue import ZValue

__all__ = [
    "CoverMode",
    "Element",
    "decompose",
    "decompose_box",
    "box_intervals",
    "count_elements",
    "ElementCursor",
    "BoxElementCursor",
]


class CoverMode(enum.Enum):
    """What to do with regions still crossing the boundary at the
    cut-off depth."""

    OUTER = "outer"  # emit them: decomposition covers the object
    INNER = "inner"  # drop them: decomposition is contained in the object


@dataclass(frozen=True)
class Element:
    """An element together with its z-interval in a fixed grid.

    ``zlo``/``zhi`` are the extreme full-resolution z codes of the pixels
    in the element's region — "each element corresponds to a range of z
    values" (Section 3.3, step 2).
    """

    zvalue: ZValue
    zlo: int
    zhi: int

    @classmethod
    def of(cls, zvalue: ZValue, grid: Grid) -> "Element":
        lo, hi = zvalue.interval(grid.total_bits)
        return cls(zvalue, lo, hi)

    @property
    def npixels(self) -> int:
        return self.zhi - self.zlo + 1

    def contains_code(self, z: int) -> bool:
        return self.zlo <= z <= self.zhi

    def __str__(self) -> str:
        return f"Element({self.zvalue} [{self.zlo}, {self.zhi}])"


def decompose(
    grid: Grid,
    classify: ClassifyFn,
    max_depth: Optional[int] = None,
    cover: CoverMode = CoverMode.OUTER,
) -> List[ZValue]:
    """Decompose an arbitrary spatial object into z-ordered elements.

    ``classify`` is the object's oracle (see :mod:`repro.core.geometry`).
    ``max_depth`` limits splitting to z values of at most that many bits
    (default: full resolution, ``grid.total_bits``); lowering it is the
    "coarser grid" optimization of Section 5.1.
    """
    return list(_iter_elements(grid, classify, max_depth, cover))


def decompose_box(
    grid: Grid,
    box: Box,
    max_depth: Optional[int] = None,
    cover: CoverMode = CoverMode.OUTER,
) -> List[ZValue]:
    """Decompose an axis-aligned box (the paper's ``decompose(b: box)``).

    This is the first RangeSearch algorithm of [OREN84]; Figure 2 shows
    the decomposition of the box ``[1..3] x [0..4]`` of Figure 1.
    """
    advance = _BoxKernel(grid, box, max_depth, cover).advance
    total = grid.total_bits
    out = []
    for zlo, zhi in iter(advance, None):
        pad = (zhi - zlo).bit_length()
        out.append(ZValue(zlo >> pad, total - pad))
    return out


def box_intervals(
    grid: Grid,
    box: Box,
    max_depth: Optional[int] = None,
    cover: CoverMode = CoverMode.OUTER,
) -> List[Tuple[int, int]]:
    """The ``(zlo, zhi)`` intervals of :func:`decompose_box`'s elements,
    in z order, without building a ``ZValue`` or ``Element`` for any —
    all an interval scan reads of them."""
    return list(iter(_BoxKernel(grid, box, max_depth, cover).advance, None))


def count_elements(
    grid: Grid,
    classify: ClassifyFn,
    max_depth: Optional[int] = None,
    cover: CoverMode = CoverMode.OUTER,
) -> int:
    """Number of elements a decomposition would produce, without
    materializing them (used by the space analysis of Section 5.1)."""
    return sum(1 for _ in _iter_elements(grid, classify, max_depth, cover))


def _iter_elements(
    grid: Grid,
    classify: ClassifyFn,
    max_depth: Optional[int],
    cover: CoverMode,
) -> Iterator[ZValue]:
    limit = grid.total_bits if max_depth is None else max_depth
    if not 0 <= limit <= grid.total_bits:
        raise ValueError(
            f"max_depth {max_depth} outside [0, {grid.total_bits}]"
        )

    def rec(z: ZValue, region: Box) -> Iterator[ZValue]:
        side = classify(region)
        if side is OUTSIDE:
            return
        if side is INSIDE:
            yield z
            return
        if z.length >= limit:
            if cover is CoverMode.OUTER:
                yield z
            return
        for child_z, child_region in split_region(grid, region, z):
            yield from rec(child_z, child_region)

    yield from rec(ZValue.empty(), grid.whole_space())


def split_region(
    grid: Grid, region: Box, z: ZValue
) -> Tuple[Tuple[ZValue, Box], Tuple[ZValue, Box]]:
    """Split ``region`` along the axis the splitting policy dictates.

    Returns the (low, high) halves as ``(zvalue, box)`` pairs, in z order.
    """
    axis = z.split_axis(grid.ndims)
    lo, hi = region.ranges[axis]
    if lo == hi:
        raise ValueError(f"cannot split single-pixel axis {axis} of {region}")
    mid = (lo + hi) // 2
    low_ranges = list(region.ranges)
    high_ranges = list(region.ranges)
    low_ranges[axis] = (lo, mid)
    high_ranges[axis] = (mid + 1, hi)
    return (
        (z.child(0), Box(tuple(low_ranges))),
        (z.child(1), Box(tuple(high_ranges))),
    )


class ElementCursor:
    """Lazy, seekable stream of a decomposition's elements in z order.

    Supports the two access patterns of the merge (Section 3.3): ``step``
    (sequential) and ``seek`` (random access to the next element whose
    z-interval ends at or after a target z code).  Only the part of the
    recursion tree actually visited is ever expanded.
    """

    def __init__(
        self,
        grid: Grid,
        classify: ClassifyFn,
        max_depth: Optional[int] = None,
        cover: CoverMode = CoverMode.OUTER,
    ) -> None:
        self._grid = grid
        self._classify = classify
        self._limit = grid.total_bits if max_depth is None else max_depth
        if not 0 <= self._limit <= grid.total_bits:
            raise ValueError(
                f"max_depth {max_depth} outside [0, {grid.total_bits}]"
            )
        self._cover = cover
        # Stack of pending (zvalue, region) nodes; the top of the stack is
        # the earliest region in z order.
        self._stack: List[Tuple[ZValue, Box]] = [
            (ZValue.empty(), grid.whole_space())
        ]
        self._current: Optional[Element] = None
        self._exhausted = False
        self.nodes_expanded = 0
        self.step()

    @property
    def current(self) -> Optional[Element]:
        """The element under the cursor, or ``None`` when exhausted."""
        return self._current

    def step(self) -> Optional[Element]:
        """Advance to the next element (sequential access)."""
        return self._advance(floor=0)

    def seek(self, z: int) -> Optional[Element]:
        """Advance to the first element with ``zhi >= z``.

        If the current element already qualifies the cursor does not
        move.  This is the random access used to skip "parts of the space
        that could not possibly contribute to the result".
        """
        if self._current is not None and self._current.zhi >= z:
            return self._current
        return self._advance(floor=z)

    def advance(self, floor: int = 0) -> Optional[Tuple[int, int]]:
        """:meth:`seek` as the ``(zlo, zhi)`` pair a leaf scan reads —
        the protocol of :class:`_BoxKernel`, which it matches whenever
        ``floor`` is 0 or past the current element."""
        element = self.seek(floor)
        return None if element is None else (element.zlo, element.zhi)

    def _advance(self, floor: int) -> Optional[Element]:
        grid = self._grid
        total = grid.total_bits
        while self._stack:
            z, region = self._stack.pop()
            zhi = z.zhi(total)
            if zhi < floor:
                continue  # entirely before the target: skip unexpanded
            side = self._classify(region)
            if side is OUTSIDE:
                continue
            if side is INSIDE or z.length >= self._limit:
                if side is BOUNDARY and self._cover is not CoverMode.OUTER:
                    continue
                self._current = Element.of(z, grid)
                return self._current
            self.nodes_expanded += 1
            low, high = split_region(grid, region, z)
            self._stack.append(high)
            self._stack.append(low)
        self._current = None
        self._exhausted = True
        return None

    def __iter__(self) -> Iterator[Element]:
        while self._current is not None:
            yield self._current
            self.step()


class _BoxKernel:
    """The splitting recursion for an axis-aligned box, over plain ints
    (``docs/ALGORITHMS.md`` §2).

    A pending node is ``(zbits, length, edges, los)``: its z prefix and
    bit count, the box edges that still cut it, and its low corner.
    ``edges`` holds two bits per axis — ``2a`` while the box's low bound
    lies strictly inside the node on axis ``a``, ``2a + 1`` for its high
    bound — so ``edges == 0`` is INSIDE and anything else BOUNDARY.  A
    split touches one axis: one comparison of its midpoint against the
    box keeps or drops a child, one more settles the child's ``edges``;
    ``los`` is kept current only on axes still cut.  OUTSIDE children
    are never pushed — the generic :class:`ElementCursor` drops them
    uncounted, so the elements and ``nodes_expanded`` are the same.
    """

    def __init__(
        self, grid: Grid, box: Box, max_depth: Optional[int], cover: CoverMode
    ) -> None:
        self._ndims = ndims = grid.ndims
        self._depth = grid.depth
        self._limit = grid.total_bits if max_depth is None else max_depth
        if not 0 <= self._limit <= grid.total_bits:
            raise ValueError(
                f"max_depth {max_depth} outside [0, {grid.total_bits}]"
            )
        if box.ndims != ndims:
            raise ValueError(f"dimensionality mismatch: {box.ndims} vs {ndims}")
        self._outer = cover is CoverMode.OUTER
        self._box_lo, self._box_hi = box.low_corner, box.high_corner
        self.nodes_expanded = 0
        # Clipping to the grid is the root's classification: a bound at
        # or beyond the grid's face cuts nothing, and a box wholly off
        # the grid leaves no root — an empty stream.
        top = grid.side - 1
        edges = 0
        on_grid = True
        for axis, (lo, hi) in enumerate(box.ranges):
            edges |= ((lo > 0) | (hi < top) << 1) << 2 * axis
            on_grid = on_grid and lo <= top and hi >= 0
        # The top of the stack is the earliest pending node in z order.
        self._stack: List[Tuple[int, int, int, Tuple[int, ...]]] = (
            [(0, 0, edges, (0,) * ndims)] if on_grid else []
        )

    def advance(self, floor: int = 0) -> Optional[Tuple[int, int]]:
        """The next element's ``(zlo, zhi)`` in z order with ``zhi`` at
        least ``floor``, or ``None`` once the box is exhausted."""
        stack = self._stack
        ndims, depth, limit = self._ndims, self._depth, self._limit
        box_lo, box_hi, total = self._box_lo, self._box_hi, ndims * depth
        while stack:
            zbits, length, edges, los = stack.pop()
            while True:
                if floor and (zbits + 1) << (total - length) <= floor:
                    break  # entirely before the target: skip unexpanded
                if not edges or length >= limit:
                    if edges and not self._outer:
                        break  # a BOUNDARY leaf of an INNER cover
                    pad = total - length
                    return zbits << pad, ((zbits + 1) << pad) - 1
                self.nodes_expanded += 1
                axis = length % ndims
                shift = 2 * axis
                half = 1 << (depth - 1 - length // ndims)
                zbits <<= 1  # the low child; the high one is zbits | 1
                length += 1
                if not (edges >> shift) & 3:
                    # Axis already inside the box: both halves inherit it.
                    stack.append((zbits | 1, length, edges, los))
                    continue
                mid = los[axis] + half  # first pixel of the high half
                blo, bhi = box_lo[axis], box_hi[axis]
                if bhi >= mid:
                    high_edges = edges if blo > mid else edges & ~(1 << shift)
                    high_los = (
                        los[:axis] + (mid,) + los[axis + 1 :]
                        if (high_edges >> shift) & 3
                        else los
                    )
                    if blo >= mid:  # the low half is OUTSIDE
                        zbits |= 1
                        edges, los = high_edges, high_los
                        continue
                    stack.append((zbits | 1, length, high_edges, high_los))
                if bhi >= mid - 1:
                    edges &= ~(2 << shift)
        return None

    nodes_counted = 0  # by :meth:`cover`

    def start_cover(self) -> List[Tuple[int, int, int, Tuple[int, ...]]]:
        """The stack :meth:`cover` walks, its first node the box's first
        element, found by :meth:`advance`; empty for a box off the grid."""
        first = self.advance()
        if first is not None:
            pad = (first[1] - first[0]).bit_length()
            length = self._ndims * self._depth - pad
            self._stack.append((first[0] >> pad, length, 0, ()))
        return self._stack

    def cover(self, lo: int, hi: int) -> int:
        """The box's pixels with codes in ``[lo, hi]``, the next of the
        ascending spans a walk weighs (``BPlusTree.cover_stats``).

        A pending node that ends before ``hi`` is counted and dropped:
        by its codes in the span if the box holds it, else by its share
        of the box on each axis the box cuts.  One that ``hi`` cuts is
        split by :meth:`advance`'s split step, inlined here too: shared
        as a call per split, it costs the lazy scan a third.  The first
        node past ``hi``, or inside the box and reaching it, waits for
        the next span."""
        stack = self._stack
        ndims, depth = self._ndims, self._depth
        box_lo, box_hi, total = self._box_lo, self._box_hi, ndims * depth
        pixels = expanded = counted = 0
        while stack:
            zbits, length, edges, los = stack.pop()
            zlo = zbits << total - length
            # From zlo, a node at least ``limit`` bits long ends before hi.
            limit = total + 1 - (hi - zlo).bit_length() if zlo <= hi else 0
            while edges and length < limit:
                expanded += 1
                axis = length % ndims
                shift = 2 * axis
                mid = los[axis] + (1 << depth - 1 - length // ndims)
                zbits <<= 1  # the low child; the high one is zbits | 1
                length += 1
                if not (edges >> shift) & 3:
                    stack.append((zbits | 1, length, edges, los))
                    continue
                blo, bhi = box_lo[axis], box_hi[axis]
                if bhi >= mid:
                    high = (
                        zbits | 1,
                        length,
                        edges if blo > mid else edges & ~(1 << shift),
                        los[:axis] + (mid,) + los[axis + 1 :],
                    )
                    if blo >= mid:  # the low half is OUTSIDE
                        zbits, length, edges, los = high
                        zlo = zbits << total - length
                        if zlo > hi:
                            break
                        limit = total + 1 - (hi - zlo).bit_length()
                        continue
                    stack.append(high)
                if bhi >= mid - 1:
                    edges &= ~(2 << shift)
            end = zlo + (1 << total - length)  # one past its last code
            if zlo > hi or not edges and end > hi:
                if zlo <= hi and end > lo:
                    pixels += hi - max(zlo, lo) + 1
                stack.append((zbits, length, edges, los))
                break
            counted += 1
            if not edges:
                if end > lo:
                    pixels += end - max(zlo, lo)
                continue
            inside = end - zlo
            for axis in range(ndims):
                cut = (edges >> 2 * axis) & 3
                if cut:
                    side = 1 << depth - (length + ndims - 1 - axis) // ndims
                    at = los[axis]
                    inside = inside // side * (
                        (box_hi[axis] if cut & 2 else at + side - 1)
                        - (box_lo[axis] if cut & 1 else at)
                        + 1
                    )
            pixels += inside
        self.nodes_expanded += expanded
        self.nodes_counted += counted
        return pixels


class BoxElementCursor(ElementCursor):
    """Element cursor for a box query — sequence *B* of the range-search
    algorithm, generated on demand.  The ``step``/``seek`` protocol is
    :class:`ElementCursor`'s; the elements (and ``nodes_expanded``) come
    from the box kernel, none of the generic state is built.  A box
    wholly off the grid is an empty stream."""

    def __init__(
        self, grid: Grid, box: Box, max_depth: Optional[int] = None
    ) -> None:
        self._kernel = _BoxKernel(grid, box, max_depth, CoverMode.OUTER)
        self._total = grid.total_bits
        self._current = None
        self.step()

    @property
    def nodes_expanded(self) -> int:
        return self._kernel.nodes_expanded

    def _advance(self, floor: int) -> Optional[Element]:
        node = self._kernel.advance(floor)
        if node is None:
            self._current = None
        else:
            zlo, zhi = node
            pad = (zhi - zlo).bit_length()
            self._current = Element(
                ZValue(zlo >> pad, self._total - pad), zlo, zhi
            )
        return self._current
