"""Grid geometry: the discrete spaces that approximate geometry lives in.

The paper approximates a k-dimensional spatial object "by superimposing a
kd grid of pixels and noting which pixels lie inside or on the boundary
of the object" (Section 3.1).  This module supplies:

* :class:`Grid` — a ``2**depth`` per-axis pixel space;
* :class:`Box` — an axis-aligned box with inclusive integer bounds (the
  shape of a range query, Figure 1);
* :data:`INSIDE` / :data:`OUTSIDE` / :data:`BOUNDARY` — the three-way
  classification a "specialized processor" must provide so that arbitrary
  spatial objects can be decomposed (Section 3.1: "All that is required
  is a procedure that indicates whether a given element is inside a given
  spatial object, outside the object, or crosses the boundary").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Tuple

from repro.core.zvalue import ZValue

__all__ = [
    "Classification",
    "INSIDE",
    "OUTSIDE",
    "BOUNDARY",
    "Grid",
    "Box",
    "ClassifyFn",
    "box_classifier",
    "circle_classifier",
    "polygon_classifier",
]


class Classification(enum.Enum):
    """Position of a candidate region relative to a spatial object."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


INSIDE = Classification.INSIDE
OUTSIDE = Classification.OUTSIDE
BOUNDARY = Classification.BOUNDARY

#: A spatial-object oracle: maps a candidate region (as a Box) to its
#: classification.  This is the entire interface a specialized processor
#: must implement for its objects to participate in approximate geometry.
ClassifyFn = Callable[["Box"], Classification]


@dataclass(frozen=True)
class Grid:
    """A k-dimensional grid of resolution ``2**depth`` pixels per axis.

    The paper assumes "the grid has resolution 2^d x 2^d where d is an
    integer" (Section 3.1); we keep ``d`` as :attr:`depth` and allow any
    number of dimensions ("all the ideas extend to higher dimensions (and
    to 1d) without difficulty").
    """

    ndims: int
    depth: int

    def __post_init__(self) -> None:
        if self.ndims < 1:
            raise ValueError("grid needs at least one dimension")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")

    @property
    def side(self) -> int:
        """Pixels per axis."""
        return 1 << self.depth

    @property
    def total_bits(self) -> int:
        """Bits in a full-resolution z value."""
        return self.ndims * self.depth

    @property
    def npixels(self) -> int:
        return 1 << self.total_bits

    def whole_space(self) -> "Box":
        side = self.side
        return Box(tuple((0, side - 1) for _ in range(self.ndims)))

    def clip(self, box: "Box") -> "Box | None":
        """``box`` restricted to this grid — ``box`` itself when it
        already fits, ``None`` when it lies wholly outside."""
        top = self.side - 1
        if box.ndims == self.ndims and all(
            0 <= lo and hi <= top for lo, hi in box.ranges
        ):
            return box
        return box.clipped_to(self.whole_space())

    def contains_point(self, coords: Sequence[int]) -> bool:
        side = self.side
        return len(coords) == self.ndims and all(0 <= c < side for c in coords)

    def validate_point(self, coords: Sequence[int]) -> None:
        if not self.contains_point(coords):
            raise ValueError(f"point {tuple(coords)} outside {self}")

    def zvalue(self, coords: Sequence[int]) -> ZValue:
        """Shuffle a pixel of this grid to its full-resolution z value."""
        self.validate_point(coords)
        return ZValue.from_point(coords, self.depth)

    def region_box(self, element: ZValue) -> "Box":
        """Unshuffle an element of this grid into its covering box."""
        return Box(element.region(self.ndims, self.depth))

    def element_of_box(self, box: "Box") -> ZValue:
        """Shuffle a dyadic box back into its element z value.

        Inverse of :meth:`region_box`; raises ``ValueError`` when the box
        is not a region reachable by the cyclic splitting policy.
        """
        lengths = []
        los = []
        for lo, hi in box.ranges:
            extent = hi - lo + 1
            if extent & (extent - 1):
                raise ValueError(f"extent {extent} is not a power of two")
            lengths.append(self.depth - (extent.bit_length() - 1))
            los.append(lo)
        return ZValue.from_region(los, lengths, self.depth)


@dataclass(frozen=True)
class Box:
    """An axis-aligned box with inclusive integer pixel bounds.

    ``ranges[j] == (lo_j, hi_j)`` with ``lo_j <= hi_j``.  A range query
    "is a k-dimensional box in the space (whose sides are parallel to the
    axes)" (Section 2, Figure 1).
    """

    ranges: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        for lo, hi in self.ranges:
            if lo > hi:
                raise ValueError(f"empty range [{lo}, {hi}]")

    @classmethod
    def from_bounds(cls, *bounds: Tuple[int, int]) -> "Box":
        return cls(tuple(bounds))

    @classmethod
    def from_corner_and_size(cls, corner: Sequence[int], size: Sequence[int]) -> "Box":
        """Box with low corner ``corner`` extending ``size[j]`` pixels."""
        if len(corner) != len(size):
            raise ValueError("corner and size must have equal length")
        if any(s < 1 for s in size):
            raise ValueError("sizes must be at least 1 pixel")
        return cls(tuple((c, c + s - 1) for c, s in zip(corner, size)))

    @property
    def ndims(self) -> int:
        return len(self.ranges)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.ranges)

    @property
    def volume(self) -> int:
        v = 1
        for size in self.sizes:
            v *= size
        return v

    @property
    def low_corner(self) -> Tuple[int, ...]:
        return tuple(lo for lo, _ in self.ranges)

    @property
    def high_corner(self) -> Tuple[int, ...]:
        return tuple(hi for _, hi in self.ranges)

    def contains_point(self, coords: Sequence[int]) -> bool:
        return len(coords) == self.ndims and all(
            lo <= c <= hi for c, (lo, hi) in zip(coords, self.ranges)
        )

    def contains_box(self, other: "Box") -> bool:
        self._check_dims(other)
        return all(
            slo <= olo and ohi <= shi
            for (slo, shi), (olo, ohi) in zip(self.ranges, other.ranges)
        )

    def intersects(self, other: "Box") -> bool:
        self._check_dims(other)
        return all(
            slo <= ohi and olo <= shi
            for (slo, shi), (olo, ohi) in zip(self.ranges, other.ranges)
        )

    def intersection(self, other: "Box") -> "Box":
        if not self.intersects(other):
            raise ValueError(f"{self} and {other} are disjoint")
        return Box(
            tuple(
                (max(slo, olo), min(shi, ohi))
                for (slo, shi), (olo, ohi) in zip(self.ranges, other.ranges)
            )
        )

    def translated(self, offsets: Sequence[int]) -> "Box":
        if len(offsets) != self.ndims:
            raise ValueError("offset dimensionality mismatch")
        return Box(
            tuple((lo + off, hi + off) for (lo, hi), off in zip(self.ranges, offsets))
        )

    def clipped_to(self, other: "Box") -> "Box | None":
        """Intersection with ``other``, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return self.intersection(other)

    def pixels(self) -> Iterator[Tuple[int, ...]]:
        """Iterate every pixel (row-major over axes).  Exponential in k —
        intended for tests and small figures only."""

        def rec(axis: int, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
            if axis == self.ndims:
                yield prefix
                return
            lo, hi = self.ranges[axis]
            for c in range(lo, hi + 1):
                yield from rec(axis + 1, prefix + (c,))

        return rec(0, ())

    def _check_dims(self, other: "Box") -> None:
        if self.ndims != other.ndims:
            raise ValueError(
                f"dimensionality mismatch: {self.ndims} vs {other.ndims}"
            )

    def __str__(self) -> str:
        parts = " x ".join(f"[{lo}..{hi}]" for lo, hi in self.ranges)
        return f"Box({parts})"


# ----------------------------------------------------------------------
# Classifiers for common object shapes
# ----------------------------------------------------------------------


def box_classifier(box: Box) -> ClassifyFn:
    """Oracle for an axis-aligned box object.

    Exact: a candidate region is INSIDE when fully covered by the box,
    OUTSIDE when disjoint, BOUNDARY otherwise.
    """

    def classify(region: Box) -> Classification:
        if box.contains_box(region):
            return INSIDE
        if not box.intersects(region):
            return OUTSIDE
        return BOUNDARY

    return classify


def circle_classifier(center: Sequence[int], radius: float) -> ClassifyFn:
    """Oracle for a k-dimensional ball: pixel centres within ``radius``
    of ``center`` are inside.

    A region is INSIDE when its farthest corner centre is within the
    radius, OUTSIDE when its nearest point is beyond it.
    """
    center = tuple(center)
    r2 = radius * radius

    def classify(region: Box) -> Classification:
        near = 0.0
        far = 0.0
        for c, (lo, hi) in zip(center, region.ranges):
            if c < lo:
                near += (lo - c) ** 2
            elif c > hi:
                near += (c - hi) ** 2
            far += max((c - lo) ** 2, (hi - c) ** 2)
        if far <= r2:
            return INSIDE
        if near > r2:
            return OUTSIDE
        return BOUNDARY

    return classify


def polygon_classifier(vertices: Sequence[Tuple[float, float]]) -> ClassifyFn:
    """Oracle for a simple 2-d polygon (vertices in order, closed
    implicitly).  A pixel belongs to the polygon when its centre is
    inside (even-odd rule).

    The region test is conservative: a region is INSIDE when all four of
    its corner pixel centres are inside and no polygon edge crosses the
    region; OUTSIDE when the region's rectangle is disjoint from the
    polygon; otherwise BOUNDARY.  Conservative answers only cost extra
    splitting, never correctness, because single pixels are classified
    exactly by the point-in-polygon test.
    """
    verts = [tuple(v) for v in vertices]
    if len(verts) < 3:
        raise ValueError("a polygon needs at least three vertices")

    def point_inside(x: float, y: float) -> bool:
        inside = False
        n = len(verts)
        for i in range(n):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % n]
            if (y1 > y) != (y2 > y):
                x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < x_cross:
                    inside = not inside
        return inside

    def edge_intersects_rect(
        p1: Tuple[float, float], p2: Tuple[float, float], region: Box
    ) -> bool:
        (xlo, xhi), (ylo, yhi) = region.ranges
        # Inflate by half a pixel so the rectangle covers pixel centres.
        rx0, rx1 = xlo - 0.5, xhi + 0.5
        ry0, ry1 = ylo - 0.5, yhi + 0.5
        # Liang-Barsky style clip of the segment against the rectangle.
        x1, y1 = p1
        x2, y2 = p2
        dx, dy = x2 - x1, y2 - y1
        t0, t1 = 0.0, 1.0
        for p, q in (
            (-dx, x1 - rx0),
            (dx, rx1 - x1),
            (-dy, y1 - ry0),
            (dy, ry1 - y1),
        ):
            if p == 0:
                if q < 0:
                    return False
                continue
            t = q / p
            if p < 0:
                t0 = max(t0, t)
            else:
                t1 = min(t1, t)
            if t0 > t1:
                return False
        return True

    def classify(region: Box) -> Classification:
        if region.ndims != 2:
            raise ValueError("polygon classifier is 2-d only")
        single_pixel = region.volume == 1
        if single_pixel:
            (x, _), (y, _) = region.ranges
            return INSIDE if point_inside(float(x), float(y)) else OUTSIDE
        n = len(verts)
        crossed = any(
            edge_intersects_rect(verts[i], verts[(i + 1) % n], region)
            for i in range(n)
        )
        if crossed:
            return BOUNDARY
        # No edge crosses: the region is uniformly in or out.
        (xlo, _), (ylo, _) = region.ranges
        return INSIDE if point_inside(float(xlo), float(ylo)) else OUTSIDE

    return classify
