"""Z-range partitioning: cutting z space into disjoint shard intervals.

The paper's core invariant makes the keyspace trivially partitionable:
every spatial object is a set of elements, every element is one
contiguous z-interval, and every algorithm is a merge of z-ordered
sequences.  Cut z space at element boundaries and each shard owns a
disjoint, contiguous z-interval — range search and spatial join then
decompose into independent per-shard merges plus an order-preserving
gather (the same move the Zones Algorithm uses to make cross-matching
partition-parallel).

A :class:`ZRangePartitioner` is ``N - 1`` strictly increasing cut
points over ``[0, 2**total_bits)``; shard ``i`` owns the half-open
interval ``[cut[i-1], cut[i])`` (with the implicit outer cuts ``0`` and
``2**total_bits``).  A z value equal to a cut point routes to exactly
one shard: the one whose interval *starts* there.

Because elements nest as a binary tree over z space, every multiple of
``2**k`` is an element boundary at granularity ``k``; the constructors
align cuts down to such multiples so that no element of at most that
size ever straddles a shard boundary — the property that keeps
per-shard working sets z-contiguous and pruning exact.

Two placement policies are provided:

* :meth:`ZRangePartitioner.equi_width` — equal-width z intervals
  (uniform-data default; zero knowledge required);
* :meth:`ZRangePartitioner.from_codes` — equi-depth cuts at the
  quantiles of the data's z codes, so skewed data (the paper's
  clustered and diagonal experiments) still yields balanced shards.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Sequence, Tuple

__all__ = ["ZRangePartitioner"]


def _align_down(z: int, align_bits: int) -> int:
    """Largest multiple of ``2**align_bits`` not exceeding ``z`` — the
    nearest element boundary of that granularity at or below ``z``."""
    return (z >> align_bits) << align_bits


class ZRangePartitioner:
    """``N`` disjoint z-intervals tiling ``[0, 2**total_bits)``.

    >>> part = ZRangePartitioner(4, (4, 8))
    >>> part.nshards
    3
    >>> [part.route(z) for z in (0, 3, 4, 7, 8, 15)]
    [0, 0, 1, 1, 2, 2]
    >>> part.intervals()
    [(0, 3), (4, 7), (8, 15)]
    """

    __slots__ = ("total_bits", "cuts", "_lows")

    def __init__(self, total_bits: int, cuts: Sequence[int] = ()) -> None:
        if total_bits < 0:
            raise ValueError("total_bits must be non-negative")
        space = 1 << total_bits
        cuts_t = tuple(cuts)
        for prev, cut in zip((0,) + cuts_t, cuts_t):
            if not 0 < cut < space:
                raise ValueError(
                    f"cut {cut} outside (0, 2**{total_bits})"
                )
            if cut <= prev:
                raise ValueError(
                    f"cuts must be strictly increasing, got {cuts_t}"
                )
        self.total_bits = total_bits
        self.cuts = cuts_t
        self._lows = (0,) + cuts_t  # shard i owns [lows[i], lows[i+1])

    # -- construction ----------------------------------------------------

    @classmethod
    def equi_width(cls, total_bits: int, nshards: int) -> "ZRangePartitioner":
        """``nshards`` equal-width z intervals, cuts aligned down to the
        coarsest element boundary that keeps them distinct.

        For a power-of-two shard count the cuts are exact element
        boundaries at depth ``log2(nshards)``; otherwise they align to
        the next finer granularity.
        """
        if nshards < 1:
            raise ValueError("nshards must be at least 1")
        if nshards > (1 << total_bits):
            raise ValueError(
                f"cannot cut {total_bits}-bit z space into {nshards} shards"
            )
        if nshards == 1:
            return cls(total_bits)
        grain_bits = (nshards - 1).bit_length()  # ceil(log2(nshards))
        align = total_bits - grain_bits
        cuts = [
            _align_down((i << total_bits) // nshards, align)
            for i in range(1, nshards)
        ]
        return cls(total_bits, cuts)

    @classmethod
    def from_codes(
        cls,
        codes: Iterable[int],
        total_bits: int,
        nshards: int,
        align_bits: int = 0,
    ) -> "ZRangePartitioner":
        """Equi-depth cuts over a concrete z-code sample: shard ``i``'s
        cut sits at the ``i/nshards`` quantile, aligned down to an
        element boundary of ``2**align_bits`` pixels.

        Duplicate or out-of-order quantiles (heavy skew, tiny samples)
        collapse; the result may then have fewer shards than requested.
        Falls back to :meth:`equi_width` on an empty sample.
        """
        if nshards < 1:
            raise ValueError("nshards must be at least 1")
        ordered = sorted(codes)
        if not ordered:
            return cls.equi_width(total_bits, nshards)
        cuts: List[int] = []
        for i in range(1, nshards):
            cut = _align_down(
                ordered[i * len(ordered) // nshards], align_bits
            )
            if cut > (cuts[-1] if cuts else 0):
                cuts.append(cut)
        return cls(total_bits, cuts)

    # -- inspection ------------------------------------------------------

    @property
    def nshards(self) -> int:
        return len(self.cuts) + 1

    def interval(self, shard_id: int) -> Tuple[int, int]:
        """Shard ``shard_id``'s owned z range as an inclusive interval."""
        if not 0 <= shard_id < self.nshards:
            raise IndexError(f"no shard {shard_id} (have {self.nshards})")
        lo = self._lows[shard_id]
        hi = (
            self.cuts[shard_id] - 1
            if shard_id < len(self.cuts)
            else (1 << self.total_bits) - 1
        )
        return lo, hi

    def intervals(self) -> List[Tuple[int, int]]:
        return [self.interval(i) for i in range(self.nshards)]

    # -- routing and pruning ---------------------------------------------

    def route(self, z: int) -> int:
        """The single shard owning z code ``z``.

        A z equal to a cut point belongs to the shard whose interval
        *starts* at the cut — never to two shards, never to none.
        """
        if not 0 <= z < (1 << self.total_bits):
            raise ValueError(
                f"z code {z} outside [0, 2**{self.total_bits})"
            )
        return bisect.bisect_right(self.cuts, z)

    def route_many(self, codes: Iterable[int]) -> List[int]:
        """Batch routing (one bisect per code, no revalidation loop)."""
        cuts = self.cuts
        space = 1 << self.total_bits
        out = []
        for z in codes:
            if not 0 <= z < space:
                raise ValueError(
                    f"z code {z} outside [0, 2**{self.total_bits})"
                )
            out.append(bisect.bisect_right(cuts, z))
        return out

    def prune(
        self, query_intervals: Sequence[Tuple[int, int]]
    ) -> List[int]:
        """Shard ids whose z range overlaps at least one of the query's
        z-sorted, disjoint, inclusive ``(zlo, zhi)`` intervals — the
        shards a scatter must dispatch to.  Everything else is pruned
        before any work is scheduled."""
        hit: List[int] = []
        nshards = self.nshards
        lows = self._lows
        for zlo, zhi in query_intervals:
            shard = self.route(zlo)
            if hit:
                shard = max(shard, hit[-1] + 1)
            while shard < nshards and lows[shard] <= zhi:
                hit.append(shard)
                shard += 1
        return hit

    def __repr__(self) -> str:
        return (
            f"ZRangePartitioner(total_bits={self.total_bits}, "
            f"nshards={self.nshards})"
        )
