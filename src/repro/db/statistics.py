"""Spatial statistics for the optimizer: the zkd tree as a histogram.

The leaf pages of a zkd B+-tree split the z codes into runs of ~page
capacity records — i.e. the index *is* an equi-depth histogram of the
data's spatial distribution.  The B+-tree's in-memory inner nodes
already hold every leaf's separator, and the tree records each leaf's
count whenever it writes the leaf; :meth:`~repro.storage.btree.
BPlusTree.overlap_stats` reads both, so the histogram has no upkeep of
its own and reading it reads no page.  Combined with box decomposition
(each query is a set of z intervals), this gives distribution-aware
estimates that the uniformity assumption of Section 5's analysis
cannot:

* :func:`estimate_matches` — expected result size of a range query;
* :func:`estimate_pages` — expected data pages: the leaves whose
  separator span the query's z intervals meet, plus the leftmost leaf,
  where every scan starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.decompose import box_intervals
from repro.core.geometry import Box

__all__ = [
    "ColumnHistogram",
    "estimate_matches",
    "estimate_pages",
    "estimate_scan",
]


@dataclass(frozen=True)
class ColumnHistogram:
    """An equi-depth histogram over one numeric column, for the
    attribute-range selectivities of the multi-predicate planner.

    Bucket ``i`` spans values ``[bounds[i], bounds[i+1]]`` and holds
    ``counts[i]`` records; within a bucket values are assumed uniform,
    the standard equi-depth interpolation.  ``ndistinct`` drives the
    equality-selectivity guess (``1 / ndistinct``).
    """

    bounds: Tuple[float, ...]
    counts: Tuple[int, ...]
    ndistinct: int

    #: Selectivity assigned to predicates the histogram cannot see
    #: through (non-numeric columns, residual expressions).
    DEFAULT_SELECTIVITY = 1.0 / 3.0

    @classmethod
    def of_values(
        cls, values: Iterable[Any], nbuckets: int = 32
    ) -> "ColumnHistogram":
        # NaN is left out: it satisfies no comparison, and in a sort it
        # leaves the values around it out of order.
        numeric = sorted(
            v
            for v in values
            if isinstance(v, (int, float))
            and not isinstance(v, bool)
            and v == v
        )
        if not numeric:
            return cls((0.0, 0.0), (0,), 0)
        n = len(numeric)
        k = min(nbuckets, n)
        bounds = [float(numeric[0])]
        counts = []
        previous = 0
        for i in range(1, k + 1):
            cut = round(i * n / k)
            bounds.append(float(numeric[cut - 1]))
            counts.append(cut - previous)
            previous = cut
        ndistinct = len(set(numeric))
        return cls(tuple(bounds), tuple(counts), ndistinct)

    @property
    def nrecords(self) -> int:
        return sum(self.counts)

    def fraction_le(self, value: float) -> float:
        """Estimated fraction of records with ``column <= value``."""
        if self.nrecords == 0:
            return 0.0
        if value < self.bounds[0]:
            return 0.0
        if value >= self.bounds[-1]:
            return 1.0
        covered = 0.0
        for i, count in enumerate(self.counts):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            if value >= hi:
                covered += count
            elif value <= lo:
                break
            else:
                covered += count * (value - lo) / (hi - lo)
        return covered / self.nrecords

    def estimate_range(
        self, low: Optional[float], high: Optional[float]
    ) -> float:
        """Selectivity of ``low <= column <= high`` (either bound may be
        ``None`` for a one-sided comparison); floored at one record so a
        satisfiable range never sorts as free."""
        if self.nrecords == 0:
            return 0.0
        if low is not None and high is not None and high < low:
            return 0.0
        lo_frac = 0.0 if low is None else self.fraction_le(low)
        hi_frac = 1.0 if high is None else self.fraction_le(high)
        if low is not None and high is not None and low == high:
            return self.estimate_eq(low)
        return max(1.0 / self.nrecords, hi_frac - lo_frac)

    def estimate_eq(self, value: float) -> float:
        """Selectivity of ``column = value`` — one distinct value's
        share, zero outside the observed range."""
        if self.nrecords == 0 or self.ndistinct == 0:
            return 0.0
        if value < self.bounds[0] or value > self.bounds[-1]:
            return 1.0 / self.nrecords
        return 1.0 / self.ndistinct


def _clip_intervals(
    intervals: Sequence[Tuple[int, int]], lo: int, hi: int
) -> List[Tuple[int, int]]:
    """Restrict z-sorted inclusive intervals to ``[lo, hi]``."""
    return [
        (max(zlo, lo), min(zhi, hi))
        for zlo, zhi in intervals
        if zlo <= hi and zhi >= lo
    ]


def estimate_scan(tree, box: Box) -> Tuple[float, int]:
    """``(expected matches, expected data pages)`` of a range query for
    ``box`` — one decomposition of the box feeding both estimates.

    ``tree`` may be a single :class:`~repro.storage.prefix_btree.
    ZkdTree` or a :class:`~repro.shard.store.ShardedSpatialStore`; for
    the latter the query's z intervals are clipped to each shard's
    owned range and the per-shard estimates summed — each shard's leaf
    pages only describe its own slice of z space.

    Pages are the leaves whose separator span the query's z intervals
    meet, plus the leftmost leaf, where every scan starts: in practice
    within a page of the measured count.
    """
    intervals = box_intervals(tree.grid, box)
    shards = getattr(tree, "shards", None)
    if shards is None:
        parts = [(tree, intervals)]
    else:
        parts = [
            (shard, clipped)
            for shard, (lo, hi) in zip(shards, tree.partitioner.intervals())
            if (clipped := _clip_intervals(intervals, lo, hi)) and len(shard)
        ]
    expected = 0.0
    pages = 0
    for part, clipped in parts:
        part_expected, part_pages = part.tree.overlap_stats(clipped)
        expected += part_expected
        pages += part_pages
    return expected, pages


def estimate_matches(tree, box: Box) -> float:
    """Expected number of points of ``tree`` inside ``box``."""
    return estimate_scan(tree, box)[0]


def estimate_pages(tree, box: Box) -> int:
    """Expected data pages a range query for ``box`` would touch."""
    return estimate_scan(tree, box)[1]
