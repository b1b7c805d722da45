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

from typing import Tuple

from repro.core.decompose import box_intervals
from repro.core.geometry import Box

__all__ = [
    "estimate_matches",
    "estimate_pages",
    "estimate_scan",
]


def estimate_scan(tree, box: Box) -> Tuple[float, int]:
    """``(expected matches, expected data pages)`` of a range query for
    ``box`` over the :class:`~repro.storage.prefix_btree.ZkdTree`
    ``tree`` — one decomposition of the box feeding both estimates.

    Pages are the leaves whose separator span the query's z intervals
    meet, plus the leftmost leaf, where every scan starts: in practice
    within a page of the measured count.
    """
    return tree.tree.overlap_stats(box_intervals(tree.grid, box))


def estimate_matches(tree, box: Box) -> float:
    """Expected number of points of ``tree`` inside ``box``."""
    return estimate_scan(tree, box)[0]


def estimate_pages(tree, box: Box) -> int:
    """Expected data pages a range query for ``box`` would touch."""
    return estimate_scan(tree, box)[1]
