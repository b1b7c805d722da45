"""Spatial statistics for the optimizer: the zkd tree as a histogram.

The leaf pages of a zkd B+-tree split the z codes into runs of ~page
capacity records — i.e. the index *is* an equi-depth histogram of the
data's spatial distribution.  The B+-tree's in-memory inner nodes
already hold every leaf's separator, and the tree records each leaf's
count whenever it writes the leaf; :meth:`~repro.storage.btree.
BPlusTree.cover_stats` reads both, so the histogram has no upkeep of
its own and reading it reads no page.  Walking the box's splitting tree
in step with the leaves, and splitting a node only where a separator
cuts it, gives distribution-aware estimates that the uniformity
assumption of Section 5's analysis cannot:

* :func:`estimate_matches` — expected result size of a range query;
* :func:`estimate_pages` — expected data pages: the leaves whose
  separator span the box meets, plus the leftmost leaf, where every
  scan starts.

They equal the estimates of the box's full decomposition: no cut finer
than a leaf's span can change them.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.decompose import CoverMode, _BoxKernel
from repro.core.geometry import Box
from repro.obs.trace import add as _trace_add

__all__ = [
    "estimate_matches",
    "estimate_pages",
    "estimate_scan",
]


def estimate_scan(tree, box: Box) -> Tuple[float, int]:
    """``(expected matches, expected data pages)`` of a range query for
    ``box`` over the :class:`~repro.storage.prefix_btree.ZkdTree`
    ``tree`` — one walk feeding both estimates; it publishes the box
    nodes it visits as ``planner.estimate_nodes``.

    Pages are the leaves whose separator span the box meets, plus the
    leftmost leaf, where every scan starts: in practice within a page of
    the measured count.
    """
    kernel = _BoxKernel(tree.grid, box, None, CoverMode.OUTER)
    expected, pages, left = tree.tree.cover_stats(kernel)
    visited = kernel.nodes_expanded + kernel.nodes_counted + left
    _trace_add("planner.estimate_nodes", visited)
    return expected, pages


def estimate_matches(tree, box: Box) -> float:
    """Expected number of points of ``tree`` inside ``box``."""
    return estimate_scan(tree, box)[0]


def estimate_pages(tree, box: Box) -> int:
    """Expected data pages a range query for ``box`` would touch."""
    return estimate_scan(tree, box)[1]
