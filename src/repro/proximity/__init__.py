"""Epsilon cross-matching of point catalogs.

The paper's z-element machinery (Sections 3-6) answers boxes,
containment, fixed-radius balls and — a doubling box probe through the
ordinary range query, :meth:`~repro.storage.prefix_btree.ProximityReads.
nearest_neighbours` — k-nearest-neighbour.  What it has no operator for
is the *join* its successors ran in production sky surveys:

* :func:`~repro.proximity.zones.zones_epsilon_join` — Gray et al.'s
  Zones algorithm, the eps-join of two whole row sets.  It is one of
  two eps-joins: a SQL eps-join with a window on one side and an index
  on the other instead seeks that index at the windowed points' z-cells
  (:func:`~repro.db.readpath.epsilon_seek_rows`);
* :func:`~repro.proximity.zones.ball_filter` — the exact distance test
  both run on each candidate;
* :func:`~repro.proximity.epsjoin.nested_epsilon_join` — the O(na * nb)
  oracle the differential suite compares them against.
"""

from repro.proximity.epsjoin import nested_epsilon_join
from repro.proximity.zones import (
    ZonesIndex,
    ball_filter,
    zone_height_for,
    zones_epsilon_join,
)

__all__ = [
    "ZonesIndex",
    "ball_filter",
    "zone_height_for",
    "zones_epsilon_join",
    "nested_epsilon_join",
]
