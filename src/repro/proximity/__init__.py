"""Epsilon cross-matching of point catalogs.

The paper's z-element machinery (Sections 3-6) answers boxes,
containment, fixed-radius balls and — a doubling box probe through the
ordinary range query, :meth:`~repro.storage.prefix_btree.ProximityReads.
nearest_neighbours` — k-nearest-neighbour.  What it has no operator for
is the *join* its successors ran in production sky surveys:

* :func:`~repro.proximity.zones.zones_epsilon_join` — Gray et al.'s
  Zones algorithm, the one eps-join every read path runs;
* :func:`~repro.proximity.epsjoin.nested_epsilon_join` — the O(na * nb)
  oracle the differential suite compares it against.
"""

from repro.proximity.epsjoin import nested_epsilon_join
from repro.proximity.zones import (
    ZonesIndex,
    zone_height_for,
    zones_epsilon_join,
)

__all__ = [
    "ZonesIndex",
    "zone_height_for",
    "zones_epsilon_join",
    "nested_epsilon_join",
]
