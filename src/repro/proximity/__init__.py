"""Proximity query operators: k-NN and epsilon cross-matching.

The paper's z-element machinery (Sections 3-6) answered boxes,
containment and fixed-radius balls; this package layers the two query
classes its successors ran in production sky surveys on top of the
same substrate:

* :func:`~repro.proximity.knn.knn` — k-nearest-neighbour via expanding
  window probes over ``2^d`` *shifted copies* of the z ordering
  (Chan / Har-Peled / Jones locality-sensitive orderings), with an
  exact-mode refinement pass that verifies the candidate ball with one
  box query;
* :func:`~repro.proximity.zones.zones_epsilon_join` — Gray et al.'s
  Zones algorithm for epsilon-joins of large point catalogs, costed by
  the multi-predicate planner against the z-merge and nested-loop
  strategies of :mod:`repro.proximity.epsjoin`.
"""

from repro.proximity.epsjoin import (
    ball_cover_depth,
    epsilon_join_pairs,
    nested_epsilon_join,
    zmerge_epsilon_join,
)
from repro.proximity.knn import knn, shifted_index_for
from repro.proximity.shifted import (
    ShiftedOrderings,
    approximation_factor,
    shift_vectors,
    shifted_code,
    shifted_point,
)
from repro.proximity.zones import (
    ZonesIndex,
    zone_height_for,
    zones_epsilon_join,
)

__all__ = [
    "knn",
    "shifted_index_for",
    "ShiftedOrderings",
    "approximation_factor",
    "shift_vectors",
    "shifted_code",
    "shifted_point",
    "ZonesIndex",
    "zone_height_for",
    "zones_epsilon_join",
    "epsilon_join_pairs",
    "nested_epsilon_join",
    "zmerge_epsilon_join",
    "ball_cover_depth",
]
