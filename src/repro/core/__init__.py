"""Approximate geometry — the paper's primary contribution.

Everything in this package is pure algorithm/data-structure code with no
storage dependencies: z values and elements (Section 3.1/3.2), object
decomposition (Section 3.1), the merge-based range search (Section 3.3),
the spatial-join kernel (Section 4), the space/page analysis
(Section 5), and the further AG algorithms of Section 6 (overlay,
connected components, interference detection).
"""

from repro.core.analysis import (
    CoarseningTradeoff,
    bit_span,
    coarsen_size,
    coarsening_tradeoff,
    element_count,
    element_count_2d,
    pages_per_block_bound,
    predicted_partial_match_pages,
    predicted_range_pages,
)
from repro.core.components import (
    ConnectedComponents,
    UnionFind,
    label_components,
)
from repro.core.decompose import (
    BoxElementCursor,
    CoverMode,
    Element,
    ElementCursor,
    count_elements,
    decompose,
    decompose_box,
)
from repro.core.geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    Box,
    Classification,
    Grid,
    box_classifier,
    circle_classifier,
    polygon_classifier,
)
from repro.core.fastz import (
    deinterleave_fast,
    deinterleave_many,
    elements_many,
    interleave_fast,
    interleave_many,
    zrank_fast,
    zranks,
)
from repro.core.interference import (
    InterferenceReport,
    Solid,
    detect_interference,
)
from repro.core.interleave import deinterleave, interleave, zrank
from repro.core.intervals import (
    IntervalSet,
    elements_to_intervals,
    interval_to_elements,
    intervals_to_elements,
)
from repro.core.overlay import ElementRegion, containment_pairs, map_overlay
from repro.core.proximity import (
    ProximityProfile,
    neighbour_page_probability,
    page_cover_count,
    proximity_profile,
)
from repro.core.rangesearch import (
    MergeStats,
    PointRecord,
    SortedPointCursor,
    ZCursor,
    brute_force_search,
    build_point_sequence,
    merge_search,
    object_search,
    range_search,
    range_search_bigmin,
    range_search_simple,
)
from repro.core.spatialjoin import overlapping_pairs, spatial_join
from repro.core.zorder import bigmin, box_zbounds, curve_points, litmax, zcode_in_box
from repro.core.zvalue import ZValue

__all__ = [
    # zvalue / interleave
    "ZValue",
    "interleave",
    "deinterleave",
    "zrank",
    # fast kernels (batched bit-twiddling)
    "interleave_fast",
    "deinterleave_fast",
    "zrank_fast",
    "interleave_many",
    "deinterleave_many",
    "zranks",
    "elements_many",
    # geometry
    "Grid",
    "Box",
    "Classification",
    "INSIDE",
    "OUTSIDE",
    "BOUNDARY",
    "box_classifier",
    "circle_classifier",
    "polygon_classifier",
    # decompose
    "Element",
    "CoverMode",
    "decompose",
    "decompose_box",
    "count_elements",
    "ElementCursor",
    "BoxElementCursor",
    # zorder
    "curve_points",
    "box_zbounds",
    "zcode_in_box",
    "bigmin",
    "litmax",
    # range search
    "PointRecord",
    "ZCursor",
    "SortedPointCursor",
    "MergeStats",
    "merge_search",
    "range_search",
    "object_search",
    "range_search_simple",
    "range_search_bigmin",
    "brute_force_search",
    "build_point_sequence",
    # spatial join
    "spatial_join",
    "overlapping_pairs",
    # intervals / overlay
    "IntervalSet",
    "elements_to_intervals",
    "intervals_to_elements",
    "interval_to_elements",
    "ElementRegion",
    "map_overlay",
    "containment_pairs",
    # components / interference
    "UnionFind",
    "ConnectedComponents",
    "label_components",
    "Solid",
    "InterferenceReport",
    "detect_interference",
    # analysis / proximity
    "element_count",
    "element_count_2d",
    "bit_span",
    "coarsen_size",
    "CoarseningTradeoff",
    "coarsening_tradeoff",
    "pages_per_block_bound",
    "predicted_range_pages",
    "predicted_partial_match_pages",
    "ProximityProfile",
    "proximity_profile",
    "neighbour_page_probability",
    "page_cover_count",
]
