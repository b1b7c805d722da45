"""A miniature object-oriented relational DBMS with built-in
approximate geometry — the integration layer of Section 4.

The package demonstrates the paper's claim that spatial query processing
"can be supported with very minor modifications of current DBMS
implementations": one new domain (the element object class), one
join-like operator (the spatial join), and a flattening ``Decompose``
operator; everything else is conventional relational machinery.
"""

from repro.db.aggregates import AVG, COUNT, MAX, MIN, SUM, AggregateSpec, aggregate
from repro.db.catalog import Catalog, IndexEntry
from repro.db.database import SpatialDatabase
from repro.db.planner import (
    Conjunct,
    Plan,
    SelectPlan,
    choose_join_strategy,
    estimate_selectivity,
    order_conjuncts,
    plan_range_query,
    plan_select,
)
from repro.db.statistics import estimate_matches, estimate_pages
from repro.db.expr import (
    Expr,
    box_contains_point,
    col,
    element_contains,
    element_precedes,
    lit,
)
from repro.db.operators import (
    cross_product,
    distinct,
    equi_join,
    limit,
    natural_join,
    project,
    rename,
    select,
    sort,
    union,
)
from repro.db.relation import Relation
from repro.db.schema import Column, Schema
from repro.db.spatial import (
    decompose_box_relation,
    decompose_objects,
    overlap_query,
    range_search_plan,
    shuffle_points,
    spatial_join,
)
from repro.db.types import (
    BOOLEAN,
    ELEMENT,
    FLOAT,
    INTEGER,
    OID,
    SPATIAL_OBJECT,
    STRING,
    BooleanDomain,
    Domain,
    ElementDomain,
    FloatDomain,
    IntegerDomain,
    OidDomain,
    SpatialObject,
    SpatialObjectDomain,
    StringDomain,
)

__all__ = [
    "SpatialDatabase",
    "Catalog",
    "IndexEntry",
    "Relation",
    "Schema",
    "Column",
    # expressions
    "Expr",
    "col",
    "lit",
    "box_contains_point",
    "element_contains",
    "element_precedes",
    # operators
    "select",
    "project",
    "distinct",
    "rename",
    "sort",
    "limit",
    "cross_product",
    "natural_join",
    "equi_join",
    "union",
    # aggregates
    "aggregate",
    "AggregateSpec",
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "AVG",
    # planner + statistics
    "Plan",
    "Conjunct",
    "SelectPlan",
    "plan_range_query",
    "plan_select",
    "order_conjuncts",
    "choose_join_strategy",
    "estimate_selectivity",
    "estimate_matches",
    "estimate_pages",
    # spatial operators
    "decompose_objects",
    "shuffle_points",
    "decompose_box_relation",
    "spatial_join",
    "overlap_query",
    "range_search_plan",
    # domains
    "Domain",
    "IntegerDomain",
    "FloatDomain",
    "StringDomain",
    "BooleanDomain",
    "OidDomain",
    "ElementDomain",
    "SpatialObject",
    "SpatialObjectDomain",
    "INTEGER",
    "FLOAT",
    "STRING",
    "BOOLEAN",
    "OID",
    "ELEMENT",
    "SPATIAL_OBJECT",
]
