"""Spatial relational operators: ``Decompose`` and ``R[zr ◇ zs]S``.

This module implements the usage scenario of Section 4 verbatim:

    R(p@, zr, ...) := Decompose(P(p@, ...))
    S(q@, zs, ...) := Decompose(Q(q@, ...))
    RS(p@, q@, zr, zs, ...) := R [zr ◇ zs] S
    Result := RS[p@, q@, ...]          -- distinct projection

and the derived range-search plan:

    P(p@, zp, x, y) := Points[p@, shuffle([x:x, y:y]), x, y]
    B(zb)           := Decompose(Box)
    Result          := (P [zp ◇ zb] B)[x, y]
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.decompose import decompose, decompose_box
from repro.core.fastz import elements_many, interleave_many
from repro.core.geometry import Box, Grid
from repro.core.spatialjoin import spatial_join as _join_kernel
from repro.core.zvalue import ZValue
from repro.db.operators import _traced_build, distinct, project
from repro.db.relation import Relation
from repro.db.schema import Column, Schema
from repro.db.types import ELEMENT, SpatialObject

__all__ = [
    "decompose_objects",
    "shuffle_points",
    "decompose_box_relation",
    "spatial_join",
    "overlap_query",
    "range_search_plan",
]


def decompose_objects(
    relation: Relation,
    object_col: str,
    grid: Grid,
    element_col: str = "z",
    max_depth: Optional[int] = None,
    name: str = "",
) -> Relation:
    """The ``Decompose`` operator: flatten a relation of spatial objects
    into a 1NF relation of elements.

    Every row of the input yields one output row per element of its
    object's decomposition; all other columns are carried through.
    "Each decomposition would yield a set of elements.  Thus the result
    is a set of sets that must be 'flattened' to yield the 1NF
    relations."
    """
    obj_index = relation.schema.index_of(object_col)
    carried = [
        column
        for i, column in enumerate(relation.schema.columns)
        if i != obj_index
    ]
    schema = Schema(list(carried) + [Column(element_col, ELEMENT)])

    def build() -> Relation:
        out = Relation(name or f"decompose({relation.name})", schema)
        for row in relation:
            obj = row[obj_index]
            if not isinstance(obj, SpatialObject):
                raise TypeError(
                    f"column {object_col!r} holds {obj!r}, "
                    "not a SpatialObject"
                )
            rest = tuple(v for i, v in enumerate(row) if i != obj_index)
            for zvalue in decompose(grid, obj.classify, max_depth):
                out.insert(rest + (zvalue,))
        return out

    return _traced_build("op.decompose", len(relation), build)


def shuffle_points(
    relation: Relation,
    coord_cols: Sequence[str],
    grid: Grid,
    element_col: str = "zp",
    name: str = "",
) -> Relation:
    """Add a full-resolution element column computed by shuffling the
    coordinate columns — the plan step
    ``P := Points[p@, shuffle([x:x, y:y]), x, y]``."""
    if len(coord_cols) != grid.ndims:
        raise ValueError(
            f"need {grid.ndims} coordinate columns, got {len(coord_cols)}"
        )
    indices = [relation.schema.index_of(c) for c in coord_cols]
    schema = Schema(
        list(relation.schema.columns) + [Column(element_col, ELEMENT)]
    )

    def build() -> Relation:
        out = Relation(name or f"shuffle({relation.name})", schema)
        rows = list(relation)
        codes = interleave_many(
            [tuple(row[i] for i in indices) for row in rows],
            grid.depth,
            grid.ndims,
        )
        total = grid.total_bits
        for row, code in zip(rows, codes):
            out.insert(row + (ZValue(code, total),))
        return out

    return _traced_build("op.shuffle", len(relation), build)


def decompose_box_relation(
    box: Box,
    grid: Grid,
    element_col: str = "zb",
    name: str = "B",
) -> Relation:
    """``B(zb) := Decompose(Box)`` — the query region as a relation."""
    def build() -> Relation:
        schema = Schema([Column(element_col, ELEMENT)])
        return Relation(
            name, schema, ((z,) for z in decompose_box(grid, box))
        )

    return _traced_build("op.decompose_box", 0, build)


def spatial_join(
    left: Relation,
    right: Relation,
    left_element_col: str,
    right_element_col: str,
    grid: Grid,
    name: str = "",
) -> Relation:
    """``R [zr ◇ zs] S``: pairs of tuples whose elements are related by
    containment.

    The output schema is the concatenation of both inputs' schemas (the
    right side's colliding names prefixed), exactly like a natural-join
    implementation "looking for containment ... instead of equality".
    """
    lidx = left.schema.index_of(left_element_col)
    ridx = right.schema.index_of(right_element_col)

    def tagged(relation: Relation, index: int):
        rows = list(relation)
        return zip(elements_many(grid, (row[index] for row in rows)), rows)

    collisions = set(left.schema.names) & set(right.schema.names)
    right_schema = (
        right.schema.rename({n: f"right_{n}" for n in collisions})
        if collisions
        else right.schema
    )
    schema = Schema(list(left.schema.columns) + list(right_schema.columns))

    def build() -> Relation:
        # The sweep kernel publishes its own "spatialjoin.sweep" child
        # span when it finishes, nesting under this operator's span.
        out = Relation(name or f"sjoin({left.name},{right.name})", schema)
        for lrow, rrow, _, _ in _join_kernel(
            tagged(left, lidx), tagged(right, ridx)
        ):
            out.insert(lrow + rrow)
        return out

    return _traced_build("op.spatial_join", len(left) + len(right), build)


def overlap_query(
    objects_p: Relation,
    objects_q: Relation,
    object_col: str,
    id_col_p: str,
    id_col_q: Optional[str] = None,
    grid: Optional[Grid] = None,
    max_depth: Optional[int] = None,
) -> Relation:
    """The complete Section 4 scenario: which objects of P overlap which
    objects of Q?  Returns the distinct ``(p@, q@)`` relation."""
    if grid is None:
        raise ValueError("a grid is required")
    id_col_q = id_col_q or id_col_p
    r = decompose_objects(
        objects_p, object_col, grid, element_col="zr", max_depth=max_depth
    )
    s = decompose_objects(
        objects_q, object_col, grid, element_col="zs", max_depth=max_depth
    )
    rs = spatial_join(r, s, "zr", "zs", grid, name="RS")
    right_id = (
        f"right_{id_col_q}"
        if rs.schema.has_column(f"right_{id_col_q}")
        else id_col_q
    )
    return distinct(project(rs, [id_col_p, right_id]), name="Result")


def range_search_plan(
    points: Relation,
    coord_cols: Sequence[str],
    box: Box,
    grid: Grid,
) -> Relation:
    """Range search expressed as a spatial join (end of Section 4):
    shuffle the points, decompose the box, join, project the
    coordinates."""
    p = shuffle_points(points, coord_cols, grid, element_col="zp", name="P")
    b = decompose_box_relation(box, grid, element_col="zb", name="B")
    joined = spatial_join(p, b, "zp", "zb", grid, name="PB")
    return project(joined, list(coord_cols), name="Result")
