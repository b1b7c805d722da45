"""Relational algebra operators (materializing, relation -> relation).

Classic operators only; the spatial operators (``Decompose`` and the
spatial join) live in :mod:`repro.db.spatial`.  All operators produce
fresh relations and never mutate their inputs.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.db.expr import Expr, projection
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.obs.trace import current as _trace_current

__all__ = [
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
]


def _traced_build(
    opname: str, rows_in: int, build: Callable[[], Relation]
) -> Relation:
    """Run an operator's materialization, recording a per-operator span
    (timing + in/out cardinalities) when a trace is active.  Disabled
    cost: one global load and one extra call."""
    trace = _trace_current()
    if trace is None:
        return build()
    with trace.span(opname) as span:
        out = build()
        span.add("rows_in", rows_in)
        span.add("rows_out", len(out))
        return out


def select(relation: Relation, predicate: Expr, name: str = "") -> Relation:
    """Rows satisfying ``predicate``."""
    keep = predicate.filter(relation.schema)
    return _traced_build(
        "op.select",
        len(relation),
        lambda: Relation._derived(
            name or f"select({relation.name})",
            relation.schema,
            keep(relation),
        ),
    )


def project(
    relation: Relation, names: Sequence[str], name: str = ""
) -> Relation:
    """Keep only ``names`` columns (bag semantics: duplicates remain,
    as in the paper's intermediate results)."""
    rows_of = projection([relation.schema.index_of(n) for n in names])
    return _traced_build(
        "op.project",
        len(relation),
        lambda: Relation._derived(
            name or f"project({relation.name})",
            relation.schema.project(names),
            rows_of(relation),
        ),
    )


def distinct(relation: Relation, name: str = "") -> Relation:
    """Duplicate elimination — the paper's final projection step
    "eliminates this redundancy"."""

    def build() -> Relation:
        seen = set()
        rows: List[Tuple[Any, ...]] = []
        for row in relation:
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return Relation._derived(
            name or f"distinct({relation.name})", relation.schema, rows
        )

    return _traced_build("op.distinct", len(relation), build)


def rename(relation: Relation, mapping: dict, name: str = "") -> Relation:
    return Relation._derived(
        name or relation.name,
        relation.schema.rename(mapping),
        relation.rows,
    )


def sort(
    relation: Relation,
    names: Sequence[str],
    reverse: bool = False,
    name: str = "",
) -> Relation:
    """Order rows by the given columns.  With an element column this is
    a z-order sort — "existing sort utilities can be used to create z
    ordered sequences" (Section 4)."""
    indices = [relation.schema.index_of(n) for n in names]
    return _traced_build(
        "op.sort",
        len(relation),
        lambda: Relation._derived(
            name or f"sort({relation.name})",
            relation.schema,
            sorted(
                relation,
                key=lambda row: tuple(row[i] for i in indices),
                reverse=reverse,
            ),
        ),
    )


def limit(relation: Relation, count: int, name: str = "") -> Relation:
    if count < 0:
        raise ValueError("limit must be non-negative")
    return _traced_build(
        "op.limit",
        len(relation),
        lambda: Relation._derived(
            name or f"limit({relation.name})",
            relation.schema,
            relation.rows[:count],
        ),
    )


def cross_product(left: Relation, right: Relation, name: str = "") -> Relation:
    schema = _join_schema(left, right)
    return _traced_build(
        "op.cross_product",
        len(left) + len(right),
        lambda: Relation._derived(
            name or f"product({left.name},{right.name})",
            schema,
            [lrow + rrow for lrow in left for rrow in right],
        ),
    )


def _join_schema(left: Relation, right: Relation) -> Schema:
    collisions = set(left.schema.names) & set(right.schema.names)
    if collisions:
        return left.schema.concat(
            right.schema, prefix_self="left_", prefix_other="right_"
        )
    return left.schema.concat(right.schema)


def equi_join(
    left: Relation,
    right: Relation,
    left_col: str,
    right_col: str,
    name: str = "",
) -> Relation:
    """Hash join on one column pair."""
    lidx = left.schema.index_of(left_col)
    ridx = right.schema.index_of(right_col)

    def build() -> Relation:
        table: dict = {}
        for row in left:
            table.setdefault(row[lidx], []).append(row)
        return Relation._derived(
            name or f"join({left.name},{right.name})",
            _join_schema(left, right),
            [
                lrow + rrow
                for rrow in right
                for lrow in table.get(rrow[ridx], ())
            ],
        )

    return _traced_build("op.equi_join", len(left) + len(right), build)


def natural_join(left: Relation, right: Relation, name: str = "") -> Relation:
    """Join on all shared column names."""
    shared = [n for n in left.schema.names if right.schema.has_column(n)]
    if not shared:
        return cross_product(left, right, name)
    lidx = [left.schema.index_of(n) for n in shared]
    ridx = [right.schema.index_of(n) for n in shared]
    keep_right = [
        i
        for i, n in enumerate(right.schema.names)
        if n not in shared
    ]
    schema = Schema(
        list(left.schema.columns)
        + [right.schema.columns[i] for i in keep_right]
    )

    def build() -> Relation:
        table: dict = {}
        for row in left:
            key = tuple(row[i] for i in lidx)
            table.setdefault(key, []).append(row)
        return Relation._derived(
            name or f"njoin({left.name},{right.name})",
            schema,
            [
                lrow + tuple(rrow[i] for i in keep_right)
                for rrow in right
                for lrow in table.get(tuple(rrow[i] for i in ridx), ())
            ],
        )

    return _traced_build("op.natural_join", len(left) + len(right), build)


def union(left: Relation, right: Relation, name: str = "") -> Relation:
    if left.schema != right.schema:
        raise ValueError("union requires identical schemas")
    return _traced_build(
        "op.union",
        len(left) + len(right),
        lambda: Relation._derived(
            name or f"union({left.name},{right.name})",
            left.schema,
            left.rows + right.rows,
        ),
    )
