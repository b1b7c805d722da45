"""Semantic binding: AST → catalog-checked, planner-ready query.

The binder resolves table and column names against ``db.catalog``,
type-checks every expression (WHERE must be boolean, arithmetic needs
numbers, ``CONTAINS`` needs integer coordinate columns matching the
grid's dimensionality, ``OVERLAPS`` needs one spatial-object column per
side), splits the WHERE clause into top-level AND conjuncts, classifies
each one (z-window / attr-range / residual — the planner's taxonomy),
and lowers it to an executable :class:`repro.db.expr.Expr`.

Every rejection raises :class:`~repro.sql.errors.BindError` anchored at
the offending node's source position.

Join queries qualify their output columns as ``<table>_<name>`` (the
geometry columns are consumed by the spatial join and disappear);
conjuncts touching only one side are pushed below the join, the rest
filter above it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as _field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.geometry import Box
from repro.db.expr import Expr, box_contains_point, col, lit, point_within
from repro.db.planner import Conjunct
from repro.db.schema import Schema
from repro.db.types import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    OID,
    SPATIAL_OBJECT,
    STRING,
    Domain,
)
from repro.sql import ast as A
from repro.sql.ast import render_expr
from repro.sql.errors import BindError

__all__ = ["BoundQuery", "BoundShape", "bind", "bind_shape"]


def _is_numeric(domain: Domain) -> bool:
    return domain is INTEGER or domain is FLOAT

def _is_stringlike(domain: Domain) -> bool:
    return domain is STRING or domain is OID


#: Node class -> the names of its fields.
_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(field.name for field in dataclasses.fields(cls))
    for cls in vars(A).values()
    if isinstance(cls, type) and issubclass(cls, A.Node)
}


def _children(node: A.Node):
    """The nodes held by ``node``'s fields (tuples flattened), in field
    order."""
    for name in _FIELDS[type(node)]:
        value = getattr(node, name)
        if isinstance(value, A.Node):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, A.Node):
                    yield item


def _node_count(node: A.Node) -> int:
    """Per-row evaluation cost proxy: the subtree's node count."""
    total = 1
    for child in _children(node):
        total += _node_count(child)
    return total


class _Scope:
    """Column resolution over one or two tables.

    ``tables`` maps each visible table name to (schema, prefix); the
    prefix is the qualified output spelling (``"points_"`` in a join,
    empty for single-table queries).
    """

    def __init__(
        self, tables: Sequence[Tuple[str, Schema, str]]
    ) -> None:
        self.tables = list(tables)
        self._resolved: Dict[
            Tuple[Optional[str], str], Tuple[str, Domain, str]
        ] = {}

    def resolve(self, ref: A.ColumnRef) -> Tuple[str, Domain, str]:
        """→ (internal name, domain, owning table)."""
        key = (ref.table, ref.name)
        resolved = self._resolved.get(key)
        if resolved is None:
            resolved = self._resolved[key] = self._resolve(ref)
        return resolved

    def _resolve(self, ref: A.ColumnRef) -> Tuple[str, Domain, str]:
        if ref.table is not None:
            for table, schema, prefix in self.tables:
                if table == ref.table:
                    if not schema.has_column(ref.name):
                        raise BindError(
                            f"table {table!r} has no column {ref.name!r}"
                            f" (columns: {', '.join(schema.names)})",
                            ref.pos,
                        )
                    return (
                        prefix + ref.name,
                        schema.column(ref.name).domain,
                        table,
                    )
            known = ", ".join(t for t, _, _ in self.tables)
            raise BindError(
                f"unknown table {ref.table!r} (in scope: {known})", ref.pos
            )
        hits = [
            (prefix + ref.name, schema.column(ref.name).domain, table)
            for table, schema, prefix in self.tables
            if schema.has_column(ref.name)
        ]
        if not hits:
            known = ", ".join(
                name for _, schema, _ in self.tables for name in schema.names
            )
            raise BindError(
                f"unknown column {ref.name!r} (columns: {known})", ref.pos
            )
        if len(hits) > 1:
            tables = " and ".join(t for _, _, t in hits)
            raise BindError(
                f"column {ref.name!r} is ambiguous (in {tables}); "
                "qualify it as table.column",
                ref.pos,
            )
        return hits[0]


@dataclass
class BoundQuery:
    """The binder's product: everything the compiler needs."""

    source: str
    mode: Optional[str]  # None | "explain" | "analyze"
    table: str
    join_table: Optional[str] = None
    join_kind: str = "overlaps"  # "overlaps" | "eps"
    left_geom: Optional[str] = None  # base-table geometry column names
    right_geom: Optional[str] = None
    eps: Optional[float] = None  # epsilon-join radius
    left_coords: Optional[Tuple[str, ...]] = None  # eps-join point columns
    right_coords: Optional[Tuple[str, ...]] = None
    conjuncts: List[Conjunct] = _field(default_factory=list)
    left_push: List[Conjunct] = _field(default_factory=list)
    right_push: List[Conjunct] = _field(default_factory=list)
    projection: Optional[List[str]] = None
    distinct: bool = False
    order: Optional[Tuple[List[str], bool]] = None
    limit: Optional[int] = None
    nearest: Optional[Tuple[int, Tuple[int, ...], Tuple[str, ...]]] = None
    output_names: List[str] = _field(default_factory=list)


class _Binder:
    def __init__(self, database, statement: A.Statement, source: str) -> None:
        self.db = database
        self.statement = statement
        self.source = source
        self.grid = database.grid
        #: How each WHERE term was bound, for :class:`BoundShape`:
        #: ``(BoundQuery list, term position, scope, table, cost)``.
        self.sites: List[
            Tuple[str, int, _Scope, Optional[str], float]
        ] = []

    def _relation(self, table: str, pos: int):
        try:
            return self.db.catalog.relation(table)
        except KeyError:
            raise BindError(f"unknown table {table!r}", pos) from None

    def bind(self) -> BoundQuery:
        select = self.statement.select
        out = BoundQuery(
            source=self.source,
            mode=self.statement.mode,
            table=select.table,
            distinct=select.distinct,
            limit=select.limit,
        )
        left_schema = self._relation(select.table, select.pos).schema

        if select.join is None:
            scope = _Scope([(select.table, left_schema, "")])
            out.output_names = list(left_schema.names)
        else:
            join = select.join
            out.join_table = join.table
            right_schema = self._relation(join.table, join.pos).schema
            if join.table == select.table:
                raise BindError(
                    "self-joins need distinct table names", join.pos
                )
            scope = _Scope(
                [
                    (select.table, left_schema, f"{select.table}_"),
                    (join.table, right_schema, f"{join.table}_"),
                ]
            )
            if isinstance(join.on, A.Within):
                out.join_kind = "eps"
                (
                    out.eps,
                    out.left_coords,
                    out.right_coords,
                ) = self._bind_within_join(
                    join.on, scope, select.table, join.table
                )
                # The coordinate columns are ordinary data (nothing is
                # consumed, unlike OVERLAPS geometry): keep every
                # column, qualified.
                out.output_names = [
                    f"{select.table}_{name}" for name in left_schema.names
                ] + [
                    f"{join.table}_{name}" for name in right_schema.names
                ]
            else:
                out.left_geom, out.right_geom = self._bind_overlaps(
                    join.on, scope, select.table, join.table
                )
                out.output_names = [
                    f"{select.table}_{name}"
                    for name in left_schema.names
                    if name != out.left_geom
                ] + [
                    f"{join.table}_{name}"
                    for name in right_schema.names
                    if name != out.right_geom
                ]

        if select.where is not None:
            self._bind_where(select.where, scope, out, left_schema)

        if select.nearest is not None:
            self._bind_nearest(select, scope, out)

        self._bind_projection(select, scope, out)
        self._bind_order(select, scope, out)
        return out

    # -- join ------------------------------------------------------------

    def _bind_overlaps(
        self, on: A.Overlaps, scope: _Scope, left: str, right: str
    ) -> Tuple[str, str]:
        sides: Dict[str, str] = {}
        for ref in (on.left, on.right):
            name, domain, table = scope.resolve(ref)
            if domain is not SPATIAL_OBJECT:
                raise BindError(
                    f"OVERLAPS needs spatial-object columns; "
                    f"{ref.name!r} is {domain.name}",
                    ref.pos,
                )
            if table in sides:
                raise BindError(
                    f"OVERLAPS needs one column from each table; both "
                    f"name {table!r}",
                    ref.pos,
                )
            sides[table] = ref.name
        return sides[left], sides[right]

    def _bind_within_join(
        self, on: A.Within, scope: _Scope, left: str, right: str
    ) -> Tuple[float, Tuple[str, ...], Tuple[str, ...]]:
        if on.eps < 0:
            raise BindError("WITHIN radius must be non-negative", on.pos)
        sides: Dict[str, Tuple[str, ...]] = {}
        for point in (on.left, on.right):
            if not isinstance(point, A.PointRef):
                raise BindError(
                    "JOIN ... ON WITHIN needs column POINTs on both "
                    "sides",
                    point.pos,
                )
            names, tables = self._coord_columns(point, scope)
            if len(tables) != 1:
                raise BindError(
                    "a WITHIN join POINT must name columns of a single "
                    "table",
                    point.pos,
                )
            table = next(iter(tables))
            if table in sides:
                raise BindError(
                    f"WITHIN join needs one POINT from each table; "
                    f"both name {table!r}",
                    point.pos,
                )
            # Base (unqualified) names: the join executes against each
            # table's own relation.
            sides[table] = tuple(ref.name for ref in point.columns)
        if left not in sides or right not in sides:
            raise BindError(
                "WITHIN join needs one POINT from each joined table",
                on.pos,
            )
        return float(on.eps), sides[left], sides[right]

    def _coord_columns(
        self, point: A.PointRef, scope: _Scope
    ) -> Tuple[Tuple[str, ...], set]:
        """Resolve a coordinate POINT: ndims INTEGER columns.  Returns
        (resolved names, owning tables)."""
        ndims = self.grid.ndims
        if len(point.columns) != ndims:
            raise BindError(
                f"POINT needs {ndims} coordinate column(s) for this "
                f"{ndims}-d grid, got {len(point.columns)}",
                point.pos,
            )
        names = []
        tables = set()
        for ref in point.columns:
            name, domain, table = scope.resolve(ref)
            if domain is not INTEGER:
                raise BindError(
                    f"coordinate column {ref.name!r} must be INTEGER, "
                    f"is {domain.name}",
                    ref.pos,
                )
            names.append(name)
            tables.add(table)
        return tuple(names), tables

    def _center_point(self, point: A.PointLit) -> Tuple[int, ...]:
        """Validate a literal center: ndims integer coordinates inside
        the grid."""
        ndims = self.grid.ndims
        if len(point.coords) != ndims:
            raise BindError(
                f"POINT needs {ndims} coordinate(s) for this "
                f"{ndims}-d grid, got {len(point.coords)}",
                point.pos,
            )
        side = 2**self.grid.depth
        coords = []
        for value in point.coords:
            if isinstance(value, float):
                raise BindError(
                    "POINT coordinates must be integers on this "
                    "integer grid",
                    point.pos,
                )
            if not 0 <= value < side:
                raise BindError(
                    f"POINT coordinate {value} outside the grid "
                    f"[0, {side})",
                    point.pos,
                )
            coords.append(int(value))
        return tuple(coords)

    def _bind_nearest(
        self, select: A.Select, scope: _Scope, out: BoundQuery
    ) -> None:
        near = select.nearest
        if out.join_table is not None:
            raise BindError(
                "NEAREST applies to single-table queries", near.pos
            )
        center = self._center_point(near.center)
        names, _ = self._coord_columns(near.by, scope)
        out.nearest = (near.k, center, names)

    # -- WHERE -----------------------------------------------------------

    def _bind_where(
        self,
        where: A.Node,
        scope: _Scope,
        out: BoundQuery,
        left_schema: Schema,
    ) -> None:
        for position, term in enumerate(_conjuncts_of(where)):
            name, term_scope, table = self._placement(
                term, scope, out, left_schema
            )
            conjunct = self._bind_conjunct(term, term_scope, position, table)
            getattr(out, name).append(conjunct)
            self.sites.append(
                (name, position, term_scope, table, conjunct.cost)
            )

    def _placement(
        self,
        term: A.Node,
        scope: _Scope,
        out: BoundQuery,
        left_schema: Schema,
    ) -> Tuple[str, _Scope, Optional[str]]:
        """Where a WHERE term binds: ``(BoundQuery list, scope, table)``."""
        if out.join_table is None:
            return "conjuncts", scope, out.table
        tables = self._tables_of(term, scope)
        if tables <= {out.table}:
            # Touches only the left side: push below the join, bound
            # against the base (unqualified) schema.
            return (
                "left_push",
                _Scope([(out.table, left_schema, "")]),
                out.table,
            )
        if tables <= {out.join_table}:
            right_schema = self._relation(out.join_table, 0).schema
            return (
                "right_push",
                _Scope([(out.join_table, right_schema, "")]),
                out.join_table,
            )
        return "conjuncts", scope, None

    def _tables_of(self, node: A.Node, scope: _Scope) -> set:
        tables = set()
        for ref in _column_refs(node):
            tables.add(scope.resolve(ref)[2])
        return tables

    def _bind_conjunct(
        self,
        term: A.Node,
        scope: _Scope,
        position: int,
        table: Optional[str],
        cost: Optional[float] = None,
    ) -> Conjunct:
        """Bind one WHERE term; ``cost`` is its node count when already
        known (it depends on the term's shape only)."""
        expr, domain = self._lower(term, scope)
        if domain is not BOOLEAN:
            raise BindError(
                f"WHERE conjunct must be boolean, not {domain.name}",
                term.pos,
            )
        conjunct = Conjunct(
            kind="residual",
            text=render_expr(term),
            predicate=expr,
            written_pos=position,
            cost=float(_node_count(term)) if cost is None else cost,
        )
        self._classify(term, scope, conjunct)
        return conjunct

    def _classify(
        self, term: A.Node, scope: _Scope, conjunct: Conjunct
    ) -> None:
        """Refine ``conjunct.kind`` from "residual" when the term is
        sargable; fills the planner's estimation fields."""
        if isinstance(term, A.Contains):
            names = tuple(
                scope.resolve(ref)[0] for ref in term.point.columns
            )
            conjunct.kind = "z-window"
            conjunct.coord_cols = names
            conjunct.box = Box(
                tuple(
                    (int(lo), int(hi)) for lo, hi in term.box.ranges
                )
            )
            return
        if isinstance(term, A.Within):
            point, center_lit = self._within_sides(term)
            names = tuple(
                scope.resolve(ref)[0] for ref in point.columns
            )
            center = self._center_point(center_lit)
            reach = math.ceil(term.eps)
            conjunct.kind = "eps-window"
            conjunct.coord_cols = names
            conjunct.eps = float(term.eps)
            conjunct.box = Box(
                tuple((v - reach, v + reach) for v in center)
            )
            return
        if isinstance(term, A.Between):
            column = self._bare_numeric_column(term.expr, scope)
            low = _literal_number(term.low)
            high = _literal_number(term.high)
            if column is not None and low is not None and high is not None:
                conjunct.kind = "attr-range"
                conjunct.column = column
                conjunct.low = low
                conjunct.high = high
            return
        if isinstance(term, A.Compare) and term.op != "!=":
            column = self._bare_numeric_column(term.left, scope)
            value = _literal_number(term.right)
            op = term.op
            if column is None:
                # literal <op> column — flip the comparison around.
                column = self._bare_numeric_column(term.right, scope)
                value = _literal_number(term.left)
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
            if column is None or value is None:
                return
            conjunct.kind = "attr-range"
            conjunct.column = column
            if op == "=":
                conjunct.low = conjunct.high = value
            elif op in ("<", "<="):
                conjunct.high = value
            else:
                conjunct.low = value

    def _bare_numeric_column(
        self, node: A.Node, scope: _Scope
    ) -> Optional[str]:
        if not isinstance(node, A.ColumnRef):
            return None
        name, domain, _ = scope.resolve(node)
        return name if _is_numeric(domain) else None

    # -- expression lowering ---------------------------------------------

    def _lower(self, node: A.Node, scope: _Scope) -> Tuple[Expr, Domain]:
        if isinstance(node, A.ColumnRef):
            name, domain, _ = scope.resolve(node)
            return col(name), domain
        if isinstance(node, A.IntLit):
            return lit(node.value), INTEGER
        if isinstance(node, A.FloatLit):
            return lit(node.value), FLOAT
        if isinstance(node, A.StringLit):
            return lit(node.value), STRING
        if isinstance(node, A.Neg):
            inner, domain = self._lower(node.operand, scope)
            if not _is_numeric(domain):
                raise BindError(
                    f"unary minus needs a number, not {domain.name}",
                    node.pos,
                )
            return lit(0) - inner, domain
        if isinstance(node, A.Arith):
            left, ldom = self._lower(node.left, scope)
            right, rdom = self._lower(node.right, scope)
            if not (_is_numeric(ldom) and _is_numeric(rdom)):
                raise BindError(
                    f"arithmetic {node.op!r} needs numbers, got "
                    f"{ldom.name} and {rdom.name}",
                    node.pos,
                )
            out = FLOAT if FLOAT in (ldom, rdom) else INTEGER
            if node.op == "+":
                return left + right, out
            if node.op == "-":
                return left - right, out
            return left * right, out
        if isinstance(node, A.Compare):
            left, ldom = self._lower(node.left, scope)
            right, rdom = self._lower(node.right, scope)
            self._check_comparable(node, ldom, rdom)
            ops = {
                "=": lambda a, b: a == b,
                "!=": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }
            return ops[node.op](left, right), BOOLEAN
        if isinstance(node, A.Between):
            expr, edom = self._lower(node.expr, scope)
            low, ldom = self._lower(node.low, scope)
            high, hdom = self._lower(node.high, scope)
            for bound_dom in (ldom, hdom):
                self._check_comparable(node, edom, bound_dom)
            return expr.between(low, high), BOOLEAN
        if isinstance(node, A.Contains):
            return self._lower_contains(node, scope), BOOLEAN
        if isinstance(node, A.Within):
            return self._lower_within(node, scope), BOOLEAN
        if isinstance(node, A.Not):
            inner, domain = self._lower(node.operand, scope)
            if domain is not BOOLEAN:
                raise BindError(
                    f"NOT needs a boolean, not {domain.name}", node.pos
                )
            return ~inner, BOOLEAN
        if isinstance(node, (A.And, A.Or)):
            left, ldom = self._lower(node.left, scope)
            right, rdom = self._lower(node.right, scope)
            for domain in (ldom, rdom):
                if domain is not BOOLEAN:
                    raise BindError(
                        f"{'AND' if isinstance(node, A.And) else 'OR'} "
                        f"needs booleans, not {domain.name}",
                        node.pos,
                    )
            if isinstance(node, A.And):
                return left & right, BOOLEAN
            return left | right, BOOLEAN
        raise BindError(
            f"cannot use {type(node).__name__} in this context", node.pos
        )

    def _check_comparable(
        self, node: A.Node, left: Domain, right: Domain
    ) -> None:
        if _is_numeric(left) and _is_numeric(right):
            return
        if _is_stringlike(left) and _is_stringlike(right):
            return
        if left is BOOLEAN and right is BOOLEAN:
            return
        raise BindError(
            f"cannot compare {left.name} with {right.name}", node.pos
        )

    def _lower_contains(self, node: A.Contains, scope: _Scope) -> Expr:
        ndims = self.grid.ndims
        if len(node.point.columns) != ndims:
            raise BindError(
                f"POINT needs {ndims} coordinate column(s) for this "
                f"{ndims}-d grid, got {len(node.point.columns)}",
                node.point.pos,
            )
        if len(node.box.ranges) != ndims:
            raise BindError(
                f"BOX needs {ndims} (lo, hi) pair(s) for this "
                f"{ndims}-d grid, got {len(node.box.ranges)}",
                node.box.pos,
            )
        names = []
        for ref in node.point.columns:
            name, domain, _ = scope.resolve(ref)
            if domain is not INTEGER:
                raise BindError(
                    f"coordinate column {ref.name!r} must be INTEGER, "
                    f"is {domain.name}",
                    ref.pos,
                )
            names.append(name)
        for lo, hi in node.box.ranges:
            if isinstance(lo, float) or isinstance(hi, float):
                raise BindError(
                    "BOX bounds must be integers on this integer grid",
                    node.box.pos,
                )
        box = Box(tuple((int(lo), int(hi)) for lo, hi in node.box.ranges))
        return box_contains_point(box, names)

    def _within_sides(
        self, node: A.Within
    ) -> Tuple[A.PointRef, A.PointLit]:
        """Normalize a WHERE-clause WITHIN to (column point, literal
        center), whichever way it was written."""
        if isinstance(node.left, A.PointRef) and isinstance(
            node.right, A.PointLit
        ):
            return node.left, node.right
        if isinstance(node.left, A.PointLit) and isinstance(
            node.right, A.PointRef
        ):
            return node.right, node.left
        raise BindError(
            "WITHIN in WHERE needs a column POINT and a literal POINT "
            "(two-table WITHIN belongs in JOIN ... ON)",
            node.pos,
        )

    def _lower_within(self, node: A.Within, scope: _Scope) -> Expr:
        if node.eps < 0:
            raise BindError("WITHIN radius must be non-negative", node.pos)
        point, center_lit = self._within_sides(node)
        names, _ = self._coord_columns(point, scope)
        center = self._center_point(center_lit)
        return point_within(names, center, float(node.eps))

    # -- projection / order ----------------------------------------------

    def _bind_projection(
        self, select: A.Select, scope: _Scope, out: BoundQuery
    ) -> None:
        if select.columns is None:
            return
        names = []
        for ref in select.columns:
            name, domain, _ = scope.resolve(ref)
            if name not in out.output_names:
                raise BindError(
                    f"column {ref.name!r} is consumed by the spatial "
                    "join and cannot be selected",
                    ref.pos,
                )
            if name in names:
                raise BindError(
                    f"duplicate column {ref.name!r} in SELECT list",
                    ref.pos,
                )
            names.append(name)
        out.projection = names

    def _bind_order(
        self, select: A.Select, scope: _Scope, out: BoundQuery
    ) -> None:
        if select.order is None:
            return
        visible = (
            out.projection
            if out.projection is not None
            else out.output_names
        )
        names = []
        for ref in select.order.columns:
            name, _, _ = scope.resolve(ref)
            if name not in visible:
                raise BindError(
                    f"ORDER BY column {ref.name!r} must appear in the "
                    "SELECT list",
                    ref.pos,
                )
            names.append(name)
        out.order = (names, select.order.descending)


def _conjuncts_of(node: A.Node):
    """Top-level AND terms, in written order."""
    if isinstance(node, A.And):
        yield from _conjuncts_of(node.left)
        yield from _conjuncts_of(node.right)
    else:
        yield node


def _column_refs(node: A.Node):
    if isinstance(node, A.ColumnRef):
        yield node
        return
    for child in _children(node):
        yield from _column_refs(child)


def _literal_number(node: A.Node) -> Optional[float]:
    if isinstance(node, (A.IntLit, A.FloatLit)):
        return node.value
    if isinstance(node, A.Neg) and isinstance(
        node.operand, (A.IntLit, A.FloatLit)
    ):
        return -node.operand.value
    return None


def bind(database, statement: A.Statement, source: str = "") -> BoundQuery:
    """Bind a parsed statement against ``database``'s catalog; raises
    :class:`BindError` (with position) on any name or type problem."""
    return _Binder(database, statement, source).bind()


class BoundShape:
    """What binding one statement learnt that holds for every statement
    with its tokens but other literals: the tables, the resolved and
    type-checked names, projection, order, and each WHERE term's list,
    scope, kind and cost.

    :meth:`instantiate` binds another statement of the shape by
    re-running only the steps that read a literal's value: each WHERE
    term is lowered, rendered and classified afresh (its predicate,
    text, box and bounds), and the NEAREST center, ``k``, the join's
    eps and the LIMIT are read from the new tree.  Every
    :class:`~repro.db.planner.Conjunct` it returns is new, so no plan's
    ``selectivity`` or ``estimated_rows`` carries over.  A literal the
    binder refuses (a POINT outside the grid) raises
    :class:`BindError`, as :func:`bind` would.
    """

    def __init__(self, binder: _Binder, bound: BoundQuery) -> None:
        self._binder = binder
        self._bound = bound

    def instantiate(self, statement: A.Statement, source: str) -> BoundQuery:
        binder, shape = self._binder, self._bound
        select = statement.select
        out = BoundQuery(
            source=source,
            mode=statement.mode,
            table=shape.table,
            join_table=shape.join_table,
            join_kind=shape.join_kind,
            left_geom=shape.left_geom,
            right_geom=shape.right_geom,
            left_coords=shape.left_coords,
            right_coords=shape.right_coords,
            projection=(
                None if shape.projection is None else list(shape.projection)
            ),
            distinct=shape.distinct,
            order=(
                None
                if shape.order is None
                else (list(shape.order[0]), shape.order[1])
            ),
            limit=select.limit,
            output_names=list(shape.output_names),
        )
        if shape.eps is not None:
            out.eps = float(select.join.on.eps)
        if binder.sites:
            terms = list(_conjuncts_of(select.where))
            for name, position, scope, table, cost in binder.sites:
                getattr(out, name).append(
                    binder._bind_conjunct(
                        terms[position], scope, position, table, cost
                    )
                )
        if shape.nearest is not None:
            near = select.nearest
            out.nearest = (
                near.k,
                binder._center_point(near.center),
                shape.nearest[2],
            )
        return out


def bind_shape(
    database, statement: A.Statement, source: str = ""
) -> Tuple[BoundQuery, BoundShape]:
    """:func:`bind`, plus the :class:`BoundShape` that binds the other
    statements of ``statement``'s shape."""
    binder = _Binder(database, statement, source)
    bound = binder.bind()
    # The shape is kept in the database's catalog; re-binding reads
    # only the grid and the scopes, and a reference back to the
    # database would tie it into a cycle only the cyclic collector
    # frees (with the file stores its indexes hold).
    binder.db = None
    return bound, BoundShape(binder, bound)
