"""The typed AST of the query language, plus its canonical renderer.

Every node is a frozen dataclass carrying a ``pos`` (source offset,
excluded from equality so a re-parse of rendered text compares equal to
the original tree).  :func:`render` emits the canonical spelling —
upper-case keywords, single spaces, minimal parentheses — and is the
normal form of the Hypothesis round-trip suite:
``parse(render(tree)) == tree`` for every valid tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.sql.errors import ParseError

__all__ = [
    "Node",
    "ColumnRef",
    "IntLit",
    "FloatLit",
    "StringLit",
    "BoxLit",
    "PointRef",
    "PointLit",
    "Arith",
    "Neg",
    "Compare",
    "Between",
    "Contains",
    "Within",
    "Not",
    "And",
    "Or",
    "Overlaps",
    "Join",
    "OrderBy",
    "Nearest",
    "Select",
    "Statement",
    "render",
    "render_expr",
    "with_literals",
]


@dataclass(frozen=True)
class Node:
    """Common base: the source offset, ignored by equality."""

    pos: int = field(default=0, compare=False, kw_only=True)


# -- scalar expressions -------------------------------------------------


@dataclass(frozen=True)
class ColumnRef(Node):
    """``name`` or ``table.name``."""

    table: Optional[str]
    name: str


@dataclass(frozen=True)
class IntLit(Node):
    value: int


@dataclass(frozen=True)
class FloatLit(Node):
    value: float


@dataclass(frozen=True)
class StringLit(Node):
    value: str


@dataclass(frozen=True)
class BoxLit(Node):
    """``BOX(lo, hi, lo, hi, ...)`` — one (lo, hi) pair per axis."""

    ranges: Tuple[Tuple[Union[int, float], Union[int, float]], ...]


@dataclass(frozen=True)
class PointRef(Node):
    """``POINT(x, y, ...)`` — coordinate columns, one per axis."""

    columns: Tuple[ColumnRef, ...]


@dataclass(frozen=True)
class PointLit(Node):
    """``POINT(3, 40, ...)`` — numeric literal coordinates, one per
    axis (a fixed location, e.g. the center of a proximity query)."""

    coords: Tuple[Union[int, float], ...]


@dataclass(frozen=True)
class Arith(Node):
    """``left op right`` with op one of ``+ - *``."""

    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


# -- predicates ---------------------------------------------------------


@dataclass(frozen=True)
class Compare(Node):
    """``left op right`` with op one of ``= != < <= > >=``."""

    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Between(Node):
    """``expr BETWEEN low AND high`` (inclusive both ends)."""

    expr: Node
    low: Node
    high: Node


@dataclass(frozen=True)
class Contains(Node):
    """``BOX(...) CONTAINS POINT(...)`` — the spatial window."""

    box: BoxLit
    point: PointRef


@dataclass(frozen=True)
class Within(Node):
    """``left WITHIN eps OF right`` — the Euclidean-ball predicate.

    As a WHERE conjunct ``left`` is a :class:`PointRef` (the row's
    coordinates) and ``right`` a :class:`PointLit` (the fixed center);
    as a ``JOIN ... ON`` condition both sides are column points, one
    per table (the epsilon join).
    """

    left: Union[PointRef, PointLit]
    eps: Union[int, float]
    right: Union[PointRef, PointLit]


@dataclass(frozen=True)
class Not(Node):
    operand: Node


@dataclass(frozen=True)
class And(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Or(Node):
    left: Node
    right: Node


# -- statement structure ------------------------------------------------


@dataclass(frozen=True)
class Overlaps(Node):
    """``OVERLAPS(p.geom, q.geom)`` — the spatial-join condition."""

    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class Join(Node):
    table: str
    on: Union[Overlaps, Within]


@dataclass(frozen=True)
class OrderBy(Node):
    columns: Tuple[ColumnRef, ...]
    descending: bool = False
    explicit_direction: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Nearest(Node):
    """``NEAREST k TO POINT(lits) BY POINT(cols)`` — the k-NN clause:
    keep only the ``k`` rows whose ``by`` point is nearest ``center``
    (ties broken by z code, then the LIMIT/ORDER tail applies)."""

    k: int
    center: PointLit
    by: PointRef


@dataclass(frozen=True)
class Select(Node):
    """One SELECT statement; ``columns`` is ``None`` for ``*``."""

    columns: Optional[Tuple[ColumnRef, ...]]
    table: str
    distinct: bool = False
    join: Optional[Join] = None
    where: Optional[Node] = None
    order: Optional[OrderBy] = None
    limit: Optional[int] = None
    nearest: Optional[Nearest] = None


@dataclass(frozen=True)
class Statement(Node):
    """A SELECT with an optional EXPLAIN prefix (``mode`` is ``None``,
    ``"explain"``, or ``"analyze"``)."""

    select: Select
    mode: Optional[str] = None


# -- rendering ----------------------------------------------------------

#: Precedence levels for minimal-parenthesis rendering; higher binds
#: tighter.  Comparisons are non-associative (level 4 on both sides).
_PREC = {
    Or: 1,
    And: 2,
    Not: 3,
    Compare: 4,
    Between: 4,
    Contains: 4,
    Within: 4,
    Arith: 0,  # refined per op below
    Neg: 7,
}
_ARITH_PREC = {"+": 5, "-": 5, "*": 6}


def _prec(node: Node) -> int:
    if isinstance(node, Arith):
        return _ARITH_PREC[node.op]
    return _PREC.get(type(node), 8)


def _num(value: Union[int, float]) -> str:
    return repr(value)


def _wrap(node: Node, parent_prec: int, right_side: bool = False) -> str:
    """Render ``node``, parenthesized when its precedence requires it
    under a parent of ``parent_prec`` (left-associative operators need
    parens around an equal-precedence *right* child)."""
    text = render_expr(node)
    prec = _prec(node)
    if prec < parent_prec or (right_side and prec == parent_prec):
        return f"({text})"
    return text


def render_expr(node: Node) -> str:
    """Canonical text of an expression/predicate subtree."""
    if isinstance(node, ColumnRef):
        return f"{node.table}.{node.name}" if node.table else node.name
    if isinstance(node, (IntLit, FloatLit)):
        return _num(node.value)
    if isinstance(node, StringLit):
        return "'" + node.value.replace("'", "''") + "'"
    if isinstance(node, BoxLit):
        flat = ", ".join(
            f"{_num(lo)}, {_num(hi)}" for lo, hi in node.ranges
        )
        return f"BOX({flat})"
    if isinstance(node, PointRef):
        return f"POINT({', '.join(render_expr(c) for c in node.columns)})"
    if isinstance(node, PointLit):
        return f"POINT({', '.join(_num(c) for c in node.coords)})"
    if isinstance(node, Arith):
        prec = _ARITH_PREC[node.op]
        return (
            f"{_wrap(node.left, prec)} {node.op} "
            f"{_wrap(node.right, prec, right_side=True)}"
        )
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, 7)}"
    if isinstance(node, Compare):
        op = "!=" if node.op == "<>" else node.op
        return f"{_wrap(node.left, 5)} {op} {_wrap(node.right, 5)}"
    if isinstance(node, Between):
        return (
            f"{_wrap(node.expr, 5)} BETWEEN {_wrap(node.low, 5)} "
            f"AND {_wrap(node.high, 5)}"
        )
    if isinstance(node, Contains):
        return (
            f"{render_expr(node.box)} CONTAINS {render_expr(node.point)}"
        )
    if isinstance(node, Within):
        return (
            f"{render_expr(node.left)} WITHIN {_num(node.eps)} "
            f"OF {render_expr(node.right)}"
        )
    if isinstance(node, Not):
        return f"NOT {_wrap(node.operand, 4)}"
    if isinstance(node, And):
        return f"{_wrap(node.left, 2)} AND {_wrap(node.right, 2, True)}"
    if isinstance(node, Or):
        return f"{_wrap(node.left, 1)} OR {_wrap(node.right, 1, True)}"
    raise TypeError(f"cannot render {node!r}")


def render(statement: Union[Statement, Select]) -> str:
    """Canonical text of a whole statement — the language's normal form
    (``render(parse(q))`` normalizes any accepted spelling of ``q``)."""
    if isinstance(statement, Statement):
        prefix = {
            None: "",
            "explain": "EXPLAIN ",
            "analyze": "EXPLAIN ANALYZE ",
        }[statement.mode]
        return prefix + render(statement.select)
    sel = statement
    parts = ["SELECT"]
    if sel.distinct:
        parts.append("DISTINCT")
    if sel.columns is None:
        parts.append("*")
    else:
        parts.append(", ".join(render_expr(c) for c in sel.columns))
    parts.append(f"FROM {sel.table}")
    if sel.join is not None:
        on = sel.join.on
        if isinstance(on, Within):
            parts.append(
                f"JOIN {sel.join.table} ON {render_expr(on)}"
            )
        else:
            parts.append(
                f"JOIN {sel.join.table} ON OVERLAPS("
                f"{render_expr(on.left)}, {render_expr(on.right)})"
            )
    if sel.where is not None:
        parts.append(f"WHERE {render_expr(sel.where)}")
    if sel.nearest is not None:
        near = sel.nearest
        parts.append(
            f"NEAREST {near.k} TO {render_expr(near.center)} "
            f"BY {render_expr(near.by)}"
        )
    if sel.order is not None:
        cols = ", ".join(render_expr(c) for c in sel.order.columns)
        direction = " DESC" if sel.order.descending else ""
        parts.append(f"ORDER BY {cols}{direction}")
    if sel.limit is not None:
        parts.append(f"LIMIT {sel.limit}")
    return " ".join(parts)


# -- literal substitution -----------------------------------------------


def with_literals(statement: Statement, values) -> Statement:
    """``statement`` with its literal values replaced, in text order, by
    ``values`` — one per literal token, already negated where a ``-``
    folds into a BOX or POINT number.  Nodes without literals are
    shared; positions are the old tree's.  The parser's value rules
    hold again: a BOX axis with ``lo > hi`` or ``NEAREST 0`` raises
    :class:`~repro.sql.errors.ParseError` (at the old tree's offset),
    and leftover or missing values raise :class:`ValueError`."""
    remaining = iter(values)
    try:
        out = _substitute(statement, remaining.__next__)
    except StopIteration:
        raise ValueError("fewer values than literals") from None
    if next(remaining, remaining) is not remaining:
        raise ValueError("more values than literals")
    return out


def _with(node: Node, **fields) -> Node:
    """A copy of the frozen ``node`` with ``fields`` replaced — what
    :func:`dataclasses.replace` returns, without re-running
    ``__init__`` (the nodes validate nothing)."""
    copy = object.__new__(type(node))
    copy.__dict__.update(node.__dict__, **fields)
    return copy


def _substitute(node: Optional[Node], take) -> Optional[Node]:
    """Rebuild ``node`` with each literal value from ``take()``, in the
    order the parser read their tokens."""
    kind = type(node)
    if kind in (IntLit, FloatLit, StringLit):
        return _with(node, value=take())
    if node is None or kind in (ColumnRef, PointRef, Overlaps, OrderBy):
        return node
    if kind in (Arith, Compare, And, Or):
        left = _substitute(node.left, take)
        return _with(node, left=left, right=_substitute(node.right, take))
    if kind in (Neg, Not):
        return _with(node, operand=_substitute(node.operand, take))
    if kind is Between:
        expr = _substitute(node.expr, take)
        low = _substitute(node.low, take)
        return _with(node, expr=expr, low=low, high=_substitute(node.high, take))
    if kind is BoxLit:
        ranges = tuple((take(), take()) for _ in node.ranges)
        if any(lo > hi for lo, hi in ranges):
            raise ParseError("BOX axis: lo > hi", node.pos)
        return _with(node, ranges=ranges)
    if kind is PointLit:
        return _with(node, coords=tuple(take() for _ in node.coords))
    if kind is Contains:
        return _with(node, box=_substitute(node.box, take))
    if kind is Within:
        left = _substitute(node.left, take)
        eps = take()
        return _with(
            node, left=left, eps=eps, right=_substitute(node.right, take)
        )
    if kind is Join:
        return _with(node, on=_substitute(node.on, take))
    if kind is Nearest:
        k = take()
        if k < 1:
            raise ParseError("NEAREST needs a positive integer", node.pos)
        return _with(node, k=k, center=_substitute(node.center, take))
    if kind is Select:
        join = _substitute(node.join, take)
        where = _substitute(node.where, take)
        nearest = _substitute(node.nearest, take)
        limit = None if node.limit is None else take()
        return _with(
            node, join=join, where=where, nearest=nearest, limit=limit
        )
    if kind is Statement:
        return _with(node, select=_substitute(node.select, take))
    raise TypeError(f"cannot substitute into {node!r}")
