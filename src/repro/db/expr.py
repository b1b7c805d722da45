"""Predicate and scalar expressions for the query operators.

A tiny expression language over rows: column references, literals,
comparisons, boolean connectives, and the element-domain predicates
``precedes`` and ``contains`` (Section 4).

An expression is compiled against a schema once per statement: each
node emits a Python source fragment over ``row``, with column names
resolved to integer indices and every literal or opaque callable
(``contains``, ``precedes``) bound by name as a constant ``k0, k1, ...``
of the eval namespace, so no value is ever formatted into the source.
``bind`` wraps the fragment as ``lambda row: ...``; ``filter`` as one
list comprehension ``lambda rows: [row for row in rows if ...]``, so a
filter costs one generated loop rather than a Python call per node per
row.  Compiled code is cached by its source text: statements that
differ only in their literals share one code object.

``&``, ``|`` and ``~`` return exact ``bool`` values.  ``&`` and ``|``
short-circuit: the right operand is not evaluated when the left one
decides the result.  The binder type-checks comparisons and there are
no NULLs, so no row of a SQL statement can observe the order.

>>> from repro.db.schema import Schema
>>> from repro.db.types import INTEGER
>>> schema = Schema.of(("x", INTEGER), ("y", INTEGER))
>>> predicate = (col("x") >= lit(2)) & (col("y") < col("x"))
>>> bound = predicate.bind(schema)
>>> bound((3, 1)), bound((3, 5))
(True, False)
>>> predicate.filter(schema)([(3, 1), (3, 5), (1, 0)])
[(3, 1)]
"""

from __future__ import annotations

import functools
import operator
from types import CodeType
from typing import Any, Callable, Iterable, List, Sequence, Tuple

from repro.core.geometry import Box
from repro.core.zvalue import ZValue
from repro.db.schema import Schema

__all__ = [
    "Expr",
    "col",
    "lit",
    "box_contains_point",
    "point_within",
    "element_contains",
    "element_precedes",
    "projection",
]

Row = Tuple[Any, ...]
BoundExpr = Callable[[Row], Any]
RowsFn = Callable[[Iterable[Row]], List[Row]]


def _and(a: Any, b: Any) -> bool:
    return bool(a) and bool(b)


def _or(a: Any, b: Any) -> bool:
    return bool(a) or bool(b)


def _not(a: Any) -> bool:
    return not a


_INFIX = {
    operator.eq: "==",
    operator.ne: "!=",
    operator.lt: "<",
    operator.le: "<=",
    operator.gt: ">",
    operator.ge: ">=",
    operator.add: "+",
    operator.sub: "-",
    operator.mul: "*",
}
_CONNECTIVE = {_and: "and", _or: "or"}


@functools.lru_cache(maxsize=256)
def _code(source: str) -> CodeType:
    return compile(source, "<repro.db.expr>", "eval")


def _function(source: str, consts: Sequence[Any]) -> Callable:
    """Evaluate the (cached) code of ``source`` with ``k<i>`` bound to
    ``consts[i]``."""
    return eval(_code(source), {f"k{i}": c for i, c in enumerate(consts)})


def _const(consts: List[Any], value: Any) -> str:
    consts.append(value)
    return f"k{len(consts) - 1}"


class Expr:
    """A deferred expression; ``bind``/``filter`` compile it against a
    schema."""

    def source(self, schema: Schema, consts: List[Any]) -> str:
        """This node's Python expression over ``row``, appending the
        values it names to ``consts``."""
        raise NotImplementedError

    def bind(self, schema: Schema) -> BoundExpr:
        """``row -> value``."""
        consts: List[Any] = []
        return _function("lambda row: " + self.source(schema, consts), consts)

    def filter(self, schema: Schema) -> RowsFn:
        """``rows -> [row for row in rows if self(row)]``."""
        consts: List[Any] = []
        body = self.source(schema, consts)
        return _function(
            f"lambda rows: [row for row in rows if {body}]", consts
        )

    # -- comparisons ----------------------------------------------------

    def _compare(self, other: "Expr", op: Callable[[Any, Any], bool]) -> "Expr":
        other = _as_expr(other)
        return _Binary(self, other, op)

    def __eq__(self, other):  # type: ignore[override]
        return self._compare(other, operator.eq)

    def __ne__(self, other):  # type: ignore[override]
        return self._compare(other, operator.ne)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return _Binary(self, _as_expr(other), operator.add)

    def __sub__(self, other):
        return _Binary(self, _as_expr(other), operator.sub)

    def __mul__(self, other):
        return _Binary(self, _as_expr(other), operator.mul)

    # -- boolean connectives ----------------------------------------------

    def __and__(self, other):
        return _Binary(self, _as_expr(other), _and)

    def __or__(self, other):
        return _Binary(self, _as_expr(other), _or)

    def __invert__(self):
        return _Unary(self, _not)

    def between(self, low: Any, high: Any) -> "Expr":
        """Inclusive range predicate — one conjunct of a range query."""
        return (self >= _as_expr(low)) & (self <= _as_expr(high))


class _Col(Expr):
    def __init__(self, name: str) -> None:
        self.name = name

    def source(self, schema: Schema, consts: List[Any]) -> str:
        return f"row[{schema.index_of(self.name)}]"

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class _Lit(Expr):
    def __init__(self, value: Any) -> None:
        self.value = value

    def source(self, schema: Schema, consts: List[Any]) -> str:
        return _const(consts, self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class _Binary(Expr):
    def __init__(self, left: Expr, right: Expr, op: Callable[[Any, Any], Any]) -> None:
        self.left = left
        self.right = right
        self.op = op

    def source(self, schema: Schema, consts: List[Any]) -> str:
        opaque = self.op not in _INFIX and self.op not in _CONNECTIVE
        name = _const(consts, self.op) if opaque else ""
        left = self.left.source(schema, consts)
        right = self.right.source(schema, consts)
        if opaque:
            return f"{name}({left}, {right})"
        if self.op in _INFIX:
            return f"({left} {_INFIX[self.op]} {right})"
        return f"(not not ({left} {_CONNECTIVE[self.op]} {right}))"


class _Unary(Expr):
    def __init__(self, inner: Expr, op: Callable[[Any], Any]) -> None:
        self.inner = inner
        self.op = op

    def source(self, schema: Schema, consts: List[Any]) -> str:
        if self.op is _not:
            return f"(not {self.inner.source(schema, consts)})"
        op = _const(consts, self.op)
        return f"{op}({self.inner.source(schema, consts)})"


def col(name: str) -> Expr:
    """Reference a column by name."""
    return _Col(name)


def lit(value: Any) -> Expr:
    """A literal constant."""
    return _Lit(value)


def _as_expr(value: Any) -> Expr:
    return value if isinstance(value, Expr) else _Lit(value)


def projection(indices: Sequence[int]) -> RowsFn:
    """``rows -> [(row[i], ...) for row in rows]`` over ``indices`` —
    a tuple per row, also for one column."""
    items = "".join(f"row[{i}], " for i in indices)
    return _function(f"lambda rows: [({items}) for row in rows]", ())


class _BoxContains(Expr):
    """``box CONTAINS POINT(coord_cols)`` as a row predicate — the
    filter form of a spatial window (used when a query carries more
    windows than the one driving the access path).  Emits
    ``lo <= row[i] <= hi`` per axis, as ``Box.contains_point`` tests."""

    def __init__(self, box: Box, coord_cols: Sequence[str]) -> None:
        self.box = box
        self.coord_cols = tuple(coord_cols)

    def source(self, schema: Schema, consts: List[Any]) -> str:
        indices = [schema.index_of(name) for name in self.coord_cols]
        if len(indices) != self.box.ndims:
            return "False"
        tests = [
            f"{_const(consts, lo)} <= row[{i}] <= {_const(consts, hi)}"
            for i, (lo, hi) in zip(indices, self.box.ranges)
        ]
        return "(" + (" and ".join(tests) or "True") + ")"

    def __repr__(self) -> str:
        return f"box_contains_point({self.box!r}, {self.coord_cols!r})"


def box_contains_point(box: Box, coord_cols: Sequence[str]) -> Expr:
    """Predicate: the row's ``coord_cols`` point lies inside ``box``."""
    return _BoxContains(box, coord_cols)


class _PointWithin(Expr):
    """``POINT(coord_cols) WITHIN eps OF center`` as a row predicate —
    the exact Euclidean ball test, used both as the eps-refine filter
    behind an eps-window access path and as a plain filter when the
    window loses the access slot.  The squared distance is summed left
    to right, as ``sum`` would, so results are bit-identical to it."""

    def __init__(
        self,
        coord_cols: Sequence[str],
        center: Sequence[float],
        radius: float,
    ) -> None:
        self.coord_cols = tuple(coord_cols)
        self.center = tuple(center)
        self.radius = radius

    def source(self, schema: Schema, consts: List[Any]) -> str:
        indices = [schema.index_of(name) for name in self.coord_cols]
        terms = [
            f"(row[{i}] - {_const(consts, c)}) ** 2"
            for i, c in zip(indices, self.center)
        ]
        limit = _const(consts, self.radius * self.radius)
        return f"({' + '.join(terms) or '0'} <= {limit})"

    def __repr__(self) -> str:
        return (
            f"point_within({self.coord_cols!r}, {self.center!r}, "
            f"{self.radius!r})"
        )


def point_within(
    coord_cols: Sequence[str],
    center: Sequence[float],
    radius: float,
) -> Expr:
    """Predicate: the row's ``coord_cols`` point lies within Euclidean
    distance ``radius`` of ``center``."""
    return _PointWithin(coord_cols, center, radius)


def element_contains(e1: Any, e2: Any) -> Expr:
    """``contains(e1, e2)`` on element-valued expressions."""

    def op(a: ZValue, b: ZValue) -> bool:
        return a.contains(b)

    return _Binary(_as_expr(e1), _as_expr(e2), op)


def element_precedes(e1: Any, e2: Any) -> Expr:
    """``precedes(e1, e2)`` on element-valued expressions."""

    def op(a: ZValue, b: ZValue) -> bool:
        return a.precedes(b)

    return _Binary(_as_expr(e1), _as_expr(e2), op)
