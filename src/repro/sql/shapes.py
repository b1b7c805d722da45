"""Parse and bind once per statement shape.

Statements that differ only in their literals — the ledger's
``v BETWEEN a AND b`` with fresh integers, the server's wire SQL — share
one *shape*: the token sequence with each literal replaced by its kind
(:func:`repro.sql.lexer.shape`).  The first statement of a shape is
parsed and bound as usual, and :class:`ShapeTemplate` keeps its tree
and its :class:`~repro.sql.binder.BoundShape` in the catalog's
:class:`~repro.db.catalog.StatementCache`.  Any later statement of the
shape skips the parser and the name and type checks: its literals are
substituted into the tree and the binder steps that read a literal
re-run.  Nothing is planned here; plans depend on literals.

A literal the parser or binder would refuse (``BOX(5, 1, ...)``, a
POINT outside the grid) makes the statement compile uncached, so its
error carries the message and offset of the full front end.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.sql.ast import Statement, with_literals
from repro.sql.binder import BoundQuery, BoundShape, bind_shape
from repro.sql.compiler import CompiledQuery
from repro.sql.errors import SqlError
from repro.sql.lexer import shape
from repro.sql.parser import parse

__all__ = ["ShapeTemplate", "compile_cached"]


class ShapeTemplate:
    """One shape's parsed tree and binding, and which of its literals
    a ``-`` folds into (a number inside ``BOX(...)`` or ``POINT(...)``;
    elsewhere ``-`` stays its own node)."""

    def __init__(
        self, key: Tuple[str, ...], statement: Statement, bound: BoundShape
    ) -> None:
        self.statement = statement
        self.bound = bound
        self.negated = _negated(key)

    def instantiate(
        self, values: Sequence[Any], source: str
    ) -> Tuple[Statement, BoundQuery]:
        """The tree and binding of ``source``, whose literals are
        ``values``; raises :class:`SqlError` where the parser or binder
        would refuse them."""
        statement = with_literals(
            self.statement,
            [-v if neg else v for v, neg in zip(values, self.negated)],
        )
        return statement, self.bound.instantiate(statement, source)


def _negated(key: Tuple[str, ...]) -> List[bool]:
    """Per literal of ``key``: is it a number in a BOX or POINT literal
    list right after a ``-`` (which the parser folds into its value)?"""
    negated: List[bool] = []
    in_list = False
    for at, item in enumerate(key):
        if item == "(" and at and key[at - 1] in ("BOX", "POINT"):
            in_list = True
        elif item == ")":
            in_list = False
        elif item in ("#int", "#float", "#string"):
            negated.append(in_list and key[at - 1] == "-")
    return negated


def compile_cached(database, text: str, reorder: bool) -> CompiledQuery:
    """parse + bind of ``text`` through the shape cache of
    ``database.catalog``, as a :class:`CompiledQuery` (planned on
    use)."""
    cache = database.catalog.statements
    found = shape(text)
    if found is not None:
        key, values = found
        template = cache.get(key)
        if template is not None:
            try:
                statement, bound = template.instantiate(values, text)
            except SqlError:
                pass  # compile uncached: the full front end's error
            else:
                return CompiledQuery(database, statement, bound, reorder)
    generation = cache.generation
    statement = parse(text)
    bound, bound_shape = bind_shape(database, statement, text)
    if found is not None:
        cache.put(key, ShapeTemplate(key, statement, bound_shape), generation)
    return CompiledQuery(database, statement, bound, reorder)
