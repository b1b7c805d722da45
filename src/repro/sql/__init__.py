"""A declarative spatial query language over the repro.db operators.

The pipeline is classical::

    text --tokenize--> tokens --parse--> AST --bind--> BoundQuery
         --compile--> CompiledQuery --run--> Relation

with two typed, position-carrying error classes (:class:`ParseError`,
:class:`BindError`) and a cost-based multi-predicate planner underneath
(:mod:`repro.db.planner`).  The grammar (see docs/ALGORITHMS.md §18
and §20 for the proximity clauses)::

    SELECT [DISTINCT] cols | * FROM t
        [JOIN u ON OVERLAPS(t.geom, u.geom)
         | JOIN u ON POINT(t.x, t.y) WITHIN eps OF POINT(u.x, u.y)]
        [WHERE conjunct AND conjunct AND ...]
        [NEAREST k TO POINT(cx, cy) BY POINT(x, y)]
        [ORDER BY cols [ASC|DESC]] [LIMIT n]

where a WHERE conjunct may also be the ball predicate
``POINT(x, y) WITHIN eps OF POINT(cx, cy)``.

>>> from repro.core.geometry import Grid
>>> from repro.db import SpatialDatabase, Schema, OID, INTEGER
>>> db = SpatialDatabase(Grid(2, 6))
>>> _ = db.create_table("cities", Schema.of(
...     ("name@", OID), ("x", INTEGER), ("y", INTEGER)))
>>> db.insert_many("cities", [("rome", 10, 20), ("faro", 50, 50)])
>>> execute_sql(db,
...     "SELECT name@ FROM cities "
...     "WHERE BOX(0, 30, 0, 30) CONTAINS POINT(x, y)").rows
[('rome',)]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.sql.ast import Statement, render, render_expr
from repro.sql.binder import BoundQuery, bind as _bind
from repro.sql.compiler import CompiledQuery
from repro.sql.errors import BindError, ParseError, SqlError
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.sql.shapes import compile_cached

__all__ = [
    "SqlError",
    "ParseError",
    "BindError",
    "SqlResult",
    "tokenize",
    "parse",
    "render",
    "render_expr",
    "bind",
    "compile_sql",
    "execute_sql",
    "CompiledQuery",
    "BoundQuery",
    "Statement",
]


def bind(database, statement: Statement, source: str = "") -> BoundQuery:
    """Resolve and type-check a parsed statement against the catalog."""
    return _bind(database, statement, source)


def compile_sql(
    database, text: str, reorder: bool = True
) -> CompiledQuery:
    """parse + bind + plan: text to an executable
    :class:`CompiledQuery`.  ``reorder=False`` keeps WHERE conjuncts in
    written order (the naive baseline the benches compare against).

    A statement whose shape (tokens but literals) the database saw
    before skips parse and bind (:mod:`repro.sql.shapes`); the result
    and any error are those of the full front end."""
    return compile_cached(database, text, reorder)


@dataclass
class SqlResult:
    """What one statement produced: ``rows`` + ``columns`` for a plain
    SELECT, ``text`` for EXPLAIN [ANALYZE] (``mode`` tells which)."""

    mode: str  # "rows" | "explain" | "analyze"
    columns: List[str]
    rows: List[Tuple[Any, ...]]
    text: str = ""
    relation: Any = None

    def __iter__(self):
        return iter(self.rows)


def execute_sql(
    database,
    text: str,
    session: Any = None,
    reorder: bool = True,
) -> SqlResult:
    """The one-call entry point: run ``text`` against ``database`` (or a
    snapshot ``session`` of it) and return a :class:`SqlResult`.

    ``EXPLAIN ...`` returns the plan without executing; ``EXPLAIN
    ANALYZE ...`` executes and returns the measured trace rendering.
    """
    compiled = compile_sql(database, text, reorder=reorder)
    target = session
    if compiled.statement.mode == "explain":
        return SqlResult(
            mode="explain",
            columns=[],
            rows=[],
            text=compiled.explain(target),
        )
    if compiled.statement.mode == "analyze":
        return SqlResult(
            mode="analyze",
            columns=[],
            rows=[],
            text=compiled.explain_analyze(target),
        )
    out = compiled.run(target)
    return SqlResult(
        mode="rows",
        columns=list(out.schema.names),
        rows=list(out.rows),
        relation=out,
    )
