"""Recursive-descent parser for the spatial query language.

Grammar (keywords case-insensitive)::

    statement  := [ EXPLAIN [ ANALYZE ] ] select
    select     := SELECT [ DISTINCT ] select_list FROM ident [ join ]
                  [ WHERE expr ] [ nearest ]
                  [ ORDER BY column { , column } [ ASC | DESC ] ]
                  [ LIMIT int ]
    select_list:= * | column { , column }
    join       := JOIN ident ON ( OVERLAPS ( column , column )
                                | point WITHIN number OF point )
    nearest    := NEAREST int TO point BY point
    expr       := and_expr { OR and_expr }
    and_expr   := not_expr { AND not_expr }
    not_expr   := [ NOT ] predicate
    predicate  := sum [ cmp_op sum | BETWEEN sum AND sum
                      | CONTAINS point | WITHIN number OF point ]
    sum        := term { (+ | -) term }
    term       := factor { * factor }
    factor     := number | string | column | box | point
                | ( expr ) | - factor
    box        := BOX ( signed , signed { , signed , signed } )
    point      := POINT ( column { , column } )
                | POINT ( signed { , signed } )
    column     := ident [ . ident ]

A parenthesized group is parsed as a full ``expr``, so ``(x + 1) * 2``
and ``(x > 1 OR y > 2) AND z = 0`` both work without backtracking: the
expression levels simply pass non-boolean subtrees through.  Types are
the binder's job, not the parser's.

The only exception this module raises is
:class:`~repro.sql.errors.ParseError` (position included).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.sql.ast import (
    And,
    Arith,
    Between,
    BoxLit,
    ColumnRef,
    Compare,
    Contains,
    FloatLit,
    IntLit,
    Join,
    Nearest,
    Neg,
    Not,
    Or,
    OrderBy,
    Overlaps,
    PointLit,
    PointRef,
    Select,
    Statement,
    StringLit,
    Within,
)
from repro.sql.ast import Node
from repro.sql.errors import ParseError
from repro.sql.lexer import Token, tokenize

__all__ = ["parse"]

_CMP_OPS = frozenset({"=", "!=", "<>", "<", "<=", ">", ">="})


def _number(token: Token) -> Union[int, float]:
    """The value of an ``int`` or ``float`` token."""
    if token.kind == "float":
        return float(token.text)
    try:
        return int(token.text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(
            f"integer literal of {len(token.text)} digits is too long",
            token.pos,
        ) from None


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens: List[Token] = tokenize(source)
        self.i = 0

    # -- token plumbing --------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        token = self.tok
        if token.kind != "eof":
            self.i += 1
        return token

    def accept_kw(self, word: str) -> bool:
        if self.tok.is_kw(word):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> Token:
        if not self.tok.is_kw(word):
            raise ParseError(
                f"expected {word}, found {self._describe(self.tok)}",
                self.tok.pos,
            )
        return self.advance()

    def accept_op(self, text: str) -> bool:
        if self.tok.kind == "op" and self.tok.text == text:
            self.advance()
            return True
        return False

    def expect_op(self, text: str) -> Token:
        if not (self.tok.kind == "op" and self.tok.text == text):
            raise ParseError(
                f"expected {text!r}, found {self._describe(self.tok)}",
                self.tok.pos,
            )
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        if self.tok.kind != "ident":
            raise ParseError(
                f"expected {what}, found {self._describe(self.tok)}",
                self.tok.pos,
            )
        return self.advance()

    @staticmethod
    def _describe(token: Token) -> str:
        if token.kind == "eof":
            return "end of input"
        return f"{token.text!r}"

    # -- statement -------------------------------------------------------

    def statement(self) -> Statement:
        pos = self.tok.pos
        mode: Optional[str] = None
        if self.accept_kw("EXPLAIN"):
            mode = "analyze" if self.accept_kw("ANALYZE") else "explain"
        select = self.select()
        if self.tok.kind != "eof":
            raise ParseError(
                f"unexpected {self._describe(self.tok)} after statement",
                self.tok.pos,
            )
        return Statement(select, mode, pos=pos)

    def select(self) -> Select:
        pos = self.expect_kw("SELECT").pos
        distinct = self.accept_kw("DISTINCT")
        columns: Optional[Tuple[ColumnRef, ...]]
        if self.accept_op("*"):
            columns = None
        else:
            columns = tuple(self._column_list("column name"))
        self.expect_kw("FROM")
        table = self.expect_ident("table name").text
        join = self._join() if self.tok.is_kw("JOIN") else None
        where = self.expr() if self.accept_kw("WHERE") else None
        nearest = self._nearest() if self.tok.is_kw("NEAREST") else None
        order = self._order_by() if self.tok.is_kw("ORDER") else None
        limit = self._limit() if self.tok.is_kw("LIMIT") else None
        return Select(
            columns,
            table,
            distinct=distinct,
            join=join,
            where=where,
            order=order,
            limit=limit,
            nearest=nearest,
            pos=pos,
        )

    def _column_list(self, what: str) -> List[ColumnRef]:
        columns = [self.column(what)]
        while self.accept_op(","):
            columns.append(self.column(what))
        return columns

    def column(self, what: str = "column name") -> ColumnRef:
        first = self.expect_ident(what)
        if self.accept_op("."):
            name = self.expect_ident("column name")
            return ColumnRef(first.text, name.text, pos=first.pos)
        return ColumnRef(None, first.text, pos=first.pos)

    def _join(self) -> Join:
        pos = self.expect_kw("JOIN").pos
        table = self.expect_ident("table name").text
        self.expect_kw("ON")
        if self.tok.is_kw("POINT"):
            left_pt = self.point()
            within = self.expect_kw("WITHIN")
            eps = self._eps()
            self.expect_kw("OF")
            right_pt = self.point()
            return Join(
                table, Within(left_pt, eps, right_pt, pos=within.pos),
                pos=pos,
            )
        ov_pos = self.expect_kw("OVERLAPS").pos
        self.expect_op("(")
        left = self.column("geometry column")
        self.expect_op(",")
        right = self.column("geometry column")
        self.expect_op(")")
        return Join(table, Overlaps(left, right, pos=ov_pos), pos=pos)

    def _eps(self) -> Union[int, float]:
        token = self.tok
        if token.kind in ("int", "float"):
            self.advance()
            return _number(token)
        raise ParseError(
            f"WITHIN needs a non-negative number, found "
            f"{self._describe(token)}",
            token.pos,
        )

    def _nearest(self) -> Nearest:
        pos = self.expect_kw("NEAREST").pos
        token = self.tok
        if token.kind != "int" or _number(token) < 1:
            raise ParseError(
                f"NEAREST needs a positive integer, found "
                f"{self._describe(token)}",
                token.pos,
            )
        self.advance()
        self.expect_kw("TO")
        center = self.point()
        if not isinstance(center, PointLit):
            raise ParseError(
                "NEAREST ... TO needs a literal POINT(number, ...)",
                center.pos,
            )
        self.expect_kw("BY")
        by = self.point()
        if not isinstance(by, PointRef):
            raise ParseError(
                "NEAREST ... BY needs a column POINT(col, ...)", by.pos
            )
        return Nearest(_number(token), center, by, pos=pos)

    def _order_by(self) -> OrderBy:
        pos = self.expect_kw("ORDER").pos
        self.expect_kw("BY")
        columns = tuple(self._column_list("ORDER BY column"))
        descending = False
        if self.accept_kw("DESC"):
            descending = True
        else:
            self.accept_kw("ASC")
        return OrderBy(columns, descending, pos=pos)

    def _limit(self) -> int:
        self.expect_kw("LIMIT")
        token = self.tok
        if token.kind != "int":
            raise ParseError(
                f"LIMIT needs a non-negative integer, found "
                f"{self._describe(token)}",
                token.pos,
            )
        self.advance()
        return _number(token)

    # -- expressions -----------------------------------------------------

    def expr(self) -> Node:
        node = self.and_expr()
        while self.tok.is_kw("OR"):
            pos = self.advance().pos
            node = Or(node, self.and_expr(), pos=pos)
        return node

    def and_expr(self) -> Node:
        node = self.not_expr()
        while self.tok.is_kw("AND"):
            pos = self.advance().pos
            node = And(node, self.not_expr(), pos=pos)
        return node

    def not_expr(self) -> Node:
        if self.tok.is_kw("NOT"):
            pos = self.advance().pos
            return Not(self.not_expr(), pos=pos)
        return self.predicate()

    def predicate(self) -> Node:
        left = self.sum()
        token = self.tok
        if token.kind == "op" and token.text in _CMP_OPS:
            self.advance()
            op = "!=" if token.text == "<>" else token.text
            return Compare(op, left, self.sum(), pos=token.pos)
        if token.is_kw("BETWEEN"):
            self.advance()
            low = self.sum()
            self.expect_kw("AND")
            return Between(left, low, self.sum(), pos=token.pos)
        if token.is_kw("CONTAINS"):
            self.advance()
            if not isinstance(left, BoxLit):
                raise ParseError(
                    "CONTAINS needs a BOX(...) literal on its left",
                    token.pos,
                )
            point = self.point()
            if not isinstance(point, PointRef):
                raise ParseError(
                    "CONTAINS needs a column POINT(col, ...) on its "
                    "right",
                    point.pos,
                )
            return Contains(left, point, pos=token.pos)
        if token.is_kw("WITHIN"):
            self.advance()
            if not isinstance(left, (PointRef, PointLit)):
                raise ParseError(
                    "WITHIN needs a POINT(...) on its left", token.pos
                )
            eps = self._eps()
            self.expect_kw("OF")
            right = self.point()
            return Within(left, eps, right, pos=token.pos)
        return left

    def sum(self) -> Node:
        node = self.term()
        while self.tok.kind == "op" and self.tok.text in ("+", "-"):
            token = self.advance()
            node = Arith(token.text, node, self.term(), pos=token.pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.tok.kind == "op" and self.tok.text == "*":
            token = self.advance()
            node = Arith("*", node, self.factor(), pos=token.pos)
        return node

    def factor(self) -> Node:
        token = self.tok
        if token.kind == "int":
            self.advance()
            return IntLit(_number(token), pos=token.pos)
        if token.kind == "float":
            self.advance()
            return FloatLit(_number(token), pos=token.pos)
        if token.kind == "string":
            self.advance()
            return StringLit(token.text, pos=token.pos)
        if token.is_kw("BOX"):
            return self.box()
        if token.is_kw("POINT"):
            return self.point()
        if token.kind == "ident":
            return self.column()
        if token.kind == "op" and token.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if token.kind == "op" and token.text == "-":
            self.advance()
            return Neg(self.factor(), pos=token.pos)
        raise ParseError(
            f"expected an expression, found {self._describe(token)}",
            token.pos,
        )

    def _signed_number(self) -> Union[int, float]:
        negative = self.accept_op("-")
        token = self.tok
        if token.kind not in ("int", "float"):
            raise ParseError(
                f"expected a number, found {self._describe(token)}",
                token.pos,
            )
        self.advance()
        value = _number(token)
        return -value if negative else value

    def box(self) -> BoxLit:
        pos = self.expect_kw("BOX").pos
        self.expect_op("(")
        numbers = [self._signed_number()]
        while self.accept_op(","):
            numbers.append(self._signed_number())
        self.expect_op(")")
        if len(numbers) % 2 != 0:
            raise ParseError(
                "BOX needs (lo, hi) pairs — an even number of bounds, "
                f"got {len(numbers)}",
                pos,
            )
        ranges = tuple(
            (numbers[i], numbers[i + 1]) for i in range(0, len(numbers), 2)
        )
        for axis, (lo, hi) in enumerate(ranges):
            if lo > hi:
                raise ParseError(
                    f"BOX axis {axis}: lo {lo!r} > hi {hi!r}", pos
                )
        return BoxLit(ranges, pos=pos)

    def point(self) -> Union[PointRef, PointLit]:
        """``POINT(...)`` — columns or (all) numeric literals, told
        apart by the first token after the paren."""
        pos = self.expect_kw("POINT").pos
        self.expect_op("(")
        if self.tok.kind in ("int", "float") or (
            self.tok.kind == "op" and self.tok.text == "-"
        ):
            coords = [self._signed_number()]
            while self.accept_op(","):
                coords.append(self._signed_number())
            self.expect_op(")")
            return PointLit(tuple(coords), pos=pos)
        columns = [self.column("coordinate column")]
        while self.accept_op(","):
            columns.append(self.column("coordinate column"))
        self.expect_op(")")
        return PointRef(tuple(columns), pos=pos)


def parse(source: str) -> Statement:
    """Parse one statement; raises :class:`ParseError` (only) on any
    text the grammar rejects.

    >>> from repro.sql.ast import render
    >>> render(parse("select x from t where x between 1 and 2"))
    'SELECT x FROM t WHERE x BETWEEN 1 AND 2'
    """
    return _Parser(source).statement()
