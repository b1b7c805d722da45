"""Tokenizer and parser unit tests: grammar coverage, typed errors
with source positions, and canonical rendering."""

import pytest

from repro.sql import ParseError, parse, render, tokenize
from repro.sql import ast as A


class TestLexer:
    def test_kinds(self):
        toks = tokenize("SELECT id@, x FROM t WHERE x >= 1.5 AND s = 'a''b'")
        kinds = [t.kind for t in toks]
        assert kinds[0] == "kw" and toks[0].text == "SELECT"
        assert ("ident", "id@") == (toks[1].kind, toks[1].text)
        assert any(t.kind == "float" and t.text == "1.5" for t in toks)
        assert any(t.kind == "string" and t.text == "a'b" for t in toks)
        assert kinds[-1] == "eof"

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].is_kw("SELECT")
        assert tokenize("SeLeCt")[0].is_kw("SELECT")

    def test_positions_point_into_source(self):
        source = "SELECT  xyz"
        tok = tokenize(source)[1]
        assert source[tok.pos:tok.pos + 3] == "xyz"

    def test_unknown_character(self):
        with pytest.raises(ParseError) as info:
            tokenize("SELECT $ FROM t")
        assert info.value.pos == 7

    def test_non_string_input(self):
        with pytest.raises(ParseError):
            tokenize(42)

    def test_superscript_is_no_digit(self):
        with pytest.raises(ParseError) as info:
            tokenize("SELECT x FROM t WHERE x = 1.\u00b2")
        assert info.value.message == "unexpected character '\u00b2'"
        assert info.value.pos == 28

    def test_unicode_decimal_digits_are_numbers(self):
        # Arabic-Indic twelve: a decimal digit run, which int() reads.
        stmt = parse("SELECT x FROM t WHERE x = \u0661\u0662")
        assert stmt.select.where.right == A.IntLit(12)

    def test_overlong_integer_is_a_parse_error(self):
        source = "SELECT x FROM t WHERE x = " + "7" * 5000
        with pytest.raises(ParseError) as info:
            parse(source)
        assert info.value.pos == 26

    def test_float_needs_digit_after_dot(self):
        # "1." lexes as the integer 1 then the "." operator.
        toks = tokenize("1.")
        assert (toks[0].kind, toks[1].text) == ("int", ".")


class TestParser:
    def test_minimal_select(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.select.columns is None
        assert stmt.select.table == "t"
        assert stmt.mode is None

    def test_full_clause_set(self):
        stmt = parse(
            "SELECT DISTINCT a, b FROM t "
            "WHERE BOX(0, 4, 0, 4) CONTAINS POINT(x, y) "
            "AND a BETWEEN 1 AND 2 ORDER BY a, b DESC LIMIT 7"
        )
        select = stmt.select
        assert select.distinct
        assert [c.name for c in select.columns] == ["a", "b"]
        assert isinstance(select.where, A.And)
        assert select.order.columns[0].name == "a"
        assert select.order.descending
        assert select.limit == 7

    def test_join_on_overlaps(self):
        stmt = parse(
            "SELECT * FROM p JOIN q ON OVERLAPS(p.geom, q.geom)"
        )
        join = stmt.select.join
        assert join.table == "q"
        assert join.on.left.table == "p"
        assert join.on.right.name == "geom"

    def test_explain_modes(self):
        assert parse("EXPLAIN SELECT * FROM t").mode == "explain"
        assert parse("EXPLAIN ANALYZE SELECT * FROM t").mode == "analyze"

    def test_precedence_or_and_not(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 OR NOT b = 2 AND c = 3")
        where = stmt.select.where
        assert isinstance(where, A.Or)
        assert isinstance(where.right, A.And)
        assert isinstance(where.right.left, A.Not)

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT * FROM t WHERE a + b * 2 = 7")
        cmp = stmt.select.where
        assert isinstance(cmp.left, A.Arith) and cmp.left.op == "+"
        assert isinstance(cmp.left.right, A.Arith)
        assert cmp.left.right.op == "*"

    def test_box_bounds_pair_up(self):
        stmt = parse(
            "SELECT * FROM t WHERE BOX(0, 4, 2, 6) CONTAINS POINT(x, y)"
        )
        box = stmt.select.where.box
        assert box.ranges == ((0, 4), (2, 6))

    def test_box_rejects_inverted_range(self):
        with pytest.raises(ParseError, match="lo"):
            parse("SELECT * FROM t WHERE BOX(4, 0) CONTAINS POINT(x)")

    def test_box_rejects_odd_bounds(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t WHERE BOX(0, 4, 2) CONTAINS POINT(x)")

    def test_negative_bounds_and_literals(self):
        stmt = parse("SELECT * FROM t WHERE x > -3")
        assert isinstance(stmt.select.where.right, A.Neg)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError, match="unexpected"):
            parse("SELECT * FROM t garbage")

    def test_error_carries_position(self):
        source = "SELECT a FROM"
        with pytest.raises(ParseError) as info:
            parse(source)
        line, col = info.value.line_col(source)
        assert (line, col) == (1, 14)

    def test_annotate_draws_caret(self):
        source = "SELECT a FROM t WHERE"
        with pytest.raises(ParseError) as info:
            parse(source)
        annotated = info.value.annotate(source)
        lines = annotated.splitlines()
        assert lines[0] == source
        assert lines[1].endswith("^")
        assert "parse error at line 1" in lines[2]

    def test_limit_requires_integer(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t LIMIT 2.5")


class TestRender:
    CASES = [
        "SELECT * FROM t",
        "SELECT DISTINCT a, b FROM t ORDER BY b DESC LIMIT 3",
        "SELECT a FROM t WHERE BOX(0, 4, 0, 4) CONTAINS POINT(x, y) "
        "AND a BETWEEN 1 AND 2",
        "SELECT * FROM p JOIN q ON OVERLAPS(p.geom, q.geom) "
        "WHERE p.w > 1 AND q.w > 2",
        "SELECT a FROM t WHERE (a = 1 OR b = 2) AND NOT c = 3",
        "EXPLAIN ANALYZE SELECT a FROM t WHERE a + b * 2 > -1.5",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_parse_render_fixpoint(self, source):
        stmt = parse(source)
        text = render(stmt.select)
        if stmt.mode == "explain":
            text = "EXPLAIN " + text
        elif stmt.mode == "analyze":
            text = "EXPLAIN ANALYZE " + text
        assert parse(text) == stmt
        reparsed = parse(text)
        again = render(reparsed.select)
        assert again == render(stmt.select)

    def test_render_drops_redundant_parens(self):
        stmt = parse("SELECT * FROM t WHERE ((a = 1)) AND (b = 2)")
        assert render(stmt.select) == (
            "SELECT * FROM t WHERE a = 1 AND b = 2"
        )

    def test_render_keeps_needed_parens(self):
        stmt = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert "(" in render(stmt.select)
        assert parse(render(stmt.select)) == stmt
