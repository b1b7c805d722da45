"""Compiled expressions against a tree-walking oracle.

``Expr.bind`` and ``Expr.filter`` compile a tree to one generated Python
expression.  The oracle below walks the same tree and applies each
node's operator eagerly, one call per node per row, which is how
expressions were evaluated before they were compiled.  Every compiled
result must equal it row for row, with the same type.
"""

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.geometry import Box, Grid
from repro.core.zvalue import ZValue
from repro.db import FLOAT, INTEGER, OID, STRING, Schema, SpatialDatabase
from repro.db import expr as expr_mod
from repro.db.expr import (
    box_contains_point,
    col,
    element_contains,
    element_precedes,
    lit,
    point_within,
)
from repro.db.operators import project, select
from repro.db.relation import Relation
from repro.db.types import ELEMENT
from repro.sql import execute_sql

SCHEMA = Schema.of(
    ("a", INTEGER),
    ("b", INTEGER),
    ("f", FLOAT),
    ("s", STRING),
    ("z", ELEMENT),
)


# ---------------------------------------------------------------------
# The oracle: evaluate the tree node by node
# ---------------------------------------------------------------------


def oracle(node, schema, row):
    if isinstance(node, expr_mod._Col):
        return row[schema.index_of(node.name)]
    if isinstance(node, expr_mod._Lit):
        return node.value
    if isinstance(node, expr_mod._Binary):
        return node.op(
            oracle(node.left, schema, row), oracle(node.right, schema, row)
        )
    if isinstance(node, expr_mod._Unary):
        return node.op(oracle(node.inner, schema, row))
    if isinstance(node, expr_mod._BoxContains):
        point = tuple(row[schema.index_of(c)] for c in node.coord_cols)
        return node.box.contains_point(point)
    if isinstance(node, expr_mod._PointWithin):
        indices = [schema.index_of(c) for c in node.coord_cols]
        return sum(
            (row[i] - c) ** 2 for i, c in zip(indices, node.center)
        ) <= node.radius * node.radius
    raise TypeError(node)


def same(got, want):
    """Equal and of one type; NaN equals NaN."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float) and math.isnan(want):
        return math.isnan(got)
    return got == want


# ---------------------------------------------------------------------
# Strategies: typed random trees and rows
# ---------------------------------------------------------------------

small_ints = st.integers(-40, 40)
small_floats = st.floats(-50, 50, allow_nan=False, width=32)
short_text = st.text(alphabet="ab'\"\\\n", max_size=3)
zvalues = st.integers(0, 6).flatmap(
    lambda n: st.builds(ZValue, st.integers(0, (1 << n) - 1), st.just(n))
)

num_leaves = st.one_of(
    st.sampled_from([col("a"), col("b"), col("f")]),
    small_ints.map(lit),
    small_floats.map(lit),
)
num_exprs = st.recursive(
    num_leaves,
    lambda inner: st.builds(
        lambda l, r, k: (l + r, l - r, l * r)[k],
        inner,
        inner,
        st.integers(0, 2),
    ),
    max_leaves=6,
)
str_exprs = st.one_of(st.just(col("s")), short_text.map(lit))
elem_exprs = st.one_of(st.just(col("z")), zvalues.map(lit))

COMPARES = [
    lambda l, r: l == r,
    lambda l, r: l != r,
    lambda l, r: l < r,
    lambda l, r: l <= r,
    lambda l, r: l > r,
    lambda l, r: l >= r,
]


def _compare(exprs):
    return st.builds(
        lambda l, r, k: COMPARES[k](l, r), exprs, exprs, st.integers(0, 5)
    )


boxes = st.lists(
    st.tuples(small_ints, st.integers(0, 30)), min_size=1, max_size=3
).map(lambda axes: Box(tuple((lo, lo + w) for lo, w in axes)))

bool_leaves = st.one_of(
    _compare(num_exprs),
    _compare(str_exprs),
    st.builds(lambda e, lo, hi: e.between(lo, hi), num_exprs, num_exprs, num_exprs),
    st.builds(
        box_contains_point,
        boxes,
        st.sampled_from([("a", "b"), ("b",), ("a", "b", "a")]),
    ),
    st.builds(
        point_within,
        st.sampled_from([("a", "b"), ("f",), ("a", "f", "b")]),
        st.lists(small_floats, min_size=1, max_size=3),
        st.floats(0, 60, allow_nan=False),
    ),
    st.builds(element_contains, elem_exprs, elem_exprs),
    st.builds(element_precedes, elem_exprs, elem_exprs),
)
bool_exprs = st.recursive(
    bool_leaves,
    lambda inner: st.one_of(
        st.builds(lambda l, r: l & r, inner, inner),
        st.builds(lambda l, r: l | r, inner, inner),
        inner.map(lambda e: ~e),
    ),
    max_leaves=8,
)

rows = st.lists(
    st.tuples(small_ints, small_ints, small_floats, short_text, zvalues),
    max_size=12,
)


def check_predicate(predicate, data):
    want = [oracle(predicate, SCHEMA, row) for row in data]
    bound = predicate.bind(SCHEMA)
    for row, expected in zip(data, want):
        got = bound(row)
        assert same(got, expected), (predicate.source(SCHEMA, []), row)
        if isinstance(predicate, (expr_mod._Binary, expr_mod._Unary)) and (
            predicate.op in (expr_mod._and, expr_mod._or, expr_mod._not)
        ):
            assert type(got) is bool
    kept = [row for row, keep in zip(data, want) if keep]
    assert predicate.filter(SCHEMA)(data) == kept


def check_scalar(scalar, data):
    bound = scalar.bind(SCHEMA)
    for row in data:
        assert same(bound(row), oracle(scalar, SCHEMA, row))


# ---------------------------------------------------------------------
# Differential: compiled == oracle
# ---------------------------------------------------------------------


class TestDifferential:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(bool_exprs, rows)
    def test_predicates_match_oracle(self, predicate, data):
        check_predicate(predicate, data)

    @settings(max_examples=100, deadline=None)
    @given(num_exprs, rows)
    def test_scalars_match_oracle(self, scalar, data):
        check_scalar(scalar, data)

    @pytest.mark.slow
    @settings(
        max_examples=3000,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(bool_exprs, rows)
    def test_predicates_match_oracle_sweep(self, predicate, data):
        check_predicate(predicate, data)

    @pytest.mark.slow
    @settings(max_examples=1500, deadline=None)
    @given(num_exprs, rows)
    def test_scalars_match_oracle_sweep(self, scalar, data):
        check_scalar(scalar, data)

    def test_connectives_return_exact_bools(self):
        # Truthy non-bool operands: the result is still True/False.
        predicate = (col("a") + lit(0)) & col("b")
        bound = predicate.bind(SCHEMA)
        row = (2, 3, 0.0, "", ZValue.empty())
        assert bound(row) is True
        assert (col("a") | col("b")).bind(SCHEMA)((0, 0, 0.0, "", None)) is False
        assert (~col("a")).bind(SCHEMA)((5, 0, 0.0, "", None)) is False


# ---------------------------------------------------------------------
# Evaluation order: AND/OR short-circuit
# ---------------------------------------------------------------------


class TestShortCircuit:
    # element_contains on an INTEGER column raises AttributeError —
    # only when the right operand is actually evaluated.
    BOOM = element_contains(col("a"), lit(ZValue.empty()))
    ROWS = [(1, 0, 0.0, "", None), (50, 0, 0.0, "", None)]

    def test_and_skips_right_operand_when_left_is_false(self):
        predicate = (col("a") > lit(100)) & self.BOOM
        assert predicate.filter(SCHEMA)(self.ROWS) == []
        assert predicate.bind(SCHEMA)(self.ROWS[0]) is False
        with pytest.raises(AttributeError):
            oracle(predicate, SCHEMA, self.ROWS[0])

    def test_or_skips_right_operand_when_left_is_true(self):
        predicate = (col("a") > lit(0)) | self.BOOM
        assert predicate.filter(SCHEMA)(self.ROWS) == self.ROWS
        with pytest.raises(AttributeError):
            ((col("a") > lit(100)) | self.BOOM).bind(SCHEMA)(self.ROWS[0])


# ---------------------------------------------------------------------
# Code cache and literal hygiene
# ---------------------------------------------------------------------


class TestCodeCache:
    def test_literals_only_share_one_code_object(self):
        expr_mod._code.cache_clear()
        schema = Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER), ("v", INTEGER))
        first = col("v").between(lit(5), lit(104)).filter(schema)
        second = col("v").between(lit(700), lit(799)).filter(schema)
        assert first.__code__ is second.__code__
        info = expr_mod._code.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        data = [("p", 0, 0, v) for v in (4, 5, 104, 105, 700, 799, 800)]
        assert [r[3] for r in first(data)] == [5, 104]
        assert [r[3] for r in second(data)] == [700, 799]

    def test_sql_statements_differing_in_literals_compile_once(self):
        db = SpatialDatabase(Grid(2, 6))
        db.create_table(
            "points",
            Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER), ("v", INTEGER)),
        )
        db.insert_many("points", [(f"p{v}", v % 64, v // 64, v) for v in range(300)])
        sql = "SELECT id@, v FROM points WHERE v BETWEEN {} AND {}"
        first = execute_sql(db, sql.format(10, 109))
        misses = expr_mod._code.cache_info().misses
        second = execute_sql(db, sql.format(150, 249))
        assert expr_mod._code.cache_info().misses == misses
        assert [row[1] for row in first.rows] == list(range(10, 110))
        assert [row[1] for row in second.rows] == list(range(150, 250))

    def test_hostile_string_literal_is_data(self):
        hostile = "x' \" \\ \n\"\"\" ) or __import__('os').getcwd() #"
        predicate = col("s") == lit(hostile)
        consts = []
        source = predicate.source(SCHEMA, consts)
        assert source == "(row[3] == k0)" and consts == [hostile]
        data = [
            (0, 0, 0.0, "safe", None),
            (1, 0, 0.0, hostile, None),
            (2, 0, 0.0, hostile[:-1], None),
        ]
        assert predicate.filter(SCHEMA)(data) == [data[1]]
        assert [predicate.bind(SCHEMA)(row) for row in data] == [False, True, False]

    def test_source_holds_no_values(self):
        predicate = (
            box_contains_point(Box(((3, 9), (4, 11))), ("a", "b"))
            & point_within(("a", "f"), (1.5, -2.0), 3.0)
            & element_precedes(col("z"), lit(ZValue(1, 2)))
        )
        consts = []
        source = predicate.source(SCHEMA, consts)
        # Strip the constant names and column indices: what is left is
        # operators, parentheses and keywords only.
        skeleton = re.sub(r"k\d+|row\[\d+\]", "", source)
        assert not re.search(r"[0-9.'\"]", skeleton.replace("** 2", ""))
        assert consts[:4] == [3, 9, 4, 11] and len(consts) == 9


# ---------------------------------------------------------------------
# Operators over the compiled path
# ---------------------------------------------------------------------


class TestOperators:
    @staticmethod
    def relation():
        rel = Relation("r", Schema.of(("a", INTEGER), ("b", INTEGER), ("s", STRING)))
        for i in range(5):
            rel.insert((i, 10 - i, f"s{i}"))
        return rel

    def test_project_keeps_tuples_for_one_column(self):
        out = project(self.relation(), ["b"])
        assert out.rows == [(10,), (9,), (8,), (7,), (6,)]
        assert all(type(row) is tuple for row in out.rows)

    def test_project_reorders_columns(self):
        out = project(self.relation(), ["s", "a"])
        assert out.rows[1] == ("s1", 1)

    def test_project_nothing(self):
        assert project(self.relation(), []).rows == [()] * 5

    def test_select_uses_the_filter(self):
        out = select(self.relation(), col("a").between(1, 3) & (col("s") != "s2"))
        assert [row[0] for row in out.rows] == [1, 3]
