"""Property tests: ``parse(render(ast)) == ast`` over randomized
statements, render idempotence, and "byte soup never raises anything
but ParseError"."""

from hypothesis import example, given, settings, strategies as st

from repro.sql import ParseError, parse, render
from repro.sql import ast as A

NAMES = ("a", "b", "c", "x", "y", "pop", "id@")
TABLES = ("t", "points", "regions")


def _col():
    return st.builds(
        A.ColumnRef,
        table=st.none() | st.sampled_from(TABLES),
        name=st.sampled_from(NAMES),
    )


def _literal():
    ints = st.integers(0, 999).map(A.IntLit)
    floats = (
        st.floats(0, 99, allow_nan=False)
        .map(lambda f: round(f, 3))
        .map(A.FloatLit)
    )
    strings = st.text(
        alphabet="ab c'z_", min_size=0, max_size=6
    ).map(A.StringLit)
    return ints | floats | strings


def _numeric():
    base = _col() | st.integers(0, 99).map(A.IntLit)
    return st.recursive(
        base,
        lambda inner: st.builds(
            A.Arith,
            op=st.sampled_from(("+", "-", "*")),
            left=inner,
            right=inner,
        )
        | inner.map(A.Neg),
        max_leaves=4,
    )


def _box(ndims):
    pair = st.tuples(st.integers(-9, 50), st.integers(0, 50)).map(
        lambda p: (min(p), max(p))
    )
    return st.builds(
        A.BoxLit, ranges=st.tuples(*([pair] * ndims)).map(tuple)
    )


def _predicate():
    compare = st.builds(
        A.Compare,
        op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
        left=_numeric(),
        right=_literal() | _numeric(),
    )
    between = st.builds(
        A.Between, expr=_numeric(), low=_numeric(), high=_numeric()
    )
    contains = st.integers(1, 3).flatmap(
        lambda n: st.builds(
            A.Contains,
            box=_box(n),
            point=st.builds(
                A.PointRef,
                columns=st.tuples(*([_col()] * n)).map(tuple),
            ),
        )
    )
    return compare | between | contains


def _where():
    return st.recursive(
        _predicate(),
        lambda inner: st.builds(A.And, left=inner, right=inner)
        | st.builds(A.Or, left=inner, right=inner)
        | inner.map(A.Not),
        max_leaves=5,
    )


def _select():
    order = st.builds(
        A.OrderBy,
        columns=st.lists(_col(), min_size=1, max_size=2).map(tuple),
        descending=st.booleans(),
        explicit_direction=st.just(True),
    )
    join = st.builds(
        A.Join,
        table=st.just("q"),
        on=st.builds(
            A.Overlaps,
            left=st.builds(
                A.ColumnRef, table=st.just("t"), name=st.just("geom")
            ),
            right=st.builds(
                A.ColumnRef, table=st.just("q"), name=st.just("geom")
            ),
        ),
    )
    return st.builds(
        A.Select,
        columns=st.none()
        | st.lists(_col(), min_size=1, max_size=3).map(tuple),
        table=st.sampled_from(TABLES),
        distinct=st.booleans(),
        join=st.none() | join,
        where=st.none() | _where(),
        order=st.none() | order,
        limit=st.none() | st.integers(0, 99),
    )


@settings(max_examples=120, deadline=None)
@given(_select())
def test_parse_render_roundtrip(select):
    text = render(select)
    assert parse(text).select == select


@settings(max_examples=120, deadline=None)
@given(_select())
def test_render_is_idempotent(select):
    text = render(select)
    assert render(parse(text).select) == text


@settings(max_examples=60, deadline=None)
@given(_select(), st.sampled_from([None, "explain", "analyze"]))
def test_statement_modes_roundtrip(select, mode):
    text = render(select)
    if mode == "explain":
        text = "explain " + text
    elif mode == "analyze":
        text = "EXPLAIN ANALYZE " + text
    stmt = parse(text)
    assert stmt.mode == mode
    assert stmt.select == select


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
# Superscripts are digits to str.isdigit but not to int().
@example("SELECT x FROM t WHERE x = \u00b2")
@example("SELECT x FROM t WHERE x = 1.\u00b2")
@example("SELECT x FROM t WHERE x = \u00b9\u00b3 AND y < 2")
# More digits than int() converts.
@example("SELECT x FROM t LIMIT " + "9" * 5000)
def test_byte_soup_only_raises_parse_error(soup):
    try:
        parse(soup)
    except ParseError:
        pass  # the only acceptable failure mode


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet="SELECT FROMWHEANDORBY()*,.'0123456789ab<>=+-@",
        max_size=60,
    )
)
def test_near_miss_soup_only_raises_parse_error(soup):
    try:
        parse(soup)
    except ParseError:
        pass
