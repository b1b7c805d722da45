"""The statement shape cache: a statement whose tokens but literals the
database saw before skips parse and bind, and must compile, explain,
run and fail exactly as the uncached front end does."""

from __future__ import annotations

import asyncio
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.geometry import Grid
from repro.db import FLOAT, INTEGER, OID, STRING, Schema, SpatialDatabase
from repro.db.catalog import StatementCache
from repro.db.planner import COLUMN_RANGE_CROSSOVER
from repro.server import QueryClient, QueryService, serve
from repro.sql import (
    BindError,
    CompiledQuery,
    SqlError,
    bind,
    compile_sql,
    execute_sql,
    parse,
    render,
)

GRID = Grid(2, 6)


def _database(nrows: int = 300) -> SpatialDatabase:
    rng = random.Random(7)
    db = SpatialDatabase(GRID, page_capacity=8)
    db.create_table(
        "t",
        Schema.of(
            ("id@", OID),
            ("x", INTEGER),
            ("y", INTEGER),
            ("v", INTEGER),
            ("f", FLOAT),
            ("s", STRING),
        ),
    )
    db.insert_many(
        "t",
        [
            (
                f"t{i}",
                rng.randrange(64),
                rng.randrange(64),
                rng.randrange(200),
                round(rng.uniform(0, 100), 2),
                rng.choice(["a", "b", "a'b", ""]),
            )
            for i in range(nrows)
        ],
    )
    db.create_index("t_xy", "t", ("x", "y"))
    db.create_table("u", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER)))
    db.insert_many(
        "u", [(f"u{i}", rng.randrange(64), rng.randrange(64)) for i in range(60)]
    )
    db.create_index("u_xy", "u", ("x", "y"))
    return db


#: One shape each; ``{i}`` an int in 0..200, ``{a}`` one in 0..31 and
#: ``{b}`` one in 32..200 (so ``BOX({a}, {b}, ...)`` always parses),
#: ``{f}`` a float, ``{e}`` a float in 0..8, ``{s}`` a string literal.
#: Together they hold every literal site of the grammar: BETWEEN,
#: flipped comparisons, ``-`` as its own node and folded into BOX/POINT
#: numbers, WHERE and JOIN WITHIN, NEAREST with LIMIT, strings, floats,
#: OR/NOT, EXPLAIN and the eps-join's pushed windows.
SHAPES = (
    "SELECT id@, v FROM t WHERE v BETWEEN {i} AND {i}",
    "SELECT * FROM t WHERE x > {i} AND {i} >= y ORDER BY id@",
    "SELECT id@ FROM t WHERE BOX(-{i}, {i}, {i}, {i}) CONTAINS POINT(x, y) "
    "AND v < {i}",
    "SELECT id@, x, y FROM t WHERE POINT(x, y) WITHIN {i} OF POINT({i}, {i}) "
    "LIMIT {i}",
    "SELECT id@ FROM t WHERE POINT({i}, -{i}) WITHIN {f} OF POINT(x, y)",
    "SELECT id@ FROM t WHERE POINT({a}, {a}) WITHIN {a} OF POINT(x, y)",
    "SELECT id@, x, y FROM t NEAREST {i} TO POINT({i}, {i}) BY POINT(x, y)",
    "SELECT DISTINCT v FROM t WHERE s = {s} OR f < {f} ORDER BY v DESC "
    "LIMIT {i}",
    "SELECT * FROM t JOIN u ON POINT(t.x, t.y) WITHIN {e} OF POINT(u.x, u.y) "
    "WHERE BOX({a}, {b}, {a}, {b}) CONTAINS POINT(u.x, u.y) AND t.v > {i}",
    "SELECT t.id@, u.id@ FROM t JOIN u ON POINT(u.x, u.y) WITHIN {a} OF "
    "POINT(t.x, t.y) WHERE t.x < {b} AND u.y BETWEEN {a} AND {b}",
    "SELECT id@, x, y FROM t WHERE v > {i} NEAREST {a} TO POINT({a}, {a}) "
    "BY POINT(x, y) LIMIT {a}",
    "SELECT id@ FROM t WHERE BOX(-{a}, {b}, {a}, {b}) CONTAINS POINT(x, y) "
    "AND POINT(x, y) WITHIN {e} OF POINT({a}, {a})",
    "EXPLAIN SELECT id@ FROM t WHERE x BETWEEN {i} AND {i} "
    "AND y BETWEEN {i} AND {i} AND x + y > {i}",
    "SELECT id@ FROM t WHERE NOT x * {i} - -{i} = y AND f >= {f}",
    "SELECT id@, x FROM t WHERE x >= {i} AND x < {f} AND s != {s}",
    "EXPLAIN SELECT id@ FROM t NEAREST {i} TO POINT({i}, {i}) BY POINT(x, y) "
    "ORDER BY id@",
)

_LITERALS = {
    "i": st.integers(0, 200).map(str),
    "a": st.integers(0, 31).map(str),
    "b": st.integers(32, 200).map(str),
    "f": st.floats(0, 120, allow_nan=False).map(lambda v: f"{v:.2f}"),
    "e": st.floats(0, 8, allow_nan=False).map(lambda v: f"{v:.1f}"),
    "s": st.text(alphabet="ab' _", max_size=4).map(
        lambda v: "'" + v.replace("'", "''") + "'"
    ),
}


def _slots(shape: str):
    return [part[0] for part in shape.split("{")[1:]]


def _fill(shape: str, literals) -> str:
    parts = shape.split("{")
    return parts[0] + "".join(
        literal + part[2:] for literal, part in zip(literals, parts[1:])
    )


@st.composite
def _statement_pair(draw, shapes=SHAPES):
    shape = draw(st.sampled_from(shapes))
    vectors = [
        [draw(_LITERALS[slot]) for slot in _slots(shape)] for _ in range(2)
    ]
    return [_fill(shape, vector) for vector in vectors]


def _outcome(db, compile_):
    """What compiling and using one statement shows: canonical text,
    EXPLAIN text and rows (or the result text of an EXPLAIN), or the
    error's class, message and offset."""
    try:
        compiled = compile_()
    except SqlError as exc:
        return ("error", type(exc), exc.message, exc.pos)
    if compiled.statement.mode == "explain":
        return ("explain", compiled.canonical, compiled.explain())
    return (
        "rows",
        compiled.canonical,
        compiled.explain(),
        compiled.run().rows,
    )


def _uncached(db, text):
    def compile_():
        statement = parse(text)
        return CompiledQuery(db, statement, bind(db, statement, text))

    return _outcome(db, compile_)


def _check_pair(db, texts):
    cache = db.catalog.statements
    cache.clear()
    first, second = texts
    hits = cache.hits
    for text in (first, second, first):
        assert _outcome(db, lambda: compile_sql(db, text)) == _uncached(
            db, text
        ), text
    if _uncached(db, first)[0] != "error":
        # the template was kept: the later two compiles were hits
        assert cache.hits == hits + 2


@pytest.fixture(scope="module")
def db():
    return _database()


@pytest.mark.parametrize("shape", SHAPES)
def test_a_warm_shape_compiles_like_the_front_end(db, shape):
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(texts=_statement_pair((shape,)))
    def check(texts):
        _check_pair(db, texts)

    check()


@pytest.mark.slow
@settings(
    max_examples=1500,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(texts=_statement_pair())
def test_a_warm_shape_compiles_like_the_front_end_sweep(db, texts):
    _check_pair(db, texts)


@pytest.mark.parametrize(
    "texts",
    [
        # lo > hi in a BOX: the parser's offset follows the longer
        # literals before it
        (
            "SELECT id@ FROM t WHERE v < 1 AND BOX(1, 2, 3, 4) "
            "CONTAINS POINT(x, y)",
            "SELECT id@ FROM t WHERE v < 1000 AND BOX(9, 2, 3, 4) "
            "CONTAINS POINT(x, y)",
        ),
        # a POINT outside the grid, and NEAREST 0
        (
            "SELECT id@ FROM t NEAREST 3 TO POINT(1, 2) BY POINT(x, y)",
            "SELECT id@ FROM t NEAREST 3 TO POINT(100, 2) BY POINT(x, y)",
        ),
        (
            "SELECT id@ FROM t NEAREST 3 TO POINT(1, 2) BY POINT(x, y)",
            "SELECT id@ FROM t NEAREST 0 TO POINT(1, 2) BY POINT(x, y)",
        ),
        (
            "SELECT id@ FROM t WHERE POINT(x, y) WITHIN 2 OF POINT(-0, 5)",
            "SELECT id@ FROM t WHERE POINT(x, y) WITHIN 2 OF POINT(-3, 5)",
        ),
    ],
)
def test_a_refused_literal_fails_as_uncached(db, texts):
    _check_pair(db, texts)


def test_one_shape_plans_either_side_of_the_crossover():
    """Plans depend on literals: of two ``v BETWEEN`` statements of one
    shape, the narrow one reads v's sorted order, the wide one scans,
    and each returns the oracle's rows."""
    db = SpatialDatabase(GRID)
    db.create_table("w", Schema.of(("id@", OID), ("v", INTEGER)))
    rows = [(f"w{i}", i) for i in range(1000)]
    db.insert_many("w", rows)
    shape = "SELECT id@, v FROM w WHERE v BETWEEN {} AND {}"
    narrow, wide = (100, 149), (0, 899)
    assert (wide[1] - wide[0]) / 1000 > COLUMN_RANGE_CROSSOVER
    assert (narrow[1] - narrow[0]) / 1000 < COLUMN_RANGE_CROSSOVER
    cache = db.catalog.statements
    labels = []
    for low, high in (narrow, wide, narrow):
        compiled = compile_sql(db, shape.format(low, high))
        labels.append(compiled.plan().access_label)
        assert compiled.run().rows == [r for r in rows if low <= r[1] <= high]
    assert labels == ["column-range", "table-scan", "column-range"]
    assert (cache.misses, cache.hits) == (1, 2)


def test_a_recreated_table_rebinds_the_same_text():
    db = SpatialDatabase(GRID)
    db.create_table("r", Schema.of(("id@", OID), ("v", INTEGER)))
    db.insert_many("r", [("a", 1), ("b", 5)])
    text = "SELECT v FROM r WHERE v > 3"
    assert execute_sql(db, text).rows == [(5,)]
    assert len(db.catalog.statements) == 1
    db.catalog.drop_relation("r")
    assert len(db.catalog.statements) == 0
    # Another column order: the same text now reads column 0.
    db.create_table("r", Schema.of(("v", INTEGER), ("id@", OID)))
    db.insert_many("r", [(7, "c"), (2, "d")])
    assert execute_sql(db, text).rows == [(7,)]
    # Another type: the text no longer binds.
    db.catalog.drop_relation("r")
    db.create_table("r", Schema.of(("id@", OID), ("v", STRING)))
    with pytest.raises(BindError, match="cannot compare string with integer"):
        compile_sql(db, text)


def test_registering_a_table_clears_the_cache(db):
    fresh = SpatialDatabase(GRID)
    fresh.create_table("r", Schema.of(("id@", OID), ("v", INTEGER)))
    compile_sql(fresh, "SELECT v FROM r")
    assert len(fresh.catalog.statements) == 1
    fresh.create_table("q", Schema.of(("id@", OID),))
    assert len(fresh.catalog.statements) == 0


def test_a_binding_older_than_the_last_clear_is_not_kept():
    cache = StatementCache()
    generation = cache.generation
    cache.clear()
    cache.put(("k",), "stale", generation)
    assert len(cache) == 0 and cache.get(("k",)) is None


def test_the_cache_stays_at_its_capacity(db):
    """cap + 10 shapes (eight comparisons, each against an int or a
    float literal) leave cap entries; the oldest went first."""
    cache = db.catalog.statements
    cache.clear()
    cap = StatementCache.CAPACITY

    def text(mask):
        return "SELECT id@ FROM t WHERE " + " AND ".join(
            f"v > {'1.5' if mask >> bit & 1 else '1'}" for bit in range(8)
        )

    assert cap + 10 <= 2**8
    for mask in range(cap + 10):
        compile_sql(db, text(mask))
    assert len(cache) == cap
    misses = cache.misses
    compile_sql(db, text(cap + 9))
    assert cache.misses == misses
    compile_sql(db, text(0))
    assert cache.misses == misses + 1
    assert len(cache) == cap


def test_threads_compiling_one_shape_get_their_rows(db):
    rows = db.table("t").rows
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(40):
                low = rng.randrange(200)
                high = low + rng.randrange(40)
                out = execute_sql(
                    db, f"SELECT id@, v FROM t WHERE v BETWEEN {low} AND {high}"
                ).rows
                want = [(r[0], r[3]) for r in rows if low <= r[3] <= high]
                if out != want:
                    errors.append((low, high))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    db.catalog.statements.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(db.catalog.statements) == 1


def test_a_hit_renders_its_own_literals(db):
    db.catalog.statements.clear()
    compile_sql(db, "select id@ from t where v between 1 and 2")
    compiled = compile_sql(db, "SELECT id@ FROM t WHERE v BETWEEN 30 AND 1000")
    assert db.catalog.statements.hits >= 1
    assert compiled.canonical == render(compiled.statement.select)
    assert compiled.canonical == (
        "SELECT id@ FROM t WHERE v BETWEEN 30 AND 1000"
    )
    [conjunct] = compiled.bound.conjuncts
    assert (conjunct.low, conjunct.high, conjunct.selectivity) == (30, 1000, None)


def test_stats_show_one_miss_then_one_hit():
    db = _database(nrows=50)

    async def run():
        service = QueryService(db)
        server = await serve(service)
        seen = []
        try:
            async with await QueryClient.connect(*server.address) as client:
                for low in (3, 40):
                    response = await client.sql(
                        f"SELECT id@ FROM t WHERE v BETWEEN {low} AND 90"
                    )
                    assert response["ok"], response
                    seen.append(service.stats_snapshot()["planner"])
        finally:
            await server.close()
        return seen

    first, second = asyncio.run(run())
    shapes = "planner.shape_cache."
    assert first[shapes + "misses"] == 1
    assert first.get(shapes + "hits", 0) == 0
    assert first[shapes + "entries"] == 1
    assert (second[shapes + "misses"], second[shapes + "hits"]) == (1, 1)


def test_a_kept_shape_holds_no_reference_to_its_database():
    """The cache lives in the database's catalog: a template that held
    the database would keep it (and its file stores) alive until the
    cyclic collector runs."""
    import gc
    import weakref

    database = _database(nrows=20)
    compile_sql(database, "SELECT id@ FROM t WHERE v BETWEEN 1 AND 9")
    compile_sql(database, "SELECT id@ FROM t WHERE v BETWEEN 2 AND 8")
    assert database.catalog.statements.hits == 1
    ref = weakref.ref(database)
    gc.disable()
    try:
        del database
        assert ref() is None
    finally:
        gc.enable()
