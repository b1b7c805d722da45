"""The column-range access path: a windowless select whose most
selective ``attr-range`` bounds an INTEGER or FLOAT column reads the
column's sorted order and fetches only the covered rows.  Its rows, in
their order, equal the table scan's — on the database and on a snapshot
session, across duplicates, NaN, deletes, rows stored after the order
was built, and an aborted commit whose positions a later batch reuses."""

import random
import sys
import threading
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.geometry import Box, Grid
from repro.db import (
    FLOAT,
    INTEGER,
    OID,
    SPATIAL_OBJECT,
    Schema,
    SpatialDatabase,
)
from repro.db import planner
from repro.db.relation import VersionedRelation
from repro.db.types import SpatialObject
from repro.sql import compile_sql, execute_sql

NAN = float("nan")
COLUMN_RANGE_DEFAULT = planner.COLUMN_RANGE_CROSSOVER


@contextmanager
def crossover(value):
    """Run with the column-range crossover at ``value``: ``2.0`` takes
    the path for any numeric range, ``0.0`` never does."""
    saved = planner.COLUMN_RANGE_CROSSOVER
    planner.COLUMN_RANGE_CROSSOVER = value
    try:
        yield
    finally:
        planner.COLUMN_RANGE_CROSSOVER = saved


def _database():
    database = SpatialDatabase(Grid(2, 4))
    database.create_table(
        "t", Schema.of(("id@", OID), ("v", INTEGER), ("f", FLOAT))
    )
    return database


def _both(database, text, columns=("v",), session=None):
    """``text``'s rows read off the column order and by the table scan,
    after checking that each plan took the access it was forced to: any
    INTEGER or FLOAT column has an order, empty when the column holds
    no number (or only NaN)."""
    schema = database.catalog.relation("t").schema
    ranged = any(
        schema.columns[schema.index_of(c)].domain in (INTEGER, FLOAT)
        for c in columns
    )
    out = []
    for value, label in ((2.0, "column-range"), (0.0, "table-scan")):
        with crossover(value):
            plan = compile_sql(database, text).plan(session)
            assert plan.access_label == (label if ranged else "table-scan")
            out.append(execute_sql(database, text, session=session).rows)
    return out


_INT = st.integers(-2, 12)
_NUMBER = st.one_of(_INT, _INT.map(lambda n: n / 2 + 0.25))
_FLOAT_VALUE = st.one_of(
    st.sampled_from([NAN, 0.5, 1.0, 2.5, -1.25]), _INT.map(float)
)
_ROW = st.tuples(_INT, _FLOAT_VALUE)
_TERM = st.one_of(
    st.tuples(
        st.sampled_from(["v", "f"]),
        st.sampled_from(["=", "<", "<=", ">", ">="]),
        _NUMBER,
    ),
    st.tuples(st.sampled_from(["v", "f"]), st.just("BETWEEN"), _NUMBER, _NUMBER),
)


def _where(terms):
    return " AND ".join(
        f"{t[0]} BETWEEN {t[2]} AND {t[3]}"
        if t[1] == "BETWEEN"
        else f"{t[0]} {t[1]} {t[2]}"
        for t in terms
    )


class TestColumnRangeEqualsTheScan:
    @settings(max_examples=80, deadline=None)
    @given(
        first=st.lists(_ROW, max_size=30),
        later=st.lists(_ROW, max_size=12),
        aborted=st.lists(_ROW, min_size=1, max_size=6),
        reused=st.lists(_ROW, max_size=8),
        ndeletes=st.integers(0, 5),
        terms=st.lists(_TERM, min_size=1, max_size=3),
    )
    def test_rows_and_order(
        self, first, later, aborted, reused, ndeletes, terms
    ):
        database = _database()
        ids = iter(range(10_000))

        def rows(drawn):
            return [(f"r{next(ids)}", v, f) for v, f in drawn]

        text = f"SELECT id@, v, f FROM t WHERE {_where(terms)}"

        columns = {term[0] for term in terms}

        def check(session=None):
            ranged, scanned = _both(database, text, columns, session)
            assert ranged == scanned

        database.insert_many("t", rows(first))
        check()  # builds the order
        with database.session() as pinned:
            database.insert_many("t", rows(later))  # merged on next use
            for row in database.table("t").rows[:ndeletes]:
                database.delete("t", row)
            check()
            check(pinned)
            # A batch that the writer reads (the order merges its pending
            # rows), then aborts: a later batch reuses those positions.
            with pytest.raises(RuntimeError):
                with database._group_commit():
                    database.table("t").insert_many(rows(aborted))
                    check()
                    raise RuntimeError("abort")
            database.insert_many("t", rows(reused))
            check()
            check(pinned)


def _join_database(rng, count=300):
    """``a`` and ``b``: points with a join point, a box around it and
    ``v`` in ``0..49``."""
    database = SpatialDatabase(Grid(2, 5))
    for table in ("a", "b"):
        database.create_table(
            table,
            Schema.of(
                ("id@", OID),
                ("x", INTEGER),
                ("y", INTEGER),
                ("geom", SPATIAL_OBJECT),
                ("v", INTEGER),
            ),
        )
        _join_rows(database, table, rng, count)
    return database


def _join_rows(database, table, rng, count):
    start = len(database.table(table))
    rows = []
    for i in range(start, start + count):
        x, y = rng.randrange(28), rng.randrange(28)
        oid = f"{table}{i}"
        box = Box(((x, x + rng.randrange(4)), (y, y + rng.randrange(4))))
        rows.append(
            (oid, x, y, SpatialObject.from_box(oid, box), rng.randrange(50))
        )
    database.insert_many(table, rows)


class TestColumnRangeUnderAJoin:
    @pytest.mark.parametrize(
        "on",
        [
            "POINT(a.x, a.y) WITHIN 2 OF POINT(b.x, b.y)",
            "OVERLAPS(a.geom, b.geom)",
        ],
    )
    def test_a_side_reads_its_range(self, on):
        """A one-side ``v`` range pushed below an eps-join or an
        overlap join reads that side's sorted order, EXPLAIN names it,
        and the pairs equal the scanned side's — on the database and
        on a session pinned before more rows arrive."""
        database = _join_database(random.Random(11))
        text = (
            f"SELECT a.id@, b.id@ FROM a JOIN b ON {on} "
            "WHERE a.v BETWEEN 3 AND 4 AND b.v < 40"
        )

        def both(session=None):
            out = []
            for value in (COLUMN_RANGE_DEFAULT, 0.0):
                with crossover(value):
                    explained = compile_sql(database, text).plan(session)
                    named = "side access (a): column-range v in [3, 4]"
                    assert any(
                        note.startswith(named) for note in explained.notes
                    ) == (value > 0.0)
                    out.append(
                        execute_sql(database, text, session=session).rows
                    )
            return out

        ranged, scanned = both()
        assert ranged == scanned and ranged
        with database.session() as pinned:
            _join_rows(database, "a", random.Random(12), 100)
            for session in (None, pinned):
                ranged, scanned = both(session)
                assert ranged == scanned


class TestCountsOnFiftyThousandRows:
    def test_a_selective_range_reads_only_the_covered_rows(self, monkeypatch):
        """``v BETWEEN 1000 AND 1049`` keeps 0.1% of 50k rows: no scan
        of the visible rows, and the filter chain sees the 50 covered
        rows, not 50k."""
        database = _database()
        database.insert_many(
            "t", [(f"r{i}", (i * 7919) % 50_000, 0.0) for i in range(50_000)]
        )
        text = "SELECT id@, v FROM t WHERE v BETWEEN 1000 AND 1049"
        compiled = compile_sql(database, text)
        # the column histogram's build reads the rows once per write
        assert compiled.plan().access_label == "column-range"
        calls = []
        stored_at = VersionedRelation._stored_at
        monkeypatch.setattr(
            VersionedRelation,
            "_stored_at",
            lambda self, epoch: calls.append(epoch) or stored_at(self, epoch),
        )
        result, trace = compiled.run_traced()
        assert calls == []
        (span,) = [s for s in trace.root.walk() if s.name.startswith("filter[")]
        assert span.counters == {"rows_in": 50, "rows_out": 50}
        assert sorted(row[1] for row in result) == list(range(1000, 1050))
        assert [row[0] for row in result] == sorted(
            (row[0] for row in result), key=lambda oid: int(oid[1:])
        )


class TestColumnRangeBesideAWriter:
    def test_reads_beside_inserts_deletes_and_aborts(self):
        """Readers range while a writer commits batches that insert and
        delete rows inside the range, and aborts batches it has read
        (so the order holds their rows) whose positions the next batch
        reuses.  A snapshot read equals its epoch's rows; a live read
        equals the rows of one epoch between its start and its end."""
        database = _database()
        database.insert_many(
            "t", [(f"r{i}", i % 100, float(i)) for i in range(2_000)]
        )
        text = "SELECT id@, v FROM t WHERE v BETWEEN 40 AND 44"
        relation = database.table("t")
        epoch = lambda: database.snapshots.current_epoch  # noqa: E731
        errors = []
        done = threading.Event()

        def want(at):
            return [
                (row[0], row[1])
                for row in relation.rows_at(at)
                if 40 <= row[1] <= 44
            ]

        def read():
            while not done.is_set():
                try:
                    with database.session() as session:
                        got = execute_sql(database, text, session=session)
                        assert got.rows == want(session.epoch)
                    start = epoch()
                    got = execute_sql(database, text).rows
                    assert any(
                        got == want(at) for at in range(start, epoch() + 1)
                    )
                except Exception as error:  # any failure fails the test
                    errors.append(error)
                    return

        readers = [threading.Thread(target=read) for _ in range(3)]
        rng = random.Random(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for step in range(80):
                with pytest.raises(RuntimeError):
                    with database._group_commit():
                        relation.insert_many(
                            [(f"a{step}.{k}", -1, 0.0) for k in range(5)]
                        )
                        execute_sql(database, text)  # the order takes them
                        raise RuntimeError("abort")
                with database.session() as writer:
                    for k in range(5):
                        writer.insert("t", (f"w{step}.{k}", 40 + k, 0.0))
                    live = [r for r in relation.rows if 40 <= r[1] <= 44]
                    writer.delete("t", rng.choice(live))
                    writer.commit()
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        ranged, scanned = _both(database, text)
        assert ranged == scanned

    def test_a_commit_between_the_order_and_the_fetch(self, monkeypatch):
        """A live read fixes its epoch before it reads the order: a
        commit landing between the two (one insert and one delete in
        the range) is invisible to it, not half applied.  The planner
        reads the order too, for the range's share; the commit lands
        after the fetch's read."""
        database = _database()
        database.insert_many("t", [(f"r{i}", i % 10, 0.0) for i in range(100)])
        text = "SELECT id@, v FROM t WHERE v = 4"
        before = execute_sql(database, text).rows
        column_order = VersionedRelation.column_order

        def racing(self, index):
            out = column_order(self, index)
            if sys._getframe(1).f_code.co_name != "_column_range_rows":
                return out
            monkeypatch.setattr(VersionedRelation, "column_order", column_order)
            with database.session() as writer:
                writer.insert("t", ("late", 4, 0.0))
                writer.delete("t", ("r4", 4, 0.0))
                writer.commit()
            return out

        monkeypatch.setattr(VersionedRelation, "column_order", racing)
        assert execute_sql(database, text).rows == before
        after = execute_sql(database, text).rows
        assert after == before[1:] + [("late", 4)]


class TestOneShareReadPerPlan:
    def test_an_attr_statement_reads_its_share_once(self, monkeypatch):
        """The ledger's ``sql_attr`` shape, ``v BETWEEN a AND a + 99``
        on a table indexed on (x, y): planning reads the column's share
        once, for the filter estimate and the access choice both, and
        the index on columns no conjunct names builds no window."""
        database = SpatialDatabase(Grid(2, 6))
        database.create_table(
            "points",
            Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER), ("v", INTEGER)),
        )
        rng = random.Random(5)
        database.insert_many(
            "points",
            [
                (i, rng.randrange(64), rng.randrange(64), rng.randrange(5000))
                for i in range(2000)
            ],
        )
        database.create_index("points_xy", "points", ("x", "y"))
        calls = []
        share = planner.column_selectivity
        monkeypatch.setattr(
            planner,
            "column_selectivity",
            lambda *args: calls.append(args[2:]) or share(*args),
        )
        windows = []
        window = planner.plan_range_query
        monkeypatch.setattr(
            planner,
            "plan_range_query",
            lambda *args: windows.append(args) or window(*args),
        )
        for low in (100, 2400):
            text = (
                f"SELECT id@, v FROM points WHERE v BETWEEN {low} AND {low + 99}"
            )
            calls.clear()
            plan = compile_sql(database, text).plan()
            assert plan.access_label == "column-range"
            assert calls == [("v", low, low + 99)]
            rows = execute_sql(database, text).rows
            assert rows == [
                (r[0], r[3])
                for r in database.table("points").rows
                if low <= r[3] <= low + 99
            ]
        assert windows == []
