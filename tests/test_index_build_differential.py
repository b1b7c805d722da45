"""Differential: an index bulk-loaded over stored rows answers exactly
like one created empty and then fed row by row.

``create_index`` builds a single-tree index as one sorted run, its
leaves packed to :data:`~repro.db.database.INDEX_FILL_FACTOR`; the
oracle database creates the same index on empty tables and inserts
the same rows one at a time, so its tree is shaped by splits.  Both
must return the same rows, in the same order, for range, partial
match, k-NN and windowed eps-seek statements, read live and through a
snapshot session, after the build and after 200 later inserts and
deletes (one commit of them aborted), with duplicate points and an
empty table in play.  Each tree's structure is checked after every
phase."""

import random

import pytest

from repro.core.geometry import Grid
from repro.db import INTEGER, OID, Schema, SpatialDatabase
from repro.db.database import INDEX_FILL_FACTOR
from repro.sql import compile_sql, execute_sql

GRID = Grid(ndims=2, depth=6)
SIDE = GRID.side
SCHEMA = Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))


def _statements(rng, count):
    """``count`` statements of each kind the (x, y) index serves."""
    out = []
    for _ in range(count):
        x0, y0 = rng.randrange(SIDE - 12), rng.randrange(SIDE - 12)
        x1, y1 = x0 + rng.randrange(12), y0 + rng.randrange(12)
        box = f"BOX({x0}, {x1}, {y0}, {y1})"
        out += [
            f"SELECT id@, x, y FROM points WHERE {box} CONTAINS POINT(x, y)",
            f"SELECT id@, x, y FROM points WHERE x BETWEEN {x0} AND {x0 + 1}",
            f"SELECT id@, x, y FROM points NEAREST 7 TO POINT({x0}, {y0}) "
            "BY POINT(x, y)",
            "SELECT points.id@, probes.id@ FROM points JOIN probes "
            "ON POINT(points.x, points.y) WITHIN 2 OF "
            f"POINT(probes.x, probes.y) WHERE {box} "
            "CONTAINS POINT(probes.x, probes.y)",
        ]
    return out


def _rows(rng, prefix, count):
    """``count`` rows, a third of them on a few shared points so that
    runs of equal z codes span leaves."""
    hot = [(rng.randrange(SIDE), rng.randrange(SIDE)) for _ in range(3)]
    rows = []
    for i in range(count):
        if i % 3 == 0:
            x, y = rng.choice(hot)
        else:
            x, y = rng.randrange(SIDE), rng.randrange(SIDE)
        rows.append((f"{prefix}{i}", x, y))
    return rows


def _databases(points, probes, page_capacity):
    """(bulk-loaded, fed row by row) databases over the same rows."""
    built = SpatialDatabase(GRID, page_capacity=page_capacity)
    fed = SpatialDatabase(GRID, page_capacity=page_capacity)
    for db in (built, fed):
        db.create_table("points", SCHEMA)
        db.create_table("probes", SCHEMA)
    for table, rows in (("points", points), ("probes", probes)):
        fed.create_index(f"{table}_xy", table, ("x", "y"))
        for row in rows:
            fed.insert(table, row)
        built.insert_many(table, rows)
        built.create_index(f"{table}_xy", table, ("x", "y"))
    return built, fed


def _check_trees(*dbs):
    for db in dbs:
        for table in ("points", "probes"):
            for entry in db.catalog.indexes_on(table):
                entry.tree.tree.check_invariants()


def _assert_same(built, fed, statements, sessions=(None, None)):
    for text in statements:
        got = execute_sql(built, text, session=sessions[0]).rows
        want = execute_sql(fed, text, session=sessions[1]).rows
        assert got == want, text


@pytest.mark.parametrize(
    "npoints, page_capacity", [(0, 20), (1, 20), (600, 20), (300, 4)]
)
def test_bulk_loaded_index_reads_like_a_fed_one(npoints, page_capacity):
    rng = random.Random(npoints * 31 + page_capacity)
    points = _rows(rng, "p", npoints)
    probes = _rows(rng, "q", 40)
    built, fed = _databases(points, probes, page_capacity)
    statements = _statements(rng, 6)
    _check_trees(built, fed)
    _assert_same(built, fed, statements)
    tree = built.catalog.indexes_on("points")[0].tree
    if npoints >= 100:
        # Leaves hold the fill constant's share of a page, not all of it.
        per_leaf = max(1, int(page_capacity * INDEX_FILL_FACTOR))
        assert tree.npages == -(-npoints // per_leaf)
        box = statements[0]
        assert compile_sql(built, box).plan().access_label == "index-scan"

    pinned = (built.session(), fed.session())
    live = list(points)
    for step in range(200):
        if live and rng.random() < 0.4:
            row = live.pop(rng.randrange(len(live)))
            assert built.delete("points", row) and fed.delete("points", row)
        else:
            row = (f"n{step}", rng.randrange(SIDE), rng.randrange(SIDE))
            live.append(row)
            built.insert("points", row)
            fed.insert("points", row)
        if step == 100:
            # One commit whose last write is off the grid: it fails
            # whole, and neither database keeps any of it.
            for db in (built, fed):
                with db.session() as writer:
                    writer.insert("points", ("lost", 1, 1))
                    if live:
                        writer.delete("points", live[0])
                    writer.insert("points", ("bad", SIDE, 0))
                    with pytest.raises(ValueError):
                        writer.commit()
            _check_trees(built, fed)
    _check_trees(built, fed)
    _assert_same(built, fed, statements)
    assert sorted(built.table("points").rows) == sorted(live)
    try:
        # The sessions pinned before the writes still read the rows
        # as built.
        _assert_same(built, fed, statements, pinned)
        box = statements[0]
        assert execute_sql(built, box, session=pinned[0]).rows == [
            row for row in points if _inside(box, row)
        ]
    finally:
        for session in pinned:
            session.close()


def _inside(text, row):
    """Whether ``row`` lies in the BOX of a range statement's text."""
    inner = text[text.index("BOX(") + 4 : text.index(")")]
    x0, x1, y0, y1 = map(int, inner.split(", "))
    return x0 <= row[1] <= x1 and y0 <= row[2] <= y1
