"""O(n^2) oracle differential suite for the epsilon cross-match join.

The Zones sweep is a pure filter over the exact Euclidean test, so
every surface that serves an eps-join must be *byte-identical* to an
independent brute force and to the ``nested_epsilon_join`` oracle: the
raw operator over point catalogs, the database facade, snapshot
sessions, the SQL ``WITHIN`` join and predicate, and the TCP server's
batched path — and the windowed join's eps-seek on every provider that
can answer its sought side.
"""

import asyncio
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.proximity import (
    ZonesIndex,
    nested_epsilon_join,
    zone_height_for,
    zones_epsilon_join,
)
from repro.server import QueryClient, QueryService, serve
from repro.sql import compile_sql, execute_sql
from repro.workloads import cross_match_catalogs, sky_catalog

GRID = Grid(ndims=2, depth=6)


def oracle_pairs(pts_a, pts_b, eps):
    """Every ordinal pair within ``eps``, in the canonical
    ``(point_a, point_b, i, j)`` order — written independently of the
    operators under test."""
    limit = eps * eps
    hits = sorted(
        (tuple(a), tuple(b), i, j)
        for (i, a), (j, b) in itertools.product(
            enumerate(pts_a), enumerate(pts_b)
        )
        if sum((x - y) ** 2 for x, y in zip(a, b)) <= limit
    )
    return [(i, j) for _, _, i, j in hits]


def catalogs(rng, grid, na, nb, duplicates=True):
    side = grid.side
    pts_a = [
        tuple(rng.randrange(side) for _ in range(grid.ndims))
        for _ in range(na)
    ]
    pts_b = [
        tuple(rng.randrange(side) for _ in range(grid.ndims))
        for _ in range(nb)
    ]
    if duplicates and pts_a and pts_b:
        pts_a.append(pts_a[0])
        pts_b.append(pts_a[0])
    return pts_a, pts_b


def run_all(pts_a, pts_b, eps):
    return {
        "zones": zones_epsilon_join(pts_a, pts_b, eps),
        "nested-loop": nested_epsilon_join(pts_a, pts_b, eps),
    }


# ---------------------------------------------------------------------
# Zones and the nested-loop oracle vs the brute force
# ---------------------------------------------------------------------


class TestStrategiesVsOracle:
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.5, 5.0])
    def test_uniform_catalogs(self, eps):
        rng = random.Random(61)
        pts_a, pts_b = catalogs(rng, GRID, 70, 55)
        want = oracle_pairs(pts_a, pts_b, eps)
        for name, got in run_all(pts_a, pts_b, eps).items():
            assert got == want, name

    def test_clustered_sky_catalogs(self):
        primary, secondary = cross_match_catalogs(GRID, 80, seed=62)
        pts_a, pts_b = list(primary.points), list(secondary.points)
        for eps in (1.0, 3.0):
            want = oracle_pairs(pts_a, pts_b, eps)
            for name, got in run_all(pts_a, pts_b, eps).items():
                assert got == want, name

    def test_eps_covering_everything(self):
        rng = random.Random(63)
        pts_a, pts_b = catalogs(rng, GRID, 12, 9)
        eps = GRID.side * math.sqrt(GRID.ndims)
        want = oracle_pairs(pts_a, pts_b, eps)
        assert len(want) == len(pts_a) * len(pts_b)
        for name, got in run_all(pts_a, pts_b, eps).items():
            assert got == want, name

    def test_empty_sides(self):
        pts = [(1, 2), (3, 4)]
        for a, b in (([], pts), (pts, []), ([], [])):
            for got in run_all(a, b, 2.0).values():
                assert got == []

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            zones_epsilon_join([(0, 0)], [(0, 0)], -1.0)
        with pytest.raises(ValueError):
            nested_epsilon_join([(0, 0)], [(0, 0)], -1.0)

    def test_oversized_zone_height_still_exact(self):
        """Any ``h >= eps`` keeps the neighbour-zone invariant; larger
        heights just scan wider strips."""
        rng = random.Random(64)
        pts_a, pts_b = catalogs(rng, GRID, 40, 40)
        want = oracle_pairs(pts_a, pts_b, 2.0)
        for height in (2, 5, GRID.side):
            assert (
                zones_epsilon_join(pts_a, pts_b, 2.0, zone_height=height)
                == want
            )


class TestZonesIndex:
    def test_candidates_cover_every_true_pair(self):
        """What the sweep relies on: each zone holds its points as
        in-step ``(xs, pts, ordinals)`` runs sorted by the first axis,
        and a pair within ``eps`` sits in a +/- 1 zone inside the
        ``x +/- eps`` stretch the sweep examines."""
        rng = random.Random(66)
        pts_a, pts_b = catalogs(rng, GRID, 50, 50)
        eps = 3.0
        index = ZonesIndex(pts_b, zone_height_for(eps))
        where = {}
        for zid, (xs, pts, ordinals) in index.zones.items():
            assert xs == sorted(xs) == [p[0] for p in pts]
            assert [pts_b[j] for j in ordinals] == pts
            assert all(index.zone_of(p) == zid for p in pts)
            for k, j in enumerate(ordinals):
                where[j] = (zid, k)
        assert sorted(where) == list(range(len(pts_b)))
        limit = eps * eps
        for a in pts_a:
            for j, b in enumerate(pts_b):
                if sum((x - y) ** 2 for x, y in zip(a, b)) <= limit:
                    zid, k = where[j]
                    assert abs(index.zone_of(a) - zid) <= 1
                    assert a[0] - eps <= index.zones[zid][0][k] <= a[0] + eps

    def test_zone_height_floor(self):
        assert zone_height_for(0.0) == 1
        assert zone_height_for(0.3) == 1
        assert zone_height_for(2.0) == 2
        assert zone_height_for(2.1) == 3
        with pytest.raises(ValueError):
            ZonesIndex([(0, 0)], 0)


# ---------------------------------------------------------------------
# Database facade and sessions
# ---------------------------------------------------------------------


def _build_join_db(rng, na=60, nb=45, index=True):
    db = SpatialDatabase(GRID, page_capacity=8)
    for table in ("stars", "gals"):
        db.create_table(
            table,
            Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER)),
        )
    side = GRID.side
    stars = [
        (f"s{i}", rng.randrange(side), rng.randrange(side))
        for i in range(na)
    ]
    gals = [
        (f"g{j}", rng.randrange(side), rng.randrange(side))
        for j in range(nb)
    ]
    db.insert_many("stars", stars)
    db.insert_many("gals", gals)
    if index:
        _index_join_db(db)
    return db, stars, gals


def _index_join_db(db):
    db.create_index("stars_xy", "stars", ("x", "y"))
    db.create_index("gals_xy", "gals", ("x", "y"))


def _eps_joins(db):
    return db.planner_stats.get("planner.eps_joins", 0)


def oracle_join_rows(stars, gals, eps):
    pairs = oracle_pairs(
        [row[1:] for row in stars], [row[1:] for row in gals], eps
    )
    return [stars[i] + gals[j] for i, j in pairs]


class TestDatabaseJoin:
    def test_join_rows_match_oracle(self):
        rng = random.Random(71)
        db, stars, gals = _build_join_db(rng)
        for eps in (0.0, 1.5, 4.0):
            got = db.epsilon_join("stars", ("x", "y"), "gals", ("x", "y"), eps)
            assert list(got.rows) == oracle_join_rows(stars, gals, eps)

    def test_output_schema_keeps_all_columns_qualified(self):
        db, _, _ = _build_join_db(random.Random(72), na=5, nb=5)
        out = db.epsilon_join("stars", ("x", "y"), "gals", ("x", "y"), 2.0)
        assert list(out.schema.names) == [
            "stars_id@",
            "stars_x",
            "stars_y",
            "gals_id@",
            "gals_x",
            "gals_y",
        ]

    def test_planner_counters_bump(self):
        db, _, _ = _build_join_db(random.Random(73), na=10, nb=10)
        db.epsilon_join("stars", ("x", "y"), "gals", ("x", "y"), 1.0)
        db.epsilon_join("stars", ("x", "y"), "gals", ("x", "y"), 1.0)
        assert db.planner_stats["planner.eps_joins"] == 2

    def test_session_pinned_snapshot(self):
        rng = random.Random(74)
        db, stars, gals = _build_join_db(rng, na=30, nb=25)
        eps = 2.5
        want = oracle_join_rows(stars, gals, eps)
        with db.session() as session:
            extra = ("gX", stars[0][1], stars[0][2])
            db.insert("gals", extra)
            got = list(
                session.epsilon_join(
                    "stars", ("x", "y"), "gals", ("x", "y"), eps
                ).rows
            )
            assert got == want
            # A session's join shows up in /stats like a database's.
            assert _eps_joins(db) == 1
            fresh = list(
                db.epsilon_join(
                    "stars", ("x", "y"), "gals", ("x", "y"), eps
                ).rows
            )
            assert fresh == oracle_join_rows(stars, gals + [extra], eps)
            assert len(fresh) > len(want)
            assert _eps_joins(db) == 2

    @pytest.mark.parametrize("visible", [True, False])
    def test_every_session_read_equals_its_database_twin(self, visible):
        """Range, proximity, k-NN and eps-join through a session at a
        fresh pin are byte-identical to the database's — through a
        snapshot-visible index, and through the visible rows themselves
        when the index was born after the pin."""
        rng = random.Random(75)
        db, stars, _ = _build_join_db(
            rng, na=70, nb=40, index=visible
        )
        cols = ("x", "y")
        side = GRID.side
        with db.session() as session:
            if not visible:
                _index_join_db(db)
                with pytest.raises(ValueError):  # falls back to its rows
                    session.range_query_stats("stars", cols, GRID.whole_space())
            else:
                session.range_query_stats("stars", cols, GRID.whole_space())
            for _ in range(6):
                x0, x1 = sorted(rng.randrange(side) for _ in range(2))
                y0, y1 = sorted(rng.randrange(side) for _ in range(2))
                box = Box(((x0, x1), (y0, y1)))
                assert list(session.range_query("stars", cols, box).rows) == (
                    list(db.range_query("stars", cols, box).rows)
                )
                center = (rng.randrange(side), rng.randrange(side))
                radius = rng.choice((0, 3.5, 9))
                assert list(
                    session.proximity_query("stars", cols, center, radius).rows
                ) == list(db.proximity_query("stars", cols, center, radius).rows)
                assert list(
                    session.knn_query("stars", cols, center, 6).rows
                ) == list(db.knn_query("stars", cols, center, 6).rows)
            assert list(
                session.epsilon_join("stars", cols, "gals", cols, 3.0).rows
            ) == list(db.epsilon_join("stars", cols, "gals", cols, 3.0).rows)


# ---------------------------------------------------------------------
# SQL WITHIN: join and predicate, local and over the wire
# ---------------------------------------------------------------------

JOIN_QUERY = (
    "SELECT * FROM stars JOIN gals "
    "ON POINT(stars.x, stars.y) WITHIN {eps} OF POINT(gals.x, gals.y)"
)


class TestSqlWithin:
    def test_join_rows_equal_database_join(self):
        rng = random.Random(81)
        db, stars, gals = _build_join_db(rng)
        for done, eps in enumerate((0, 2, 4.5)):
            out = execute_sql(db, JOIN_QUERY.format(eps=eps))
            assert _eps_joins(db) == 2 * done + 1
            want = db.epsilon_join(
                "stars", ("x", "y"), "gals", ("x", "y"), eps
            )
            assert _eps_joins(db) == 2 * done + 2
            assert out.rows == list(want.rows)
            assert out.columns == list(want.schema.names)
            assert out.rows == oracle_join_rows(stars, gals, eps)

    def test_predicate_rows_equal_exact_ball(self):
        rng = random.Random(82)
        db, stars, _ = _build_join_db(rng)
        center, eps = (30, 28), 6.5
        out = execute_sql(
            db,
            "SELECT id@, x, y FROM stars "
            f"WHERE POINT(x, y) WITHIN {eps} OF POINT{center}",
        )
        limit = eps * eps
        want = [
            row
            for row in stars
            if sum((a - b) ** 2 for a, b in zip(row[1:], center)) <= limit
        ]
        assert sorted(out.rows) == sorted(want)
        assert sorted(out.rows) == sorted(
            db.proximity_query("stars", ("x", "y"), center, eps).rows
        )

    def test_predicate_composes_with_filters_and_session(self):
        rng = random.Random(83)
        db, stars, _ = _build_join_db(rng)
        query = (
            "SELECT id@, x, y FROM stars "
            "WHERE POINT(x, y) WITHIN 9 OF POINT(32, 32) AND x > 20"
        )
        want = [
            row
            for row in stars
            if sum((a - b) ** 2 for a, b in zip(row[1:], (32, 32))) <= 81
            and row[1] > 20
        ]
        assert sorted(execute_sql(db, query).rows) == sorted(want)
        with db.session() as session:
            assert sorted(
                execute_sql(db, query, session=session).rows
            ) == sorted(want)

    def test_server_serves_both_shapes(self):
        rng = random.Random(84)
        db, stars, gals = _build_join_db(rng, na=35, nb=30)
        predicate_query = (
            "SELECT id@, x, y FROM stars "
            "WHERE POINT(x, y) WITHIN 7 OF POINT(40, 22)"
        )
        join_query = JOIN_QUERY.format(eps=2)
        local_pred = execute_sql(db, predicate_query).rows
        local_join = execute_sql(db, join_query).rows

        async def run():
            service = QueryService(db)
            server = await serve(service)
            try:
                async with await QueryClient.connect(
                    *server.address
                ) as client:
                    pred = await client.sql(predicate_query)
                    join = await client.sql(join_query)
                    return pred, join
            finally:
                await server.close()

        pred, join = asyncio.run(run())
        assert [tuple(r) for r in pred["rows"]] == local_pred
        assert [tuple(r) for r in join["rows"]] == local_join
        assert join["rows"]


# ---------------------------------------------------------------------
# The windowed SQL join's eps-seek, on every provider
# ---------------------------------------------------------------------

COORD = st.integers(0, GRID.side - 1)


@dataclass
class SeekCase:
    """A join of ``points`` (id, x, y, v) and ``probes`` (id, x, y)
    with a window on the probes, so their points seek the ``points``
    index; ``vmax`` adds a filter on the sought side."""

    points: list
    probes: list
    later: list
    window: tuple
    eps: float
    vmax: Optional[int] = None
    probes_left: bool = False

    def sql(self):
        x0, x1, y0, y1 = self.window
        a, b = ("probes", "points") if self.probes_left else ("points", "probes")
        text = (
            f"SELECT * FROM {a} JOIN {b} ON POINT({a}.x, {a}.y) "
            f"WITHIN {self.eps} OF POINT({b}.x, {b}.y) "
            f"WHERE BOX({x0}, {x1}, {y0}, {y1}) "
            "CONTAINS POINT(probes.x, probes.y)"
        )
        if self.vmax is not None:
            text += f" AND points.v < {self.vmax}"
        return text

    def oracle(self, points, probes):
        x0, x1, y0, y1 = self.window
        inside = [r for r in probes if x0 <= r[1] <= x1 and y0 <= r[2] <= y1]
        kept = [r for r in points if self.vmax is None or r[3] < self.vmax]
        a, b = (inside, kept) if self.probes_left else (kept, inside)
        pairs = nested_epsilon_join(
            [r[1:3] for r in a], [r[1:3] for r in b], self.eps
        )
        return [a[i] + b[j] for i, j in pairs]

    def database(self, index=True, cache=False):
        db = SpatialDatabase(GRID, page_capacity=4, cache=cache)
        db.create_table(
            "points",
            Schema.of(
                ("id@", OID), ("x", INTEGER), ("y", INTEGER), ("v", INTEGER)
            ),
        )
        db.create_table(
            "probes", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        db.insert_many("points", self.points)
        db.insert_many("probes", self.probes)
        if index:
            _index_seek_db(db)
        return db


def _index_seek_db(db):
    db.create_index("points_xy", "points", ("x", "y"))
    db.create_index("probes_xy", "probes", ("x", "y"))


def _seeks(db, text, session=None):
    return "eps-seek" in compile_sql(db, text).explain(session)


@st.composite
def windowed_joins(draw):
    """Points drawn from a small pool, so rows share coordinates;
    windows anywhere, touching the grid's edges or holding no probe."""
    pool = draw(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=10))
    spot = st.tuples(st.sampled_from(pool), st.integers(0, 9))
    x0, x1 = sorted(draw(st.tuples(COORD, COORD)))
    y0, y1 = sorted(draw(st.tuples(COORD, COORD)))
    return SeekCase(
        points=[
            (f"p{i}", x, y, v)
            for i, ((x, y), v) in enumerate(
                draw(st.lists(spot, max_size=40))
            )
        ],
        probes=[
            (f"q{j}", x, y)
            for j, (x, y) in enumerate(
                draw(st.lists(st.tuples(COORD, COORD), max_size=20))
            )
        ],
        later=[
            (f"n{i}", x, y, v)
            for i, ((x, y), v) in enumerate(draw(st.lists(spot, max_size=8)))
        ],
        window=(x0, x1, y0, y1),
        eps=draw(st.sampled_from([0, 1, 2.5, 3, 12])),
        vmax=draw(st.one_of(st.none(), st.integers(0, 10))),
        probes_left=draw(st.booleans()),
    )


SEEK_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestWindowedSeek:
    """Rows equal the nested loop over the window's probes and the
    filtered points, in canonical order: rows sharing a point pair once
    each, the ``points.v`` filter runs on the sought side, eps may be
    fractional, and windows may touch the grid's edges or be empty."""

    @SEEK_SETTINGS
    @given(windowed_joins())
    def test_live_and_cached(self, case):
        """The database, with and without the perf ledger's ignored
        ``cache=True`` flag, seeks and answers alike."""
        want = case.oracle(case.points, case.probes)
        for opts in ({}, {"cache": True}):
            db = case.database(**opts)
            assert _seeks(db, case.sql())
            assert execute_sql(db, case.sql()).rows == want, opts

    @SEEK_SETTINGS
    @given(windowed_joins())
    def test_sessions_read_their_snapshot(self, case):
        """Pinned before later writes (a snapshot view answers), and
        pinned before the index was born (no seek: the session cannot
        read that index, so the zones sweep joins its visible rows)."""
        want = case.oracle(case.points, case.probes)
        late = ("late", case.window[0], case.window[2])
        db = case.database()
        with db.session() as session:
            db.insert_many("points", case.later)
            db.insert("probes", late)
            if case.points:
                db.delete("points", case.points[0])
            assert _seeks(db, case.sql(), session)
            assert execute_sql(db, case.sql(), session=session).rows == want
        assert execute_sql(db, case.sql()).rows == case.oracle(
            case.points[1:] + case.later, case.probes + [late]
        )
        db = case.database(index=False)
        with db.session() as session:
            _index_seek_db(db)
            assert not _seeks(db, case.sql(), session)
            assert execute_sql(db, case.sql(), session=session).rows == want

    @settings(max_examples=10, deadline=None)
    @given(windowed_joins())
    def test_over_the_wire(self, case):
        db = case.database()

        async def run():
            service = QueryService(db)
            server = await serve(service)
            try:
                async with await QueryClient.connect(
                    *server.address
                ) as client:
                    return await client.sql(case.sql())
            finally:
                await server.close()

        response = asyncio.run(run())
        assert [tuple(row) for row in response["rows"]] == case.oracle(
            case.points, case.probes
        )

    @pytest.mark.parametrize(
        "window", [(0, 63, 0, 63), (0, 2, 61, 63), (62, 63, 0, 0), (20, 21, 20, 21)]
    )
    def test_edge_and_empty_windows(self, window):
        top = GRID.side - 1
        corners = [
            (0, 0), (1, 1), (0, 0), (top, top - 1),
            (top - 1, top), (2, top - 2), (top, 0), (30, 30),
        ]
        case = SeekCase(
            points=[(f"p{i}", x, y, i) for i, (x, y) in enumerate(corners)],
            probes=[
                ("q0", 0, 0), ("q1", top, top), ("q2", 0, top),
                ("q3", top, 0), ("q4", 31, 32),
            ],
            later=[],
            window=window,
            eps=2.5,
        )
        for eps in (2.5, 12):
            case.eps = eps
            db = case.database()
            assert _seeks(db, case.sql())
            assert execute_sql(db, case.sql()).rows == case.oracle(
                case.points, case.probes
            )


# ---------------------------------------------------------------------
# Nightly sweep (slow tier)
# ---------------------------------------------------------------------


@pytest.mark.slow
class TestNightlySweep:
    def test_sky_scale_cross_match(self):
        grid = Grid(ndims=2, depth=9)
        primary, secondary = cross_match_catalogs(grid, 1200, seed=91)
        pts_a, pts_b = list(primary.points), list(secondary.points)
        for eps in (1.0, 2.5, 4.0):
            want = oracle_pairs(pts_a, pts_b, eps)
            for name, got in run_all(pts_a, pts_b, eps).items():
                assert got == want, name

    def test_sky_scale_self_join(self):
        grid = Grid(ndims=2, depth=9)
        catalog = list(sky_catalog(grid, 900, seed=92).points)
        want = oracle_pairs(catalog, catalog, 2.0)
        for name, got in run_all(catalog, catalog, 2.0).items():
            assert got == want, name
