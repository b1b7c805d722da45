"""Brute-force oracle differential suite for the one k-NN.

Every provider that serves a k-NN — :meth:`ProximityReads.
nearest_neighbours` over a :class:`ZkdTree`, its snapshot view and the
``RowStore`` fallback, the database facade, snapshot sessions, the SQL
``NEAREST`` clause on both of its plans, and the TCP server — must
return rows *byte-identical* to an O(n) brute-force
oracle that sorts by ``(distance^2, z code)`` and truncates.

Also pins the edge treatment of the probe boxes: a probe near the domain
boundary is clipped at ``0`` and ``2**bits - 1``, never wrapped, so a
corner query sees its own corner.
"""

import asyncio
import random

import pytest

from repro.concurrency.view import SnapshotTreeView
from repro.core.geometry import Grid
from repro.db.database import SpatialDatabase
from repro.db.readpath import RowStore
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.obs.trace import trace
from repro.server import QueryClient, QueryService, serve
from repro.sql import execute_sql
from repro.storage.prefix_btree import ZkdTree
from repro.workloads import knn_workload, sky_catalog

GRID = Grid(ndims=2, depth=6)


def oracle_points(grid, points, center, k):
    """The k nearest stored points, ties by z code — O(n log n)."""
    ranked = sorted(
        (
            sum((a - b) ** 2 for a, b in zip(p, center)),
            grid.zvalue(p).bits,
            p,
        )
        for p in points
    )
    return [p for _, _, p in ranked[: min(k, len(ranked))]]


def oracle_rows(grid, rows, coord_idx, center, k):
    """The k nearest rows: stable sort by ``(distance^2, z code)``."""

    def key(row):
        point = tuple(row[i] for i in coord_idx)
        return (
            sum((a - b) ** 2 for a, b in zip(point, center)),
            grid.zvalue(point).bits,
        )

    return sorted(rows, key=key)[: min(k, len(rows))]


def unique_points(rng, grid, n):
    side = grid.side
    points = set()
    while len(points) < n:
        points.add(tuple(rng.randrange(side) for _ in range(grid.ndims)))
    return sorted(points)


def centers(rng, grid, n):
    side = grid.side
    return [
        tuple(rng.randrange(side) for _ in range(grid.ndims))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------
# nearest_neighbours vs oracle, across stores
# ---------------------------------------------------------------------


class TestStoreOracle:
    def test_tree_matches_oracle(self):
        rng = random.Random(11)
        points = unique_points(rng, GRID, 180)
        tree = ZkdTree(GRID, page_capacity=8)
        tree.bulk_load(points)
        for center in centers(rng, GRID, 12):
            for k in (1, 3, 8, 200):
                assert tree.nearest_neighbours(center, k) == oracle_points(
                    GRID, points, center, k
                )

    def test_first_knn_after_a_write_costs_probes_not_a_rebuild(self):
        """Nothing is built per store state: the k-NN right after an
        insert sees the new point through a handful of box probes that
        touch a sliver of the table — and a delete is seen the same
        way."""
        grid = Grid(ndims=2, depth=9)
        rng = random.Random(14)
        points = unique_points(rng, grid, 5000)
        center = next(
            c for c in centers(rng, grid, 50) if c not in set(points)
        )
        tree = ZkdTree(grid, page_capacity=20)
        tree.bulk_load(points)
        tree.insert(center)
        with trace("knn-after-insert") as t:
            got = tree.nearest_neighbours(center, 10)
        assert got == oracle_points(grid, points + [center], center, 10)
        assert got[0] == center
        counters = t.total_counters()
        assert counters["knn.queries"] == 1
        assert 1 <= counters["knn.probes"] <= 4
        assert counters["records_scanned"] < len(points) // 20
        tree.delete(center)
        assert tree.nearest_neighbours(center, 10) == oracle_points(
            grid, points, center, 10
        )

    def test_k_larger_than_store_returns_everything(self):
        points = [(1, 1), (2, 2), (3, 3)]
        tree = ZkdTree(GRID, page_capacity=8)
        tree.bulk_load(points)
        assert tree.nearest_neighbours((0, 0), 99) == oracle_points(
            GRID, points, (0, 0), 99
        )

    def test_empty_store_and_bad_arguments(self):
        tree = ZkdTree(GRID, page_capacity=8)
        assert tree.nearest_neighbours((0, 0), 3) == []
        with pytest.raises(ValueError):
            tree.nearest_neighbours((0, 0), 0)
        tree.insert((1, 1))
        with pytest.raises(ValueError):
            tree.nearest_neighbours((GRID.side, 0), 1)


# ---------------------------------------------------------------------
# One k-NN under every provider, 2-d to 4-d
# ---------------------------------------------------------------------


def _indexed_db(grid, points):
    cols = tuple(f"c{axis}" for axis in range(grid.ndims))
    db = SpatialDatabase(grid, page_capacity=8)
    db.create_table(
        "points", Schema.of(("id@", OID), *((c, INTEGER) for c in cols))
    )
    db.insert_many(
        "points", [(f"p{i}",) + p for i, p in enumerate(points)]
    )
    db.create_index("points_c", "points", cols)
    return db, cols


def _sql_points(db, cols, center, k):
    by = ", ".join(cols)
    rows = execute_sql(
        db,
        f"SELECT {by} FROM points NEAREST {k} TO "
        f"POINT({', '.join(map(str, center))}) BY POINT({by})",
    ).rows
    return [tuple(row) for row in rows]


@pytest.fixture(params=[2, 3, 4], ids=["2d", "3d", "4d"])
def providers(request):
    """``(grid, points, {provider: center, k -> nearest points})`` over
    one point set with a cluster in each far corner and a ring of
    equidistant points around the grid's centre."""
    grid = Grid(ndims=request.param, depth=4)
    top, mid = grid.side - 1, grid.side // 2
    rng = random.Random(60 + request.param)
    corners = {
        tuple(corner - d if corner else d for d in offset)
        for corner in (0, top)
        for offset in unique_points(rng, Grid(grid.ndims, 1), 3)
    }
    ring = {
        tuple(mid + step * (a == axis) for a in range(grid.ndims))
        for axis in range(grid.ndims)
        for step in (-2, 2)
    }
    points = sorted(corners | ring | set(unique_points(rng, grid, 90)))
    tree = ZkdTree(grid, page_capacity=8)
    tree.bulk_load(points)
    db, cols = _indexed_db(grid, points)
    with db.session() as session:
        view = session._point_store("points", cols)
        assert isinstance(view, SnapshotTreeView)
        yield grid, points, {
            "tree": tree.nearest_neighbours,
            "snapshot-view": view.nearest_neighbours,
            "row-store": RowStore(grid, points).nearest_neighbours,
            "sql": lambda c, k: _sql_points(db, cols, c, k),
        }


class TestEveryProvider:
    def _check(self, providers, center, k):
        grid, points, answers = providers
        want = oracle_points(grid, points, center, k)
        for name, nearest in answers.items():
            assert nearest(center, k) == want, (name, center, k)
        return want

    def test_random_centres_match_the_oracle(self, providers):
        grid = providers[0]
        for center in centers(random.Random(71), grid, 6):
            for k in (1, 5, 17):
                self._check(providers, center, k)

    def test_corners_see_their_own_cluster(self, providers):
        grid = providers[0]
        top = grid.side - 1
        for corner in (0, top):
            center = (corner,) * grid.ndims
            for p in self._check(providers, center, 3):
                assert all(abs(c - corner) < grid.side // 2 for c in p)

    def test_ties_break_by_z_code(self, providers):
        """The ring's ``2 * ndims`` points are equidistant from the
        grid's centre: every cut up to the ring falls inside a tie."""
        grid = providers[0]
        center = (grid.side // 2,) * grid.ndims
        for k in range(1, 2 * grid.ndims + 2):
            self._check(providers, center, k)

    def test_k_is_a_prefix_of_k_plus_1_up_to_everything(self, providers):
        grid, points, _ = providers
        center = (3,) * grid.ndims
        previous = []
        for k in (1, 2, 3, 9, 40, len(points), len(points) + 5):
            current = self._check(providers, center, k)
            assert current[: len(previous)] == previous
            assert len(current) == min(k, len(points))
            previous = current


# ---------------------------------------------------------------------
# Database facade, sessions
# ---------------------------------------------------------------------


def _build_db(rng, n=160, cache=False, index=True):
    db = SpatialDatabase(GRID, page_capacity=8, cache=cache)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    rows = [
        (f"p{i}", x, y)
        for i, (x, y) in enumerate(unique_points(rng, GRID, n))
    ]
    db.insert_many("points", rows)
    if index:
        db.create_index("points_xy", "points", ("x", "y"))
    return db, rows


class TestDatabaseOracle:
    def test_rows_match_row_oracle(self):
        rng = random.Random(21)
        db, rows = _build_db(rng)
        for center in centers(rng, GRID, 8):
            for k in (1, 5, 11):
                got = list(
                    db.knn_query("points", ("x", "y"), center, k).rows
                )
                assert got == oracle_rows(GRID, rows, (1, 2), center, k)

    def test_cache_enabled_index_is_byte_identical(self):
        """``cache=True`` is the perf ledger's ignored flag: the k-NN
        rows are byte-identical to a database built without it."""
        rng_a, rng_b = random.Random(22), random.Random(22)
        flagged, rows = _build_db(rng_a, cache=True)
        plain, _ = _build_db(rng_b)
        for center in centers(random.Random(23), GRID, 8):
            got = list(
                flagged.knn_query("points", ("x", "y"), center, 7).rows
            )
            want = list(
                plain.knn_query("points", ("x", "y"), center, 7).rows
            )
            assert got == want == oracle_rows(
                GRID, rows, (1, 2), center, 7
            )

    def test_requires_index(self):
        db, _ = _build_db(random.Random(24), n=20, index=False)
        with pytest.raises(ValueError):
            db.knn_query("points", ("x", "y"), (0, 0), 1)

    def test_duplicates_and_k_beyond_distinct_points(self):
        """Two rows share a coordinate and ``k`` exceeds the number of
        distinct points: every row comes back, in rank order, from the
        live database, a session and SQL."""
        grid = Grid(ndims=2, depth=5)
        db = SpatialDatabase(grid, page_capacity=8)
        db.create_table(
            "p", Schema.of(("id", INTEGER), ("x", INTEGER), ("y", INTEGER))
        )
        db.insert_many("p", [(1, 1, 1), (2, 1, 1), (3, 31, 31), (4, 0, 0)])
        db.create_index("p_xy", "p", ("x", "y"))
        want = [(1, 1, 1), (2, 1, 1), (4, 0, 0), (3, 31, 31)]
        query = "SELECT * FROM p NEAREST 10 TO POINT(1,1) BY POINT(x,y)"
        assert db.knn_query("p", ("x", "y"), (1, 1), 10).rows == want
        assert execute_sql(db, query).rows == want
        with db.session() as session:
            assert (
                session.knn_query("p", ("x", "y"), (1, 1), 10).rows == want
            )
            assert execute_sql(db, query, session=session).rows == want

    def test_session_serves_pinned_snapshot(self):
        """A row inserted after the pin is invisible to the session's
        k-NN but visible to the database's."""
        rng = random.Random(25)
        db, rows = _build_db(rng)
        center = (7, 9)
        with db.session() as session:
            before = oracle_rows(GRID, rows, (1, 2), center, 4)
            assert (
                list(
                    session.knn_query("points", ("x", "y"), center, 4).rows
                )
                == before
            )
            nearest = ("new", center[0], center[1])
            db.insert("points", nearest)
            assert (
                list(
                    session.knn_query("points", ("x", "y"), center, 4).rows
                )
                == before
            )
            after = list(
                db.knn_query("points", ("x", "y"), center, 4).rows
            )
            assert after == oracle_rows(
                GRID, rows + [nearest], (1, 2), center, 4
            )
            assert after[0] == nearest

    def test_session_row_store_path_without_visible_index(self):
        """An index born *after* the pin has no snapshot capture: the
        session falls back to the visible-row point store — and the
        answer must not change."""
        rng = random.Random(26)
        db, rows = _build_db(rng, index=False)
        with db.session() as session:
            db.create_index("points_xy", "points", ("x", "y"))
            for center in centers(rng, GRID, 6):
                got = list(
                    session.knn_query("points", ("x", "y"), center, 5).rows
                )
                assert got == oracle_rows(GRID, rows, (1, 2), center, 5)


# ---------------------------------------------------------------------
# SQL NEAREST: knn-probe plan and ranked-after-filters plan
# ---------------------------------------------------------------------


class TestSqlNearest:
    def test_probe_plan_matches_row_oracle(self):
        rng = random.Random(31)
        db, rows = _build_db(rng)
        before = db.planner_stats.get("planner.knn_probes", 0)
        out = execute_sql(
            db,
            "SELECT id@, x, y FROM points "
            "NEAREST 6 TO POINT(30, 40) BY POINT(x, y)",
        )
        assert out.rows == oracle_rows(GRID, rows, (1, 2), (30, 40), 6)
        assert db.planner_stats["planner.knn_probes"] == before + 1

    def test_filtered_plan_matches_row_oracle(self):
        rng = random.Random(32)
        db, rows = _build_db(rng)
        out = execute_sql(
            db,
            "SELECT id@, x, y FROM points WHERE x >= 20 "
            "NEAREST 5 TO POINT(10, 10) BY POINT(x, y)",
        )
        kept = [row for row in rows if row[1] >= 20]
        assert out.rows == oracle_rows(GRID, kept, (1, 2), (10, 10), 5)

    def test_tautological_filter_agrees_with_probe_plan(self):
        """``WHERE x >= 0`` forces the ranked-after-filters plan; the
        rows must equal the knn-probe plan's."""
        db, _ = _build_db(random.Random(33))
        probe = execute_sql(
            db,
            "SELECT id@, x, y FROM points "
            "NEAREST 7 TO POINT(50, 12) BY POINT(x, y)",
        )
        filtered = execute_sql(
            db,
            "SELECT id@, x, y FROM points WHERE x >= 0 "
            "NEAREST 7 TO POINT(50, 12) BY POINT(x, y)",
        )
        assert probe.rows == filtered.rows

    def test_session_target_matches_database(self):
        rng = random.Random(34)
        db, rows = _build_db(rng)
        query = (
            "SELECT id@, x, y FROM points "
            "NEAREST 4 TO POINT(14, 58) BY POINT(x, y)"
        )
        with db.session() as session:
            assert (
                execute_sql(db, query).rows
                == execute_sql(db, query, session=session).rows
                == oracle_rows(GRID, rows, (1, 2), (14, 58), 4)
            )


# ---------------------------------------------------------------------
# Server path (NEAREST over the wire)
# ---------------------------------------------------------------------


class TestServerNearest:
    def test_server_rows_match_local_execution(self):
        rng = random.Random(41)
        db, rows = _build_db(rng)
        query = (
            "SELECT id@, x, y FROM points "
            "NEAREST 5 TO POINT(33, 21) BY POINT(x, y)"
        )
        want = oracle_rows(GRID, rows, (1, 2), (33, 21), 5)
        assert execute_sql(db, query).rows == want

        async def run():
            service = QueryService(db)
            server = await serve(service)
            try:
                async with await QueryClient.connect(
                    *server.address
                ) as client:
                    return await client.sql(query)
            finally:
                await server.close()

        response = asyncio.run(run())
        assert response["mode"] == "rows"
        assert [tuple(row) for row in response["rows"]] == want


# ---------------------------------------------------------------------
# Saturation at the domain boundary: probe boxes clip, never wrap
# ---------------------------------------------------------------------


class TestSaturation:
    def test_knn_correct_at_both_corners(self):
        """Clusters hugging (0, 0) and (top, top): a corner query must
        return its own cluster, in every store."""
        top = GRID.side - 1
        low = [(dx, dy) for dx in range(3) for dy in range(3)]
        high = [(top - dx, top - dy) for dx in range(3) for dy in range(3)]
        points = sorted(set(low + high))
        tree = ZkdTree(GRID, page_capacity=8)
        tree.bulk_load(points)
        for center, cluster in (((0, 0), low), ((top, top), high)):
            want = oracle_points(GRID, points, center, len(cluster))
            assert set(want) == set(cluster)
            assert tree.nearest_neighbours(center, len(cluster)) == want


# ---------------------------------------------------------------------
# Nightly sweep (slow tier)
# ---------------------------------------------------------------------


@pytest.mark.slow
class TestNightlySweep:
    def test_sky_scale_sweep_all_stores(self):
        grid = Grid(ndims=2, depth=9)
        catalog = sky_catalog(grid, 2500, seed=51)
        points = sorted(set(catalog.points))
        tree = ZkdTree(grid, page_capacity=32)
        tree.bulk_load(points)
        rows = RowStore(grid, points)
        for center in knn_workload(grid, catalog, 40, seed=52):
            for k in (1, 4, 16):
                want = oracle_points(grid, points, center, k)
                assert tree.nearest_neighbours(center, k) == want
                assert rows.nearest_neighbours(center, k) == want
