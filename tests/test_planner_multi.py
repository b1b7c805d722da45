"""Unit tests for the multi-predicate planner layer: attribute
selectivities read off the column order, conjunct ordering,
plan_select access-path choice, the join strategy cost model, and the
planner.* stats plumbing."""

import math
import re
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.geometry import Box, Grid
from repro.db import (
    FLOAT,
    INTEGER,
    OID,
    Schema,
    SpatialDatabase,
    choose_join_strategy,
    col,
    order_conjuncts,
    plan_range_query,
    plan_select,
)
from repro.db.expr import box_contains_point
from repro.db.planner import (
    COLUMN_RANGE_CROSSOVER,
    RESIDUAL_SELECTIVITY,
    Conjunct,
    _attr_bounds,
    column_selectivity,
    plan_filters,
)
from repro.obs.trace import trace
from repro.sql import compile_sql, execute_sql


def window_conjunct(box, pos=0, selectivity=None):
    return Conjunct(
        kind="z-window",
        text=f"window@{pos}",
        predicate=box_contains_point(box, ("x", "y")),
        written_pos=pos,
        selectivity=selectivity,
        box=box,
        coord_cols=("x", "y"),
    )


def filter_conjunct(pos, selectivity, kind="attr-range", cost=1.0):
    return Conjunct(
        kind=kind,
        text=f"f@{pos}",
        predicate=col("x") >= 0,
        written_pos=pos,
        selectivity=selectivity,
        cost=cost,
    )


NAN = float("nan")
EIGHT = [1, 1, 2, 2, 3, 3, 4, 4]
HUNDRED = list(range(100))


class TestColumnSelectivity:
    @pytest.mark.parametrize(
        "values, low, high, later, deleted, share",
        [
            pytest.param(EIGHT, 2, 2, [], [], 0.25, id="equality-duplicates"),
            pytest.param(EIGHT, 2, 3, [], [], 0.5, id="closed-duplicates"),
            pytest.param(EIGHT, 2.5, 2.5, [], [], 0.0, id="equality-no-value"),
            pytest.param(HUNDRED, 25, 74, [], [], 0.5, id="closed"),
            pytest.param(HUNDRED, None, 49, [], [], 0.5, id="at-most"),
            pytest.param(HUNDRED, 90, None, [], [], 0.1, id="at-least"),
            pytest.param(HUNDRED, None, None, [], [], 1.0, id="unbounded"),
            pytest.param(HUNDRED, 5, 1, [], [], 0.0, id="empty-range"),
            pytest.param(HUNDRED, 5000, None, [], [], 0.0, id="out-of-range"),
            pytest.param(HUNDRED, None, -1, [], [], 0.0, id="below-range"),
            pytest.param(
                HUNDRED + [NAN] * 5, None, 49, [], [], 0.5, id="nan-left-out"
            ),
            pytest.param([NAN, NAN], None, None, [], [], 0.0, id="only-nan"),
            pytest.param([], None, None, [], [], 0.0, id="no-rows"),
            pytest.param(
                list(range(20)), 19, None, [1000], [], 2 / 21,
                id="inserted-after-build",
            ),
            # A deleted row stays stored for older snapshots, so it
            # stays counted: 19 (dead) and 1000 of 21 stored values.
            pytest.param(
                list(range(20)), 19, None, [1000], [19], 2 / 21,
                id="deleted-still-counted",
            ),
        ],
    )
    def test_exact_share(self, values, low, high, later, deleted, share):
        """``(bisect_right(high) - bisect_left(low)) / len`` over the
        column's sorted order, rebuilt after a write."""
        database = SpatialDatabase(Grid(2, 4))
        database.create_table("t", Schema.of(("id@", OID), ("v", FLOAT)))
        database.insert_many("t", [(i, float(v)) for i, v in enumerate(values)])
        first = column_selectivity(database, "t", "v", low, high)
        for v in deleted:
            database.delete("t", (v, float(v)))
        for v in later:
            database.insert("t", (v, float(v)))
        if not (later or deleted):
            assert first == share
        assert column_selectivity(database, "t", "v", low, high) == (
            pytest.approx(share)
        )


class TestOrderConjuncts:
    def test_most_selective_filter_first(self):
        conjuncts = [
            filter_conjunct(0, 0.9),
            filter_conjunct(1, 0.1),
            filter_conjunct(2, 0.5),
        ]
        window, filters, moved = order_conjuncts(conjuncts)
        assert window is None
        assert [f.selectivity for f in filters] == [0.1, 0.5, 0.9]
        assert moved > 0

    def test_naive_keeps_written_order(self):
        conjuncts = [filter_conjunct(0, 0.9), filter_conjunct(1, 0.1)]
        _, filters, moved = order_conjuncts(conjuncts, reorder=False)
        assert [f.written_pos for f in filters] == [0, 1]
        assert moved == 0

    def test_first_window_is_access_path(self):
        box = Box(((0, 4), (0, 4)))
        conjuncts = [
            filter_conjunct(0, 0.01),
            window_conjunct(box, pos=1, selectivity=0.5),
            window_conjunct(box, pos=2, selectivity=0.001),
        ]
        window, filters, _ = order_conjuncts(conjuncts)
        assert window is not None and window.written_pos == 1
        # The displaced second window still applies — as a filter.
        assert {f.written_pos for f in filters} == {0, 2}

    def test_cost_breaks_selectivity_ties(self):
        conjuncts = [
            filter_conjunct(0, 0.5, cost=9.0),
            filter_conjunct(1, 0.5, cost=1.0),
        ]
        _, filters, _ = order_conjuncts(conjuncts)
        assert [f.cost for f in filters] == [1.0, 9.0]


@pytest.fixture
def db():
    database = SpatialDatabase(Grid(2, 6), page_capacity=8)
    database.create_table(
        "points",
        Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER)),
    )
    rng = random.Random(0)
    database.insert_many(
        "points",
        [
            (f"p{i}", rng.randrange(64), rng.randrange(64))
            for i in range(200)
        ],
    )
    database.create_index("points_xy", "points", ("x", "y"))
    return database


class TestPlanSelect:
    def test_window_takes_index_path(self, db):
        box = Box(((0, 20), (0, 20)))
        plan = plan_select(
            db,
            "points",
            [window_conjunct(box), filter_conjunct(1, None)],
        )
        assert "scan" in plan.access_label
        out = plan.execute()
        expected = [
            row
            for row in db.table("points").rows
            if box.contains_point((row[1], row[2])) and row[1] >= 0
        ]
        assert sorted(out.rows) == sorted(expected)

    def test_no_window_scans_table(self, db):
        plan = plan_select(db, "points", [filter_conjunct(0, None)])
        assert plan.access_label == "table-scan"
        assert len(plan.execute()) == 200

    def test_estimates_multiply(self, db):
        box = Box(((0, 31), (0, 31)))
        plan = plan_select(
            db,
            "points",
            [
                window_conjunct(box),
                filter_conjunct(1, 0.5),
                filter_conjunct(2, 0.1),
            ],
        )
        window_only = plan_select(db, "points", [window_conjunct(box)])
        assert plan.estimated_rows == pytest.approx(
            window_only.estimated_rows * 0.05
        )

    def test_residual_default_selectivity(self, db):
        plan = plan_select(
            db,
            "points",
            [filter_conjunct(0, None, kind="residual")],
        )
        assert plan.filters[0].selectivity == RESIDUAL_SELECTIVITY

    def test_attr_range_estimated_from_histogram(self, db):
        # Without the (x, y) index the range is no z-window, so its
        # selectivity is read off x's sorted order.
        db.drop_index("points_xy")
        conjunct = Conjunct(
            kind="attr-range",
            text="x <= 31",
            predicate=col("x") <= 31,
            written_pos=0,
            column="x",
            high=31,
        )
        plan = plan_select(db, "points", [conjunct])
        assert 0.3 < plan.filters[0].selectivity < 0.7

    def test_ranges_a_window_summarises_sort_no_column(self, db):
        """Ranges on the index's coordinates become the access box; they
        filter last at selectivity 1.0 and no column order is built."""
        plan = compile_sql(
            db,
            "SELECT id@ FROM points "
            "WHERE x BETWEEN 4 AND 11 AND y BETWEEN 16 AND 23 AND x + y > 20",
        ).plan()
        assert plan.access_label == "index-scan"
        assert [c.text for c in plan.filters] == [
            "x + y > 20", "x BETWEEN 4 AND 11", "y BETWEEN 16 AND 23",
        ]
        assert [c.selectivity for c in plan.filters[1:]] == [1.0, 1.0]
        execute_sql(
            db, "SELECT id@ FROM points WHERE x BETWEEN 4 AND 11 "
            "AND y BETWEEN 16 AND 23",
        )
        assert db.table("points")._orders == {}

    def test_an_empty_range_estimates_no_rows(self):
        """A range no stored value meets has selectivity exactly 0.0,
        and the plan's row estimate is 0.0, not the table's size."""
        database = SpatialDatabase(Grid(2, 4))
        database.create_table("t", Schema.of(("id@", OID), ("w", INTEGER)))
        database.insert_many("t", [(i, i % 10) for i in range(1000)])
        for where in ("w BETWEEN 5 AND 1", "w > 5000"):
            text = f"SELECT id@ FROM t WHERE {where}"
            plan = compile_sql(database, text).plan()
            assert plan.filters[0].selectivity == 0.0
            assert plan.estimated_rows == 0.0
            assert execute_sql(database, text).rows == []
        empty = Conjunct(
            kind="attr-range",
            text="w BETWEEN 5 AND 1",
            predicate=(col("w") >= 5) & (col("w") <= 1),
            written_pos=0,
            column="w",
            low=5,
            high=1,
        )
        assert plan_filters(database, "t", [empty]).estimated_rows == 0.0

    def test_stats_and_trace_counters(self, db):
        db.planner_stats.clear()
        box = Box(((0, 20), (0, 20)))
        plan = plan_select(
            db,
            "points",
            [
                window_conjunct(box),
                filter_conjunct(1, 0.9),
                filter_conjunct(2, 0.1, kind="residual"),
            ],
        )
        with trace("t") as t:
            plan.execute()
        stats = db.planner_stats
        assert stats["planner.plans"] == 1
        assert stats["planner.conjuncts_reordered"] >= 1
        assert stats["planner.residual_rows"] > 0
        totals = t.total_counters()
        for key, value in stats.items():
            assert totals[key] == value
        # nonzero-only: a plan with nothing reordered adds no key
        db.planner_stats.clear()
        plan2 = plan_select(db, "points", [window_conjunct(box)])
        plan2.execute()
        assert "planner.conjuncts_reordered" not in db.planner_stats
        assert "planner.residual_rows" not in db.planner_stats


class TestChooseJoinStrategy:
    def test_small_sides_pick_nested_loop(self):
        strategy, cost_z, cost_n = choose_join_strategy(3, 3, 2.0, 2.0)
        assert strategy == "nested-loop"
        assert cost_n < cost_z

    def test_large_sides_pick_zmerge(self):
        strategy, cost_z, cost_n = choose_join_strategy(
            500, 500, 4.0, 4.0
        )
        assert strategy == "z-merge"
        assert cost_z < cost_n

    def test_tie_prefers_zmerge(self):
        strategy, cost_z, cost_n = choose_join_strategy(0, 0, 0.0, 0.0)
        assert cost_z == cost_n
        assert strategy == "z-merge"

    def test_costs_scale_with_elements(self):
        _, z1, n1 = choose_join_strategy(10, 10, 1.0, 1.0)
        _, z2, n2 = choose_join_strategy(10, 10, 8.0, 8.0)
        assert z2 > z1 and n2 > n1


# -- attribute ranges on indexed columns are a z-window -----------------

RANGE_GRID = Grid(2, 6)


def _points_db(nrows, grid=RANGE_GRID, seed=11, page_capacity=8):
    """``points`` indexed on (x, y) and ``plain``, the same rows with
    no index (its statements can only scan)."""
    rng = random.Random(seed)
    database = SpatialDatabase(grid, page_capacity=page_capacity)
    rows = [
        (f"p{i}", rng.randrange(grid.side), rng.randrange(grid.side), i % 7)
        for i in range(nrows)
    ]
    for table in ("points", "plain"):
        database.create_table(
            table,
            Schema.of(
                ("id@", OID), ("x", INTEGER), ("y", INTEGER), ("v", INTEGER)
            ),
        )
        database.insert_many(table, rows)
    database.create_index("points_xy", "points", ("x", "y"))
    return database, rows


RANGE_DB, RANGE_ROWS = _points_db(600)

_BOUND = st.one_of(
    st.integers(-3, RANGE_GRID.side + 3),
    st.integers(-6, 2 * RANGE_GRID.side + 6).map(lambda n: n / 2),
)
_TERM = st.one_of(
    st.tuples(
        st.sampled_from("xy"),
        st.sampled_from(["<", "<=", ">", ">=", "="]),
        _BOUND,
    ),
    st.tuples(st.sampled_from("xy"), st.just("BETWEEN"), _BOUND, _BOUND),
)


def _sql_term(term):
    if term[1] == "BETWEEN":
        return f"{term[0]} BETWEEN {term[2]} AND {term[3]}"
    return f"{term[0]} {term[1]} {term[2]}"


def _holds(term, value):
    column, op = term[0], term[1]
    if op == "BETWEEN":
        return term[2] <= value <= term[3]
    return {
        "<": value < term[2],
        "<=": value <= term[2],
        ">": value > term[2],
        ">=": value >= term[2],
        "=": value == term[2],
    }[op]


def _covering_box(terms, grid):
    """The tightest integer box covering the conjunction, computed here
    from the terms alone; ``None`` when no integer satisfies it."""
    ranges = []
    for column in "xy":
        low, high = 0, grid.side - 1
        for term in terms:
            if term[0] != column:
                continue
            op = term[1]
            if op in (">", ">=", "=", "BETWEEN"):
                low = max(low, math.ceil(term[2]))
            if op in ("<", "<=", "="):
                high = min(high, math.floor(term[2]))
            if op == "BETWEEN":
                high = min(high, math.floor(term[3]))
        if low > high:
            return None
        ranges.append((low, high))
    return Box(tuple(ranges))


def _predicted_scan_label(plan):
    """The access a windowless plan documents: the column whose bounds
    select the smallest share of its sorted order is read off that
    order below the crossover, else the table is scanned."""
    best = min(
        (
            column_selectivity(RANGE_DB, "points", column, *bound)
            for column, bound in _attr_bounds(plan.filters).items()
        ),
        default=1.0,
    )
    return "column-range" if best < COLUMN_RANGE_CROSSOVER else "table-scan"


class TestAttributeRangesAreZWindows:
    @settings(max_examples=120, deadline=None)
    @given(terms=st.lists(_TERM, min_size=1, max_size=4), reorder=st.booleans())
    def test_any_conjunction_plans_the_index_iff_it_is_cheaper(
        self, terms, reorder
    ):
        """Comparisons and BETWEENs on the index's coordinate columns
        read the index exactly when ``plan_range_query`` prefers it for
        their covering box — a partial-match box when one column is
        unpinned — and either way return the rows of a plain scan."""
        where = " AND ".join(map(_sql_term, terms))
        text = f"SELECT id@, x, y FROM points WHERE {where}"
        plan = compile_sql(RANGE_DB, text, reorder=reorder).plan()
        box = _covering_box(terms, RANGE_GRID)
        prefers_index = box is not None and plan_range_query(
            RANGE_DB, "points", ("x", "y"), box
        ).method == "index-scan"
        if prefers_index:
            assert plan.access_label == "index-scan"
            assert plan.window.box == box
            assert plan.window.coord_cols == ("x", "y")
        else:
            assert plan.window is None
            assert plan.access_label == _predicted_scan_label(plan)
        # every written conjunct still filters: the box only covers them
        assert len(plan.filters) == len(terms)
        want = [
            row[:3]
            for row in RANGE_ROWS
            if all(
                _holds(term, row[1] if term[0] == "x" else row[2])
                for term in terms
            )
        ]
        assert execute_sql(RANGE_DB, text, reorder=reorder).rows == want
        scanned = execute_sql(
            RANGE_DB, text.replace("FROM points", "FROM plain"), reorder=False
        )
        assert scanned.rows == want

    def test_partial_match_pins_one_column(self):
        plan = compile_sql(
            RANGE_DB, "SELECT id@ FROM points WHERE y >= 20 AND y < 22"
        ).plan()
        assert plan.window.box == Box(((0, 63), (20, 22)))
        assert plan.access.method == "index-scan"
        assert any("partial match: x unpinned" in note for note in plan.notes)

    def test_other_columns_and_residuals_do_not_make_a_window(self):
        """No window; ``v`` (``i % 7``) is read off its sorted order
        exactly when its share is below the crossover, and a residual
        alone is scanned.  Each value of ``v`` holds 1/7 of the rows,
        above the crossover, so only a range past the values reads the
        order."""
        for where, keep in (
            ("v = 3", lambda r: r[3] == 3),
            ("v >= 6", lambda r: r[3] >= 6),
            ("v >= 7", lambda r: r[3] >= 7),
            ("x + y < 10", lambda r: r[1] + r[2] < 10),
            (
                "v BETWEEN 1 AND 2 AND x + 0 = 3",
                lambda r: 1 <= r[3] <= 2 and r[1] == 3,
            ),
        ):
            text = f"SELECT id@, v FROM points WHERE {where}"
            plan = compile_sql(RANGE_DB, text).plan()
            assert plan.window is None
            assert plan.access_label == _predicted_scan_label(plan)
            assert execute_sql(RANGE_DB, text).rows == [
                (r[0], r[3]) for r in RANGE_ROWS if keep(r)
            ]
        labels = {
            compile_sql(RANGE_DB, f"SELECT id@ FROM points WHERE {w}")
            .plan()
            .access_label
            for w in ("v = 3", "v >= 6", "v >= 7")
        }
        assert labels == {"table-scan", "column-range"}

    @pytest.mark.parametrize(
        "index_after_pin, window, access",
        [
            pytest.param(False, "", "index-scan", id="index-before-pin"),
            pytest.param(True, "", "table-scan", id="index-after-pin"),
            pytest.param(
                False,
                "BOX(0, 63, 0, 63) CONTAINS POINT(x, y) AND ",
                "table-scan",
                id="whole-grid-box",
            ),
        ],
    )
    def test_a_session_reads_the_synthesised_window_at_its_epoch(
        self, index_after_pin, window, access
    ):
        """A session is planned as the database is, with only the
        indexes visible at its pin: an index built after the pin makes
        no window and forces no filter's selectivity, and a box the
        scan beats is scanned.  Each way the rows are the pinned ones."""
        grid = Grid(2, 6)
        database = SpatialDatabase(grid, page_capacity=8)
        database.create_table(
            "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        rng = random.Random(2)
        rows = [
            (f"p{i}", rng.randrange(64), rng.randrange(64)) for i in range(400)
        ]
        database.insert_many("points", rows)
        if not index_after_pin:
            database.create_index("points_xy", "points", ("x", "y"))
        text = (
            "SELECT id@, x, y FROM points "
            f"WHERE {window}x BETWEEN 10 AND 19 AND y <= 9"
        )
        want = [r for r in rows if 10 <= r[1] <= 19 and r[2] <= 9]
        with database.session() as session:
            if index_after_pin:
                database.create_index("points_xy", "points", ("x", "y"))
            database.insert("points", ("late", 12, 3))
            plan = compile_sql(database, text).plan(session)
            assert plan.access_label == access
            if index_after_pin:
                assert not any(
                    "z-window from attribute ranges" in note
                    for note in plan.notes
                )
                assert all(c.selectivity != 1.0 for c in plan.filters)
            assert execute_sql(database, text, session=session).rows == want
        assert execute_sql(database, text).rows == want + [("late", 12, 3)]


class TestIndexReadCostsWhatItReturns:
    """Exact counts on a 20k-row table — no timing: an index-path
    SELECT validates nothing, fetches exactly the rows in the box,
    decomposes its box exactly once, in the run — the plan walks the box
    only down to the index's leaves — and its plan reads no page, before
    a write or right after one."""

    def test_counts(self, monkeypatch):
        from repro.core.decompose import _BoxKernel
        from repro.db import schema
        from repro.db.relation import VersionedRelation
        from repro.storage.buffer import BufferManager

        counts = {"validated": 0, "fetched": 0, "pages": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        compile_validator = schema._compile_validator
        monkeypatch.setattr(
            schema,
            "_compile_validator",
            lambda columns: counting("validated", compile_validator(columns)),
        )
        database, rows = _points_db(20_000, Grid(2, 10), page_capacity=20)
        assert counts["validated"] == 2 * len(rows)  # once per stored row

        real_fetch = VersionedRelation.fetch

        def fetch(self, positions, epoch=None):
            out = real_fetch(self, positions, epoch)
            counts["fetched"] += len(out)
            return out

        monkeypatch.setattr(VersionedRelation, "fetch", fetch)
        for name in ("get", "peek"):
            monkeypatch.setattr(
                BufferManager,
                name,
                counting("pages", getattr(BufferManager, name)),
            )
        # A full decomposition is a box kernel whose elements are drawn
        # by ``advance`` and that the plan's leaf walk (``cover``) never
        # drives.
        advanced, walked = [], []
        real_advance, real_cover = _BoxKernel.advance, _BoxKernel.cover

        def advance(self, floor=0):
            if self not in advanced:
                advanced.append(self)
            return real_advance(self, floor)

        def cover(self, lo, hi):
            if self not in walked:
                walked.append(self)
            return real_cover(self, lo, hi)

        monkeypatch.setattr(_BoxKernel, "advance", advance)
        monkeypatch.setattr(_BoxKernel, "cover", cover)

        def decompositions():
            return sum(kernel not in walked for kernel in advanced)

        statements = [
            "SELECT id@, x, y FROM points "
            "WHERE BOX(100, 199, 300, 399) CONTAINS POINT(x, y)",
            "SELECT id@, x, y FROM points "
            "WHERE x BETWEEN 500 AND 599 AND y BETWEEN 40 AND 139",
            "SELECT id@, x, y FROM points WHERE x BETWEEN 700 AND 703",
        ]
        boxes = [
            (100, 199, 300, 399), (500, 599, 40, 139), (700, 703, 0, 1023)
        ]
        for n, (text, (x0, x1, y0, y1)) in enumerate(zip(statements, boxes)):
            counts.update(validated=0, fetched=0, pages=0)
            del advanced[:], walked[:]
            compiled = compile_sql(database, text)
            assert compiled.plan().access.method == "index-scan"
            assert counts["pages"] == 0, (n, counts)
            assert walked and decompositions() == 0, n
            out = compiled.run()
            want = [
                r[:3] for r in rows if x0 <= r[1] <= x1 and y0 <= r[2] <= y1
            ]
            assert out.rows == want and want
            assert counts["validated"] == 0
            assert counts["fetched"] == len(want)
            assert decompositions() == 1, n
        database.insert("points", ("late", 1, 1, 0))
        counts["pages"] = 0
        assert compile_sql(database, statements[0]).plan().access.method == (
            "index-scan"
        )
        assert counts["pages"] == 0


class TestWindowedEpsJoin:
    """A window on one eps-join side reaches the other: the windowed
    side's points seek the other side's index at their z-cells; the rows
    stay those of the unwindowed join, filtered."""

    EPS = 2
    WINDOW = (10, 30, 20, 44)  # xlo, xhi, ylo, yhi

    @staticmethod
    def _catalogs(index_a=True, index_b=True):
        rng = random.Random(4)
        grid = Grid(2, 6)
        database = SpatialDatabase(grid, page_capacity=8)
        for table, count, indexed in (
            ("stars", 500, index_a), ("gals", 350, index_b)
        ):
            database.create_table(
                table, Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
            )
            # a coarse lattice: many duplicate points, many pairs
            database.insert_many(
                table,
                [
                    (
                        f"{table[0]}{i}",
                        rng.randrange(0, 64, 2),
                        rng.randrange(0, 64, 2),
                    )
                    for i in range(count)
                ],
            )
            if indexed:
                database.create_index(f"{table}_xy", table, ("x", "y"))
        return database

    def _sql(self, side, extra=""):
        x0, x1, y0, y1 = self.WINDOW
        return (
            "SELECT * FROM stars JOIN gals "
            "ON POINT(stars.x, stars.y) "
            f"WITHIN {self.EPS} OF POINT(gals.x, gals.y) "
            f"WHERE BOX({x0}, {x1}, {y0}, {y1}) "
            f"CONTAINS POINT({side}.x, {side}.y){extra}"
        )

    @pytest.mark.parametrize("side", ["stars", "gals"])
    def test_rows_equal_the_filtered_full_join(self, side):
        database = self._catalogs()
        full = database.epsilon_join(
            "stars", ("x", "y"), "gals", ("x", "y"), self.EPS
        ).rows
        x0, x1, y0, y1 = self.WINDOW
        at = 1 if side == "stars" else 4
        want = [
            row
            for row in full
            if x0 <= row[at] <= x1 and y0 <= row[at + 1] <= y1
        ]
        compiled = compile_sql(database, self._sql(side))
        assert "access: eps-join" in compiled.explain()
        assert compiled.run().rows == want and want

    def _filtered_full_join(self, database, at):
        full = database.epsilon_join(
            "stars", ("x", "y"), "gals", ("x", "y"), self.EPS
        ).rows
        x0, x1, y0, y1 = self.WINDOW
        return [
            row
            for row in full
            if x0 <= row[at] <= x1 and y0 <= row[at + 1] <= y1
        ]

    def test_the_windowed_side_seeks_the_other(self):
        database = self._catalogs()
        compiled = compile_sql(database, self._sql("gals"))
        text = compiled.explain()
        assert "side access (gals): index-scan" in text
        assert (
            "side access (stars): eps-seek at the gals points' "
            "2^4-wide z-cells"
        ) in text
        assert "pushed below join (stars)" not in text
        with trace("seek") as t:
            rows = compiled.run().rows
        assert rows == self._filtered_full_join(database, 4) and rows
        seek = t.find("join[eps-seek]")
        assert seek.counters["pairs"] == len(rows)
        assert 0 < seek.counters["intervals"] <= seek.counters["cells"]
        assert t.find("join[eps-zones]") is None

    def test_no_seek_without_an_index(self):
        database = self._catalogs(index_a=False)
        compiled = compile_sql(database, self._sql("gals"))
        plan = compiled.plan()
        assert not any("eps-seek" in note for note in plan.notes)
        assert not any("(stars)" in note for note in plan.notes)
        assert compiled.run().rows == self._filtered_full_join(database, 4)

    def test_no_seek_with_two_windows(self):
        database = self._catalogs()
        extra = " AND BOX(0, 40, 0, 63) CONTAINS POINT(stars.x, stars.y)"
        compiled = compile_sql(database, self._sql("gals", extra))
        assert "eps-seek" not in compiled.explain()
        full = database.epsilon_join(
            "stars", ("x", "y"), "gals", ("x", "y"), self.EPS
        ).rows
        x0, x1, y0, y1 = self.WINDOW
        assert compiled.run().rows == [
            row
            for row in full
            if x0 <= row[4] <= x1 and y0 <= row[5] <= y1 and row[1] <= 40
        ]

    @pytest.mark.parametrize("side", ["stars", "gals"])
    def test_only_the_written_window_is_decomposed(self, side, monkeypatch):
        """Planning and running a windowed eps-join decompose the
        written window and nothing else: the sought side runs no
        ``estimate_scan`` and no box kernel."""
        from repro.core.decompose import _BoxKernel
        from repro.db import statistics

        database = self._catalogs()
        scans, kernels = [], []
        real_scan = statistics.estimate_scan
        real_init = _BoxKernel.__init__

        def estimate_scan(tree, box):
            scans.append((tree, box))
            return real_scan(tree, box)

        def init(self, grid, box, *args, **kwargs):
            kernels.append(box)
            real_init(self, grid, box, *args, **kwargs)

        monkeypatch.setattr(statistics, "estimate_scan", estimate_scan)
        monkeypatch.setattr(_BoxKernel, "__init__", init)
        rows = compile_sql(database, self._sql(side)).run().rows
        x0, x1, y0, y1 = self.WINDOW
        window = Box(((x0, x1), (y0, y1)))
        windowed = database._index_for(side, ("x", "y")).tree
        assert scans == [(windowed, window)]
        assert kernels and all(box == window for box in kernels)
        at = 1 if side == "stars" else 4
        assert rows == self._filtered_full_join(database, at)


class TestPlannedForEachReader:
    """One statement planned for the database and for a session pinned
    before ``create_index``: neither plan leaves anything on the
    statement that the other inherits, and the session's plan uses no
    index born after its pin."""

    TEXT = "SELECT id@, x, y FROM points WHERE x BETWEEN 10 AND 19 AND y <= 9"

    @staticmethod
    def _pinned_before_the_index(*tables):
        """A database of ``tables`` (``(name, count)``), a session
        pinned before each gets its ``(x, y)`` index, and the rows."""
        rng = random.Random(2)
        database = SpatialDatabase(Grid(2, 6), page_capacity=8)
        rows = {}
        for table, count in tables:
            database.create_table(
                table, Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
            )
            rows[table] = [
                (f"{table[0]}{i}", rng.randrange(64), rng.randrange(64))
                for i in range(count)
            ]
            database.insert_many(table, rows[table])
        session = database.session()
        for table, _ in tables:
            database.create_index(f"{table}_xy", table, ("x", "y"))
            database.insert(table, ("late", 5, 5))
        return database, session, rows

    def test_a_database_plan_forces_no_selectivity_on_the_next(self):
        database, session, rows = self._pinned_before_the_index(
            ("points", 400)
        )
        with session:
            compiled = compile_sql(database, self.TEXT)
            assert "z-window from attribute ranges" in compiled.explain()
            pinned = compiled.explain(session)
            fresh = compile_sql(database, self.TEXT).explain(session)
            assert pinned == fresh
            sels = re.findall(r"sel=(\S+)", pinned)
            assert len(sels) == 2 and "1.0000" not in sels
            # ... and the session's estimates force nothing back.
            assert compiled.explain() == compile_sql(
                database, self.TEXT
            ).explain()
            assert execute_sql(database, self.TEXT, session=session).rows == [
                r for r in rows["points"] if 10 <= r[1] <= 19 and r[2] <= 9
            ]

    def test_nearest_ranks_the_session_rows_without_a_probe(self):
        database, session, rows = self._pinned_before_the_index(
            ("points", 400)
        )
        text = "SELECT id@ FROM points NEAREST 3 TO POINT(5, 5) BY POINT(x, y)"
        grid = database.grid
        with session:
            pinned = compile_sql(database, text).explain(session)
            assert "[ranked after filters]" in pinned
            assert "knn-probe" not in pinned
            assert "knn-probe" in compile_sql(database, text).explain()
            got = execute_sql(database, text, session=session).rows
        assert got == [
            (r[0],)
            for r in sorted(
                rows["points"],
                key=lambda r: (
                    (r[1] - 5) ** 2 + (r[2] - 5) ** 2,
                    grid.zvalue((r[1], r[2])).bits,
                ),
            )[:3]
        ]

    def test_a_windowed_eps_join_seeks_no_index_the_session_lacks(self):
        database, session, rows = self._pinned_before_the_index(
            ("stars", 300), ("gals", 200)
        )
        text = (
            "SELECT * FROM stars JOIN gals "
            "ON POINT(stars.x, stars.y) WITHIN 2 OF POINT(gals.x, gals.y) "
            "WHERE BOX(10, 30, 20, 44) CONTAINS POINT(gals.x, gals.y)"
        )
        with session:
            pinned = compile_sql(database, text).explain(session)
            assert "eps-seek" not in pinned
            assert "eps-seek" in compile_sql(database, text).explain()
            got = execute_sql(database, text, session=session).rows
        pairs = sorted(
            ((a[1], a[2]), (b[1], b[2]), i, j, a + b)
            for i, a in enumerate(rows["stars"])
            for j, b in enumerate(rows["gals"])
            if (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2 <= 4
            and 10 <= b[1] <= 30
            and 20 <= b[2] <= 44
        )
        assert got == [pair[-1] for pair in pairs] and got
