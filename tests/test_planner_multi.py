"""Unit tests for the multi-predicate planner layer: ColumnHistogram
estimates, conjunct ordering, plan_select access-path choice, the join
strategy cost model, and the planner.* stats plumbing."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.geometry import Box, Grid
from repro.db import (
    INTEGER,
    OID,
    ColumnHistogram,
    Schema,
    SpatialDatabase,
    choose_join_strategy,
    col,
    order_conjuncts,
    plan_range_query,
    plan_select,
)
from repro.db.expr import box_contains_point
from repro.db.planner import RESIDUAL_SELECTIVITY, Conjunct
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


class TestColumnHistogram:
    def test_uniform_range_estimate(self):
        hist = ColumnHistogram.of_values(range(100))
        assert hist.nrecords == 100
        assert hist.estimate_range(25, 75) == pytest.approx(0.5, abs=0.1)
        assert hist.estimate_range(None, None) == pytest.approx(1.0)
        assert hist.estimate_range(None, 49) == pytest.approx(0.5, abs=0.1)

    def test_fraction_le_is_monotone(self):
        rng = random.Random(3)
        hist = ColumnHistogram.of_values(
            [rng.uniform(0, 50) for _ in range(300)]
        )
        fractions = [hist.fraction_le(v) for v in range(0, 51, 5)]
        assert fractions == sorted(fractions)
        assert fractions[0] <= 0.05 and fractions[-1] == 1.0

    def test_equality_uses_distinct_count(self):
        hist = ColumnHistogram.of_values([1, 1, 2, 2, 3, 3, 4, 4])
        assert hist.ndistinct == 4
        assert hist.estimate_eq(2) == pytest.approx(0.25)
        assert hist.estimate_eq(99) == pytest.approx(1 / 8)

    def test_selectivity_floor(self):
        hist = ColumnHistogram.of_values(range(1000))
        assert hist.estimate_range(2, 2) >= 1 / 1000

    def test_non_numeric_values_skipped(self):
        hist = ColumnHistogram.of_values(["a", 1, 2.0, None, True])
        assert hist.nrecords == 2  # 1 and 2.0; bool excluded


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
        ).method.endswith("index-scan")
        if prefers_index:
            assert plan.access_label == "index-scan"
            assert plan.window.box == box
            assert plan.window.coord_cols == ("x", "y")
        else:
            assert plan.window is None and plan.access_label == "table-scan"
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
        for where in ("v = 3", "x + y < 10", "v BETWEEN 1 AND 2 AND x + 0 = 3"):
            plan = compile_sql(
                RANGE_DB, f"SELECT id@ FROM points WHERE {where}"
            ).plan()
            assert plan.window is None and plan.access_label == "table-scan"

    def test_a_session_reads_the_synthesised_window_at_its_epoch(self):
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
        database.create_index("points_xy", "points", ("x", "y"))
        text = "SELECT id@, x, y FROM points WHERE x BETWEEN 10 AND 19 AND y <= 9"
        want = [r for r in rows if 10 <= r[1] <= 19 and r[2] <= 9]
        with database.session() as session:
            database.insert("points", ("late", 12, 3))
            plan = compile_sql(database, text).plan(session)
            assert plan.access_label == "snapshot-range"
            assert execute_sql(database, text, session=session).rows == want
        assert execute_sql(database, text).rows == want + [("late", 12, 3)]


class TestIndexReadCostsWhatItReturns:
    """Exact counts on a 20k-row table — no timing: an index-path
    SELECT validates nothing, fetches exactly the rows in the box,
    rebuilds no histogram on a second plan and decomposes its box at
    most once."""

    def test_counts(self, monkeypatch):
        from repro.cache import result_cache
        from repro.db import ZHistogram, schema, statistics
        from repro.db.relation import VersionedRelation

        counts = {"validated": 0, "fetched": 0, "histograms": 0, "boxes": 0}

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
        monkeypatch.setattr(
            ZHistogram, "of_tree", counting("histograms", ZHistogram.of_tree)
        )
        for module, eager in (
            (statistics, "box_intervals"), (result_cache, "decompose_box")
        ):
            monkeypatch.setattr(
                module, eager, counting("boxes", getattr(module, eager))
            )

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
            counts.update(validated=0, fetched=0, boxes=0)
            compiled = compile_sql(database, text)
            assert compiled.plan().access.method == "index-scan"
            counts["boxes"] = 0  # that plan was this test's, not the run's
            out = compiled.run()
            want = [
                r[:3] for r in rows if x0 <= r[1] <= x1 and y0 <= r[2] <= y1
            ]
            assert out.rows == want and want
            assert counts["validated"] == 0
            assert counts["fetched"] == len(want)
            assert counts["boxes"] <= 1
            # the first plan built the histogram; no later one does
            assert counts["histograms"] == 1, (n, counts)
        database.insert("points", ("late", 1, 1, 0))
        compile_sql(database, statements[0]).plan()
        assert counts["histograms"] == 2  # rebuilt once the tree mutated


class TestWindowedEpsJoin:
    """A window on one eps-join side reaches the other through the
    planner; the rows stay those of the unwindowed join, filtered."""

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

    def test_the_other_side_gets_the_dilated_window(self):
        database = self._catalogs()
        text = compile_sql(database, self._sql("gals")).explain()
        assert (
            "pushed below join (stars): BOX(8, 32, 18, 46) CONTAINS "
            "POINT(x, y)  <- gals window dilated by 2  [z-window]"
        ) in text
        assert "side access (stars): index-scan" in text
        assert "side access (gals): index-scan" in text

    def test_no_implied_window_without_an_index(self):
        database = self._catalogs(index_a=False)
        plan = compile_sql(database, self._sql("gals")).plan()
        assert not any("dilated" in note for note in plan.notes)
        assert not any("(stars)" in note for note in plan.notes)

    def test_no_implied_window_with_two_windows(self):
        database = self._catalogs()
        extra = " AND BOX(0, 40, 0, 63) CONTAINS POINT(stars.x, stars.y)"
        compiled = compile_sql(database, self._sql("gals", extra))
        assert "dilated" not in compiled.explain()
        full = database.epsilon_join(
            "stars", ("x", "y"), "gals", ("x", "y"), self.EPS
        ).rows
        x0, x1, y0, y1 = self.WINDOW
        assert compiled.run().rows == [
            row
            for row in full
            if x0 <= row[4] <= x1 and y0 <= row[5] <= y1 and row[1] <= 40
        ]
