"""Integration tests: traced execution against the Section-5 cost model.

The trace's measured counters must line up with (a) what the query
actually returned, (b) the analytical page bound of Section 5.3.1, and
(c) the histogram estimates the planner prints next to them.
"""

import pytest

from repro import obs
from repro.core.analysis import predicted_range_pages
from repro.core.geometry import Box, Grid
from repro.db import INTEGER, OID, Schema, SpatialDatabase
from repro.db.statistics import estimate_pages
from repro.storage.prefix_btree import ZkdTree
from repro.workloads.datasets import make_dataset

GRID = Grid(ndims=2, depth=7)


@pytest.fixture()
def db():
    database = SpatialDatabase(GRID, page_capacity=20)
    database.create_table(
        "pts", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    dataset = make_dataset("U", GRID, 2000, seed=11)
    database.insert_many(
        "pts", [(f"p{i}", x, y) for i, (x, y) in enumerate(dataset.points)]
    )
    database.create_index("pts_xy", "pts", ("x", "y"))
    return database


def _window(fraction=4):
    side = GRID.side
    return Box(((0, side // fraction), (0, side // fraction)))


def _traced(db, box):
    """``db.range_query`` over ``pts`` with a trace active."""
    with obs.trace("query(pts)") as trace:
        out = db.range_query("pts", ("x", "y"), box)
    return out, trace


class TestTracedRangeQuery:
    def test_actual_rows_match_relation(self, db):
        out, trace = _traced(db, _window())
        plan_span = trace.find("plan.index-scan") or trace.find(
            "plan.table-scan"
        )
        assert plan_span is not None
        assert plan_span.counters["rows_out"] == len(out)
        assert plan_span.total_counters()["rows_reported"] == len(out)

    def test_results_identical_with_and_without_trace(self, db):
        box = _window()
        plain = db.range_query("pts", ("x", "y"), box)
        traced, _ = _traced(db, box)
        assert sorted(plain.rows) == sorted(traced.rows)

    def test_measured_pages_within_section5_bound(self, db):
        """O(vN): the measured page count stays under the analytical
        block-counting bound of Section 5.3.1."""
        box = _window()
        _, trace = _traced(db, box)
        zkd = trace.find("zkd.range_query")
        assert zkd is not None
        measured = zkd.counters["pages_accessed"]
        tree = db.catalog.indexes_on("pts")[0].tree
        sizes = [hi - lo + 1 for lo, hi in box.ranges]
        bound = predicted_range_pages(
            sizes, GRID.side, tree.npages, GRID.ndims
        )
        assert measured <= bound

    def test_measured_pages_within_2x_of_histogram_estimate(self, db):
        box = _window()
        _, trace = _traced(db, box)
        zkd = trace.find("zkd.range_query")
        measured = zkd.counters["pages_accessed"]
        tree = db.catalog.indexes_on("pts")[0].tree
        estimated = estimate_pages(tree, box)
        assert estimated / 2 <= max(measured, 1) <= max(2 * estimated, 2)

    def test_explain_analyze_text(self, db):
        text = obs.format_trace(_traced(db, _window())[1])
        assert "estimated=" in text and "actual=" in text
        assert "zkd.range_query" in text
        assert "rangesearch" in text

    def test_trace_json_round_trip(self, db):
        _, trace = _traced(db, _window())
        restored = obs.QueryTrace.from_json(trace.to_json())
        assert restored.total_counters() == trace.total_counters()


class TestBufferIsolation:
    def test_stats_reset_between_queries(self):
        """Each range_query reports its own buffer delta, so a query's
        hit rate reflects that query alone (the bench_planner leak:
        hits from query N-1 inflating query N's rate).  The live
        counters accumulate — queries snapshot and diff them instead of
        zeroing, so concurrent sessions never clobber each other."""
        tree = ZkdTree(GRID, page_capacity=10, buffer_frames=4)
        dataset = make_dataset("U", GRID, 800, seed=3)
        tree.insert_many(dataset.points)
        big = Box(((0, GRID.side - 1), (0, GRID.side - 1)))
        tiny = Box(((0, 2), (0, 2)))
        base = tree.buffer.stats()
        first = tree.range_query(big)
        second = tree.range_query(tiny)
        # the tiny query's stats can't still carry the big query's misses
        assert sum(first.buffer_stats.values()) > 0
        total_second = (
            second.buffer_stats["hits"] + second.buffer_stats["misses"]
        )
        assert total_second <= first.buffer_stats["misses"]
        # and the live counters are exactly base + the per-query deltas
        assert tree.buffer.stats()["hits"] == (
            base["hits"]
            + first.buffer_stats["hits"]
            + second.buffer_stats["hits"]
        )
        assert tree.buffer.stats()["misses"] == (
            base["misses"]
            + first.buffer_stats["misses"]
            + second.buffer_stats["misses"]
        )

    def test_hit_rate_is_per_query(self):
        tree = ZkdTree(GRID, page_capacity=10, buffer_frames=64)
        dataset = make_dataset("U", GRID, 800, seed=4)
        tree.insert_many(dataset.points)
        box = Box(((0, 40), (0, 40)))
        cold = tree.range_query(box)
        warm = tree.range_query(box)  # same pages, now resident
        assert warm.buffer_stats["hit_rate"] >= cold.buffer_stats["hit_rate"]
        assert warm.buffer_stats["misses"] <= cold.buffer_stats["misses"]


class TestTracedSpatialJoin:
    def test_join_counters(self):
        import random

        from repro.db import SPATIAL_OBJECT
        from repro.db.relation import Relation
        from repro.db.spatial import overlap_query
        from repro.db.types import SpatialObject

        rng = random.Random(5)

        def objects(name, prefix):
            rel = Relation(
                name, Schema.of(("id@", OID), ("geom", SPATIAL_OBJECT))
            )
            for i in range(12):
                x = rng.randrange(GRID.side - 10)
                y = rng.randrange(GRID.side - 10)
                rel.insert((
                    f"{prefix}{i}",
                    SpatialObject.from_box(
                        f"{prefix}{i}", Box(((x, x + 9), (y, y + 9)))
                    ),
                ))
            return rel

        p, q = objects("P", "p"), objects("Q", "q")
        with obs.trace("join") as trace:
            result = overlap_query(
                p, q, "geom", "id@", grid=GRID, max_depth=4
            )
        sweep = trace.find("spatialjoin.sweep")
        assert sweep is not None
        # the sweep nests under the operator span
        assert trace.find("op.spatial_join").find("spatialjoin.sweep")
        counters = sweep.counters
        assert counters["pairs_emitted"] >= len(result)
        assert counters["r_elements"] > 0 and counters["s_elements"] > 0
        # distinct projection appears downstream of the join
        assert trace.find("op.distinct") is not None
