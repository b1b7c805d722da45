"""Unit tests for the observability core: spans, traces, the gate."""

import json

import pytest

from repro import obs
from repro.obs import GateReport, QueryTrace, Span, compare_counters
from repro.obs.explain import format_trace
from repro.obs.trace import current


class TestSpan:
    def test_counters_accumulate(self):
        sp = Span("s")
        sp.add("rows")
        sp.add("rows", 4)
        sp.add_counters({"rows": 5, "pages": 2})
        assert sp.counters == {"rows": 10, "pages": 2}

    def test_attrs_overwrite(self):
        sp = Span("s")
        sp.set("box", "a")
        sp.set("box", "b")
        assert sp.attrs["box"] == "b"

    def test_merge_from(self):
        a = Span("a")
        a.add("rows", 3)
        a.set("k", 1)
        a.elapsed_s = 0.5
        b = Span("b")
        b.add("rows", 2)
        b.add("pages", 7)
        b.set("k", 2)
        b.elapsed_s = 0.25
        b.child("inner")
        a.merge_from(b)
        assert a.counters == {"rows": 5, "pages": 7}
        assert a.attrs["k"] == 2  # other's attrs win
        assert a.elapsed_s == pytest.approx(0.75)
        assert [c.name for c in a.children] == ["inner"]

    def test_total_counters_sums_subtree(self):
        root = Span("root")
        root.add("rows", 1)
        child = root.child("child")
        child.add("rows", 2)
        child.child("grandchild").add("pages", 4)
        assert root.total_counters() == {"rows": 3, "pages": 4}

    def test_find_preorder(self):
        root = Span("root")
        first = root.child("x")
        root.child("y").child("x")
        assert root.find("x") is first
        assert root.find("missing") is None

    def test_walk_visits_all(self):
        root = Span("root")
        root.child("a").child("b")
        root.child("c")
        assert [s.name for s in root.walk()] == ["root", "a", "b", "c"]


class TestQueryTrace:
    def test_nesting(self):
        t = QueryTrace("q")
        with t.span("outer"):
            t.add("n", 1)
            with t.span("inner") as inner:
                inner.add("n", 10)
        assert [c.name for c in t.root.children] == ["outer"]
        outer = t.root.children[0]
        assert outer.counters == {"n": 1}
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.children[0].counters == {"n": 10}

    def test_stack_restored_on_error(self):
        t = QueryTrace("q")
        with pytest.raises(RuntimeError):
            with t.span("failing"):
                raise RuntimeError("boom")
        assert t.active_span is t.root

    def test_span_times(self):
        t = QueryTrace("q")
        with t:
            with t.span("timed"):
                pass
        assert t.root.elapsed_s >= t.root.children[0].elapsed_s >= 0.0

    def test_json_round_trip(self):
        t = QueryTrace("q")
        with t.span("child") as sp:
            sp.add("rows", 3)
            sp.set("est_rows", 2.5)
        text = t.to_json()
        restored = QueryTrace.from_json(text)
        assert restored.root.name == "q"
        assert restored.total_counters() == t.total_counters()
        assert restored.root.children[0].attrs == {"est_rows": 2.5}
        # and the text is valid, sorted JSON
        assert json.loads(text)["name"] == "q"


class TestModuleHelpers:
    def test_disabled_is_noop(self):
        assert current() is None
        obs.add("ignored")  # must not raise
        with obs.span("ignored") as sp:
            assert sp is None
        with obs.trace("off", enabled=False) as t:
            assert t is None
            assert current() is None

    def test_trace_installs_and_restores(self):
        assert current() is None
        with obs.trace("on") as t:
            assert current() is t
            obs.add("hits", 2)
            with obs.span("inner") as sp:
                assert sp is not None
        assert current() is None
        assert t.root.counters == {"hits": 2}
        assert t.root.children[0].name == "inner"

    def test_nested_traces_stack(self):
        with obs.trace("outer") as outer:
            with obs.trace("inner") as inner:
                assert current() is inner
            assert current() is outer
        assert current() is None


class TestExplainRendering:
    def test_estimated_vs_actual(self):
        t = QueryTrace("q")
        with t.span("plan.index-scan") as sp:
            sp.set("est_rows", 10.0)
            sp.set("est_pages", 3.0)
            sp.add("rows_out", 8)
            sp.child("zkd").add("pages_accessed", 4)
        text = format_trace(t)
        assert "rows: estimated=10.0 actual=8" in text
        assert "pages: estimated=3.0 actual=4" in text

    def test_unmatched_estimate_renders_question_mark(self):
        t = QueryTrace("q")
        with t.span("plan") as sp:
            sp.set("est_rows", 1.0)
        assert "rows: estimated=1.0 actual=?" in format_trace(t)


class TestCacheTracing:
    """What an index scan's trace carries of a result cache: nothing.
    No cache state appears, and nothing leaks from the untraced
    interval scans."""

    def _build(self):
        import random

        from repro.core.geometry import Box, Grid
        from repro.db.database import SpatialDatabase
        from repro.db.schema import Schema
        from repro.db.types import INTEGER, OID

        grid = Grid(ndims=2, depth=6)
        db = SpatialDatabase(grid, page_capacity=8)
        db.create_table(
            "t", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        rng = random.Random(5)
        db.insert_many(
            "t",
            [
                (f"p{i}", rng.randrange(grid.side), rng.randrange(grid.side))
                for i in range(300)
            ],
        )
        db.create_index("t_xy", "t", ("x", "y"))
        return db, Box(((0, 15), (0, 15)))

    def _traced_query(self, db, box):
        with obs.trace("q") as t:
            db.range_query("t", ("x", "y"), box)
        return t

    def test_uncached_traces_are_cache_free(self):
        """Neither a ``cached`` attr nor any ``cache.*`` counter
        appears, repeated box or not."""
        db, box = self._build()
        for _ in range(2):
            t = self._traced_query(db, box)
            assert "plan.index-scan" in format_trace(t)
            for span in t.root.walk():
                assert "cached" not in span.attrs
                assert not any(
                    k.startswith("cache.") for k in span.counters
                )
            assert "cache" not in format_trace(t)

    def test_interval_scans_publish_no_counters(self):
        """The interval scan the batcher and the eps-seek share is
        untraced at every layer: no counter or span leaks from inside
        the store."""
        from repro.core.decompose import box_intervals

        db, box = self._build()
        store = db.catalog.index("t_xy").tree
        intervals = box_intervals(db.grid, box)
        with obs.trace("q") as t:
            runs = store.interval_query(intervals)
        assert sum(len(payloads) for _, payloads in runs) == len(
            store.range_query(box).matches
        )
        assert list(t.root.walk()) == [t.root]
        assert not t.total_counters()


class TestCounterGate:
    def test_match_passes(self):
        report = compare_counters({"a": 1, "b": 2}, {"a": 1, "b": 2})
        assert report.ok
        assert "PASS" in report.summary()

    def test_increase_fails(self):
        report = compare_counters({"a": 3}, {"a": 1})
        assert not report.ok
        assert report.changed == ["a: 1 -> 3"]
        assert "FAIL" in report.summary()

    def test_decrease_fails(self):
        # Exact gate: a fall in buffer hits or rows out is no gain.
        report = compare_counters({"a": 1}, {"a": 3})
        assert not report.ok
        assert report.changed == ["a: 3 -> 1"]
        assert "re-pin" in report.summary()
        assert "FAIL" in report.summary()

    def test_key_drift_fails_both_ways(self):
        added = compare_counters({"a": 1, "new": 5}, {"a": 1})
        assert not added.ok and added.added == ["new=5"]
        removed = compare_counters({"a": 1}, {"a": 1, "old": 5})
        assert not removed.ok and removed.removed == ["old=5"]

    def test_report_default_is_ok(self):
        assert GateReport().ok
