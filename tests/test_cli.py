"""Tests for the command-line interface."""

import io
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.geometry import Grid
from repro.obs import QueryTrace
from repro.workloads.datasets import make_dataset


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_dataset_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "X"])


class TestFigures:
    def test_prints_all_figures(self):
        code, text = run(["figures"])
        assert code == 0
        for fig in ("Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5"):
            assert fig in text
        assert "27" in text  # rank of [3,5]
        assert "001" in text  # the big element of Figure 2


class TestExperiment:
    def test_small_run(self):
        code, text = run(
            [
                "experiment", "U",
                "--points", "500",
                "--depth", "7",
                "--locations", "2",
            ]
        )
        assert code == 0
        assert "volume" in text
        assert "pages grow with volume" in text

    def test_all_datasets(self):
        for name in ("U", "C", "D"):
            code, text = run(
                [
                    "experiment", name,
                    "--points", "500",
                    "--depth", "6",
                    "--locations", "1",
                ]
            )
            assert code == 0
            assert name in text


class TestPartition:
    def test_renders_map(self):
        code, text = run(
            [
                "partition", "C",
                "--points", "500",
                "--depth", "6",
                "--side", "16",
            ]
        )
        assert code == 0
        lines = text.splitlines()
        assert "data pages" in lines[0]
        assert len(lines) == 17  # header + 16 map rows


class TestCompare:
    def test_comparison_table(self):
        code, text = run(
            ["compare", "U", "--points", "400", "--depth", "6"]
        )
        assert code == 0
        for structure in ("zkd-btree", "kd-tree", "grid-file", "heap-scan"):
            assert structure in text


class TestSpace:
    def test_analysis_output(self):
        code, text = run(["space", "109", "91", "--depth", "8"])
        assert code == 0
        assert "E(109, 91)" in text
        assert "cyclicity check" in text
        assert "coarsening" in text


class TestQuery:
    ARGS = ["query", "--points", "500", "--depth", "7", "--objects", "10"]
    WINDOW = "Box([16..48] x [16..48])"  # the middle of a 128-wide grid

    @staticmethod
    def in_window():
        """The seeded C points inside the window, counted directly."""
        dataset = make_dataset("C", Grid(ndims=2, depth=7), 500, seed=0)
        return sum(
            16 <= x <= 48 and 16 <= y <= 48 for x, y in dataset.points
        )

    def test_plain_run(self):
        code, text = run(self.ARGS)
        assert code == 0
        assert f"range query {self.WINDOW}: {self.in_window()} rows\n" in text
        assert re.search(r"^overlap join P x Q: \d+ pairs$", text, re.M)

    def test_explain_analyze_spans(self):
        code, text = run(self.ARGS + ["--explain-analyze"])
        assert code == 0
        assert "=== EXPLAIN ANALYZE: range query ===" in text
        assert "plan.index-scan" in text and "zkd.range_query" in text
        assert "=== EXPLAIN ANALYZE: spatial join ===" in text
        assert "op.spatial_join" in text

    def test_session_read_is_planned(self):
        code, text = run(self.ARGS + ["--sessions", "2", "--explain-analyze"])
        assert code == 0
        assert "2 snapshot sessions vs 1 hot writer" in text
        assert text.count(" rows in window, stable\n") == 2
        _, snapshot = text.split(
            "=== EXPLAIN ANALYZE: snapshot range query ===\n"
        )
        assert re.search(r"^  plan\.(index|table)-scan ", snapshot, re.M)

    def test_json_round_trips(self, tmp_path):
        path = tmp_path / "traces.json"
        code, text = run(self.ARGS + ["--json", str(path)])
        assert code == 0
        assert f"traces written to {path}" in text
        payload = json.loads(path.read_text())
        assert set(payload) == {"range_query", "spatial_join"}
        traces = {
            key: QueryTrace.from_json(json.dumps(doc))
            for key, doc in payload.items()
        }
        for key, trace in traces.items():
            assert json.loads(trace.to_json()) == payload[key]
        plan = traces["range_query"].find("plan.index-scan")
        assert plan is not None
        assert plan.counters["rows_out"] == self.in_window()


class TestSql:
    QUERY = (
        "SELECT id@, x FROM points "
        "WHERE BOX(0, 64, 0, 64) CONTAINS POINT(x, y) "
        "AND x > 10 ORDER BY id@ LIMIT 4"
    )
    ARGS = ["--points", "300", "--depth", "7", "--objects", "10"]

    def test_rows_output(self):
        code, text = run(["sql", self.QUERY] + self.ARGS)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "id@  x"
        assert lines[-1].endswith("row(s))")

    def test_stdin_dash(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.QUERY))
        code, text = run(["sql", "-"] + self.ARGS)
        assert code == 0
        assert "row(s))" in text

    def test_parse_error_exits_2_with_caret(self):
        code, text = run(["sql", "SELECT FROM points"] + self.ARGS)
        assert code == 2
        assert "^" in text
        assert "parse error at line 1" in text

    def test_bind_error_exits_2(self):
        code, text = run(["sql", "SELECT nope FROM points"] + self.ARGS)
        assert code == 2
        assert "bind error" in text and "nope" in text

    def test_explain_statement(self):
        code, text = run(["sql", "EXPLAIN " + self.QUERY] + self.ARGS)
        assert code == 0
        assert "SQL:" in text and "filters" in text

    def test_explain_analyze_flag(self):
        code, text = run(
            ["sql", self.QUERY, "--explain-analyze"] + self.ARGS
        )
        assert code == 0
        assert "plan.multi" in text
        assert "filter[x > 10]" in text

    def test_join_over_demo_objects(self):
        code, text = run(
            [
                "sql",
                "SELECT regions.id@, zones.id@ FROM regions "
                "JOIN zones ON OVERLAPS(regions.geom, zones.geom) "
                "ORDER BY regions.id@, zones.id@",
            ]
            + self.ARGS
        )
        assert code == 0
        assert "regions_id@  zones_id@" in text

    def test_sessions_assert_identical(self):
        code, text = run(["sql", self.QUERY, "--sessions", "3"] + self.ARGS)
        assert code == 0
        assert "3 snapshot sessions agreed" in text

    def test_json_output(self, tmp_path):
        path = tmp_path / "result.json"
        code, text = run(
            ["sql", self.QUERY, "--json", str(path)] + self.ARGS
        )
        assert code == 0
        import json

        payload = json.loads(path.read_text())
        assert payload["mode"] == "rows"
        assert payload["columns"] == ["id@", "x"]

    def test_no_reorder_same_rows(self):
        _, ordered = run(["sql", self.QUERY] + self.ARGS)
        _, naive = run(["sql", self.QUERY, "--no-reorder"] + self.ARGS)
        assert ordered == naive
