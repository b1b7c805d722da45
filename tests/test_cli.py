"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


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
