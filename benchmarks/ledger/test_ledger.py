"""Tests of the ledger itself (smoke sizes; run with
``python -m pytest benchmarks/ledger -q``)."""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
#: metrics that are counts of the program's own work: equal for equal seeds
COUNTS = [
    "core.elements_per_box",
    "storage.write_amp",
    "storage.bytes_per_txn",
    "storage.page_writes_per_txn",
] + [f"storage.{m}.{d}" for m in ("pages_per_query", "efficiency") for d in "UCD"]


def run_cli(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        layers.PER_LAYER
    )
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "peak_rss_mb", "ops_per_s", "p50_ms"
    ]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_stream_follows_the_seed(name):
    def head(seed):
        workload = WORKLOADS[name](seed, smoke=True)
        try:
            return list(itertools.islice(workload.stream(), 30))
        finally:
            workload.close()

    assert head(3) == head(3)
    assert head(3) != head(4)


def test_span_self_time_is_duration_minus_children():
    recorder = Recorder()
    recorder.spans = [
        Span(0, "sql.run", None, 7, 0.0, 0.010),
        Span(1, "db.range_query", 0, 7, 0.010, 0.016),
        Span(2, "storage.range_query", 1, 7, 0.016, 0.018),
        Span(3, "db.range_query", 0, 7, 0.018, 0.019),
    ]
    assert recorder.self_times("sql.run") == [pytest.approx(0.003)]
    assert recorder.self_times("db.range_query") == [
        pytest.approx(0.004), pytest.approx(0.001)
    ]
    assert recorder.median_ms("storage.range_query", self_time=True) == pytest.approx(2.0)
    with recorder.span("child", parent=recorder.spans[0]) as child:
        pass
    assert child.parent == 0 and child.request == 7 and child.end >= child.start


def contract_result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return result["metrics"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_meets_the_contract(name):
    metrics = contract_result(
        run_cli("--workload", name, "--seed", "5", "--seconds", "0.3",
                "--trace", "0", "--smoke")
    )
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_meets_the_contract_and_counts_repeat():
    first, second, other = (
        contract_result(
            run_cli("--workload", "sql_mix", "--seed", seed, "--seconds", "0.3",
                    "--trace", "1", "--smoke")
        )
        for seed in ("5", "5", "6")
    )
    assert {n: m["unit"] for n, m in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert [first[c] for c in COUNTS] == [second[c] for c in COUNTS]
    assert [first[c] for c in COUNTS] != [other[c] for c in COUNTS]


def test_a_removed_probe_reads_null_and_nothing_raises(monkeypatch):
    def gone():
        raise ImportError("decompose_box was removed")

    assert harness.optional(gone) is None
    monkeypatch.setattr(layers, "_decompose_box", gone)
    suite = layers.Suite(seed=1, smoke=True)
    suite.sql_stack()
    assert suite.values["core.decompose_cold_ms"] is None
    assert suite.values["core.elements_per_box"] is None
    assert suite.values["storage.range_ms"] > 0
    assert suite.outcome.failed == 0
    line = json.loads(
        run.contract_line(
            1, 0, {"core.elements_per_box": {"value": None, "unit": "count"}},
            ["core.elements_per_box"],
        )
    )
    assert line["metrics"]["core.elements_per_box"]["value"] == 0


def test_compare_calls_ok_regressed_and_unresolved(tmp_path, capsys):
    def ledger(p50, spread):
        metrics = {
            m["name"]: {"value": 1.0, "unit": m["unit"], "spread": 0.0}
            for m in SPEC["end_to_end"]
        }
        metrics["p50_ms"] = {"value": p50, "unit": "ms", "spread": spread}
        return {"workloads": {"sql_mix": {"metrics": metrics}}}

    paths = {}
    for key, content in {
        "base": ledger(1.0, 0.0), "slow": ledger(1.5, 0.0), "noisy": ledger(1.5, 0.9)
    }.items():
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as out:
            json.dump(content, out)
    assert run.compare(paths["base"], paths["base"]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert run.compare(paths["base"], paths["slow"]) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.compare(paths["base"], paths["noisy"]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bare)
    done = run_cli("--workload", "sql_mix", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path, script=str(bare / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
