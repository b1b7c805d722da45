"""The perf ledger: one command for every end-to-end and per-layer number.

    python3 benchmarks/ledger/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/ledger/run.py [--seed S] [--seconds N] [--smoke] [--out FILE]
    python3 benchmarks/ledger/run.py --compare A.json B.json

With ``--workload`` it makes one run in this process and ends its
output with the one-line JSON result the benchmark contract asks for.
Without it, every workload runs untraced in a fresh subprocess, the
per-layer suite runs once, and the ledger is printed (and written to
``--out``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def contract_line(
    attempted: int, failed: int, metrics: Dict[str, Dict[str, Any]], names: List[str]
) -> str:
    """The last line of a run: exactly the metrics the spec lists, each
    a number.  A per-layer probe whose API is gone reads 0 here (and
    ``null`` in the ledger), because the contract admits only numbers."""
    out = {}
    for name in names:
        metric = metrics[name]
        value = metric["value"]
        out[name] = {"value": 0 if value is None else value, "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": out,
        }
    )


def print_metrics(metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        extras = "".join(
            f"  {key}={metric[key]:.3g}" if isinstance(metric[key], float)
            else f"  {key}={metric[key]}"
            for key in ("n", "spread", "weak")
            if key in metric
        )
        print(f"{name:36s} {shown:>12s} {metric['unit']}{extras}")


def run_end_to_end(
    name: str, seed: int, seconds: float, smoke: bool
) -> Dict[str, Any]:
    import harness
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    setup_times: List[float] = []
    workload = None
    try:
        for _ in range(cls.setups):
            if workload is not None:
                workload.close()
                workload = None
            gc.collect()
            start = time.perf_counter()
            workload = cls(seed, smoke)
            setup_times.append(time.perf_counter() - start)
        timed = workload.measure(seconds, harness.stream_rng(seed, name, "checks"))
        workload.finish(timed)
    finally:
        if workload is not None:
            workload.close()
    metrics: Dict[str, Dict[str, Any]] = {
        "setup_s": {
            "value": statistics.median(setup_times),
            "unit": "s",
            "n": len(setup_times),
            "spread": (max(setup_times) - min(setup_times))
            / statistics.median(setup_times),
        },
        "peak_rss_mb": {"value": harness.peak_rss_mb(), "unit": "MB"},
    }
    metrics.update(harness.summarize(timed))
    for extra, samples in workload.extras().items():
        if samples:
            metrics[extra] = {
                "value": harness.median_ms(samples), "unit": "ms", "n": len(samples)
            }
    return {"attempted": timed.attempted, "failed": timed.failed, "metrics": metrics}


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    if args.trace:
        import layers

        result = layers.run_suite(args.seed, args.smoke, args.workload)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds, args.smoke)
        names = [m["name"] for m in spec["end_to_end"]]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print_metrics(result["metrics"])
    print(f"# attempted={result['attempted']} failed={result['failed']}")
    if args.json:
        with open(args.json, "w") as out:
            json.dump(result, out)
    print(contract_line(result["attempted"], result["failed"], result["metrics"], names))
    return 1 if result["failed"] else 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then the per-layer suite, each in a
    fresh interpreter so no workload inherits another's heap or caches."""
    spec = load_spec()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    ledger: Dict[str, Any] = {
        "schema": 1,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    failed = 0
    jobs = [(w["name"], 0) for w in spec["workloads"]]
    jobs.append((spec["workloads"][0]["name"], 1))
    for name, trace in jobs:
        part = os.path.join(HERE, "out", f"part-{os.getpid()}.json")
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
            "--json", part,
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if not os.path.exists(part):
            print(f"{name}: run died with code {done.returncode}", file=sys.stderr)
            return 1
        with open(part) as handle:
            result = json.load(handle)
        os.remove(part)
        failed += result["failed"]
        if trace:
            ledger["per_layer"] = result
        else:
            ledger["workloads"][name] = result
    if args.out:
        with open(args.out, "w") as out:
            json.dump(ledger, out, indent=1, sort_keys=True)
            out.write("\n")
    return 1 if failed else 0


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both values, B/A, the bound,
    and ok / regressed / unresolved (slice spread wider than the bound)."""
    with open(path_a) as a, open(path_b) as b:
        ledger_a, ledger_b = json.load(a), json.load(b)
    regressed = 0
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'bound':>6s}  verdict")
    for spec in load_spec()["end_to_end"]:
        for workload, run_a in ledger_a["workloads"].items():
            run_b = ledger_b["workloads"].get(workload)
            if run_b is None:
                continue
            a_metric = run_a["metrics"][spec["name"]]
            b_metric = run_b["metrics"][spec["name"]]
            ratio = b_metric["value"] / a_metric["value"]
            worse = ratio - 1 if spec["better"] == "lower" else 1 / ratio - 1
            spread = max(a_metric.get("spread", 0.0), b_metric.get("spread", 0.0))
            if spread > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(
                f"{workload:14s} {spec['name']:12s} {a_metric['value']:12.5g} "
                f"{b_metric['value']:12.5g} {ratio:8.3f} {spec['bound']:6.2f}  "
                f"{verdict} (A={a_metric['value']:.5g} {spec['unit']}, "
                f"slice spread {spread:.3f})"
            )
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", help="write the full ledger here (all-workloads mode)")
    parser.add_argument("--json", help="also write this run's full result here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_spec()["run_seconds"])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
