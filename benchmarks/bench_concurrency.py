"""Concurrent-session read throughput: snapshots under a hot writer.

1/4/8 reader threads, each cycling ``db.session()`` snapshots over
range queries, race one hot writer committing insert bursts the whole
time.  Reported as queries/sec per configuration, with the
snapshot/COW counters; correctness is asserted (every session's
double-read is identical, zero leak counters at teardown).
Pure-Python readers share the GIL, so this bench *reports* rather than
enforces scaling — it exists to show snapshot pin/COW overhead does
not collapse throughput while a writer churns epochs.

Runs two ways:

* as a pytest bench, writing
  ``benchmarks/results/concurrency_throughput.txt``::

      PYTHONPATH=src python -m pytest benchmarks/bench_concurrency.py -q

* as a standalone script for CI smoke runs::

      PYTHONPATH=src python benchmarks/bench_concurrency.py --smoke
"""

import argparse
import itertools
import os
import random
import sys
import threading
import time

from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID

READER_COUNTS = (1, 4, 8)

DB_DEPTH = 8
DB_SEED_ROWS = 4_000
READS_PER_READER = 60
READS_PER_SESSION = 6
WRITER_BATCH = 8


def _session_workload(depth, nrows, seed):
    grid = Grid(ndims=2, depth=depth)
    side = grid.side
    rng = random.Random(seed)
    schema = Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    db = SpatialDatabase(grid, page_capacity=32)
    db.create_table("pts", schema)
    db.insert_many(
        "pts",
        [
            (i, rng.randrange(side), rng.randrange(side))
            for i in range(nrows)
        ],
    )
    db.create_index("pts_xy", "pts", ("x", "y"), buffer_frames=16)
    return db, grid


def _random_box(rng, side):
    x0, x1 = sorted(rng.randrange(side) for _ in range(2))
    y0, y1 = sorted(rng.randrange(side) for _ in range(2))
    return Box(((x0, x1), (y0, y1)))


def bench_sessions(
    reader_counts=READER_COUNTS,
    depth=DB_DEPTH,
    nrows=DB_SEED_ROWS,
    reads_per_reader=READS_PER_READER,
    seed=0,
):
    """Readers on cycling snapshots vs one hot writer; q/s per config."""
    rows = []
    for nreaders in reader_counts:
        db, grid = _session_workload(depth, nrows, seed)
        side = grid.side
        stop = threading.Event()
        errors = []
        commits = itertools.count()
        ncommits = 0

        def writer():
            nonlocal ncommits
            rng = random.Random(f"{seed}-writer")
            ids = itertools.count(10_000_000)
            while not stop.is_set():
                with db.session() as session:
                    for _ in range(WRITER_BATCH):
                        session.insert(
                            "pts",
                            (
                                next(ids),
                                rng.randrange(side),
                                rng.randrange(side),
                            ),
                        )
                    session.commit()
                ncommits += 1

        def reader(tid):
            rng = random.Random(f"{seed}-reader-{tid}")
            done = 0
            try:
                while done < reads_per_reader:
                    with db.session() as session:
                        for _ in range(READS_PER_SESSION):
                            if done >= reads_per_reader:
                                break
                            box = _random_box(rng, side)
                            first = session.range_query(
                                "pts", ("x", "y"), box
                            ).rows
                            again = session.range_query(
                                "pts", ("x", "y"), box
                            ).rows
                            assert first == again, "snapshot moved"
                            done += 1
                            next(commits)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        wthread = threading.Thread(target=writer)
        rthreads = [
            threading.Thread(target=reader, args=(t,))
            for t in range(nreaders)
        ]
        wthread.start()
        t0 = time.perf_counter()
        for t in rthreads:
            t.start()
        for t in rthreads:
            t.join()
        elapsed = time.perf_counter() - t0
        stop.set()
        wthread.join()
        if errors:
            raise errors[0]
        manager = db.snapshots
        manager.reclaim()
        leaks = manager.leak_stats()
        assert all(v == 0 for v in leaks.values()), leaks
        counters = manager.counters()
        rows.append(
            {
                "nreaders": nreaders,
                "qps": (nreaders * reads_per_reader) / elapsed,
                "writer_commits": ncommits,
                "pins": counters.get("snapshot.pins", 0),
                "cow_retained": counters.get("cow.retained", 0),
                "cow_reclaimed": counters.get("cow.reclaimed", 0),
            }
        )
    return rows


def format_report(session_rows):
    lines = [
        "# Concurrent sessions: read throughput ({} cpu(s))".format(
            os.cpu_count() or 1
        ),
        "",
        "## Snapshot sessions vs one hot writer (GIL-shared, reported)",
    ]
    for r in session_rows:
        lines.append(
            f"  readers={r['nreaders']}  {r['qps']:>8.1f} q/s   "
            f"writer commits={r['writer_commits']}  "
            f"pins={r['pins']}  cow retained/reclaimed="
            f"{r['cow_retained']}/{r['cow_reclaimed']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry point (writes the result artifact)
# ----------------------------------------------------------------------


def test_concurrency_throughput(results_dir):
    from conftest import save_result

    session_rows = bench_sessions()
    report = format_report(session_rows)
    save_result(results_dir, "concurrency_throughput.txt", report)
    # The hot writer must actually have been hot.
    assert all(r["writer_commits"] > 0 for r in session_rows), report


# ----------------------------------------------------------------------
# CLI entry point (CI smoke)
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload (correctness checks either way)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        session_rows = bench_sessions(
            reader_counts=(1, 4), nrows=800, reads_per_reader=12
        )
    else:
        session_rows = bench_sessions()
    from gates import gate

    print(format_report(session_rows))
    return gate(
        "concurrency",
        [
            (
                all(r["writer_commits"] > 0 for r in session_rows),
                "hot writer committed during snapshot reads",
            ),
            (True, "snapshot reads stable under writes, zero leaks"),
        ],
    )


if __name__ == "__main__":
    sys.exit(main())
