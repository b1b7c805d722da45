"""Randomized linearizability harness for snapshot-isolated sessions.

N reader sessions (range queries, proximity queries, merge joins) race
M writer sessions committing insert/delete bursts.  Every read records
the session's pinned epoch and the byte-exact result; afterwards a
*serial oracle* — a fresh database that no other thread touches —
replays the committed batches in epoch order and re-runs each read against exactly
the commit prefix that was visible at its snapshot.  Snapshot isolation
holds iff every concurrent read is byte-identical to its oracle replay.

Schedules are seedable (the seed drives data, op mix, query boxes and
thread workloads); on failure the harness shrinks the workload —
halving batch counts and sizes while the failure reproduces — and
reports the smallest failing scale with the mismatch details.

A smoke subset runs in tier 1; the full seed sweep is marked
``concurrency`` and runs nightly (``pytest -m concurrency``).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID

GRID = Grid(ndims=2, depth=6)
SIDE = GRID.side
SCHEMA = Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))

SMOKE_SEEDS = [0, 1, 2]
FULL_SEEDS = list(range(20))

Row = Tuple[Any, ...]
Op = Tuple[str, str, Row]


@dataclass
class Observation:
    """One read: what a session saw at its pinned epoch."""

    epoch: int
    kind: str  # "range" | "near" | "join"
    params: Tuple[Any, ...]
    result: str  # byte-exact repr of the rows/points seen


@dataclass
class Mismatch:
    observation: Observation
    expected: str


def _fresh_db() -> SpatialDatabase:
    db = SpatialDatabase(GRID, page_capacity=8)
    db.create_table("a", SCHEMA)
    db.create_table("b", SCHEMA)
    return db


def _random_box(rng: random.Random) -> Box:
    x0, x1 = sorted(rng.randrange(SIDE) for _ in range(2))
    y0, y1 = sorted(rng.randrange(SIDE) for _ in range(2))
    return Box(((x0, x1), (y0, y1)))


def _oracle_eval(
    db: SpatialDatabase, kind: str, params: Tuple[Any, ...]
) -> str:
    if kind == "range":
        table, box = params
        return repr(db.range_query(table, ("x", "y"), box).rows)
    if kind == "near":
        table, center, radius = params
        return repr(
            db.proximity_query(table, ("x", "y"), center, radius).rows
        )
    assert kind == "join"
    pa = {
        (row[1], row[2]) for row in db.catalog.relation("a")
    }
    pb = {
        (row[1], row[2]) for row in db.catalog.relation("b")
    }
    common = sorted(pa & pb, key=lambda p: GRID.zvalue(p).bits)
    return repr(common)


def _session_eval(session: "Any", kind: str, params: Tuple[Any, ...]) -> str:
    if kind == "range":
        table, box = params
        return repr(session.range_query(table, ("x", "y"), box).rows)
    if kind == "near":
        table, center, radius = params
        return repr(
            session.proximity_query(table, ("x", "y"), center, radius).rows
        )
    assert kind == "join"
    return repr(session.join_points("a", ("x", "y"), "b", ("x", "y")))


def _run_schedule(
    seed: int,
    nreaders: int = 4,
    nwriters: int = 2,
    batches_per_writer: int = 5,
    ops_per_batch: int = 8,
    reads_per_reader: int = 4,
) -> Tuple[List[Mismatch], List[Observation]]:
    """Run one concurrent schedule and oracle-check every observation.

    Returns (mismatches, observations); an empty mismatch list means
    every concurrent read was byte-identical to its serial replay.
    """
    db = _fresh_db()
    rnd = random.Random(seed)

    # Seed both tables in one recorded group commit so the oracle's
    # epoch-ordered log covers *every* row that ever existed.
    commit_log: List[Tuple[int, List[Op]]] = []
    log_lock = threading.Lock()
    init_ops: List[Op] = []
    for table in ("a", "b"):
        for i in range(30):
            row = (f"{table}{i}", rnd.randrange(SIDE), rnd.randrange(SIDE))
            init_ops.append(("insert", table, row))
    with db.session() as setup:
        for op, table, row in init_ops:
            setup.insert(table, row)
        epoch = setup.commit()
    assert epoch is not None
    commit_log.append((epoch, init_ops))
    db.create_index("a_xy", "a", ("x", "y"))
    db.create_index("b_xy", "b", ("x", "y"))

    observations: List[Observation] = []
    obs_lock = threading.Lock()
    errors: List[BaseException] = []
    barrier = threading.Barrier(nreaders + nwriters)

    def writer(wid: int) -> None:
        try:
            wrnd = random.Random(f"{seed}-w-{wid}")
            barrier.wait()
            for batch in range(batches_per_writer):
                with db.session() as session:
                    ops: List[Op] = []
                    for k in range(ops_per_batch):
                        table = wrnd.choice(("a", "b"))
                        visible = session.table(table).rows
                        if visible and wrnd.random() < 0.4:
                            row = wrnd.choice(visible)
                            session.delete(table, row)
                            ops.append(("delete", table, row))
                        else:
                            row = (
                                f"w{wid}b{batch}k{k}",
                                wrnd.randrange(SIDE),
                                wrnd.randrange(SIDE),
                            )
                            session.insert(table, row)
                            ops.append(("insert", table, row))
                    epoch = session.commit()
                    assert epoch is not None
                    with log_lock:
                        commit_log.append((epoch, ops))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def reader(rid: int) -> None:
        try:
            rrnd = random.Random(f"{seed}-r-{rid}")
            barrier.wait()
            for _ in range(reads_per_reader):
                with db.session() as session:
                    kind = rrnd.choice(("range", "range", "near", "join"))
                    if kind == "range":
                        params: Tuple[Any, ...] = (
                            rrnd.choice(("a", "b")),
                            _random_box(rrnd),
                        )
                    elif kind == "near":
                        params = (
                            rrnd.choice(("a", "b")),
                            (rrnd.randrange(SIDE), rrnd.randrange(SIDE)),
                            float(rrnd.randrange(1, SIDE // 2)),
                        )
                    else:
                        params = ()
                    first = _session_eval(session, kind, params)
                    # A snapshot must also be *stable*: re-reading
                    # within the session sees the identical bytes.
                    second = _session_eval(session, kind, params)
                    assert first == second, "unstable snapshot"
                    with obs_lock:
                        observations.append(
                            Observation(session.epoch, kind, params, first)
                        )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(nwriters)
    ] + [threading.Thread(target=reader, args=(r,)) for r in range(nreaders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    # Not vacuous: every thread did its full workload.
    assert len(observations) == nreaders * reads_per_reader
    assert len(commit_log) == 1 + nwriters * batches_per_writer

    # Nothing pinned, nothing retained: the teardown leak check.
    leaks = db.snapshots.leak_stats()
    assert leaks == {
        "snapshot.active_pins": 0,
        "snapshot.captured_indexes": 0,
        "cow.live_page_versions": 0,
    }, leaks

    return _oracle_replay(commit_log, observations), observations


def _oracle_replay(
    commit_log: List[Tuple[int, List[Op]]],
    observations: List[Observation],
) -> List[Mismatch]:
    """Serial replay: re-run every observation against a fresh
    database, written by this thread alone, holding exactly the commit
    prefix that was visible at the observation's pinned epoch."""
    oracle = _fresh_db()
    oracle.create_index("a_xy", "a", ("x", "y"))
    oracle.create_index("b_xy", "b", ("x", "y"))
    commit_log = sorted(commit_log, key=lambda item: item[0])
    epochs = [item[0] for item in commit_log]
    assert epochs == sorted(set(epochs)), "commit epochs must be unique"

    mismatches: List[Mismatch] = []
    applied = 0
    for obs in sorted(observations, key=lambda o: o.epoch):
        while applied < len(commit_log) and commit_log[applied][0] <= obs.epoch:
            for op, table, row in commit_log[applied][1]:
                if op == "insert":
                    oracle.insert(table, row)
                else:
                    oracle.delete(table, row)
            applied += 1
        expected = _oracle_eval(oracle, obs.kind, obs.params)
        if expected != obs.result:
            mismatches.append(Mismatch(obs, expected))
    return mismatches


def _check_seed(seed: int) -> None:
    scale: Dict[str, int] = dict(
        nreaders=4,
        nwriters=2,
        batches_per_writer=5,
        ops_per_batch=8,
        reads_per_reader=4,
    )
    mismatches, _ = _run_schedule(seed, **scale)
    if not mismatches:
        return
    # Shrink: halve the workload while the failure reproduces, so the
    # reported counterexample is as small as the bug allows.
    smallest = (dict(scale), mismatches)
    current = dict(scale)
    while (
        current["batches_per_writer"] > 1 or current["ops_per_batch"] > 1
    ):
        candidate = dict(current)
        candidate["batches_per_writer"] = max(
            1, candidate["batches_per_writer"] // 2
        )
        candidate["ops_per_batch"] = max(1, candidate["ops_per_batch"] // 2)
        retry, _ = _run_schedule(seed, **candidate)
        if retry:
            smallest = (candidate, retry)
            current = candidate
        else:
            break
    scale_used, found = smallest
    first = found[0]
    pytest.fail(
        f"snapshot isolation violated (seed={seed}, scale={scale_used}, "
        f"{len(found)} mismatching reads): epoch={first.observation.epoch} "
        f"{first.observation.kind}{first.observation.params}\n"
        f"  saw:      {first.observation.result[:400]}\n"
        f"  expected: {first.expected[:400]}"
    )


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_snapshot_linearizability_smoke(seed: int) -> None:
    """Tier-1 subset: a few seeds of the full randomized harness."""
    _check_seed(seed)


@pytest.mark.concurrency
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_snapshot_linearizability_sweep(seed: int) -> None:
    """The full nightly seed sweep (>= 4 readers, >= 2 writers each)."""
    _check_seed(seed)


def test_harness_detects_violations() -> None:
    """The oracle is not vacuous: doctored observations are flagged."""
    box = Box(((0, SIDE - 1), (0, SIDE - 1)))
    row = ("x0", 1, 2)
    commit_log: List[Tuple[int, List[Op]]] = [(1, [("insert", "a", row)])]
    good = Observation(1, "range", ("a", box), repr([row]))
    assert _oracle_replay(commit_log, [good]) == []
    # Dirty read: a session pinned *before* the commit claims the row.
    dirty = Observation(0, "range", ("a", box), repr([row]))
    assert len(_oracle_replay(commit_log, [dirty])) == 1
    # Stale read: a session pinned after the commit misses the row.
    stale = Observation(1, "range", ("a", box), repr([]))
    assert len(_oracle_replay(commit_log, [stale])) == 1

