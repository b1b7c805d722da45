"""Differential coherence suite for the semantic result cache.

Two databases are built identically — one with ``cache=True``, one
without — and driven through the same seeded workload of insert/delete
batches and range queries.  Queries repeat earlier boxes (the hit path),
nest inside them (the prefix full-hit path), and probe fresh regions
(miss/partial); after every query the cached database's rows must be
byte-identical to the uncached one's.  The session variant additionally
pins snapshots on both databases, commits around them, and checks that
pinned reads through the cache stay frozen exactly like uncached pinned
reads (and that ``join_points`` agrees).

Both variants drive the caches' epochs through the database's
SnapshotManager.  A standalone cache's own logical clock is covered by
``tests/test_cache_core.py``'s manager-less cases:
``test_internal_clock_without_manager``,
``test_record_commit_marks_overlap_only`` and the bare-tree
``TestCachedRangeMatches``.

Seeds are shrunk on failure — rounds and batch sizes halve while the
mismatch reproduces — and the smallest counterexample is reported.  A
smoke subset runs in tier 1; the full seed sweep (seed-derived shard
counts 1–4, sessions on/off) is ``slow`` and runs nightly.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Tuple

import pytest

from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID

GRID = Grid(ndims=2, depth=6)
SIDE = GRID.side
SCHEMA = Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))

#: (seed, shards, sessions) triples for tier 1 — one per corner of the
#: config space, kept small enough to run in a few seconds.
SMOKE_CONFIGS = [(0, 1, False), (1, 2, True), (2, 3, False), (3, 4, True)]
FULL_SEEDS = list(range(20))


def _random_box(rng: random.Random) -> Box:
    x0, x1 = sorted(rng.randrange(SIDE) for _ in range(2))
    y0, y1 = sorted(rng.randrange(SIDE) for _ in range(2))
    return Box(((x0, x1), (y0, y1)))


def _sub_box(rng: random.Random, box: Box) -> Box:
    """A random box nested inside ``box`` — its decomposition elements
    extend the parent's z-prefixes, so a cached parent covers it."""
    ranges = []
    for lo, hi in box.ranges:
        a, b = sorted(rng.randint(lo, hi) for _ in range(2))
        ranges.append((a, b))
    return Box(tuple(ranges))


def _build_pair(
    seed: int, shards: int, sessions: bool, nseed_rows: int
) -> Tuple[SpatialDatabase, SpatialDatabase, Dict[str, List]]:
    """Identical twin databases (cached / uncached) plus the row model."""
    rng = random.Random(10_000 + seed)
    cached = SpatialDatabase(GRID, page_capacity=8, cache=True)
    plain = SpatialDatabase(GRID, page_capacity=8)
    live: Dict[str, List] = {"a": [], "b": []}
    for db in (cached, plain):
        db.create_table("a", SCHEMA)
        db.create_table("b", SCHEMA)
    for i in range(nseed_rows):
        table = "a" if i % 2 == 0 else "b"
        row = (f"seed{i}", rng.randrange(SIDE), rng.randrange(SIDE))
        cached.insert(table, row)
        plain.insert(table, row)
        live[table].append(row)
    for db in (cached, plain):
        db.create_index("a_xy", "a", ("x", "y"), shards=shards)
        db.create_index("b_xy", "b", ("x", "y"), shards=shards)
    return cached, plain, live


def _cache_stats(db: SpatialDatabase) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for entry in db.catalog.indexes():
        if entry.cache is None:
            continue
        for name, value in entry.cache.stats.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _run_workload(
    seed: int,
    shards: int,
    sessions: bool,
    rounds: int = 4,
    ops_per_round: int = 6,
    queries_per_round: int = 8,
) -> Tuple[List[str], Dict[str, int]]:
    """Drive the twin databases; return (mismatches, cache stats)."""
    rng = random.Random(seed)
    cached, plain, live = _build_pair(
        seed, shards, sessions, nseed_rows=8 + 4 * ops_per_round // 3
    )
    ids = itertools.count()
    boxes: List[Box] = []
    mismatches: List[str] = []

    def compare(label: str, got: str, want: str) -> None:
        if got != want:
            mismatches.append(f"{label}: cached={got!r} uncached={want!r}")

    def query_both(table: str, box: Box, tag: str) -> None:
        got = repr(cached.range_query(table, ("x", "y"), box).rows)
        want = repr(plain.range_query(table, ("x", "y"), box).rows)
        compare(f"{tag} {table} {box}", got, want)

    for rnd in range(rounds):
        # --- identical mutations against both databases ---------------
        for _ in range(ops_per_round):
            table = "a" if rng.random() < 0.5 else "b"
            if live[table] and rng.random() < 0.35:
                row = live[table].pop(rng.randrange(len(live[table])))
                ok_c = cached.delete(table, row)
                ok_p = plain.delete(table, row)
                compare(f"delete {table} {row}", repr(ok_c), repr(ok_p))
            else:
                row = (
                    f"r{next(ids)}",
                    rng.randrange(SIDE),
                    rng.randrange(SIDE),
                )
                cached.insert(table, row)
                plain.insert(table, row)
                live[table].append(row)

        # --- queries: repeats (hits), nests (prefix hits), fresh ------
        for _ in range(queries_per_round):
            table = "a" if rng.random() < 0.5 else "b"
            roll = rng.random()
            if boxes and roll < 0.4:
                box = boxes[rng.randrange(len(boxes))]
            elif boxes and roll < 0.6:
                box = _sub_box(rng, boxes[rng.randrange(len(boxes))])
            else:
                box = _random_box(rng)
                boxes.append(box)
            query_both(table, box, f"round{rnd}")

        # --- session variant: pinned reads through the cache ----------
        if sessions:
            probe = boxes[-3:] if boxes else [_random_box(rng)]
            sc, sp = cached.session(), plain.session()
            try:
                for box in probe:
                    compare(
                        f"round{rnd} pinned {box}",
                        repr(sc.range_query("a", ("x", "y"), box).rows),
                        repr(sp.range_query("a", ("x", "y"), box).rows),
                    )
                compare(
                    f"round{rnd} join",
                    repr(sc.join_points("a", ("x", "y"), "b", ("x", "y"))),
                    repr(sp.join_points("a", ("x", "y"), "b", ("x", "y"))),
                )
                # Commit after pinning: pinned reads — cached or not —
                # must stay frozen at the snapshot.
                row = (f"s{rnd}", rng.randrange(SIDE), rng.randrange(SIDE))
                cached.insert("a", row)
                plain.insert("a", row)
                live["a"].append(row)
                for box in probe:
                    compare(
                        f"round{rnd} pinned-after-commit {box}",
                        repr(sc.range_query("a", ("x", "y"), box).rows),
                        repr(sp.range_query("a", ("x", "y"), box).rows),
                    )
            finally:
                sc.close()
                sp.close()

    if sessions:
        leaks = cached.snapshots.leak_stats()
        if leaks.get("snapshot.active_pins"):
            mismatches.append(f"leaked pins: {leaks}")
    return mismatches, _cache_stats(cached)


def _check(seed: int, shards: int, sessions: bool) -> None:
    """Run at full scale; on failure shrink (halve every knob) while the
    mismatch reproduces and fail with the smallest counterexample."""
    scale = {"rounds": 4, "ops_per_round": 6, "queries_per_round": 8}
    mismatches, stats = _run_workload(seed, shards, sessions, **scale)
    if not mismatches:
        # Non-vacuity: the repeat/nest mix must actually hit the cache.
        assert stats.get("cache.hit", 0) > 0, stats
        assert stats.get("cache.miss", 0) > 0, stats
        return
    smallest = (dict(scale), mismatches)
    while True:
        shrunk = {k: max(1, v // 2) for k, v in scale.items()}
        if shrunk == scale:
            break
        again, _ = _run_workload(seed, shards, sessions, **shrunk)
        if again:
            scale = shrunk
            smallest = (dict(shrunk), again)
        else:
            break
    scale_str, found = smallest
    pytest.fail(
        f"cache diverged from uncached (seed={seed} shards={shards} "
        f"sessions={sessions}, smallest scale {scale_str}):\n  "
        + "\n  ".join(found[:10])
    )


@pytest.mark.parametrize("seed,shards,sessions", SMOKE_CONFIGS)
def test_cache_differential_smoke(seed, shards, sessions):
    _check(seed, shards, sessions)


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_cache_differential_sweep(seed):
    # Derive the config from the seed so 20 runs cover shards 1-4 and
    # both session modes without a 160-run matrix.
    _check(seed, shards=seed % 4 + 1, sessions=bool(seed % 2))


def test_cache_counters_deterministic():
    """The same seeded workload produces identical cache counters on
    every run — outcomes depend only on data and query order."""
    _, first = _run_workload(7, shards=2, sessions=False)
    _, second = _run_workload(7, shards=2, sessions=False)
    assert first == second
    assert first.get("cache.hit", 0) > 0


def test_invalidation_is_exercised():
    """Interleaving writes with repeats must invalidate cached regions
    (otherwise the differential pass would be vacuous for coherence)."""
    _, stats = _run_workload(11, shards=1, sessions=False, rounds=6)
    assert stats.get("cache.invalidate", 0) > 0, stats
