"""The crash matrix: kill the store at *every* registered write-path
failpoint and prove it comes back.

The harness runs a deterministic tree workload (bulk load, inserts,
deletes, a batch insert — each op is one transaction), first uninjected
to measure how many times each failpoint site is traversed, then once
per (site, kind, hit index): a ``crash`` (or, at write sites, a
``torn_write``) is armed at exactly that hit, the workload dies there,
the store is abandoned ``kill -9`` style, and the path is reopened
*without* faults.  The reopened tree must:

* satisfy the B+-tree structural invariants,
* hold exactly the point set of a committed prefix of the workload —
  the crashed transaction is all-or-nothing, never half-applied,
* answer a range query byte-identically to an uninjected in-memory
  oracle over the same point set.

The fast smoke subset (first / middle / last hit per site) runs in
tier 1; the full sweep over every hit index is ``slow``+``chaos`` and
runs nightly.
"""

from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.core.geometry import Box, Grid
from repro.faults import CrashPoint, FaultInjector, registered_sites
from repro.storage.diskstore import FilePageStore
from repro.storage.prefix_btree import ZkdTree

GRID = Grid(ndims=2, depth=5)
QUERY = Box(((3, 27), (2, 29)))

_INITIAL = [((7 * i) % 32, (11 * i + 3) % 32) for i in range(20)]
_INSERTS = [(1, 30), (30, 1), (15, 15), (2, 2), (28, 5), (9, 26)]
_BATCH = [(4, 21), (22, 3), (13, 8), (26, 26), (18, 11)]
# The shrink phase deletes most of the tree: leaves underflow and
# merge, so the matrix exercises page frees (diskstore.free_write).
_SHRINK = _INSERTS[:4] + _BATCH + _INITIAL[2:14]

#: The matrix covers every site on the durable write path.  Read sites
#: are detection (ChecksumError), not recovery, and are covered in
#: test_durability.py.
WRITE_SITES = (
    "wal.append",
    "diskstore.page_write",
    "diskstore.header_write",
    "diskstore.free_write",
)
POINT_SITES = ("wal.commit", "wal.checkpoint", "buffer.writeback")


def _dedup(points):
    seen: Set[Tuple[int, int]] = set()
    out = []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _ops():
    """The workload as (op kind, payload) pairs — one committed
    transaction each."""
    ops: List[Tuple[str, object]] = [("bulk", _dedup(_INITIAL))]
    ops.extend(("insert", p) for p in _INSERTS)
    ops.append(("batch", _BATCH))
    ops.extend(("delete", p) for p in _SHRINK)
    return ops


def _apply(tree: ZkdTree, kind: str, payload) -> None:
    if kind == "bulk":
        tree.bulk_load(payload)
    elif kind == "insert":
        tree.insert(payload)
    elif kind == "batch":
        tree.insert_many(payload)
    else:
        tree.delete(payload)


def _expected_states() -> List[Set[Tuple[int, int]]]:
    """Point set after each committed prefix (index k = k ops done)."""
    current: Set[Tuple[int, int]] = set()
    states = [set(current)]
    for kind, payload in _ops():
        if kind in ("bulk", "batch"):
            current |= set(payload)
        elif kind == "insert":
            current.add(payload)
        else:
            current.discard(payload)
        states.append(set(current))
    return states


EXPECTED = _expected_states()


def _run_workload(
    path: str, faults: Optional[FaultInjector]
) -> Tuple[int, bool]:
    """Run the workload; returns (ops fully committed, crashed?).  On a
    crash the store is abandoned without any clean-close flushing.

    Store/tree construction runs inside the crashable region too: the
    store's header write and the tree's root allocation are part of the
    write path, and the first hits of several sites land there."""
    store = None
    completed = 0
    try:
        store = FilePageStore(path, page_capacity=8, faults=faults)
        tree = ZkdTree(GRID, store=store, page_capacity=8)
        for kind, payload in _ops():
            _apply(tree, kind, payload)
            completed += 1
        store.close()  # the clean-close header flush is a site too
    except CrashPoint:
        if store is not None:
            store.simulate_crash()
        return completed, True
    return completed, False


def _assert_recovered(path: str, completed: int) -> None:
    """Reopen uninjected and check the three matrix properties.

    Before the first op commits there is no tree contract yet — a
    crash during store creation or root allocation may leave a file
    that cannot be reattached, which is acceptable only at
    ``completed == 0`` (the store "was never created")."""
    store = FilePageStore(path)
    try:
        try:
            tree = ZkdTree.open(GRID, store)
        except Exception:
            assert completed == 0, "reattach failed after a committed op"
            return
        tree.tree.check_invariants()
        recovered = set(tree.points())
        acceptable = EXPECTED[completed : completed + 2]
        assert recovered in acceptable, (
            f"recovered state matches no committed prefix: "
            f"{sorted(recovered)} after {completed} committed ops"
        )
        # Query equality against an uninjected in-memory oracle over
        # the same point set.
        oracle = ZkdTree(GRID, page_capacity=8)
        if recovered:
            oracle.bulk_load(sorted(recovered))
        assert (
            tree.range_query(QUERY).matches
            == oracle.range_query(QUERY).matches
        )
    finally:
        store.close()


def _measure_hits(tmp_path) -> Dict[str, int]:
    """Dry run: traverse every site with no rules armed, counting."""
    probe = FaultInjector()
    completed, crashed = _run_workload(str(tmp_path / "probe.zkd"), probe)
    assert not crashed and completed == len(_ops())
    return probe.hit_counts()


def _scenarios(hits: Dict[str, int], sample: Optional[int]):
    """(site, kind, hit index) triples; ``sample`` caps hits per site
    (evenly spread), ``None`` sweeps every hit."""
    out = []
    for site, kinds in [
        *[(s, ("crash", "torn_write")) for s in WRITE_SITES],
        *[(s, ("crash",)) for s in POINT_SITES],
    ]:
        count = hits.get(site, 0)
        if count == 0:
            continue
        if sample is None or count <= sample:
            indices = range(1, count + 1)
        else:
            step = count / sample
            indices = sorted(
                {max(1, round(step * (i + 1))) for i in range(sample)}
            )
        for kind in kinds:
            out.extend((site, kind, h) for h in indices)
    return out


def _sweep(tmp_path, sample: Optional[int]) -> int:
    hits = _measure_hits(tmp_path)
    # Every write-path site must actually be traversed by the workload,
    # or the matrix silently proves nothing about it.
    for site in WRITE_SITES + POINT_SITES:
        assert hits.get(site, 0) > 0, f"workload never reaches {site}"
    scenarios = _scenarios(hits, sample)
    crashes = 0
    for i, (site, kind, at) in enumerate(scenarios):
        path = str(tmp_path / f"m{i}.zkd")
        inj = FaultInjector(seed=i)
        inj.rule(site, kind, at=at)
        completed, crashed = _run_workload(path, inj)
        assert crashed, f"{site}:{kind}@{at} did not fire"
        crashes += 1
        _assert_recovered(path, completed)
    return crashes


@pytest.mark.chaos
def test_registered_write_sites_are_swept(tmp_path):
    """The matrix derives its site list from the live registry: a new
    write-path site in the storage layer must join the sweep."""
    import repro.storage.buffer  # noqa: F401 - registers its site

    storage_sites = {
        s
        for s in registered_sites()
        if s.startswith(("wal.", "diskstore.", "buffer."))
    }
    read_sites = set(registered_sites("read"))
    assert storage_sites - read_sites == set(WRITE_SITES) | set(POINT_SITES)


@pytest.mark.chaos
def test_crash_matrix_smoke(tmp_path):
    """Tier-1 subset: first/middle/last hit of every site and kind."""
    assert _sweep(tmp_path, sample=3) > 0


@pytest.mark.chaos
@pytest.mark.slow
def test_crash_matrix_full(tmp_path):
    """Nightly: every hit index of every write-path site and kind."""
    assert _sweep(tmp_path, sample=None) > 0


# ---------------------------------------------------------------------------
# Crashes while a snapshot is pinned
# ---------------------------------------------------------------------------

_PIN_MUTATIONS: List[Tuple[str, object]] = [
    ("insert", p) for p in _INSERTS
] + [("batch", _BATCH)] + [("delete", p) for p in _SHRINK[:8]]


def _pinned_states() -> List[Set[Tuple[int, int]]]:
    current = set(_dedup(_INITIAL))
    states = [set(current)]
    for kind, payload in _PIN_MUTATIONS:
        if kind == "batch":
            current |= set(payload)
        elif kind == "insert":
            current.add(payload)
        else:
            current.discard(payload)
        states.append(set(current))
    return states


PINNED_EXPECTED = _pinned_states()


def _run_pinned_workload(path: str, faults: Optional[FaultInjector]):
    """Like :func:`_run_workload`, but a snapshot manager is attached
    and a session pin is held across the mutation phase.  While the
    process lives — even *after* the crash fired — the pinned snapshot
    must keep reading the exact bytes it saw at pin time; the crash
    only destroys the store's in-memory state, never the snapshot's.

    Returns (ops committed, crashed?, hits at pin time or None).
    """
    from repro.concurrency import SnapshotManager

    store = None
    pinned_epoch = None
    manager = None
    view = None
    frozen = None
    completed = 0
    pin_hits = None
    try:
        store = FilePageStore(path, page_capacity=8, faults=faults)
        manager = SnapshotManager()
        tree = ZkdTree(GRID, store=store, page_capacity=8, snapshots=manager)
        tree.bulk_load(_dedup(_INITIAL))
        pinned_epoch = manager.pin()
        if faults is not None:
            pin_hits = faults.hit_counts()
        view = tree.snapshot_view(pinned_epoch)
        frozen = view.points()
        assert set(frozen) == PINNED_EXPECTED[0]
        query_at_pin = view.range_query(QUERY).matches
        for kind, payload in _PIN_MUTATIONS:
            _apply(tree, kind, payload)
            completed += 1
            # Snapshot stability under committed concurrent writes.
            assert view.points() == frozen
        assert view.range_query(QUERY).matches == query_at_pin
        manager.unpin(pinned_epoch)
        pinned_epoch = None
        store.close()
    except CrashPoint:
        # The crash interrupted a commit — but this process's pinned
        # snapshot is untouched: same bytes, before abandoning the
        # store kill -9 style.  (A crash in the clean-close flush lands
        # after the unpin, when the versions are legitimately gone.)
        if view is not None and pinned_epoch is not None:
            assert view.points() == frozen
        if store is not None:
            store.simulate_crash()
        return completed, True, pin_hits
    return completed, False, pin_hits


def _assert_pinned_recovered(path: str, completed: int) -> None:
    """Reopen after a pinned-session crash: recovery replays to the
    last group-commit boundary; nothing of the crashed transaction —
    and nothing of the dead process's COW versions — survives."""
    from repro.concurrency import SnapshotManager

    store = FilePageStore(path)
    try:
        manager = SnapshotManager()
        tree = ZkdTree.open(GRID, store, snapshots=manager)
        tree.tree.check_invariants()
        recovered = set(tree.points())
        acceptable = PINNED_EXPECTED[completed : completed + 2]
        assert recovered in acceptable, (
            f"recovered state matches no committed prefix "
            f"(after {completed} committed mutations)"
        )
        # A fresh manager starts with zero retained versions: the
        # crashed process's COW chains died with it, not with us.
        assert manager.leak_stats() == {
            "snapshot.active_pins": 0,
            "snapshot.captured_indexes": 0,
            "cow.live_page_versions": 0,
        }
        # And snapshots over the recovered store work immediately.
        epoch = manager.pin()
        try:
            assert set(
                tree.snapshot_view(epoch).points()
            ) == recovered
        finally:
            manager.unpin(epoch)
        oracle = ZkdTree(GRID, page_capacity=8)
        if recovered:
            oracle.bulk_load(sorted(recovered))
        assert (
            tree.range_query(QUERY).matches
            == oracle.range_query(QUERY).matches
        )
    finally:
        store.close()


def _pinned_scenarios(tmp_path, per_site: int):
    """Probe the pinned workload, then pick crash hits that land
    *after* the pin was taken (first and last post-pin hit per site)."""
    probe = FaultInjector()
    completed, crashed, pin_hits = _run_pinned_workload(
        str(tmp_path / "pin-probe.zkd"), probe
    )
    assert not crashed and completed == len(_PIN_MUTATIONS)
    assert pin_hits is not None
    totals = probe.hit_counts()
    out = []
    for site in WRITE_SITES + POINT_SITES:
        before = pin_hits.get(site, 0)
        total = totals.get(site, 0)
        if total <= before:
            continue  # site never traversed while pinned
        candidates = sorted(
            {before + 1, (before + 1 + total) // 2, total}
        )[:per_site]
        out.extend((site, at) for at in candidates)
    return out


@pytest.mark.chaos
def test_crash_while_snapshot_pinned_smoke(tmp_path):
    """Tier 1: crash at the first/last post-pin hit of each site."""
    scenarios = _pinned_scenarios(tmp_path, per_site=2)
    assert scenarios, "no write site fires while a snapshot is pinned"
    for i, (site, at) in enumerate(scenarios):
        path = str(tmp_path / f"pin{i}.zkd")
        inj = FaultInjector(seed=1000 + i)
        inj.rule(site, "crash", at=at)
        completed, crashed, _ = _run_pinned_workload(path, inj)
        assert crashed, f"{site}:crash@{at} did not fire"
        _assert_pinned_recovered(path, completed)


@pytest.mark.chaos
@pytest.mark.slow
def test_crash_while_snapshot_pinned_full(tmp_path):
    """Nightly: first/middle/last post-pin hit of each site."""
    scenarios = _pinned_scenarios(tmp_path, per_site=3)
    for i, (site, at) in enumerate(scenarios):
        path = str(tmp_path / f"pinf{i}.zkd")
        inj = FaultInjector(seed=2000 + i)
        inj.rule(site, "crash", at=at)
        completed, crashed, _ = _run_pinned_workload(path, inj)
        assert crashed, f"{site}:crash@{at} did not fire"
        _assert_pinned_recovered(path, completed)


@pytest.mark.chaos
def test_double_crash_then_recover(tmp_path):
    """Crash during the workload, then crash *again* during nothing —
    reopen twice; recovery must be idempotent at the tree level."""
    path = str(tmp_path / "twice.zkd")
    inj = FaultInjector(seed=99)
    inj.rule("wal.checkpoint", "crash")
    completed, crashed = _run_workload(path, inj)
    assert crashed
    # First reopen performs the redo; drop it without a clean close.
    first = FilePageStore(path)
    assert first.recovery_stats.get("txns_committed", 0) >= 1
    first.simulate_crash()
    _assert_recovered(path, completed)
