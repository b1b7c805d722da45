"""Stateful property-based testing of cache invalidation under epochs.

Hypothesis interleaves session pin / insert-commit / delete-commit /
query / evict / vacuum against one cached, snapshot-enabled database.
The model records, after every commit, the exact committed row set at
that epoch.  Invariants:

* *Snapshot reads through the cache*: a session pinned at epoch ``E``
  — hot cache, cold cache, or mid-invalidation — always reads exactly
  the model's rows at ``E``.  A cache entry newer than the pin, or a
  stale entry surviving an overlapping commit, would surface here as a
  wrong row set.
* *No stale live entry*: every entry still valid at the current epoch
  overlaps no dirty code logged after its build epoch (the dirty-log
  protocol marked every overlapping entry dead at commit time).
* *Budget accounting*: the cache's point total equals the sum over its
  entries, and never exceeds the configured budget.
* *Map coherence*: for the live state and every open session's epoch,
  rows joined back through an index's coordinate -> positions map equal
  the scan rejoin over ``rows_at(epoch)`` byte for byte — through
  ``db.range_query``, ``Session.range_query`` and the server's
  ``QueryService._filter_rows`` — with duplicate points, aborted
  commits, refreshed sessions and an index born after a pin in play.
"""

from __future__ import annotations

import copy
import itertools

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    precondition,
    rule,
)

import pytest

from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.readpath import rejoin
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.server import QueryService

GRID = Grid(ndims=2, depth=5)
SIDE = GRID.side
SCHEMA = Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))

COORD = st.integers(min_value=0, max_value=SIDE - 1)
BOXES = st.builds(
    lambda a, b, c, d: Box(
        (tuple(sorted((a, b))), tuple(sorted((c, d))))
    ),
    COORD,
    COORD,
    COORD,
    COORD,
)
BUDGET = 200
#: What the coherence invariant reads: everything, and one quadrant
#: (small enough that the planner takes the index).
PROBES = (
    GRID.whole_space(),
    Box(((0, SIDE // 2 - 1), (0, SIDE // 2 - 1))),
)


def _in_box(row, box) -> bool:
    (x0, x1), (y0, y1) = box.ranges
    return x0 <= row[1] <= x1 and y0 <= row[2] <= y1


class CacheInvalidationMachine(RuleBasedStateMachine):
    sessions = Bundle("sessions")

    @initialize(points=st.lists(st.tuples(COORD, COORD), max_size=8))
    def setup(self, points):
        self.db = SpatialDatabase(
            GRID,
            page_capacity=8,
            cache={"budget_points": BUDGET, "max_entries": 6},
        )
        self.db.create_table("a", SCHEMA)
        self.ids = itertools.count()
        self.live: set = set()
        for x, y in points:
            row = (f"r{next(self.ids)}", x, y)
            self.db.insert("a", row)
            self.live.add(row)
        self.entry = self.db.create_index("a_xy", "a", ("x", "y"))
        self.cache = self.entry.cache
        # epoch -> frozen committed row set at that epoch (ascending).
        self.states = [
            (self.db.snapshots.current_epoch, frozenset(self.live))
        ]
        self.open_sessions: dict = {}
        self.service = QueryService(self.db)

    def _record_commit(self):
        self.states.append(
            (self.db.snapshots.current_epoch, frozenset(self.live))
        )

    def _rows_at(self, epoch):
        rows = self.states[0][1]
        for committed, frozen in self.states:
            if committed > epoch:
                break
            rows = frozen
        return rows

    # -- operations ------------------------------------------------------

    @rule(x=COORD, y=COORD)
    def commit_insert(self, x, y):
        row = (f"r{next(self.ids)}", x, y)
        self.db.insert("a", row)
        self.live.add(row)
        self._record_commit()

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def commit_duplicate_point(self, data):
        _, x, y = data.draw(st.sampled_from(sorted(self.live)))
        self.commit_insert(x, y)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), x=COORD, y=COORD)
    def aborted_commit(self, data, x, y):
        """A batch that inserts, deletes and then fails on a row off
        the grid: nothing of it may survive — rows, tree entries, map
        positions, cache dirt."""
        victim = data.draw(st.sampled_from(sorted(self.live)))
        indexes = self.db.catalog.indexes_on("a")
        before = [
            (copy.deepcopy(entry.positions), len(entry.tree))
            for entry in indexes
        ]
        with self.db.session() as writer:
            writer.insert("a", (f"r{next(self.ids)}", x, y))
            writer.delete("a", victim)
            writer.insert("a", (f"r{next(self.ids)}", x, SIDE + 3))
            with pytest.raises(ValueError):
                writer.commit()
        assert before == [
            (entry.positions, len(entry.tree)) for entry in indexes
        ]

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def commit_delete(self, data):
        row = data.draw(st.sampled_from(sorted(self.live)))
        assert self.db.delete("a", row)
        self.live.discard(row)
        self._record_commit()

    @rule(box=BOXES)
    def query_live(self, box):
        got = set(self.db.range_query("a", ("x", "y"), box).rows)
        want = {row for row in self.live if _in_box(row, box)}
        assert got == want, f"live query diverged for {box}"

    @precondition(lambda self: len(self.open_sessions) < 3)
    @rule(target=sessions)
    def open_session(self):
        session = self.db.session()
        self.open_sessions[id(session)] = session
        return session

    @rule(session=sessions, box=BOXES)
    def session_query(self, session, box):
        got = set(session.range_query("a", ("x", "y"), box).rows)
        want = {
            row
            for row in self._rows_at(session.epoch)
            if _in_box(row, box)
        }
        assert got == want, (
            f"pinned read at epoch {session.epoch} diverged for {box}"
        )

    @rule(session=sessions)
    def refresh_session(self, session):
        assert session.refresh() == self.db.snapshots.current_epoch

    @precondition(
        lambda self: self.db._index_for("a", ("y", "x")) is None
    )
    @rule()
    def late_index(self):
        """An index born after the open sessions' pins: they must keep
        answering from their rows, later pins through its map."""
        self.db.create_index("a_yx", "a", ("y", "x"))

    @rule(session=consumes(sessions))
    def close_session(self, session):
        self.open_sessions.pop(id(session), None)
        session.close()

    @precondition(lambda self: len(self.cache) > 0)
    @rule()
    def evict_one(self):
        self.cache.evict(1)

    @rule()
    def vacuum(self):
        self.cache.vacuum()

    # -- invariants ------------------------------------------------------

    @invariant()
    def no_stale_live_entry(self):
        now = self.cache.current_epoch
        for entry in self.cache.entries():
            if not entry.valid_at(now):
                continue
            for epoch, codes in self.cache._dirty_log.items():
                if epoch <= entry.build_epoch:
                    continue
                stale = [z for z in codes if entry.contains_code(z)]
                assert not stale, (
                    f"entry built at {entry.build_epoch} still live at "
                    f"{now} despite overlapping commit at {epoch}"
                )

    @invariant()
    def budget_accounting(self):
        entries = self.cache.entries()
        assert self.cache.points_cached == sum(e.npoints for e in entries)
        assert self.cache.points_cached <= BUDGET
        assert len(entries) <= 6

    @invariant()
    def map_coherence(self):
        relation = self.db.table("a")
        readers = [(None, self.db)] + [
            (session.epoch, session)
            for session in self.open_sessions.values()
        ]
        for entry in self.db.catalog.indexes_on("a"):
            cols = entry.coord_cols
            at = (1, 2) if cols == ("x", "y") else (2, 1)
            for (epoch, reader), box in itertools.product(readers, PROBES):
                model = {
                    row
                    for row in (
                        self.live if epoch is None else self._rows_at(epoch)
                    )
                    if box.contains_point((row[at[0]], row[at[1]]))
                }
                got = reader.range_query("a", cols, box).rows
                assert set(got) == model and len(got) == len(model)
                if not entry.visible_at(epoch):
                    continue  # born after this pin: its rows answered
                store = (
                    entry.tree
                    if epoch is None
                    else entry.tree.snapshot_view(epoch)
                )
                matched = store.range_query(box).matches
                by_scan = rejoin(relation, epoch, matched, None, cols)
                assert got == by_scan
                assert rejoin(relation, epoch, matched, entry, cols) == by_scan
                assert (
                    self.service._filter_rows("a", cols, matched, epoch)
                    == by_scan
                )

    def teardown(self):
        self.service.close()
        for session in list(self.open_sessions.values()):
            session.close()
        self.open_sessions.clear()
        leaks = self.db.snapshots.leak_stats()
        assert leaks["snapshot.active_pins"] == 0, leaks


TestCacheInvalidationMachine = CacheInvalidationMachine.TestCase
TestCacheInvalidationMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
