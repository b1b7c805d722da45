"""Stateful property-based testing of index coherence under epochs.

Hypothesis interleaves session pin / insert-commit / batch insert /
delete-commit / aborted commit or batch / query / page-version reclaim
against one
snapshot-enabled database.  The model records, after every commit, the
exact committed row set at that epoch.  Invariants:

* *Snapshot reads*: a session pinned at epoch ``E`` always reads
  exactly the model's rows at ``E``, however many commits, aborts and
  reclaims ran since its pin.
* *Map coherence*: for the live state and every open session's epoch,
  rows joined back through an index's coordinate -> positions map equal
  the scan rejoin over ``rows_at(epoch)`` byte for byte — through
  ``db.range_query``, ``Session.range_query`` and, at every session's
  epoch, the server's batched path — with duplicate points, aborted
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
from repro.db.catalog import IndexEntry
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
#: What the coherence invariant reads: everything, and one quadrant
#: (small enough that the planner takes the index).
PROBES = (
    GRID.whole_space(),
    Box(((0, SIDE // 2 - 1), (0, SIDE // 2 - 1))),
)


def _in_box(row, box) -> bool:
    (x0, x1), (y0, y1) = box.ranges
    return x0 <= row[1] <= x1 and y0 <= row[2] <= y1


class IndexCoherenceMachine(RuleBasedStateMachine):
    sessions = Bundle("sessions")

    @initialize(points=st.lists(st.tuples(COORD, COORD), max_size=8))
    def setup(self, points):
        self.db = SpatialDatabase(GRID, page_capacity=8)
        self.db.create_table("a", SCHEMA)
        self.ids = itertools.count()
        self.live: set = set()
        for x, y in points:
            row = (f"r{next(self.ids)}", x, y)
            self.db.insert("a", row)
            self.live.add(row)
        self.db.create_index("a_xy", "a", ("x", "y"))
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
        positions."""
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

    def _index_state(self):
        """Every index's map positions and tree entries."""
        return [
            (
                copy.deepcopy(entry.positions),
                sorted(entry.tree.range_query(GRID.whole_space()).matches),
            )
            for entry in self.db.catalog.indexes_on("a")
        ]

    @rule(data=st.data(), x=COORD, y=COORD)
    def commit_insert_many(self, data, x, y):
        """One batch that repeats a point within itself and, when there
        is one, a live row's point: each index gains exactly its rows'
        tree entries and map positions."""
        points = [(x, y), (x, y)]
        if self.live:
            _, lx, ly = data.draw(st.sampled_from(sorted(self.live)))
            points.append((lx, ly))
        batch = [(f"r{next(self.ids)}", px, py) for px, py in points]
        before = self._index_state()
        start = len(self.db.table("a")._rows)
        self.db.insert_many("a", batch)
        self.live.update(batch)
        self._record_commit()
        assert sorted(self.db.table("a").rows) == sorted(self.live)
        for entry, (positions, matches) in zip(
            self.db.catalog.indexes_on("a"), before
        ):
            flip = entry.coord_cols == ("y", "x")
            added = [p[::-1] if flip else p for p in points]
            want = IndexEntry(
                "want", "a", entry.coord_cols, entry.tree, positions=positions
            )
            for position, point in enumerate(added, start):
                want.add(point, position)
            assert entry.positions == want.positions
            assert sorted(
                entry.tree.range_query(GRID.whole_space()).matches
            ) == sorted(matches + added)

    @rule(x=COORD, y=COORD)
    def aborted_insert_many(self, x, y):
        """Valid rows, then one off the grid: the batch fails whole and
        nothing of it survives — rows, tree entries, map positions."""
        before = self._index_state()
        batch = [
            (f"r{next(self.ids)}", x, y),
            (f"r{next(self.ids)}", y, x),
            (f"r{next(self.ids)}", x, SIDE + 3),
        ]
        with pytest.raises(ValueError):
            self.db.insert_many("a", batch)
        assert sorted(self.db.table("a").rows) == sorted(self.live)
        assert self._index_state() == before

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
        answering from their rows, later pins through its map.  It is a
        second index on the table, so every write maintains two trees."""
        self.db.create_index("a_yx", "a", ("y", "x"))

    @rule(session=consumes(sessions))
    def close_session(self, session):
        self.open_sessions.pop(id(session), None)
        session.close()

    @rule()
    def vacuum(self):
        """Free every page version and index capture no pin covers:
        the open sessions' reads must not notice."""
        self.db.snapshots.reclaim()

    # -- invariants ------------------------------------------------------

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
                if epoch is not None:
                    assert self.service._execute_batch(
                        (entry.index_name, epoch), [box]
                    ) == [by_scan]

    def teardown(self):
        self.service.close()
        for session in list(self.open_sessions.values()):
            session.close()
        self.open_sessions.clear()
        leaks = self.db.snapshots.leak_stats()
        assert leaks["snapshot.active_pins"] == 0, leaks


TestIndexCoherenceMachine = IndexCoherenceMachine.TestCase
TestIndexCoherenceMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
