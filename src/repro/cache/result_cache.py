"""The z-prefix semantic result cache with commit-epoch invalidation.

A :class:`QueryResultCache` remembers, per cached query box, the
decomposed z elements of the box and the materialised result *run* (all
matching points, in global z order).  Because containment in z space is
prefix matching, a later query can be answered from the cache without
re-running the merge:

* **full hit** — every element of the new query's decomposition is
  contained in some cached element (its z-value has a cached prefix):
  the answer is assembled from binary-searched slices of the cached
  runs.  At full decomposition depth every element's cells lie entirely
  inside its query box, so a slice of a cached run restricted to a
  contained element's ``[zlo, zhi]`` interval *is* that element's exact
  answer — no residual box filtering;
* **partial hit** — covered elements come from cache, the remaining
  elements form an ascending disjoint interval list scanned directly
  against the store (:func:`repro.core.rangesearch.scan_intervals` /
  the sharded residual scatter), and the two streams reassemble in
  element order — which is global z order, byte-identical to the
  uncached merge;
* **miss** — the store answers, and the result is admitted under an
  LRU points/entries budget.

**Invalidation is epoch-based, not flush-based.**  Every entry records
the commit epoch it was built at; every committed write batch logs its
dirty z codes under its commit epoch (:meth:`QueryResultCache.
record_commit`) and marks overlapping live entries dead *as of that
epoch*.  Validity at read time is an interval test::

    valid_at(E)  :=  build_epoch <= E  and  (dead is None or E < dead)

so a session pinned at epoch ``E`` can keep consuming an entry that a
later commit invalidated — the entry still describes the state the
session reads — while readers at newer epochs never see it: the cache
is snapshot-safe by construction.  Dead entries are vacuumed once no
pinned epoch falls inside their validity window.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cache.trie import ZPrefixTrie
from repro.core.decompose import Element, decompose_box
from repro.core.fastz import elements_many, interleave_many
from repro.core.geometry import Box, Grid
from repro.obs.trace import current as _trace_current

__all__ = [
    "CacheEntry",
    "CacheLookup",
    "QueryResultCache",
    "cached_range_matches",
]

Point = Tuple[int, ...]
Interval = Tuple[int, int]

#: The counter names surfaced in EXPLAIN ANALYZE (nonzero-only).
COUNTER_NAMES = (
    "cache.hit",
    "cache.miss",
    "cache.partial",
    "cache.evict",
    "cache.invalidate",
)


class CacheEntry:
    """One cached region: its elements, its result run, its epoch span."""

    __slots__ = (
        "box",
        "elements",
        "zlos",
        "zhis",
        "run",
        "run_z",
        "build_epoch",
        "dead_epoch",
    )

    def __init__(
        self,
        box: Box,
        elements: Tuple[Element, ...],
        run: Tuple[Point, ...],
        run_z: Tuple[int, ...],
        build_epoch: int,
    ) -> None:
        self.box = box
        self.elements = elements
        self.zlos = tuple(e.zlo for e in elements)
        self.zhis = tuple(e.zhi for e in elements)
        self.run = run
        self.run_z = run_z
        self.build_epoch = build_epoch
        #: First commit epoch whose dirty codes overlapped this region,
        #: or ``None`` while the entry is coherent with the newest state.
        self.dead_epoch: Optional[int] = None

    @property
    def npoints(self) -> int:
        return len(self.run)

    def valid_at(self, epoch: int) -> bool:
        """Whether a reader pinned at ``epoch`` may consume this entry."""
        return self.build_epoch <= epoch and (
            self.dead_epoch is None or epoch < self.dead_epoch
        )

    def contains_code(self, z: int) -> bool:
        """Whether the cached region covers full-depth code ``z``."""
        index = bisect.bisect_right(self.zlos, z) - 1
        return index >= 0 and z <= self.zhis[index]

    def slice(self, zlo: int, zhi: int) -> Tuple[Point, ...]:
        """The run's points inside the inclusive ``[zlo, zhi]`` interval
        (a contained element's exact answer, by the full-depth cover
        argument above)."""
        lo = bisect.bisect_left(self.run_z, zlo)
        hi = bisect.bisect_right(self.run_z, zhi)
        return self.run[lo:hi]

    def __repr__(self) -> str:
        dead = f", dead={self.dead_epoch}" if self.dead_epoch is not None else ""
        return (
            f"CacheEntry({self.box}, {len(self.elements)} elements, "
            f"{len(self.run)} points, built@{self.build_epoch}{dead})"
        )


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of matching one query box against the cache."""

    outcome: str  # "hit" | "partial" | "miss"
    #: The box's decomposition, in z order: built for the trie walk, or
    #: the matching entry's own on an ``exact`` hit.
    elements: Tuple[Element, ...]
    covered: Tuple[Tuple[Element, CacheEntry], ...]
    residual: Tuple[Element, ...]
    entries: Tuple[CacheEntry, ...]  # distinct, in first-use order
    #: Set when one entry's box equals the query box exactly: its whole
    #: run is the answer, no per-element slicing needed (the common
    #: repeated-query case, served in O(1)).
    exact: Optional[CacheEntry] = None


class QueryResultCache:
    """Semantic result cache for one spatial index.

    ``budget_points`` bounds the total cached run length and
    ``max_entries`` the region count; admission beyond either evicts in
    LRU order.  ``snapshots`` (a :class:`~repro.concurrency.manager.
    SnapshotManager`) supplies the commit-epoch clock and the pinned
    set; without one the cache runs its own logical clock, bumped once
    per :meth:`record_commit`.
    """

    def __init__(
        self,
        grid: Grid,
        budget_points: int = 100_000,
        max_entries: int = 64,
        max_elements_per_entry: int = 1024,
        log_retention: int = 256,
        snapshots: Optional[Any] = None,
    ) -> None:
        self.grid = grid
        self.budget_points = budget_points
        self.max_entries = max_entries
        self.max_elements_per_entry = max_elements_per_entry
        self.log_retention = log_retention
        self.snapshots = snapshots
        self._trie = ZPrefixTrie()
        #: entry -> None, in LRU order (oldest first).
        self._entries: "OrderedDict[CacheEntry, None]" = OrderedDict()
        #: box ranges -> newest entry admitted for exactly that box.
        self._exact: Dict[Tuple, CacheEntry] = {}
        self._points_cached = 0
        self._lock = threading.Lock()
        self._clock = 0
        #: epoch -> dirty full-depth z codes of that commit.
        self._dirty_log: "OrderedDict[int, Tuple[int, ...]]" = OrderedDict()
        #: Epochs <= this have been pruned from the log; admissions
        #: built at or before it cannot be proven coherent and decline.
        self._log_floor = 0
        self.stats: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    # -- clock -----------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The newest commit epoch (manager's, or the internal clock)."""
        if self.snapshots is not None:
            return self.snapshots.current_epoch
        return self._clock

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def points_cached(self) -> int:
        return self._points_cached

    def entries(self) -> List[CacheEntry]:
        """Current entries, LRU-oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._entries)

    def counters(self) -> Dict[str, int]:
        out = dict(self.stats)
        out["cache.entries"] = len(self._entries)
        out["cache.points_cached"] = self._points_cached
        return out

    # -- lookup ----------------------------------------------------------

    def lookup(self, box: Box, epoch: int) -> CacheLookup:
        """Match the (grid-clipped) query ``box`` against the cache at
        ``epoch`` — the one place that decides whether a cached read
        decomposes its box.

        An entry admitted for exactly ``box`` and valid at ``epoch`` is
        an O(1) ``exact`` hit: nothing is decomposed.  Otherwise (no
        such entry, or an older pinned reader the newest admission is
        not valid for, while an earlier one may be) the box is
        decomposed once and its elements walked down the trie; they ride
        back on the result for assembly and admission.  Pure
        bookkeeping — the outcome counters are bumped by the front-ends,
        which also assemble the result.
        """
        with self._lock:
            entry = self._exact.get(box.ranges)
            if (
                entry is not None
                and entry.valid_at(epoch)
                and entry in self._entries
            ):
                self._entries.move_to_end(entry)
                return CacheLookup(
                    "hit", entry.elements, (), (), (entry,), exact=entry
                )
        # Pure geometry, so it runs outside the lock.
        elements = elements_many(self.grid, decompose_box(self.grid, box))
        covered: List[Tuple[Element, CacheEntry]] = []
        residual: List[Element] = []
        used: List[CacheEntry] = []
        seen: set = set()

        def valid(e: CacheEntry, _epoch: int = epoch) -> bool:
            return e.valid_at(_epoch)

        with self._lock:
            for element in elements:
                entry = self._trie.covering(element.zvalue, valid)
                if entry is None:
                    residual.append(element)
                else:
                    covered.append((element, entry))
                    if id(entry) not in seen:
                        seen.add(id(entry))
                        used.append(entry)
            for entry in used:
                if entry in self._entries:
                    self._entries.move_to_end(entry)
        if not covered:
            outcome = "miss"
        elif not residual:
            outcome = "hit"
        else:
            outcome = "partial"
        return CacheLookup(
            outcome, elements, tuple(covered), tuple(residual), tuple(used)
        )

    # -- admission and eviction ------------------------------------------

    def admit(
        self,
        box: Box,
        elements: Tuple[Element, ...],
        run: Tuple[Point, ...],
        run_z: Tuple[int, ...],
        build_epoch: int,
    ) -> Optional[CacheEntry]:
        """Install a freshly computed result; returns the entry, or
        ``None`` when declined (region too large, run over budget, or
        built at an epoch the dirty log can no longer vouch for).

        The admission itself replays the dirty log: commits *after*
        ``build_epoch`` that overlap the region pre-date the entry with
        the matching ``dead_epoch``, so a result computed from an old
        snapshot can still be admitted safely — it simply arrives
        already invalid for newer readers.
        """
        if not elements or len(elements) > self.max_elements_per_entry:
            return None
        if len(run) > self.budget_points:
            return None
        with self._lock:
            if build_epoch < self._log_floor:
                return None
            entry = CacheEntry(box, elements, run, run_z, build_epoch)
            for epoch, codes in self._dirty_log.items():
                if epoch > build_epoch and any(
                    entry.contains_code(z) for z in codes
                ):
                    entry.dead_epoch = epoch
                    break
            if entry.dead_epoch is not None and not self._has_reader(entry):
                return None
            for element in elements:
                self._trie.insert(element.zvalue, entry)
            self._entries[entry] = None
            self._exact[box.ranges] = entry
            self._points_cached += len(run)
            evicted = self._evict_over_budget()
        self._note_evictions(evicted)
        return entry

    def evict(self, n: int = 1) -> int:
        """Evict up to ``n`` least-recently-used entries (test/ops hook)."""
        with self._lock:
            evicted = 0
            while self._entries and evicted < n:
                entry, _ = self._entries.popitem(last=False)
                self._unlink(entry)
                evicted += 1
        self._note_evictions(evicted)
        return evicted

    def _evict_over_budget(self) -> int:
        evicted = 0
        while self._entries and (
            len(self._entries) > self.max_entries
            or self._points_cached > self.budget_points
        ):
            entry, _ = self._entries.popitem(last=False)
            self._unlink(entry)
            evicted += 1
        return evicted

    def _unlink(self, entry: CacheEntry) -> None:
        for element in entry.elements:
            self._trie.remove(element.zvalue, entry)
        if self._exact.get(entry.box.ranges) is entry:
            del self._exact[entry.box.ranges]
        self._points_cached -= len(entry.run)

    def _note_evictions(self, n: int) -> None:
        if n:
            self.stats["cache.evict"] += n
            trace = _trace_current()
            if trace is not None:
                trace.add("cache.evict", n)

    # -- invalidation ----------------------------------------------------

    def record_commit(
        self, dirty_codes: Iterable[int], epoch: Optional[int] = None
    ) -> int:
        """Log one committed batch's dirty full-depth z codes under its
        commit ``epoch`` and mark every overlapping live entry dead as
        of that epoch.  Returns the number of entries invalidated.

        Without a snapshot manager (a standalone cache) ``epoch`` may
        be ``None``: the internal clock bumps by one, with the same
        monotone epoch semantics.
        """
        codes = tuple(dirty_codes)
        total_bits = self.grid.total_bits
        with self._lock:
            if epoch is None:
                self._clock += 1
                epoch = self._clock
            elif epoch > self._clock:
                self._clock = epoch
            invalidated = 0
            if codes:
                self._dirty_log[epoch] = codes
                while len(self._dirty_log) > self.log_retention:
                    old, _ = self._dirty_log.popitem(last=False)
                    if old > self._log_floor:
                        self._log_floor = old
                seen: set = set()
                for z in codes:
                    for entry in self._trie.along_code(z, total_bits):
                        if id(entry) in seen:
                            continue
                        seen.add(id(entry))
                        if entry.dead_epoch is None:
                            entry.dead_epoch = epoch
                            invalidated += 1
            self._vacuum_locked()
        if invalidated:
            self.stats["cache.invalidate"] += invalidated
            trace = _trace_current()
            if trace is not None:
                trace.add("cache.invalidate", invalidated)
        return invalidated

    def _has_reader(self, entry: CacheEntry) -> bool:
        """Whether some pinned epoch still falls in the entry's validity
        window ``[build_epoch, dead_epoch)``."""
        if self.snapshots is None:
            return False
        dead = entry.dead_epoch
        return any(
            entry.build_epoch <= pinned and (dead is None or pinned < dead)
            for pinned in self.snapshots.pinned_epochs
        )

    def _vacuum_locked(self) -> None:
        doomed = [
            entry
            for entry in self._entries
            if entry.dead_epoch is not None and not self._has_reader(entry)
        ]
        for entry in doomed:
            del self._entries[entry]
            self._unlink(entry)

    def vacuum(self) -> int:
        """Drop dead entries no pinned reader can still consume;
        returns how many were reclaimed."""
        with self._lock:
            before = len(self._entries)
            self._vacuum_locked()
            return before - len(self._entries)


def _assemble(
    look: CacheLookup,
    elements: Tuple[Element, ...],
    residual_runs: Sequence[Tuple[Point, ...]],
    served: Dict[int, int],
) -> Tuple[Point, ...]:
    """Stitch cached slices and residual scans back into element order.

    Elements are disjoint and z-ascending, and each per-element stream
    is internally z-ordered, so concatenation in element order *is*
    global z order — byte-identical to the uncached merge.
    """
    covered = dict((id(element), entry) for element, entry in look.covered)
    out: List[Point] = []
    residual_iter = iter(residual_runs)
    for element in elements:
        entry = covered.get(id(element))
        if entry is not None:
            part = entry.slice(element.zlo, element.zhi)
            served[id(entry)] = served.get(id(entry), 0) + len(part)
        else:
            part = next(residual_iter)
        out.extend(part)
    return tuple(out)


def cached_range_matches(
    cache: QueryResultCache,
    target: Any,
    grid: Grid,
    box: Box,
    epoch: Optional[int] = None,
) -> Tuple[Point, ...]:
    """Answer ``box`` through the cache, falling through to ``target``.

    ``target`` is anything with ``range_query(box)`` and
    ``interval_query(intervals)`` — a live :class:`~repro.storage.
    prefix_btree.ZkdTree`, a :class:`~repro.shard.store.
    ShardedSpatialStore`, or their snapshot views — so the same cache
    front-end serves live reads, sharded indexes and pinned
    sessions.  ``epoch`` pins the read (a session's snapshot epoch);
    ``None`` reads the newest committed state.  Whether the box is
    decomposed at all is :meth:`QueryResultCache.lookup`'s call: a
    repeated box is answered before anything decomposes it.

    Returns the matches in global z order, byte-identical to
    ``target.range_query(box).matches``.
    """
    clipped = grid.clip(box)
    if clipped is None:
        return ()

    pinned = epoch is not None
    read_epoch = epoch if epoch is not None else cache.current_epoch
    look = cache.lookup(clipped, read_epoch)
    elements = look.elements
    cache.stats[f"cache.{look.outcome}"] += 1

    served: Dict[int, int] = {}
    admitted: Optional[CacheEntry] = None
    if look.exact is not None:
        matches = look.exact.run
        served[id(look.exact)] = len(matches)
    elif look.outcome == "hit":
        matches = _assemble(look, elements, (), served)
    else:
        if look.outcome == "partial":
            intervals = [(e.zlo, e.zhi) for e in look.residual]
            residual_runs = target.interval_query(intervals)
            matches = _assemble(look, elements, residual_runs, served)
        else:
            matches = tuple(target.range_query(box).matches)
        if pinned or cache.current_epoch == read_epoch:
            admitted = cache.admit(
                clipped,
                elements,
                matches,
                tuple(interleave_many(list(matches), grid.depth, grid.ndims)),
                read_epoch,
            )

    trace = _trace_current()
    if trace is not None:
        span = trace.active_span.child("cache.lookup")
        span.set("box", repr(box))
        span.set("outcome", look.outcome)
        span.set("epoch", read_epoch)
        counters: Dict[str, int] = {f"cache.{look.outcome}": 1}
        # An exact hit covers every element without walking them.
        covered_n = len(elements) if look.exact is not None else len(look.covered)
        if covered_n:
            counters["cache.covered_elements"] = covered_n
        if look.residual:
            counters["cache.residual_elements"] = len(look.residual)
        points_served = sum(served.values())
        if points_served:
            counters["cache.points_served"] = points_served
        if admitted is not None:
            counters["cache.admissions"] = 1
        span.add_counters(counters)
        for index, entry in enumerate(look.entries):
            child = span.child(f"cache.entry[{index}]")
            child.set("zlo", entry.zlos[0])
            child.set("zhi", entry.zhis[-1])
            child.set("build_epoch", entry.build_epoch)
            child.add_counters(
                {"points_served": served.get(id(entry), 0)}
            )
    return matches
