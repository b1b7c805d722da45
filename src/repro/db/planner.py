"""Cost-based planning for spatial range queries.

PROBE's stated research agenda is "query processing and optimization
issues" (Section 1); the paper's contribution gives the optimizer
something to reason with: the analysis of Section 5.3.1 *is* a cost
model.  This module uses it:

* selectivity = the query box's fractional volume (``v``);
* an index scan costs the predicted ``O(vN)`` data pages plus the index
  descent;
* a table scan costs every data page.

``plan_range_query`` compares the two and returns an executable,
explainable :class:`Plan`.  For very large boxes the scan genuinely
wins — the crossover the benches chart.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.geometry import Box, Grid
from repro.db.relation import Relation
from repro.obs.trace import current as _trace_current

__all__ = [
    "Plan",
    "Conjunct",
    "SelectPlan",
    "estimate_selectivity",
    "plan_range_query",
    "order_conjuncts",
    "order_filters",
    "plan_select",
    "plan_filters",
    "column_selectivity",
    "choose_join_strategy",
    "ball_selectivity",
]


def estimate_selectivity(box: Box, grid: Grid) -> float:
    """Fraction of the space the (clipped) query box covers — the ``v``
    of the O(vN) prediction.  Uniformity is assumed, as in Section 5."""
    clipped = box.clipped_to(grid.whole_space())
    if clipped is None:
        return 0.0
    return clipped.volume / grid.npixels


@dataclass
class Plan:
    """An executable access plan with its cost estimates.

    ``estimated_rows`` is the predicted result cardinality (the
    histogram estimate of :mod:`repro.db.statistics` when an index
    exists, ``v * |table|`` otherwise); ``EXPLAIN ANALYZE`` confronts it
    with the measured row count.
    """

    method: str  # "index-scan" or "table-scan"
    table: str
    box: Box
    selectivity: float
    estimated_pages: float
    alternative_pages: float
    estimated_rows: float = 0.0
    _execute: Any = None

    def execute(self) -> Relation:
        """Run the plan; with an active :mod:`repro.obs` trace the run
        is wrapped in a ``plan.<method>`` span carrying the estimates
        (``est_*`` attributes) next to the measured counters that the
        storage layer publishes underneath it."""
        trace = _trace_current()
        if trace is None:
            return self._execute()
        with trace.span(f"plan.{self.method}") as span:
            span.set("table", self.table)
            span.set("box", repr(self.box))
            span.set("selectivity", round(self.selectivity, 6))
            span.set("est_pages", self.estimated_pages)
            span.set("est_rows", self.estimated_rows)
            out = self._execute()
            span.add("rows_out", len(out))
        return out

    def explain(self) -> str:
        lines = [
            f"RangeQuery({self.table}, {self.box})",
            f"  selectivity: {self.selectivity:.4f}",
            f"  est. rows:   {self.estimated_rows:.1f}",
            f"  chosen:      {self.method} "
            f"(~{self.estimated_pages:.1f} pages)",
            f"  rejected:    "
            f"{'table-scan' if self.method == 'index-scan' else 'index-scan'} "
            f"(~{self.alternative_pages:.1f} pages)",
        ]
        return "\n".join(lines)


def plan_range_query(
    reader,
    table: str,
    coord_cols: Sequence[str],
    box: Box,
) -> Plan:
    """Choose between the zkd index and a full scan by predicted pages,
    for any :class:`~repro.db.readpath.SpatialReads` reader — the
    database, or a snapshot session at its epoch.

    Only an index the reader may use (:meth:`~repro.db.readpath.
    SpatialReads._entry`) is an access path; without one the plan is
    the row scan.  The estimates read the live catalog and tree; the
    plan runs on the reader's rows and store.
    """
    database, _ = reader._reading()
    nrows = len(database.catalog.relation(table))
    grid = database.grid
    entry = reader._entry(table, coord_cols)
    selectivity = estimate_selectivity(box, grid)

    scan_pages = max(1.0, math.ceil(nrows / database.page_capacity))
    if entry is None:
        return Plan(
            method="table-scan",
            table=table,
            box=box,
            selectivity=selectivity,
            estimated_pages=scan_pages,
            alternative_pages=float("inf"),
            estimated_rows=selectivity * nrows,
            _execute=lambda: reader._range_rows(table, coord_cols, box),
        )

    clipped = box.clipped_to(grid.whole_space())
    if clipped is None:
        index_pages = 0.0
        estimated_rows = 0.0
    else:
        # Distribution-aware estimates: the index's separators and
        # per-leaf counts form an equi-depth histogram
        # (repro.db.statistics); far tighter than the uniform O(vN)
        # formula on skewed data.
        from repro.db.statistics import estimate_scan

        estimated_rows, pages = estimate_scan(entry.tree, clipped)
        index_pages = float(pages)
    index_pages += entry.tree.tree.height  # descent cost

    if index_pages <= scan_pages:
        return Plan(
            method="index-scan",
            table=table,
            box=box,
            selectivity=selectivity,
            estimated_pages=index_pages,
            alternative_pages=scan_pages,
            estimated_rows=estimated_rows,
            _execute=lambda: reader._range_rows(
                table, coord_cols, box, reader._answering(table, coord_cols)
            ),
        )
    return Plan(
        method="table-scan",
        table=table,
        box=box,
        selectivity=selectivity,
        estimated_pages=scan_pages,
        alternative_pages=index_pages,
        estimated_rows=estimated_rows,
        _execute=lambda: reader._range_rows(table, coord_cols, box),
    )


# -- multi-predicate planning -------------------------------------------
#
# The SQL surface (repro.sql) compiles a WHERE clause into a list of
# Conjunct records; this half of the module orders them by estimated
# selectivity (cheap, selective filters first), picks the access path,
# and executes the whole select as one explainable SelectPlan.  The
# single-box plan_range_query above stays the access-path workhorse.

#: Selectivity charged to a conjunct the statistics cannot see through.
RESIDUAL_SELECTIVITY = 1.0 / 3.0

#: Below this estimated selectivity a numeric column's sorted order
#: beats the table scan (see :func:`_column_range`): on 50k rows the
#: sorted fetch plus filter of the covered rows caught up with the scan
#: plus compiled filter of every row at 0.13-0.15.
COLUMN_RANGE_CROSSOVER = 0.125


@dataclass
class Conjunct:
    """One top-level AND term of a bound WHERE clause.

    ``kind`` is the planner's classification:

    * ``"z-window"`` — ``BOX(...) CONTAINS POINT(cols)`` on the table's
      coordinate columns; candidate access path (z-index sargable);
    * ``"attr-range"`` — a comparison/BETWEEN pinning one numeric column
      between literal bounds (``=`` pins both to the literal);
      selectivity read off the column's sorted order
      (:func:`column_selectivity`), which is also its access path;
    * ``"eps-window"`` — ``POINT(cols) WITHIN eps OF POINT(literal)``;
      its eps-ball *bounding box* is z-index sargable exactly like a
      z-window (the box is necessary but not sufficient, so when it
      wins the access slot the exact ball test re-runs as the
      ``eps-refine`` filter :func:`plan_select` inserts);
    * ``"residual"`` — anything else; runs as a filter with the default
      1/3 selectivity guess.

    ``predicate`` is the executable row filter (every conjunct carries
    one — a z-window that loses the access-path slot still filters).
    ``cost`` is the per-row evaluation cost (AST node count) and breaks
    selectivity ties; ``written_pos`` preserves the author's order for
    the naive baseline and final tie-break.
    """

    kind: str
    text: str
    predicate: Any
    written_pos: int
    selectivity: Optional[float] = None
    cost: float = 1.0
    box: Optional[Box] = None
    coord_cols: Tuple[str, ...] = ()
    column: Optional[str] = None
    low: Optional[float] = None
    high: Optional[float] = None
    estimated_rows: float = 0.0
    eps: Optional[float] = None  # ball radius of an eps-window


def _span(values: Sequence[Any], low: Any, high: Any) -> Tuple[int, int]:
    """The slice of the ascending ``values`` that lies in ``[low,
    high]`` (``None``: open); empty, not negative, when ``high < low``."""
    lo = 0 if low is None else bisect_left(values, low)
    hi = len(values) if high is None else bisect_right(values, high)
    return lo, max(lo, hi)


def column_selectivity(
    database, table: str, column: str, low: Any, high: Any
) -> float:
    """The share of ``table``'s stored values of the numeric ``column``
    that lie in ``[low, high]`` (``None``: open; ``=`` is ``low ==
    high``): two bisects into the column's sorted order, the order the
    column-range access reads — the count of "how many" from the same
    seek as "which".  0.0 when the order is empty (no row, or only NaN).

    Exact over the stored values, with two approximations: a strict
    bound counts as inclusive, and rows a reader cannot see — deleted
    ones, which the versioned relation keeps for older snapshots, and
    pending ones — are counted although :meth:`~repro.db.relation.
    VersionedRelation.fetch` drops them."""
    relation = database.catalog.relation(table)
    values, _ = relation.column_order(relation.schema.index_of(column))
    if not values:
        return 0.0
    lo, hi = _span(values, low, high)
    return (hi - lo) / len(values)


def _column_share(database, table: str, shares: Dict, *key: Any) -> float:
    """:func:`column_selectivity` of ``key = (column, low, high)``, read
    once a plan: ``shares`` holds the plan's reads."""
    if key not in shares:
        shares[key] = column_selectivity(database, table, *key)
    return shares[key]


def _estimate_conjunct(database, table: str, conjunct: Conjunct, shares: Dict) -> None:
    """Fill ``conjunct.selectivity`` in place (no-op when preset)."""
    if conjunct.selectivity is not None:
        return
    if conjunct.kind == "z-window" and conjunct.box is not None:
        conjunct.selectivity = estimate_selectivity(
            conjunct.box, database.grid
        )
        return
    if conjunct.kind == "eps-window" and conjunct.box is not None:
        # Bounding-box volume discounted by the ball/box volume ratio.
        conjunct.selectivity = estimate_selectivity(
            conjunct.box, database.grid
        ) * ball_selectivity(database.grid.ndims)
        return
    if conjunct.kind == "attr-range" and conjunct.column is not None:
        conjunct.selectivity = _column_share(
            database, table, shares, conjunct.column, conjunct.low, conjunct.high
        )
        return
    conjunct.selectivity = RESIDUAL_SELECTIVITY


def order_conjuncts(
    conjuncts: Sequence[Conjunct], reorder: bool = True
) -> Tuple[Optional[Conjunct], List[Conjunct], int]:
    """Split conjuncts into (access window, ordered filters, #moved).

    The first z-window or eps-window (in written order) becomes the
    access path; every other conjunct is a filter, ordered by
    :func:`order_filters`.
    """
    window = min(
        (c for c in conjuncts if c.kind in ("z-window", "eps-window")),
        key=lambda c: c.written_pos,
        default=None,
    )
    filters, moved = order_filters(
        [c for c in conjuncts if c is not window], reorder
    )
    return window, filters, moved


def order_filters(
    conjuncts: Sequence[Conjunct], reorder: bool = True
) -> Tuple[List[Conjunct], int]:
    """Filters in execution order plus how many left their written rank.

    With ``reorder`` they are sorted by (selectivity asc, cost asc,
    written order) — most selective and cheapest first, the classic
    Selinger ordering; without it they run exactly as written (the
    naive baseline the bench gate measures against)."""
    written = sorted(conjuncts, key=lambda c: c.written_pos)
    if not reorder:
        return written, 0
    ordered = sorted(
        written,
        key=lambda c: (
            c.selectivity if c.selectivity is not None else 1.0,
            c.cost,
            c.written_pos,
        ),
    )
    moved = sum(1 for a, b in zip(written, ordered) if a is not b)
    return ordered, moved


def bump_planner_stat(stats: Optional[dict], key: str, n: float = 1) -> None:
    """Add ``n`` to a ``planner.*`` tally — in ``stats`` (a database's
    ``planner_stats``, when it keeps one) and on the active trace."""
    if not n:
        return
    if stats is not None:
        stats[key] = stats.get(key, 0) + n
    trace = _trace_current()
    if trace is not None:
        trace.add(key, n)


@dataclass
class SelectPlan:
    """An ordered multi-predicate plan: one access path plus a chain of
    selectivity-ordered filters, with the estimates EXPLAIN renders and
    ``planner.*`` counters/stats published on execution."""

    table: str
    window: Optional[Conjunct]
    filters: List[Conjunct]
    reorder: bool
    moved: int
    access: Optional[Plan] = None
    access_label: str = "table-scan"
    estimated_rows: float = 0.0
    notes: List[str] = field(default_factory=list)
    #: ``(column, low, high, est. rows, table rows)`` of a column-range
    #: access, for EXPLAIN.
    column_range: Optional[Tuple[str, Any, Any, float, int]] = None
    _fetch: Any = None
    _stats: Any = None  # database.planner_stats, when present

    def _bump(self, key: str, n: float = 1) -> None:
        bump_planner_stat(self._stats, key, n)

    def execute(self) -> Relation:
        trace = _trace_current()
        if trace is None:
            self._bump("planner.plans")
            self._bump("planner.conjuncts_reordered", self.moved)
            return self._run(None)
        with trace.span("plan.multi") as span:
            span.set("table", self.table)
            span.set("access", self.access_label)
            # result_rows is unique to this span, so the est/actual
            # pairing reads it alone (children each emit rows_out and
            # total_counters() would sum the whole chain).
            span.set("est_result_rows", round(self.estimated_rows, 1))
            span.set(
                "order", " -> ".join(c.text for c in self.filters) or "-"
            )
            self._bump("planner.plans")
            self._bump("planner.conjuncts_reordered", self.moved)
            out = self._run(trace)
            span.add("result_rows", len(out))
        return out

    def _run(self, trace) -> Relation:
        return self.apply_filters(self._fetch(), trace)

    def apply_filters(
        self, out: Relation, trace: Any = "unset"
    ) -> Relation:
        """Run the ordered filter chain over ``out``."""
        if trace == "unset":
            trace = _trace_current()
        for conjunct in self.filters:
            rows_in = len(out)
            if conjunct.kind == "residual":
                self._bump("planner.residual_rows", rows_in)
            if trace is None:
                out = self._apply(out, conjunct)
                continue
            with trace.span(f"filter[{conjunct.text}]") as span:
                span.set("kind", conjunct.kind)
                span.set(
                    "est_selectivity",
                    round(conjunct.selectivity or 0.0, 4),
                )
                out = self._apply(out, conjunct)
                span.add("rows_in", rows_in)
                span.add("rows_out", len(out))
        return out

    @staticmethod
    def _apply(relation: Relation, conjunct: Conjunct) -> Relation:
        # Direct build (no op.select span): the filter[...] span above
        # already carries the cardinalities, and nesting both would
        # double-count rows_in/rows_out in total_counters().
        keep = conjunct.predicate.filter(relation.schema)
        return Relation._derived(
            f"filter({relation.name})", relation.schema, keep(relation)
        )

    def access_text(self) -> str:
        """The access label; a column-range access adds its column,
        bounds and row estimate."""
        if self.column_range is None:
            return self.access_label
        column, low, high, rows, _ = self.column_range
        return (
            f"{self.access_label} {column} in "
            f"[{'-inf' if low is None else low}, "
            f"{'+inf' if high is None else high}]  est. rows={rows:.1f}"
        )

    def explain(self) -> str:
        lines = [f"Select({self.table})"]
        if self.access is not None:
            lines.extend(
                "  " + line for line in self.access.explain().splitlines()
            )
        elif self.window is not None:
            lines.append(
                f"  access: {self.access_label} via {self.window.text}"
            )
        elif self.column_range is not None:
            lines.append(f"  access: {self.access_text()}")
            lines.append(f"  rejected: table-scan ({self.column_range[4]} rows)")
        else:
            lines.append(f"  access: {self.access_label}")
        if self.filters:
            mode = (
                "ordered by selectivity"
                if self.reorder
                else "as written (naive)"
            )
            lines.append(f"  filters ({len(self.filters)}, {mode}):")
            for rank, conjunct in enumerate(self.filters, 1):
                lines.append(
                    f"    {rank}. {conjunct.text}  [{conjunct.kind}]"
                    f"  sel={conjunct.selectivity:.4f}"
                    f"  cost={conjunct.cost:.0f}"
                    f"  (written #{conjunct.written_pos + 1})"
                )
            if self.moved:
                lines.append(f"  reordered: {self.moved} conjunct(s) moved")
        for note in self.notes:
            lines.append(f"  {note}")
        return "\n".join(lines)


def _attr_bounds(conjuncts: Sequence[Conjunct]) -> Dict[str, Tuple[Any, Any]]:
    """The tightest low and high bound (``None``: open) that the
    ``attr-range`` conjuncts put on each column, the columns in the
    order first written."""
    bounds: Dict[str, Tuple[Any, Any]] = {}
    for conjunct in sorted(conjuncts, key=lambda c: c.written_pos):
        column = conjunct.column
        if conjunct.kind != "attr-range" or column is None:
            continue
        low, high = bounds.get(column, (None, None))
        if conjunct.low is not None:
            low = conjunct.low if low is None else max(low, conjunct.low)
        if conjunct.high is not None:
            high = conjunct.high if high is None else min(high, conjunct.high)
        bounds[column] = (low, high)
    return bounds


def _window_from_ranges(
    reader, table: str, conjuncts: Sequence[Conjunct]
) -> Optional[Tuple[Conjunct, Plan, List[Conjunct]]]:
    """Attribute ranges on an index's coordinate columns *are* a
    z-window: the tightest integer bounds the ``attr-range`` conjuncts
    put on each coordinate column form the access box, a dimension
    nothing pins spanning the grid (the paper's partial-match query).
    Returns ``(window, access plan, the conjuncts it summarises)`` for
    the cheapest index :func:`plan_range_query` prefers to a scan for
    ``reader``, else ``None`` — so an index the reader may not use (one
    built after a session's pin) never makes a window.  The box only
    has to *cover* the conjuncts — they stay in the filter chain, so
    strict, one-sided and fractional bounds need no care here."""
    database, _ = reader._reading()
    top = database.grid.side - 1
    bounds = _attr_bounds(conjuncts)
    best: Optional[Tuple[Conjunct, Plan, List[Conjunct]]] = None
    for entry in database.catalog.indexes_on(table):
        if not any(column in bounds for column in entry.coord_cols):
            continue
        used = [
            c
            for c in sorted(conjuncts, key=lambda c: c.written_pos)
            if c.kind == "attr-range" and c.column in entry.coord_cols
        ]
        ranges = []
        for column in entry.coord_cols:
            low, high = bounds.get(column, (None, None))
            ranges.append(
                (
                    0 if low is None else max(0, math.ceil(low)),
                    top if high is None else min(top, math.floor(high)),
                )
            )
        if any(low > high for low, high in ranges):
            continue
        box = Box(tuple(ranges))
        access = plan_range_query(reader, table, entry.coord_cols, box)
        if access.method != "index-scan":
            continue
        if best is None or access.estimated_pages < best[1].estimated_pages:
            window = Conjunct(
                kind="z-window",
                text=" AND ".join(c.text for c in used),
                predicate=None,  # never filters: the ranges themselves do
                written_pos=used[0].written_pos,
                selectivity=access.selectivity,
                box=box,
                coord_cols=entry.coord_cols,
            )
            best = (window, access, used)
    return best


def _column_range(
    database, table: str, conjuncts: Sequence[Conjunct], shares: Dict
) -> Optional[Tuple[str, Any, Any, float]]:
    """A numeric column's sorted order as the access path of a select
    with no window (the one-dimensional case of Section 4's sort, then
    seek).  The ``attr-range`` conjuncts on one column (the binder marks
    only INTEGER and FLOAT ones) bound it by the tightest low and high
    among them; the column whose bounds
    :func:`column_selectivity` finds most selective (first written on a
    tie) is read when that share is below
    :data:`COLUMN_RANGE_CROSSOVER`.  Returns ``(column, low, high,
    selectivity)``, else ``None``.  As with
    :func:`_window_from_ranges`, the bounds only have to *cover* the
    conjuncts — they stay in the filter chain, so strict, one-sided and
    fractional bounds and ``=`` need no care here."""
    best: Optional[Tuple[str, Any, Any, float]] = None
    for column, (low, high) in _attr_bounds(conjuncts).items():
        selectivity = _column_share(database, table, shares, column, low, high)
        if best is None or selectivity < best[3]:
            best = (column, low, high, selectivity)
    if best is None or best[3] >= COLUMN_RANGE_CROSSOVER:
        return None
    return best


def _column_range_rows(
    reader, table: str, column: str, low: Any, high: Any
) -> Relation:
    """The rows whose ``column`` lies in ``[low, high]`` (``None``: open),
    in relation order, as ``reader`` sees them: bisect the column's
    sorted order and fetch the positions between.  The epoch is read
    before the order, so every row it can see is in the order."""
    database, epoch = reader._reading()
    relation = database.catalog.relation(table)
    if epoch is None:
        epoch = relation._read_epoch()
    values, positions = relation.column_order(relation.schema.index_of(column))
    lo, hi = _span(values, low, high)
    return Relation._derived(
        f"range({table}.{column})",
        relation.schema,
        relation.fetch(sorted(positions[lo:hi]), epoch),
    )


def plan_select(
    reader,
    table: str,
    conjuncts: Sequence[Conjunct],
    reorder: bool = True,
) -> SelectPlan:
    """Build a :class:`SelectPlan` over ``conjuncts`` for ``reader``.

    ``reader`` is the :class:`~repro.db.readpath.SpatialReads` the plan
    runs for — the database itself or a snapshot
    :class:`~repro.concurrency.session.Session`.  Every reader is
    planned the same way; only an index it may use at its epoch
    (:meth:`~repro.db.readpath.SpatialReads._entry`) is an access path.
    Cost estimates come from the database's catalog, statistics and
    live trees.  ``reorder=False`` keeps the filters in written order
    (the naive baseline).

    The access path, first match wins:

    1. the first written z-window or eps-window, read as
       :func:`plan_range_query` chooses for the reader (an index scan,
       or a row scan);
    2. a z-window synthesised from ``attr-range`` conjuncts on the
       coordinate columns of an index the reader may use, when the
       index beats a scan (:func:`_window_from_ranges`);
    3. ``column-range``: the sorted order of the INTEGER or FLOAT
       column whose ``attr-range`` bounds are estimated most selective,
       when that estimate is below :data:`COLUMN_RANGE_CROSSOVER`
       (:func:`_column_range`);
    4. ``table-scan``.

    Every conjunct stays in the filter chain, and every access returns
    its rows in relation order, as a scan does.
    """
    database, _ = reader._reading()
    access: Optional[Plan] = None
    summarised: List[Conjunct] = []
    ranged = None
    if not any(c.kind in ("z-window", "eps-window") for c in conjuncts):
        ranged = _window_from_ranges(reader, table, conjuncts)
    if ranged is not None:
        # The window's box passes these rows but at strict or
        # fractional edges: they filter last, and no column order is
        # sorted to estimate them.  The 1.0 is this plan's: the
        # statement's own conjuncts keep theirs for other readers.
        forced = {id(c): replace(c, selectivity=1.0) for c in ranged[2]}
        conjuncts = [forced.get(id(c), c) for c in conjuncts]
        summarised = list(forced.values())
    shares: Dict = {}
    for conjunct in conjuncts:
        _estimate_conjunct(database, table, conjunct, shares)
    window, filters, moved = order_conjuncts(conjuncts, reorder=reorder)
    if ranged is not None:
        window, access, _ = ranged
    if window is not None and window.kind == "eps-window":
        # The access path only proves the bounding box; the exact ball
        # test re-runs first in the filter chain (its superset just got
        # fetched, so it is maximally selective among the filters).
        filters.insert(
            0,
            Conjunct(
                kind="eps-refine",
                text=window.text,
                predicate=window.predicate,
                written_pos=window.written_pos,
                selectivity=ball_selectivity(database.grid.ndims),
                cost=window.cost,
                eps=window.eps,
            ),
        )

    nrows = len(database.catalog.relation(table))
    stats = getattr(database, "planner_stats", None)
    plan = SelectPlan(
        table=table,
        window=window,
        filters=filters,
        reorder=reorder,
        moved=moved,
        _stats=stats,
    )

    if window is not None:
        if access is None:
            access = plan_range_query(
                reader, table, window.coord_cols, window.box
            )
        plan.access = access
        plan.access_label = access.method
        plan._fetch = access.execute
        window.estimated_rows = access.estimated_rows
        estimated = float(access.estimated_rows)
        if summarised:
            unpinned = [
                column
                for column, (low, high) in zip(
                    window.coord_cols, window.box.ranges
                )
                if (low, high) == (0, database.grid.side - 1)
            ]
            plan.notes.append(
                f"z-window from attribute ranges: {window.text}"
                + (
                    f"  [partial match: {', '.join(unpinned)} unpinned]"
                    if unpinned
                    else ""
                )
            )
    else:
        ranged = _column_range(database, table, filters, shares)
        if ranged is None:
            plan.access_label = "table-scan"

            def _scan() -> Relation:
                base = reader.table(table)
                return Relation._derived(
                    f"scan({table})", base.schema, base.rows
                )

            plan._fetch = _scan
        else:
            column, low, high, selectivity = ranged
            plan.access_label = "column-range"
            plan.column_range = (column, low, high, selectivity * nrows, nrows)
            plan._fetch = lambda: _column_range_rows(
                reader, table, column, low, high
            )
        estimated = float(nrows)

    for conjunct in filters:
        # The window's row estimate already accounts for the ranges it
        # was synthesised from.
        if not any(conjunct is held for held in summarised):
            estimated *= conjunct.selectivity
    plan.estimated_rows = estimated
    return plan


def plan_filters(
    reader,
    table: str,
    conjuncts: Sequence[Conjunct],
    reorder: bool = True,
) -> SelectPlan:
    """A select whose conjuncts all run as filters over rows fetched
    elsewhere — the partner side of an eps-seek, which the other side's
    points read.  No access path is chosen, so nothing here decomposes
    a box; the row estimate is the table's size times the filters'
    selectivities."""
    database, _ = reader._reading()
    for conjunct in conjuncts:
        _estimate_conjunct(database, table, conjunct, {})
    filters, moved = order_filters(conjuncts, reorder)
    estimated = float(len(database.catalog.relation(table)))
    for conjunct in filters:
        estimated *= conjunct.selectivity
    return SelectPlan(
        table=table,
        window=None,
        filters=filters,
        reorder=reorder,
        moved=moved,
        access_label="eps-seek",
        estimated_rows=estimated,
        _stats=getattr(database, "planner_stats", None),
    )


def choose_join_strategy(
    nleft: int,
    nright: int,
    elements_left: float,
    elements_right: float,
) -> Tuple[str, float, float]:
    """Pick the spatial-join strategy by element-level cost.

    z-merge decomposes both sides and sweeps the merged z-ordered
    element lists — ``O(E log E)`` over ``E`` total elements (Section 4's
    sort-merge framing).  Nested-loop tests every object pair against
    each pair's element lists — ``O(nl * nr * (el + er))``.  Returns
    ``(strategy, cost_zmerge, cost_nested)`` so EXPLAIN can show the
    rejected branch's cost too.
    """
    total_elements = nleft * elements_left + nright * elements_right
    cost_zmerge = total_elements * max(
        1.0, math.log2(max(total_elements, 2.0))
    )
    cost_nested = (
        float(nleft) * float(nright) * (elements_left + elements_right)
    )
    strategy = "z-merge" if cost_zmerge <= cost_nested else "nested-loop"
    return strategy, cost_zmerge, cost_nested


def ball_selectivity(ndims: int) -> float:
    """Volume fraction of an L2 ball inside its bounding box —
    ``pi^(d/2) / Gamma(d/2 + 1) / 2^d`` (~0.785 in 2-d).  Discounts an
    eps-window's box selectivity, and is the selectivity charged to the
    eps-refine filter that runs over the box's rows."""
    return (
        math.pi ** (ndims / 2.0)
        / math.gamma(ndims / 2.0 + 1.0)
        / 2.0**ndims
    )
