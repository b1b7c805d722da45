"""Compile bound queries into executable plans over repro.db operators.

Single-table statements become a :class:`~repro.db.planner.SelectPlan`
(access path + selectivity-ordered filters) followed by the classic
operator tail (project / distinct / sort / limit).  Join statements
build the Section 4 pipeline: push single-side conjuncts below the
join, decompose both sides, run the spatial join by whichever strategy
the cost model picks (z-merge sweep vs nested-loop interval test), then
normalize — the join's output is always the *distinct* object pairs in
one canonical order, so the strategy choice is invisible in the rows.

``CompiledQuery.plan(target)`` plans once for the reader that runs the
statement — the database or a snapshot session, any
:class:`~repro.db.readpath.SpatialReads` — and ``finish(plan)``
executes that plan; ``run`` is the two in turn.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, List, Optional, Tuple

from repro.core.decompose import Element, decompose
from repro.db.operators import distinct as distinct_op
from repro.db.operators import limit as limit_op
from repro.db.operators import project, rename, sort
from repro.db.planner import (
    RESIDUAL_SELECTIVITY,
    Conjunct,
    SelectPlan,
    ball_selectivity,
    choose_join_strategy,
    order_filters,
    plan_filters,
    plan_select,
)
from repro.db.readpath import (
    coords_getter,
    epsilon_join_rows,
    epsilon_seek_rows,
    seek_cell_bits,
)
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.db.types import SpatialObject
from repro.obs.explain import format_trace
from repro.obs.trace import QueryTrace
from repro.obs.trace import span as _span
from repro.obs.trace import trace as _obs_trace
from repro.sql.ast import Statement, render
from repro.sql.binder import BoundQuery

__all__ = ["CompiledQuery"]


class CompiledQuery:
    """An executable, explainable compiled statement."""

    def __init__(
        self,
        database,
        statement: Statement,
        bound: BoundQuery,
        reorder: bool = True,
    ) -> None:
        self.db = database
        self.statement = statement
        self.bound = bound
        self.reorder = reorder

    @cached_property
    def canonical(self) -> str:
        """The statement's canonical text, which EXPLAIN prints first —
        rendered on first read: a plain SELECT never needs it."""
        return render(self.statement.select)

    # -- planning --------------------------------------------------------

    def plan(self, target: Any = None) -> SelectPlan:
        """The plan for ``target`` (the database when ``None``), whose
        indexes are those :meth:`~repro.db.readpath.SpatialReads._entry`
        lets it use."""
        reader = self.db if target is None else target
        if self.bound.join_table is not None:
            if self.bound.join_kind == "eps":
                return self._plan_eps_join(reader)
            return self._plan_join(reader)
        plan = plan_select(
            reader, self.bound.table, self.bound.conjuncts, self.reorder
        )
        if self.bound.nearest is not None:
            self._attach_nearest(plan, reader)
        return plan

    def _attach_nearest(self, plan: SelectPlan, reader: Any) -> None:
        """Wire the NEAREST clause into the plan: with no WHERE clause
        and an index the reader may use, the store's k-NN *is* the
        access path (it fetches exactly the k rows, ranked); otherwise
        the filtered rows are ranked afterwards (post-filter)."""
        k, center, cols = self.bound.nearest
        table = self.bound.table
        probe = (
            plan.window is None
            and not plan.filters
            and reader._entry(table, cols) is not None
        )
        center_text = f"POINT({', '.join(str(c) for c in center)})"
        if probe:
            plan.access_label = "knn-probe"
            plan.estimated_rows = float(k)

            def _fetch() -> Relation:
                plan._bump("planner.knn_probes")
                return reader.knn_query(table, cols, center, k)

            plan._fetch = _fetch
            plan.notes.append(
                f"nearest: {k} to {center_text} by "
                f"({', '.join(cols)})  [knn-probe]"
            )
        else:
            plan.estimated_rows = min(plan.estimated_rows, float(k))
            plan.notes.append(
                f"nearest: {k} to {center_text} by "
                f"({', '.join(cols)})  [ranked after filters]"
            )

    def _post_filters(self) -> Tuple[List[Conjunct], int]:
        """The conjuncts left above the join, ordered.  Each touches
        both tables (the binder pushes every one-table term below the
        join), so none is an ``attr-range`` and all are charged the
        residual selectivity."""
        for conjunct in self.bound.conjuncts:
            if conjunct.selectivity is None:
                conjunct.selectivity = RESIDUAL_SELECTIVITY
        return order_filters(self.bound.conjuncts, self.reorder)

    def _plan_join(self, reader: Any) -> SelectPlan:
        bound = self.bound
        post, pmoved = self._post_filters()
        left = self._side_plan(bound.table, bound.left_push, reader)
        right = self._side_plan(bound.join_table, bound.right_push, reader)

        strategy, cost_zmerge, cost_nested = choose_join_strategy(
            left.estimated_rows,
            right.estimated_rows,
            self._elements_per_object(bound.table, bound.left_geom),
            self._elements_per_object(bound.join_table, bound.right_geom),
        )
        plan = SelectPlan(
            table=f"{bound.table} JOIN {bound.join_table}",
            window=None,
            filters=post,
            reorder=self.reorder,
            moved=left.moved + right.moved + pmoved,
            access_label=f"spatial-join[{strategy}]",
            _stats=getattr(self.db, "planner_stats", None),
        )
        plan.notes.append(
            f"join strategy: {strategy} "
            f"(z-merge ~{cost_zmerge:.0f}, nested-loop ~{cost_nested:.0f})"
        )
        plan._fetch = lambda: self._join_fetch(
            left, right, strategy, cost_zmerge, cost_nested
        )
        self._note_sides(plan, left, right)
        return plan

    def _side_plan(
        self, table: str, pushed: List[Conjunct], reader: Any
    ) -> SelectPlan:
        """One join input as its own select: the conjuncts pushed below
        the join pick its access path (a pushed window reads the index)
        and filter its rows, which stay a relation-ordered subset."""
        return plan_select(reader, table, pushed, self.reorder)

    @staticmethod
    def _note_sides(
        plan: SelectPlan, left: SelectPlan, right: SelectPlan
    ) -> None:
        for side in (left, right):
            # eps-refine is the window again, as a filter
            for conjunct in ([side.window] if side.window else []) + [
                c for c in side.filters if c.kind != "eps-refine"
            ]:
                plan.notes.append(
                    f"pushed below join ({side.table}): {conjunct.text}"
                    f"  [{conjunct.kind}]"
                    f"  sel={conjunct.selectivity:.4f}"
                )
        for side in (left, right):
            if side.window is not None:
                plan.notes.append(
                    f"side access ({side.table}): {side.access_label}"
                    f"  est. rows={side.window.estimated_rows:.1f}"
                )
            elif side.column_range is not None:
                plan.notes.append(
                    f"side access ({side.table}): {side.access_text()}"
                )

    def _elements_per_object(self, table: str, geom: str) -> float:
        """Average elements per object on one join side, from a small
        deterministic sample of decompositions."""
        relation = self.db.catalog.relation(table)
        index = relation.schema.index_of(geom)
        grid = self.db.grid
        sample = [
            len(list(decompose(grid, row[index].classify, None)))
            for row in relation.rows[:8]
            if isinstance(row[index], SpatialObject)
        ]
        return sum(sample) / len(sample) if sample else 1.0

    # -- join execution --------------------------------------------------

    @staticmethod
    def _side(side: SelectPlan) -> Relation:
        """One join input: the rows its side plan fetches and filters,
        columns qualified ``{table}_{column}``."""
        relation = side.apply_filters(side._fetch())
        mapping = {n: f"{side.table}_{n}" for n in relation.schema.names}
        return rename(relation, mapping)

    def _join_fetch(
        self,
        left_plan: SelectPlan,
        right_plan: SelectPlan,
        strategy: str,
        cost_zmerge: float,
        cost_nested: float,
    ) -> Relation:
        bound = self.bound
        grid = self.db.grid
        left = self._side(left_plan)
        right = self._side(right_plan)
        lgeom = f"{bound.table}_{bound.left_geom}"
        rgeom = f"{bound.join_table}_{bound.right_geom}"

        ldec = self._decompositions(left, lgeom)
        rdec = self._decompositions(right, rgeom)
        nleft, nright = len(ldec), len(rdec)

        lcarried = [
            c for c in left.schema.columns if c.name != lgeom
        ]
        rcarried = [
            c for c in right.schema.columns if c.name != rgeom
        ]
        schema = Schema(lcarried + rcarried)
        with _span(f"join[{strategy}]") as span:
            if span is not None:
                span.set("est_cost_zmerge", round(cost_zmerge, 1))
                span.set("est_cost_nested", round(cost_nested, 1))
                span.add("rows_in", nleft + nright)
            if strategy == "z-merge":
                pairs = self._zmerge_pairs(grid, ldec, rdec)
            else:
                pairs = self._nested_pairs(grid, ldec, rdec)
            # Normalize: distinct object pairs in one canonical order,
            # whatever the strategy emitted.
            seen = set()
            rows = []
            for row in pairs:
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
            rows.sort(key=lambda row: tuple(repr(v) for v in row))
            if span is not None:
                span.add("rows_out", len(rows))
        return Relation._derived(
            f"overlap({bound.table},{bound.join_table})", schema, rows
        )

    def _decompositions(self, relation: Relation, geom: str):
        """[(row-without-geometry, [z values])] for every row — each
        object decomposed once, shared by cost model and either join
        strategy."""
        grid = self.db.grid
        index = relation.schema.index_of(geom)
        out = []
        for row in relation:
            obj = row[index]
            if not isinstance(obj, SpatialObject):
                raise TypeError(
                    f"column {geom!r} holds {obj!r}, not a SpatialObject"
                )
            rest = tuple(v for i, v in enumerate(row) if i != index)
            out.append((rest, list(decompose(grid, obj.classify, None))))
        return out

    def _zmerge_pairs(self, grid, ldec, rdec):
        """Sort-merge sweep over both sides' elements, tagged with row
        ordinals (so duplicate carried values stay distinct rows)."""
        from repro.core.spatialjoin import spatial_join as _kernel

        def tagged(dec):
            return [
                (Element.of(z, grid), ordinal)
                for ordinal, (_, zvalues) in enumerate(dec)
                for z in zvalues
            ]

        for lordinal, rordinal, _, _ in _kernel(tagged(ldec), tagged(rdec)):
            yield ldec[lordinal][0] + rdec[rordinal][0]

    def _nested_pairs(self, grid, ldec, rdec):
        def intervals(zvalues):
            return sorted(
                (element.zlo, element.zhi)
                for element in (Element.of(z, grid) for z in zvalues)
            )

        lints = [(rest, intervals(zs)) for rest, zs in ldec]
        rints = [(rest, intervals(zs)) for rest, zs in rdec]
        for lrest, a in lints:
            for rrest, b in rints:
                if _interval_overlap(a, b):
                    yield lrest + rrest

    # -- epsilon join ----------------------------------------------------

    def _plan_eps_join(self, reader: Any) -> SelectPlan:
        bound = self.bound
        post, pmoved = self._post_filters()
        driver = self._seek_driver(reader)
        sides = [
            self._side_plan(table, pushed, reader)
            if driver is None or at == driver
            else plan_filters(reader, table, pushed, self.reorder)
            for at, (table, pushed) in enumerate(
                (
                    (bound.table, bound.left_push),
                    (bound.join_table, bound.right_push),
                )
            )
        ]
        left, right = sides

        grid = self.db.grid
        side = float(2**grid.depth)
        width = min(2.0 * bound.eps + 1.0, side)
        est_pairs = (
            left.estimated_rows
            * right.estimated_rows
            * (width / side) ** grid.ndims
            * ball_selectivity(grid.ndims)
        )
        plan = SelectPlan(
            table=f"{bound.table} JOIN {bound.join_table}",
            window=None,
            filters=post,
            reorder=self.reorder,
            moved=left.moved + right.moved + pmoved,
            access_label="eps-join",
            estimated_rows=est_pairs,
            _stats=getattr(self.db, "planner_stats", None),
        )
        self._note_sides(plan, left, right)
        if driver is None:
            plan._fetch = lambda: self._eps_join_fetch(left, right)
            return plan
        seeker, sought = sides[driver], sides[1 - driver]
        plan.notes.append(
            f"side access ({sought.table}): eps-seek at the "
            f"{seeker.table} points' 2^{seek_cell_bits(bound.eps)}-wide "
            f"z-cells  est. rows={est_pairs:.1f}"
        )
        plan._fetch = lambda: self._eps_seek_fetch(
            seeker, sought, driver, reader
        )
        return plan

    def _seek_driver(self, reader: Any) -> Optional[int]:
        """The side (0 left, 1 right) that drives an eps-seek, or
        ``None`` for the zones sweep.  A written window ``B`` on one
        side's join point bounds the other's: a partner within ``eps``
        of a point in ``B`` lies in ``B`` dilated by ``ceil(eps)``.  When
        exactly one such window exists and the other side has an index
        on its join columns that the reader may use, the windowed
        side's points seek that index at their own z-cells instead of
        the other side being read whole."""
        bound = self.bound
        sides = (
            (bound.table, bound.left_coords, bound.left_push),
            (bound.join_table, bound.right_coords, bound.right_push),
        )
        windows = [
            at
            for at, (_, coords, pushed) in enumerate(sides)
            for conjunct in pushed
            if conjunct.kind == "z-window" and conjunct.coord_cols == coords
        ]
        if len(windows) != 1:
            return None
        (at,) = windows
        sought, coords = sides[1 - at][0], sides[1 - at][1]
        if reader._entry(sought, coords) is None:
            return None
        return at

    def _eps_seek_fetch(
        self,
        seeker: SelectPlan,
        sought: SelectPlan,
        driver: int,
        reader: Any,
    ) -> Relation:
        """The windowed eps-join: ``seeker``'s rows, fetched and
        filtered by its side plan, seek the other table's index at
        their points' z-cells (:func:`~repro.db.readpath.
        epsilon_seek_rows`); ``sought``'s filters run over the matched
        rows only."""
        bound = self.bound
        rows = self._side(seeker)
        coords = (bound.left_coords, bound.right_coords)
        out = epsilon_seek_rows(
            reader,
            list(rows),
            coords_getter(
                rows.schema, [f"{seeker.table}_{n}" for n in coords[driver]]
            ),
            sought.table,
            coords[1 - driver],
            bound.eps,
            sought.apply_filters,
            rows_left=driver == 0,
        )
        catalog = self.db.catalog
        schema = catalog.relation(bound.table).schema.concat(
            catalog.relation(bound.join_table).schema,
            f"{bound.table}_",
            f"{bound.join_table}_",
        )
        return Relation._derived(
            f"epsjoin({bound.table},{bound.join_table})", schema, out
        )

    def _eps_join_fetch(
        self, left_plan: SelectPlan, right_plan: SelectPlan
    ) -> Relation:
        bound = self.bound
        left = self._side(left_plan)
        right = self._side(right_plan)
        rows = epsilon_join_rows(
            self.db,
            list(left),
            coords_getter(
                left.schema,
                [f"{bound.table}_{name}" for name in bound.left_coords],
            ),
            list(right),
            coords_getter(
                right.schema,
                [f"{bound.join_table}_{name}" for name in bound.right_coords],
            ),
            bound.eps,
        )
        schema = Schema(
            list(left.schema.columns) + list(right.schema.columns)
        )
        return Relation._derived(
            f"epsjoin({bound.table},{bound.join_table})", schema, rows
        )

    # -- execution -------------------------------------------------------

    def run(self, target: Any = None) -> Relation:
        return self.finish(self.plan(target))

    def finish(
        self, plan: SelectPlan, rows: Optional[List[Tuple[Any, ...]]] = None
    ) -> Relation:
        """Execute ``plan``: its access rows — or ``rows``, the same rows
        fetched elsewhere (the server's batched scan of an index-scan's
        box) — then the filter chain, NEAREST ranking and the operator
        tail."""
        if rows is not None:
            fetched = Relation._derived(
                f"range({plan.table})",
                self.db.catalog.relation(plan.table).schema,
                rows,
            )
            plan._fetch = lambda: fetched
        out = plan.execute()
        if (
            self.bound.nearest is not None
            and plan.access_label != "knn-probe"
        ):
            out = self._nearest_rows(out)
        return self._tail(out)

    def _nearest_rows(self, relation: Relation) -> Relation:
        """Rank ``relation`` by distance to the NEAREST center (ties by
        z code, then input order — a stable sort) and keep ``k`` rows —
        the ranked-after-filters plan; a knn-probe's rows arrive
        ranked."""
        k, center, cols = self.bound.nearest
        grid = self.db.grid
        indices = [relation.schema.index_of(name) for name in cols]

        def key(row: Tuple[Any, ...]) -> Tuple[int, int]:
            point = tuple(row[i] for i in indices)
            return (
                sum((a - b) ** 2 for a, b in zip(point, center)),
                grid.zvalue(point).bits,
            )

        rows = sorted(relation, key=key)[:k]
        return Relation._derived(
            f"nearest({relation.name})", relation.schema, rows
        )

    def _tail(self, out: Relation) -> Relation:
        bound = self.bound
        if bound.projection is not None:
            out = project(out, bound.projection)
        if bound.distinct:
            out = distinct_op(out)
        if bound.order is not None:
            columns, descending = bound.order
            out = sort(out, columns, reverse=descending)
        if bound.limit is not None:
            out = limit_op(out, bound.limit)
        return out

    def run_traced(
        self, target: Any = None
    ) -> Tuple[Relation, QueryTrace]:
        with _obs_trace(f"sql({self.bound.table})") as t:
            out = self.run(target)
        assert t is not None
        return out, t

    # -- explain ---------------------------------------------------------

    def explain(self, target: Any = None) -> str:
        lines = [f"SQL: {self.canonical}", self.plan(target).explain()]
        bound = self.bound
        if bound.projection is not None:
            lines.append(f"  project: {', '.join(bound.projection)}")
        if bound.distinct:
            lines.append("  distinct")
        if bound.order is not None:
            columns, descending = bound.order
            direction = "desc" if descending else "asc"
            lines.append(f"  order by: {', '.join(columns)} {direction}")
        if bound.limit is not None:
            lines.append(f"  limit: {bound.limit}")
        return "\n".join(lines)

    def explain_analyze(self, target: Any = None) -> str:
        _, t = self.run_traced(target)
        return f"SQL: {self.canonical}\n" + format_trace(t)


def _interval_overlap(a, b) -> bool:
    """Do two z-sorted inclusive interval lists intersect?  Aligned
    z-element ranges are either disjoint or nested, so intersection is
    exactly the ``◇`` containment relation of Section 4."""
    i = j = 0
    while i < len(a) and j < len(b):
        alo, ahi = a[i]
        blo, bhi = b[j]
        if ahi < blo:
            i += 1
        elif bhi < alo:
            j += 1
        else:
            return True
    return False
