"""The query service: sessions, admission, batching, stats.

:class:`QueryService` is the transport-independent core of the server.
Each connected client gets a :class:`ClientState` holding a snapshot
:meth:`~repro.db.database.SpatialDatabase.session`: every read on that
connection sees the pinned commit epoch, writes buffer in the session
and group-commit on the ``commit`` op, and dropping the connection —
gracefully or not — closes the session and releases its pin (no COW
residue).

Request flow for a ``range``/``point`` op::

    client.session.fork()             # the read's own pin on the epoch
      -> admission.slot(client)       # typed rejection or a slot
      -> reader._entry(table, cols)   # an index visible at the epoch?
         -> batcher.submit((index, epoch), box)
            # one shared scan over a snapshot view
            # built for the group, then readpath.rejoin per request
         -> else reader.range_query   # planned for the session: a row scan

and for a single-table ``sql`` op::

    client.session.fork()
      -> admission.slot(client)
      -> compiled.plan(reader)        # the one plan, for the fork
         -> index-scan on reader._entry(table, cols):
            batcher.submit((index, epoch), box)
            -> compiled.finish(plan, rows)   # filters, NEAREST, tail
         -> else compiled.finish(plan) in the executor

A join or ``EXPLAIN ANALYZE`` runs whole in the executor, and the wire
``EXPLAIN`` prints the plan built for the connection's session.

A read holds its fork from the moment it is received until its answer
is built, so a pipelined ``refresh`` re-pins the connection at once and
never pulls the snapshot from under a read in flight; the response's
``epoch`` is the one the rows were read at.  Index scans batch across
connections: the key is (index name, pinned epoch), so clients pinned
at the same snapshot share one scan.  Execution runs on
the batcher's single worker thread; the event loop keeps accepting
requests, which form the next batch.  A request that exceeds
``request_timeout`` answers with a typed ``timeout`` rejection and
frees its admission slot (the slow client cannot wedge the server).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.deadline import (
    Deadline,
    DeadlineExceeded,
    ResiliencePolicy,
    deadline_scope,
)
from repro.core.geometry import Box
from repro.db.readpath import rejoin
from repro.faults import CrashPoint, FaultInjector, register_site
from repro.obs.trace import QueryTrace
from repro.server.admission import AdmissionController, Rejection
from repro.server.batching import QueryBatcher, batched_range_matches
from repro.server.breaker import OverloadController
from repro.server.protocol import (
    FrameError,
    ProtocolError,
    error_response,
    ok_response,
    parse_box,
    parse_deadline,
    parse_point,
    rejection_response,
    validate_request,
)

__all__ = ["ClientState", "QueryService", "SITE_DISPATCH"]

#: Failpoint at the head of batch execution (the worker thread): an
#: ``error`` rule is a failing backend, ``latency`` a hung one,
#: ``crash`` a worker death the service must contain as one failed
#: request.
SITE_DISPATCH = register_site("server.dispatch", "point")

#: Retain per-client served/rejected tallies for at most this many
#: clients (oldest evicted) so the SERVER trace section stays bounded.
MAX_CLIENT_STATS = 64


class ClientState:
    """One connection's identity and snapshot session."""

    __slots__ = ("name", "session")

    def __init__(self, name: str, session: Any) -> None:
        self.name = name
        self.session = session

    @property
    def epoch(self) -> int:
        return self.session.epoch


class QueryService:
    """Admission-controlled, batch-executing front of one database."""

    def __init__(
        self,
        db: Any,
        max_inflight: int = 16,
        client_quota: int = 8,
        queue_limit: int = 64,
        batching: bool = True,
        max_batch: int = 64,
        request_timeout: float = 5.0,
        policy: Optional[ResiliencePolicy] = None,
        breaker: bool = True,
        breaker_options: Optional[Dict[str, Any]] = None,
        faults: Optional[FaultInjector] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.db = db
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            client_quota=client_quota,
            queue_limit=queue_limit,
            policy=policy,
        )
        self.batching = batching
        self.batcher = QueryBatcher(
            self._execute_batch, max_batch=max_batch if batching else 1
        )
        self.request_timeout = request_timeout
        self.faults = faults
        self._clock = clock
        self.overload: Optional[OverloadController] = None
        if breaker:
            options = dict(breaker_options or {})
            options.setdefault("policy", self.admission.policy)
            options.setdefault("max_inflight", max_inflight)
            options.setdefault("clock", clock)
            self.overload = OverloadController(**options)
            # Shed hints become honest: queue depth over measured rate.
            self.admission.retry_hint = self.overload.retry_after
        self._names = itertools.count(1)
        self.stats: Dict[str, int] = {
            "server.connections": 0,
            "server.disconnects": 0,
            "server.requests": 0,
            "server.served": 0,
            "server.errors": 0,
            "server.deadline.armed": 0,
            "server.deadline.expired": 0,
            "server.deadline.scan_aborts": 0,
        }
        self._client_stats: Dict[str, Dict[str, int]] = {}

    # -- connection lifecycle --------------------------------------------

    def connect(self, name: Optional[str] = None) -> ClientState:
        """Register a client; pins a snapshot session."""
        client_name = name or f"client-{next(self._names)}"
        session = self.db.session()
        self.stats["server.connections"] += 1
        self._client_stats.setdefault(
            client_name, {"served": 0, "rejected": 0, "errors": 0}
        )
        while len(self._client_stats) > MAX_CLIENT_STATS:
            self._client_stats.pop(next(iter(self._client_stats)))
        return ClientState(client_name, session)

    def disconnect(self, client: ClientState) -> None:
        """Close the client's session (idempotent): the snapshot pin is
        released and its retained page versions become reclaimable."""
        client.session.close()
        self.stats["server.disconnects"] += 1

    def close(self) -> None:
        """Stop the batching machinery (sessions belong to handlers)."""
        self.batcher.close()

    # -- batched execution (worker thread) -------------------------------

    def _execute_batch(
        self, key: Hashable, boxes: List[Box]
    ) -> List[List[Tuple[Any, ...]]]:
        """One worker-thread pass for a group of boxes read through the
        same index at the same pinned epoch (each request holds its own
        pin): a shared scan over a snapshot view built
        for the group, then each request's matches rejoined through the
        index — so each request costs a single executor handoff."""
        index_name, epoch = key  # type: ignore[misc]
        if self.faults is not None:
            self.faults.hit(SITE_DISPATCH, index=index_name)
        entry = self.db.catalog.index(index_name)
        relation = self.db.catalog.relation(entry.relation_name)
        matches = batched_range_matches(
            entry.tree.snapshot_view(epoch), self.db.grid, boxes
        )
        return [
            rejoin(relation, epoch, matched, entry, entry.coord_cols)
            for matched in matches
        ]

    def _scoped(
        self, fn: Callable[..., Any], deadline: Optional[Deadline], *args: Any
    ) -> Any:
        """Worker-thread entry for unbatched work: arm the request's
        deadline so the cooperative checks in scan loops see it."""
        with deadline_scope(deadline):
            return fn(*args)

    # -- request handling (event loop) -----------------------------------

    async def handle_request(
        self, client: ClientState, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One request dict in, one response dict out (never raises)."""
        self.stats["server.requests"] += 1
        request_id = request.get("id")
        try:
            request = validate_request(request)
            response = await self._dispatch(client, request)
        except FrameError as exc:
            # Envelope-level garbage (unknown op, malformed id): the
            # frame never named a meaningful operation.
            self.stats["server.errors"] += 1
            self._tally(client, "errors")
            response = error_response("protocol_error", str(exc))
        except ProtocolError as exc:
            self.stats["server.errors"] += 1
            self._tally(client, "errors")
            response = error_response("bad_request", str(exc))
        except Rejection as exc:
            self._tally(client, "rejected")
            response = rejection_response(
                exc.reason, str(exc), exc.retry_after
            )
        except KeyError as exc:
            self.stats["server.errors"] += 1
            self._tally(client, "errors")
            response = error_response("not_found", str(exc))
        except asyncio.CancelledError:
            raise
        except CrashPoint as exc:
            # An injected worker death at a server dispatch site is
            # contained as one failed request — the process (and every
            # other connection) keeps serving.
            self.stats["server.errors"] += 1
            self._tally(client, "errors")
            response = error_response("internal", f"CrashPoint: {exc}")
        except Exception as exc:  # terminal, but never a crashed server
            self.stats["server.errors"] += 1
            self._tally(client, "errors")
            response = error_response(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        else:
            if response.get("ok"):
                self.stats["server.served"] += 1
                self._tally(client, "served")
            elif "rejected" in response:
                self._tally(client, "rejected")
        if request_id is not None:
            response["id"] = request_id
        return response

    def _tally(self, client: ClientState, kind: str) -> None:
        tallies = self._client_stats.get(client.name)
        if tallies is not None:
            tallies[kind] += 1

    async def _dispatch(
        self, client: ClientState, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        op = request["op"]
        if op == "ping":
            return ok_response(pong=True, epoch=client.epoch)
        if op == "stats":
            return ok_response(stats=self.stats_snapshot())
        if op == "range" or op == "point":
            return await self._handle_query(client, request)
        if op == "sql":
            return await self._handle_sql(client, request)
        if op == "insert":
            return self._handle_insert(client, request)
        if op == "commit":
            return self._handle_commit(client)
        if op == "refresh":
            return self._handle_refresh(client)
        raise ProtocolError(f"unhandled op {op!r}")

    def _query_target(
        self, request: Dict[str, Any]
    ) -> Tuple[str, Tuple[str, ...], Box]:
        table = request.get("table")
        if not isinstance(table, str):
            raise ProtocolError("table must be a string")
        cols_spec = request.get("cols")
        if not isinstance(cols_spec, (list, tuple)) or not all(
            isinstance(c, str) for c in cols_spec
        ):
            raise ProtocolError("cols must be a list of column names")
        cols = tuple(cols_spec)
        if request["op"] == "point":
            point = parse_point(request.get("point"), self.db.grid.ndims)
            box = Box(tuple((v, v) for v in point))
        else:
            box = parse_box(request.get("box"), self.db.grid.ndims)
        return table, cols, box

    def _request_deadline(
        self, request: Dict[str, Any]
    ) -> Tuple[Deadline, bool]:
        """Every request runs on a budget: the client's ``deadline_ms``
        when given (capped at the server's ``request_timeout``), the
        server's ``request_timeout`` otherwise.  Returns the armed
        deadline and whether it was client-chosen (which decides the
        rejection's wire reason: ``deadline`` vs ``timeout``)."""
        budget = parse_deadline(request)
        explicit = budget is not None
        if explicit:
            self.stats["server.deadline.armed"] += 1
            budget = min(budget, self.request_timeout)
        else:
            budget = self.request_timeout
        return Deadline(budget, clock=self._clock), explicit

    def _expired_rejection(
        self, explicit: bool, cooperative: bool = False
    ) -> Dict[str, Any]:
        """The typed answer for a request whose budget ran out during
        execution — its slot is released, its batch peers unharmed."""
        self.stats["server.deadline.expired"] += 1
        if cooperative:
            self.stats["server.deadline.scan_aborts"] += 1
        if explicit:
            return rejection_response(
                "deadline",
                "request deadline exceeded during execution; "
                "slot released",
                retry_after=self.admission.policy.backoff(0),
            )
        return rejection_response(
            "timeout",
            f"query exceeded {self.request_timeout}s; slot released",
            retry_after=self.admission.policy.backoff(1),
        )

    async def _handle_query(
        self, client: ClientState, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        table, cols, box = self._query_target(request)
        deadline, explicit = self._request_deadline(request)
        self.db.catalog.relation(table)  # raise not_found early
        with client.session.fork() as reader:
            async with self.admission.slot(client.name, deadline):
                try:
                    rows = await asyncio.wait_for(
                        self._run_query(reader, table, cols, box, deadline),
                        timeout=max(deadline.remaining(), 0.001),
                    )
                except asyncio.TimeoutError:
                    return self._expired_rejection(explicit)
                except DeadlineExceeded:
                    return self._expired_rejection(
                        explicit, cooperative=True
                    )
            return ok_response(
                rows=[list(row) for row in rows],
                count=len(rows),
                epoch=reader.epoch,
            )

    async def _run_query(
        self,
        reader: Any,
        table: str,
        cols: Tuple[str, ...],
        box: Box,
        deadline: Optional[Deadline] = None,
    ) -> List[Tuple[Any, ...]]:
        entry = reader._entry(table, cols)
        if entry is None:
            # No snapshot-visible index: the session's row scan, still
            # off the event loop (and serialized with batch execution).
            relation = await asyncio.get_running_loop().run_in_executor(
                self.batcher.pool,
                self._scoped,
                reader.range_query,
                deadline,
                table,
                cols,
                box,
            )
            return relation.rows
        return await self._guarded_submit(
            entry.index_name, (entry.index_name, reader.epoch), box, deadline
        )

    async def _guarded_submit(
        self,
        backend: str,
        key: Hashable,
        payload: Any,
        deadline: Optional[Deadline],
    ) -> Any:
        """Batch submission under the backend's circuit breaker: an
        open circuit sheds before any work is queued; every outcome
        (and its latency) feeds the health window.  A request's own
        expiry is *not* a backend failure and never trips the breaker."""
        overload = self.overload
        if overload is not None:
            overload.check(backend, queue_depth=self.admission.queue_depth)
        started = self._clock()
        try:
            result = await self.batcher.submit(key, payload, deadline)
        except (asyncio.CancelledError, DeadlineExceeded):
            raise
        except BaseException:  # CrashPoint included: a dead backend
            if overload is not None:
                overload.record(
                    backend, False, max(0.0, self._clock() - started)
                )
            raise
        if overload is not None:
            overload.record(
                backend, True, max(0.0, self._clock() - started)
            )
        return result

    async def _handle_sql(
        self, client: ClientState, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One SQL statement, planned once for the connection's fork
        (:meth:`_run_sql`); EXPLAIN plans for the connection's session."""
        from repro.sql import BindError, ParseError, compile_sql

        query = request.get("query")
        if not isinstance(query, str):
            raise ProtocolError("query must be a string")
        try:
            compiled = compile_sql(self.db, query)
        except ParseError as exc:
            self.stats["server.errors"] += 1
            self._tally(client, "errors")
            return error_response("parse_error", exc.annotate(query))
        except BindError as exc:
            self.stats["server.errors"] += 1
            self._tally(client, "errors")
            return error_response("bind_error", exc.annotate(query))
        if compiled.statement.mode == "explain":
            return ok_response(
                mode="explain",
                text=compiled.explain(client.session),
                epoch=client.epoch,
            )
        deadline, explicit = self._request_deadline(request)
        with client.session.fork() as reader:
            async with self.admission.slot(client.name, deadline):
                try:
                    out = await asyncio.wait_for(
                        self._run_sql(reader, compiled, deadline),
                        timeout=max(deadline.remaining(), 0.001),
                    )
                except asyncio.TimeoutError:
                    return self._expired_rejection(explicit)
                except DeadlineExceeded:
                    return self._expired_rejection(
                        explicit, cooperative=True
                    )
            if compiled.statement.mode == "analyze":
                return ok_response(
                    mode="analyze", text=out, epoch=reader.epoch
                )
            return ok_response(
                mode="rows",
                columns=list(out.schema.names),
                rows=[list(row) for row in out.rows],
                count=len(out),
                epoch=reader.epoch,
            )

    async def _run_sql(
        self,
        reader: Any,
        compiled: Any,
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """Run ``compiled`` for ``reader``.  Joins and EXPLAIN ANALYZE
        run whole in the executor.  A single-table statement is planned
        once, for the reader: an index-scan plan's box rides the batcher
        (a scan shared with the ``range``/``point`` traffic pinned at the
        same epoch) and the plan finishes over the returned rows; any
        other plan runs in the executor."""
        loop = asyncio.get_running_loop()
        analyze = compiled.statement.mode == "analyze"
        if analyze or compiled.bound.join_table is not None:
            whole = compiled.explain_analyze if analyze else compiled.run
            return await loop.run_in_executor(
                self.batcher.pool, self._scoped, whole, deadline, reader
            )
        plan = compiled.plan(reader)
        access = plan.access
        if access is not None and access.method == "index-scan":
            entry = reader._entry(access.table, plan.window.coord_cols)
            if entry is not None:
                rows = await self._guarded_submit(
                    entry.index_name,
                    (entry.index_name, reader.epoch),
                    access.box,
                    deadline,
                )
                return compiled.finish(plan, rows)
        return await loop.run_in_executor(
            self.batcher.pool, self._scoped, compiled.finish, deadline, plan
        )

    def _handle_insert(
        self, client: ClientState, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        table = request.get("table")
        if not isinstance(table, str):
            raise ProtocolError("table must be a string")
        row = request.get("row")
        if not isinstance(row, list):
            raise ProtocolError("row must be a list")
        self.db.catalog.relation(table)  # raise not_found early
        client.session.insert(table, tuple(row))
        return ok_response(
            buffered=client.session.pending_ops, epoch=client.epoch
        )

    def _handle_commit(self, client: ClientState) -> Dict[str, Any]:
        return ok_response(epoch=client.session.commit())

    def _handle_refresh(self, client: ClientState) -> Dict[str, Any]:
        return ok_response(epoch=client.session.refresh())

    # -- stats and the SERVER trace section ------------------------------

    def stats_snapshot(self) -> Dict[str, Dict[str, int]]:
        """The ``/stats`` payload: one section per subsystem."""
        sections: Dict[str, Dict[str, int]] = {
            "server": {
                **self.stats,
                **self.admission.counters(),
                **self.batcher.counters(),
            }
        }
        if self.overload is not None:
            sections["breaker"] = self.overload.counters()
        # The statement cache's hits, misses and entries sit beside
        # the planner.* tallies; no query trace counts them.
        tallies = {
            **getattr(self.db, "planner_stats", {}),
            **self.db.catalog.statements.counters(),
        }
        planner = {key: value for key, value in tallies.items() if value}
        if planner:
            sections["planner"] = planner
        sections["snapshots"] = dict(self.db.snapshots.counters())
        sections["leaks"] = dict(self.db.snapshots.leak_stats())
        return sections

    def trace_section(self) -> QueryTrace:
        """The ``SERVER`` span tree for EXPLAIN-style rendering: the
        service counters on the root, one compact ``client[...]`` leaf
        per remembered client."""
        trace = QueryTrace("SERVER")
        root = trace.root
        for section in self.stats_snapshot().values():
            root.add_counters({k: v for k, v in section.items()})
        for name, tallies in self._client_stats.items():
            leaf = root.child(f"client[{name}]")
            leaf.add_counters(dict(tallies))
        return trace
