"""The async client: pipelined frames, typed rejections, policy retry.

:class:`QueryClient` speaks the JSON-line protocol over one connection.
Every request carries a fresh ``id``; a background reader task matches
responses to waiting futures, so many requests can be in flight at once
(that pipelining is what fills the server's batches).

Load-shed answers surface as :class:`ServerRejected` carrying the typed
reason — unless retry is on (the default), in which case the client
sleeps ``retry_after`` (or the policy backoff) and resubmits, up to
``policy.max_retries`` attempts.  The retry/timeout knobs are the same
:class:`~repro.core.deadline.ResiliencePolicy` the server's admission
layer uses.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.deadline import ResiliencePolicy
from repro.server.protocol import MAX_FRAME, decode_frame, encode_frame

__all__ = ["QueryClient", "ServerError", "ServerRejected"]

#: Client-side default: a few retries, generous request timeout.
DEFAULT_POLICY = ResiliencePolicy(
    max_retries=4, backoff_base=0.05, backoff_factor=2.0, timeout=30.0
)


class ServerError(RuntimeError):
    """A terminal error response (bad request, unknown table, bug)."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


class ServerRejected(RuntimeError):
    """A typed load-shed rejection that exhausted the retry budget."""

    def __init__(
        self, reason: str, message: str, retry_after: float
    ) -> None:
        super().__init__(f"{reason}: {message}")
        self.reason = reason
        self.retry_after = retry_after


class QueryClient:
    """One pipelined connection to a :class:`~repro.server.tcp.
    QueryServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.policy = policy or DEFAULT_POLICY
        self._ids = itertools.count(1)
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        policy: Optional[ResiliencePolicy] = None,
    ) -> "QueryClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME
        )
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError:
                pass
        return cls(reader, writer, policy)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass
        self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "QueryClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    def kill(self) -> None:
        """Abort the transport without saying goodbye (tests use this
        to simulate a crashed client)."""
        self._closed = True
        self._reader_task.cancel()
        transport = self._writer.transport
        if transport is not None:
            transport.abort()
        self._fail_pending(ConnectionError("connection killed"))

    # -- plumbing --------------------------------------------------------

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = decode_frame(line)
                request_id = response.get("id")
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_pending(
                ConnectionError(f"read loop failed: {exc}")
            )
            return
        self._fail_pending(ConnectionError("server closed the connection"))

    async def _roundtrip(
        self, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = next(self._ids)
        payload = dict(payload, id=request_id)
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[request_id] = future
        self._writer.write(encode_frame(payload))
        await self._writer.drain()
        timeout = self.policy.timeout
        try:
            return await asyncio.wait_for(future, timeout=timeout)
        finally:
            self._pending.pop(request_id, None)

    async def request(
        self, payload: Dict[str, Any], retry: bool = True
    ) -> Dict[str, Any]:
        """Send one request; returns the ``ok`` response dict.

        Typed rejections retry per the policy (honouring the server's
        ``retry_after`` hint) when ``retry`` is true; terminal errors
        raise :class:`ServerError` immediately.
        """
        attempts = self.policy.max_retries if retry else 0
        for attempt in range(attempts + 1):
            response = await self._roundtrip(payload)
            if response.get("ok"):
                return response
            rejected = response.get("rejected")
            if rejected is None:
                error = response.get("error", {})
                raise ServerError(
                    str(error.get("type", "unknown")),
                    str(error.get("message", response)),
                )
            if attempt >= attempts:
                raise ServerRejected(
                    str(rejected.get("reason", "rejected")),
                    str(rejected.get("message", "")),
                    float(rejected.get("retry_after", 0.0)),
                )
            delay = float(rejected.get("retry_after", 0.0)) or (
                self.policy.backoff(attempt)
            )
            await asyncio.sleep(delay)
        raise AssertionError("unreachable")

    # -- ops -------------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        return await self.request({"op": "ping"})

    async def stats(self) -> Dict[str, Dict[str, int]]:
        return (await self.request({"op": "stats"}))["stats"]

    async def range_query(
        self,
        table: str,
        cols: Sequence[str],
        box: Sequence[Sequence[int]],
        retry: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> List[Tuple[Any, ...]]:
        payload: Dict[str, Any] = {
            "op": "range",
            "table": table,
            "cols": list(cols),
            "box": [list(pair) for pair in box],
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        response = await self.request(payload, retry=retry)
        return [tuple(row) for row in response["rows"]]

    async def point_query(
        self,
        table: str,
        cols: Sequence[str],
        point: Sequence[int],
        retry: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> List[Tuple[Any, ...]]:
        payload: Dict[str, Any] = {
            "op": "point",
            "table": table,
            "cols": list(cols),
            "point": list(point),
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        response = await self.request(payload, retry=retry)
        return [tuple(row) for row in response["rows"]]

    async def insert(
        self, table: str, row: Sequence[Any]
    ) -> Dict[str, Any]:
        return await self.request(
            {"op": "insert", "table": table, "row": list(row)}
        )

    async def sql(
        self,
        query: str,
        retry: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One SQL statement; the response is mode-discriminated:
        ``mode="rows"`` carries ``columns``/``rows``/``count``,
        ``mode="explain"``/``"analyze"`` carry ``text``."""
        payload: Dict[str, Any] = {"op": "sql", "query": query}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return await self.request(payload, retry=retry)

    async def commit(self) -> Optional[int]:
        return (await self.request({"op": "commit"}))["epoch"]

    async def refresh(self) -> int:
        return (await self.request({"op": "refresh"}))["epoch"]
