"""The wire protocol: newline-delimited JSON request/response frames.

One request per line, one response per line, UTF-8 JSON objects.  A
request names an ``op`` plus its operands; a response is exactly one of
three shapes, discriminated by two keys:

* ``{"ok": true, ...}`` — success, op-specific payload fields;
* ``{"ok": false, "rejected": {"reason", "message", "retry_after"}}``
  — a typed admission rejection (``quota`` / ``overload`` /
  ``timeout``): the server is load-shedding, the request was *not*
  executed, and the client may retry after ``retry_after`` seconds;
* ``{"ok": false, "error": {"type", "message"}}`` — a terminal error
  (malformed request, unknown table, internal failure); retrying the
  same frame will fail the same way.

Requests may carry a client-chosen ``id``; the response echoes it, so
clients can pipeline many requests on one connection and match answers
out of order.  Query ops may also carry ``deadline_ms``, a per-request
budget: a request that cannot finish inside it answers a typed
``deadline`` rejection instead of burning server time.  Ops:

======== ==========================================================
``ping``   liveness; answers ``{"ok": true, "pong": true, "epoch": E}``
``range``  ``table``, ``cols``, ``box`` ([[lo, hi], ...] per axis)
``point``  ``table``, ``cols``, ``point`` ([x, y, ...]) — a degenerate
           one-cell range, coalesced into the same batches
``insert`` ``table``, ``row`` — buffered in the connection's session
``commit`` apply the session's buffered writes as one group commit
``refresh`` re-pin the connection's snapshot at the newest epoch
``sql``    ``query`` — one SQL statement; EXPLAIN [ANALYZE] answers
           with the plan/trace text, a SELECT with columns and rows
``stats``  the server's counter sections (admission, batching, planner, snapshots)
======== ==========================================================
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.geometry import Box

__all__ = [
    "MAX_FRAME",
    "OPS",
    "FrameError",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "parse_box",
    "parse_deadline",
    "parse_point",
    "rejection_response",
    "validate_request",
]

#: Hard cap on one frame's encoded size — a malformed or hostile client
#: must not balloon server memory with an unbounded line.
MAX_FRAME = 4 * 1024 * 1024

OPS = frozenset(
    {"ping", "range", "point", "insert", "commit", "refresh", "sql", "stats"}
)


class ProtocolError(ValueError):
    """A frame that cannot be parsed into a valid request."""


class FrameError(ProtocolError):
    """An *envelope*-level failure: undecodable JSON, an oversized
    frame, a non-object payload, an unknown op, a malformed id.

    These answer with a typed ``protocol_error`` (the frame never named
    a meaningful operation), as opposed to plain :class:`ProtocolError`
    operand failures, which answer ``bad_request`` — a known op with
    bad arguments.  Neither ever drops the connection.
    """


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One JSON object as a newline-terminated frame."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one frame into a dict (the raw request/response object)."""
    if len(line) > MAX_FRAME:
        raise FrameError(f"frame exceeds {MAX_FRAME} bytes")
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise FrameError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameError("frame must be a JSON object")
    return obj


def validate_request(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Check the envelope: a known ``op`` and a well-formed ``id``."""
    op = obj.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise FrameError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}"
        )
    request_id = obj.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise FrameError("id must be a string or integer")
    return obj


def parse_deadline(request: Dict[str, Any]) -> Optional[float]:
    """The optional per-request budget: ``deadline_ms`` (a positive
    number of milliseconds) as seconds, or ``None`` when absent."""
    spec = request.get("deadline_ms")
    if spec is None:
        return None
    if isinstance(spec, bool) or not isinstance(spec, (int, float)):
        raise ProtocolError("deadline_ms must be a positive number")
    seconds = float(spec) / 1000.0
    # ``seconds > 0``, not ``spec > 0``: a denormal underflows to 0.0.
    if not seconds > 0 or spec == float("inf"):
        raise ProtocolError("deadline_ms must be a positive finite number")
    return seconds


def parse_box(spec: Any, ndims: int) -> Box:
    """``[[lo, hi], ...]`` (one pair per axis) as a :class:`Box`."""
    if not isinstance(spec, Sequence) or isinstance(spec, (str, bytes)):
        raise ProtocolError("box must be a list of [lo, hi] pairs")
    if len(spec) != ndims:
        raise ProtocolError(f"box needs {ndims} axis ranges, got {len(spec)}")
    ranges = []
    for axis, pair in enumerate(spec):
        if (
            not isinstance(pair, Sequence)
            or isinstance(pair, (str, bytes))
            or len(pair) != 2
        ):
            raise ProtocolError(f"axis {axis}: expected [lo, hi]")
        lo, hi = pair
        if not isinstance(lo, int) or not isinstance(hi, int) or (
            isinstance(lo, bool) or isinstance(hi, bool)
        ):
            raise ProtocolError(f"axis {axis}: bounds must be integers")
        if lo > hi:
            raise ProtocolError(f"axis {axis}: lo {lo} > hi {hi}")
        ranges.append((lo, hi))
    return Box(tuple(ranges))


def parse_point(spec: Any, ndims: int) -> Tuple[int, ...]:
    """``[x, y, ...]`` as a coordinate tuple."""
    if not isinstance(spec, Sequence) or isinstance(spec, (str, bytes)):
        raise ProtocolError("point must be a list of integer coordinates")
    if len(spec) != ndims:
        raise ProtocolError(
            f"point needs {ndims} coordinates, got {len(spec)}"
        )
    for axis, value in enumerate(spec):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(f"axis {axis}: coordinate must be an integer")
    return tuple(spec)


def ok_response(**fields: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": True}
    out.update(fields)
    return out


def rejection_response(
    reason: str, message: str, retry_after: float = 0.0
) -> Dict[str, Any]:
    """A typed load-shed answer: not executed, retryable after a delay."""
    return {
        "ok": False,
        "rejected": {
            "reason": reason,
            "message": message,
            "retry_after": round(float(retry_after), 4),
        },
    }


def error_response(
    error_type: str, message: str, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "ok": False,
        "error": {"type": error_type, "message": message},
    }
    if request_id is not None:
        out["id"] = request_id
    return out
