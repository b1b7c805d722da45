"""Protocol hardening: every malformed frame gets a typed answer and
the connection survives — byte soup, truncated JSON, non-object
payloads, oversized frames, unknown ops — plus the fault-site registry
checks (`FaultInjector.verify`) that make an unregistered injection a
loud CI failure instead of a silent no-op.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.geometry import Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.faults import FaultInjector, registered_sites, site_kind
from repro.server import QueryService, serve
from repro.server.protocol import (
    MAX_FRAME,
    FrameError,
    ProtocolError,
    decode_frame,
    encode_frame,
    parse_deadline,
    validate_request,
)

GRID = Grid(ndims=2, depth=6)


def _build_db(npoints=150):
    from repro.workloads.datasets import make_dataset

    db = SpatialDatabase(GRID, page_capacity=16)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    points = make_dataset("C", GRID, npoints, seed=0).points
    db.insert_many(
        "points", [(f"p{i}", x, y) for i, (x, y) in enumerate(points)]
    )
    db.create_index("points_xy", "points", ("x", "y"))
    return db


# ----------------------------------------------------------------------
# Frame-level taxonomy (unit)
# ----------------------------------------------------------------------


def test_envelope_failures_are_frame_errors():
    for line in (
        b"\x00\xffgarbage",
        b"{not json",
        b'"just a string"',
        b"[1, 2, 3]",
        b"42",
        b"null",
    ):
        with pytest.raises(FrameError):
            decode_frame(line)
    with pytest.raises(FrameError):
        decode_frame(b"x" * (MAX_FRAME + 1))
    with pytest.raises(FrameError):
        validate_request({"op": "no_such_op"})
    with pytest.raises(FrameError):
        validate_request({"op": "ping", "id": [1, 2]})
    # Well-formed envelopes pass through unchanged.
    assert validate_request({"op": "ping", "id": 3})["id"] == 3
    assert decode_frame(encode_frame({"op": "ping"})) == {"op": "ping"}


def test_operand_failures_stay_plain_protocol_errors():
    """A known op with bad operands is `bad_request`, not an envelope
    failure — the split decides the wire error type."""
    bad = parse_deadline  # operand-level parser
    for spec in (True, "soon", -1, 0, float("nan"), float("inf")):
        with pytest.raises(ProtocolError) as excinfo:
            bad({"deadline_ms": spec})
        assert not isinstance(excinfo.value, FrameError)
    assert parse_deadline({}) is None
    assert parse_deadline({"deadline_ms": 250}) == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Over the wire: the connection survives every hostile frame
# ----------------------------------------------------------------------


def test_hostile_frames_answered_typed_connection_survives():
    async def run():
        db = _build_db()
        service = QueryService(db)
        server = await serve(service)
        try:
            reader, writer = await asyncio.open_connection(
                *server.address, limit=MAX_FRAME
            )
            try:

                async def exchange(raw: bytes):
                    writer.write(raw)
                    await writer.drain()
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=5.0
                    )
                    return json.loads(line)

                # Byte soup, truncated JSON, non-object: all answered.
                for raw in (
                    b"\x00\xff not json\n",
                    b'{"op": "range"\n',
                    b"[1, 2, 3]\n",
                ):
                    response = await exchange(raw)
                    assert response["ok"] is False
                    assert response["error"]["type"] == "protocol_error"
                # An unknown op names no operation: protocol_error, and
                # the id still echoes so pipelined clients can match it.
                response = await exchange(
                    b'{"op": "explode", "id": 11}\n'
                )
                assert response["error"]["type"] == "protocol_error"
                assert response["id"] == 11
                # An oversized frame is answered once and discarded;
                # the same connection keeps serving.
                response = await exchange(
                    b"x" * (MAX_FRAME + 64) + b"\n"
                )
                assert response["error"]["type"] == "protocol_error"
                assert "exceeds" in response["error"]["message"]
                # The very next frame on the connection works.
                response = await exchange(b'{"op": "ping", "id": 5}\n')
                assert response["ok"] is True
                assert response["id"] == 5
                assert service.stats["server.errors"] >= 5
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            await server.close()

    asyncio.run(run())


# ----------------------------------------------------------------------
# Fault-site registry enforcement
# ----------------------------------------------------------------------


def test_server_sites_are_registered():
    sites = registered_sites()
    for name, kind in (
        ("server.frame_read", "read"),
        ("server.frame_write", "write"),
        ("server.dispatch", "point"),
    ):
        assert name in sites
        assert site_kind(name) == kind


def test_verify_rejects_unregistered_site():
    injector = FaultInjector(seed=1)
    injector.rule("server.frame_reed", "error")  # typo'd site
    with pytest.raises(ValueError) as excinfo:
        injector.verify()
    message = str(excinfo.value)
    assert "server.frame_reed" in message
    assert "unregistered" in message


def test_verify_rejects_illegal_kind_for_site_class():
    injector = FaultInjector(seed=1)
    injector.rule("server.dispatch", "torn_write")  # point site
    injector.rule("server.frame_read", "torn_write")  # read site
    with pytest.raises(ValueError) as excinfo:
        injector.verify()
    message = str(excinfo.value)
    assert message.count("illegal") == 2
    assert "point site" in message
    assert "read site" in message


def test_verify_accepts_legal_schedule():
    injector = FaultInjector(seed=1)
    injector.rule("server.frame_read", "short_read")
    injector.rule("server.frame_write", "torn_write")
    injector.rule("server.dispatch", "error", times=-1)
    injector.verify()  # no raise
