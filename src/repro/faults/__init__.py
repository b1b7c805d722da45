"""Failpoint injection: deterministic, seedable fault sites threaded
through the storage and serving layers.

See :mod:`repro.faults.failpoints` for the model; the crash-matrix
harness (``tests/test_crash_matrix.py``) and the serve chaos harness
(:mod:`repro.server.chaos`) are the two main consumers.
"""

from repro.faults.failpoints import (
    KINDS,
    POINT_KINDS,
    READ_KINDS,
    WRITE_KINDS,
    CrashPoint,
    FaultError,
    FaultInjector,
    FaultRule,
    FiredEvent,
    parse_rule,
    register_site,
    registered_sites,
    site_kind,
)

__all__ = [
    "KINDS",
    "POINT_KINDS",
    "READ_KINDS",
    "WRITE_KINDS",
    "CrashPoint",
    "FaultError",
    "FaultInjector",
    "FaultRule",
    "FiredEvent",
    "parse_rule",
    "register_site",
    "registered_sites",
    "site_kind",
]
