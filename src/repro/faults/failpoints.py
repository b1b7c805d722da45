"""Deterministic failpoint injection.

A real DBMS is judged by what happens when the disk lies, a write is
torn mid-page, or the process dies — not by its sunny-day path.
This module provides the *controlled weather*: named **failpoint
sites** threaded through the storage and serving layers, and a
seedable :class:`FaultInjector` that arms **rules** at those sites
(fail the Nth write, tear a write in half, shorten a read, flip a bit,
crash the process, add latency).  The crash-matrix harness iterates
every registered site and every hit index, so "we survive a crash at
any point of the write path" is a *swept property*, not a hope — the
failpoint-driven chaos recipe of the LevelDB/SQLite crash-test suites.

Design constraints (mirroring :mod:`repro.obs.trace`):

* **near-zero cost when disabled** — instrumented code keeps the
  injector in a local (``faults = self._faults``) and does nothing when
  it is ``None``; the armed path pays one dict lookup per site hit;
* **deterministic** — torn lengths, flipped bits, and probabilistic
  firing draw from a ``seed``-keyed stream *per site*, so a failing
  scenario replays exactly.

Fault kinds
-----------
``error``
    raise :class:`FaultError` (an ``IOError``) at the site.
``crash``
    raise :class:`CrashPoint` — a ``BaseException`` standing in for
    ``kill -9``; ordinary ``except Exception`` handlers cannot swallow
    it, so it unwinds like a real process death.
``torn_write``
    write a seeded prefix of the buffer, then raise ``CrashPoint`` —
    a crash mid-page-write.
``short_read``
    return a seeded prefix of the read buffer.
``bit_flip``
    flip one seeded bit (write side: before the bytes hit the file —
    silent media corruption; read side: after).
``latency``
    sleep ``delay`` seconds, then proceed normally.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "FaultError",
    "CrashPoint",
    "FaultRule",
    "FaultInjector",
    "FiredEvent",
    "register_site",
    "registered_sites",
    "site_kind",
    "parse_rule",
    "KINDS",
    "WRITE_KINDS",
    "READ_KINDS",
    "POINT_KINDS",
]


class FaultError(IOError):
    """An injected I/O failure (retryable, catchable)."""


class CrashPoint(BaseException):
    """A simulated ``kill -9`` at a failpoint.

    Subclasses ``BaseException`` so no ``except Exception`` recovery
    path can accidentally absorb it — after a ``CrashPoint`` the store
    object must be abandoned and reopened from disk, exactly as after
    a real crash.
    """


KINDS = (
    "error",
    "crash",
    "torn_write",
    "short_read",
    "bit_flip",
    "latency",
)
#: Kinds legal at a write site / read site / plain (point) site.
WRITE_KINDS = ("error", "crash", "torn_write", "bit_flip", "latency")
READ_KINDS = ("error", "crash", "short_read", "bit_flip", "latency")
POINT_KINDS = ("error", "crash", "latency")

#: site name -> "write" | "read" | "point"; the crash-matrix harness
#: iterates this registry, so registering a site *is* opting it into
#: the sweep.
_SITES: Dict[str, str] = {}


def register_site(name: str, kind: str) -> str:
    """Register a failpoint site (idempotent); returns ``name`` so the
    instrumented module can bind it to a constant."""
    if kind not in ("write", "read", "point"):
        raise ValueError(f"unknown site kind {kind!r}")
    existing = _SITES.get(name)
    if existing is not None and existing != kind:
        raise ValueError(
            f"site {name!r} already registered as {existing!r}"
        )
    _SITES[name] = kind
    return name


def registered_sites(kind: Optional[str] = None) -> List[str]:
    """All registered site names (optionally of one kind), sorted."""
    return sorted(
        name
        for name, skind in _SITES.items()
        if kind is None or skind == kind
    )


def site_kind(name: str) -> str:
    return _SITES[name]


@dataclass
class FaultRule:
    """One armed fault: fire ``kind`` at ``site`` on the ``at``-th hit
    (1-based), for ``times`` firings (``-1`` = forever), when ``where``
    is a subset of the hit's context."""

    site: str
    kind: str
    at: int = 1
    times: int = 1
    where: Optional[Dict[str, Any]] = None
    delay: float = 0.0
    probability: float = 1.0
    fired: int = field(default=0, compare=False)
    #: hits seen by *this rule* (post ``where`` filter).
    seen: int = field(default=0, compare=False)

    def exhausted(self) -> bool:
        return self.times >= 0 and self.fired >= self.times


@dataclass(frozen=True)
class FiredEvent:
    """One injection that actually happened (for assertions and the
    CLI's post-run fault summary)."""

    site: str
    kind: str
    hit: int
    context: Tuple[Tuple[str, Any], ...] = ()


class FaultInjector:
    """A seedable registry of :class:`FaultRule` with the site-side
    helpers the instrumented code calls.

    >>> inj = FaultInjector(seed=7)
    >>> _ = inj.rule("demo.point", "error", at=2)
    >>> register_site("demo.point", "point")
    'demo.point'
    >>> inj.hit("demo.point")           # first hit: armed but at=2
    >>> try:
    ...     inj.hit("demo.point")       # second hit fires
    ... except FaultError as e:
    ...     print("fired")
    fired
    >>> inj.hit("demo.point")           # times=1: rule is spent
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: Dict[str, List[FaultRule]] = {}
        self._hits: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self.fired: List[FiredEvent] = []

    # -- arming --------------------------------------------------------

    def rule(
        self,
        site: str,
        kind: str,
        at: int = 1,
        times: int = 1,
        where: Optional[Dict[str, Any]] = None,
        delay: float = 0.0,
        probability: float = 1.0,
    ) -> FaultRule:
        """Arm one fault rule; site legality is checked lazily at hit
        time (sites register at import of the instrumented module)."""
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        if at < 1:
            raise ValueError("at is 1-based")
        rule = FaultRule(site, kind, at, times, where, delay, probability)
        self._rules.setdefault(site, []).append(rule)
        return rule

    def verify(self) -> None:
        """Check every armed rule against the site registry: the site
        must be registered (i.e. some instrumented module actually
        traverses it) and the kind must be legal for the site's class
        (``torn_write`` at a read site can never fire and is a spec
        bug, not a no-op).  Raises ``ValueError`` listing *all*
        problems; CI calls this so an injected-but-unregistered site
        fails loudly instead of silently testing nothing.

        Call after importing the instrumented modules — sites register
        at import time.
        """
        legal = {
            "write": WRITE_KINDS,
            "read": READ_KINDS,
            "point": POINT_KINDS,
        }
        problems: List[str] = []
        for rule in self.rules():
            skind = _SITES.get(rule.site)
            if skind is None:
                known = ", ".join(registered_sites()) or "<none>"
                problems.append(
                    f"rule {rule.site}:{rule.kind} targets an "
                    f"unregistered site (registered: {known})"
                )
            elif rule.kind not in legal[skind]:
                problems.append(
                    f"rule {rule.site}:{rule.kind} is illegal at a "
                    f"{skind} site (legal kinds: "
                    f"{', '.join(legal[skind])})"
                )
        if problems:
            raise ValueError(
                "fault injection spec errors:\n  "
                + "\n  ".join(problems)
            )

    def clear(self, site: Optional[str] = None) -> None:
        if site is None:
            self._rules.clear()
        else:
            self._rules.pop(site, None)

    def rules(self) -> List[FaultRule]:
        return [r for rules in self._rules.values() for r in rules]

    # -- observation ---------------------------------------------------

    def hits(self, site: str) -> int:
        """How many times ``site`` was traversed (fired or not) — the
        dry-run counts the crash matrix sweeps over."""
        return self._hits.get(site, 0)

    def hit_counts(self) -> Dict[str, int]:
        return dict(self._hits)

    # -- internals -----------------------------------------------------

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = random.Random(self.seed ^ zlib.crc32(site.encode()))
            self._rngs[site] = rng
        return rng

    def _match(
        self, site: str, ctx: Dict[str, Any]
    ) -> Optional[FaultRule]:
        """Record the hit; return the rule that fires now, if any."""
        count = self._hits.get(site, 0) + 1
        self._hits[site] = count
        rules = self._rules.get(site)
        if not rules:
            return None
        for rule in rules:
            if rule.exhausted():
                continue
            if rule.where is not None and any(
                ctx.get(k) != v for k, v in rule.where.items()
            ):
                continue
            rule.seen += 1
            if rule.seen < rule.at:
                continue
            if rule.probability < 1.0 and (
                self._rng(site).random() >= rule.probability
            ):
                continue
            rule.fired += 1
            self.fired.append(
                FiredEvent(site, rule.kind, count, tuple(sorted(ctx.items())))
            )
            return rule
        return None

    def _raise(self, rule: FaultRule, site: str) -> None:
        if rule.kind == "error":
            raise FaultError(f"injected fault at {site}")
        raise CrashPoint(f"injected crash at {site}")

    # -- site-side API -------------------------------------------------

    def hit(self, site: str, **ctx: Any) -> None:
        """A plain (point) failpoint: may raise or sleep."""
        rule = self._match(site, ctx)
        if rule is None:
            return
        if rule.kind == "latency":
            time.sleep(rule.delay)
            return
        if rule.kind not in POINT_KINDS:
            raise ValueError(
                f"fault kind {rule.kind!r} is not valid at point site "
                f"{site!r}"
            )
        self._raise(rule, site)

    def do_write(
        self,
        site: str,
        write: Callable[[bytes], Any],
        data: bytes,
        **ctx: Any,
    ) -> None:
        """A write failpoint: perform ``write(data)`` under the armed
        rule's fault semantics (see module docstring)."""
        rule = self._match(site, ctx)
        if rule is None:
            write(data)
            return
        if rule.kind == "latency":
            time.sleep(rule.delay)
            write(data)
            return
        if rule.kind == "error":
            raise FaultError(f"injected write failure at {site}")
        if rule.kind == "crash":
            raise CrashPoint(f"injected crash before write at {site}")
        if rule.kind == "torn_write":
            keep = self._rng(site).randrange(1, max(len(data), 2))
            write(data[:keep])
            raise CrashPoint(
                f"injected torn write at {site} "
                f"({keep}/{len(data)} bytes hit the file)"
            )
        if rule.kind == "bit_flip":
            write(self._flip_bit(site, data))
            return
        raise ValueError(
            f"fault kind {rule.kind!r} is not valid at write site {site!r}"
        )

    def filter_read(self, site: str, data: bytes, **ctx: Any) -> bytes:
        """A read failpoint: mutate or reject the bytes just read."""
        rule = self._match(site, ctx)
        if rule is None:
            return data
        if rule.kind == "latency":
            time.sleep(rule.delay)
            return data
        if rule.kind == "error":
            raise FaultError(f"injected read failure at {site}")
        if rule.kind == "crash":
            raise CrashPoint(f"injected crash during read at {site}")
        if rule.kind == "short_read":
            if not data:
                return data
            return data[: self._rng(site).randrange(0, len(data))]
        if rule.kind == "bit_flip":
            return self._flip_bit(site, data)
        raise ValueError(
            f"fault kind {rule.kind!r} is not valid at read site {site!r}"
        )

    def _flip_bit(self, site: str, data: bytes) -> bytes:
        if not data:
            return data
        rng = self._rng(site)
        index = rng.randrange(len(data))
        mutated = bytearray(data)
        mutated[index] ^= 1 << rng.randrange(8)
        return bytes(mutated)

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, rules={len(self.rules())}, "
            f"fired={len(self.fired)})"
        )


def parse_rule(spec: str) -> Dict[str, Any]:
    """Parse a rule spec: ``site:kind[:at[:times]]`` (``times`` may be
    ``-1`` for "every hit"; an empty segment keeps the default), e.g.
    ``wal.commit:crash``, ``diskstore.page_write:torn_write:3``,
    ``diskstore.page_read:error::-1``.

    Returns keyword arguments for :meth:`FaultInjector.rule`.
    """
    parts = spec.split(":")
    if len(parts) < 2 or len(parts) > 4 or not parts[0] or not parts[1]:
        raise ValueError(
            f"bad inject spec {spec!r}; expected site:kind[:at[:times]]"
        )
    out: Dict[str, Any] = {"site": parts[0], "kind": parts[1]}
    if out["kind"] not in KINDS:
        raise ValueError(
            f"bad inject spec {spec!r}: unknown kind {out['kind']!r} "
            f"(expected one of {', '.join(KINDS)})"
        )
    if len(parts) >= 3 and parts[2]:
        out["at"] = int(parts[2])
    if len(parts) == 4 and parts[3]:
        out["times"] = int(parts[3])
    return out
