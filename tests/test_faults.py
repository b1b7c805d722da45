"""Unit tests for the failpoint framework (:mod:`repro.faults`).

The crash matrix and the scatter-fault tests build on these primitives, so the
primitives themselves get direct coverage: site registry, rule
matching (`at` / `times` / `where` / `probability`), each fault kind's
write/read semantics, and determinism under a fixed seed.
"""

import pytest

from repro.faults import (
    CrashPoint,
    FaultError,
    FaultInjector,
    register_site,
    registered_sites,
    site_kind,
)

# The storage modules register their sites at import time; the
# registry tests assert against them.
import repro.storage.buffer  # noqa: F401
import repro.storage.diskstore  # noqa: F401


class TestRegistry:
    def test_instrumented_modules_register_their_sites(self):
        sites = registered_sites()
        for expected in (
            "wal.append",
            "wal.commit",
            "wal.checkpoint",
            "diskstore.page_write",
            "diskstore.page_read",
            "diskstore.header_write",
            "diskstore.free_write",
            "buffer.writeback",
        ):
            assert expected in sites

    def test_register_is_idempotent(self):
        assert register_site("wal.append", "write") == "wal.append"

    def test_conflicting_kind_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_site("wal.append", "point")

    def test_unknown_site_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown site kind"):
            register_site("bogus.site", "sideways")

    def test_kind_filter(self):
        assert "diskstore.page_read" in registered_sites("read")
        assert "diskstore.page_read" not in registered_sites("write")
        assert site_kind("wal.commit") == "point"


class TestRuleMatching:
    def test_fires_on_nth_hit_once(self):
        inj = FaultInjector()
        inj.rule("p.site", "error", at=3)
        inj.hit("p.site")
        inj.hit("p.site")
        with pytest.raises(FaultError):
            inj.hit("p.site")
        inj.hit("p.site")  # times=1: spent
        assert inj.hits("p.site") == 4
        assert len(inj.fired) == 1
        assert inj.fired[0].site == "p.site"
        assert inj.fired[0].hit == 3

    def test_times_bounds_firings(self):
        inj = FaultInjector()
        inj.rule("p.site", "error", at=1, times=2)
        for _ in range(2):
            with pytest.raises(FaultError):
                inj.hit("p.site")
        inj.hit("p.site")
        assert len(inj.fired) == 2

    def test_times_forever(self):
        inj = FaultInjector()
        inj.rule("p.site", "error", times=-1)
        for _ in range(5):
            with pytest.raises(FaultError):
                inj.hit("p.site")

    def test_where_filters_context(self):
        inj = FaultInjector()
        inj.rule("p.site", "error", where={"shard": 2})
        inj.hit("p.site", shard=0)
        inj.hit("p.site", shard=1)
        with pytest.raises(FaultError):
            inj.hit("p.site", shard=2)

    def test_where_counts_at_against_matching_hits_only(self):
        inj = FaultInjector()
        inj.rule("p.site", "error", at=2, where={"shard": 1})
        inj.hit("p.site", shard=1)
        inj.hit("p.site", shard=0)  # does not advance the rule
        inj.hit("p.site", shard=0)
        with pytest.raises(FaultError):
            inj.hit("p.site", shard=1)

    def test_probability_zero_never_fires(self):
        inj = FaultInjector(seed=11)
        inj.rule("p.site", "error", times=-1, probability=0.0)
        for _ in range(20):
            inj.hit("p.site")
        assert inj.fired == []

    def test_crash_is_not_an_exception(self):
        inj = FaultInjector()
        inj.rule("p.site", "crash")
        with pytest.raises(CrashPoint):
            try:
                inj.hit("p.site")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("CrashPoint must not be catchable as Exception")

    def test_clear(self):
        inj = FaultInjector()
        inj.rule("a", "error")
        inj.rule("b", "error")
        inj.clear("a")
        inj.hit("a")
        assert len(inj.rules()) == 1
        inj.clear()
        inj.hit("b")
        assert inj.rules() == []


class TestWriteSemantics:
    def _sink(self):
        written = []
        return written, written.append

    def test_no_rule_passes_through(self):
        inj = FaultInjector()
        written, sink = self._sink()
        inj.do_write("w.site", sink, b"abcdef")
        assert written == [b"abcdef"]

    def test_error_fires_before_the_write(self):
        inj = FaultInjector()
        inj.rule("w.site", "error")
        written, sink = self._sink()
        with pytest.raises(FaultError):
            inj.do_write("w.site", sink, b"abcdef")
        assert written == []

    def test_torn_write_leaves_a_proper_prefix(self):
        inj = FaultInjector(seed=3)
        inj.rule("w.site", "torn_write")
        written, sink = self._sink()
        data = bytes(range(64))
        with pytest.raises(CrashPoint):
            inj.do_write("w.site", sink, data)
        assert len(written) == 1
        assert 1 <= len(written[0]) < len(data)
        assert data.startswith(written[0])

    def test_bit_flip_changes_exactly_one_bit(self):
        inj = FaultInjector(seed=5)
        inj.rule("w.site", "bit_flip")
        written, sink = self._sink()
        data = bytes(64)
        inj.do_write("w.site", sink, data)
        diff = [a ^ b for a, b in zip(written[0], data)]
        changed = [d for d in diff if d]
        assert len(changed) == 1
        assert bin(changed[0]).count("1") == 1

    def test_short_read_is_a_write_kind_error(self):
        inj = FaultInjector()
        inj.rule("w.site", "short_read")
        with pytest.raises(ValueError, match="not valid at write site"):
            inj.do_write("w.site", lambda b: None, b"xy")


class TestReadSemantics:
    def test_no_rule_passes_through(self):
        inj = FaultInjector()
        assert inj.filter_read("r.site", b"abc") == b"abc"

    def test_short_read_truncates(self):
        inj = FaultInjector(seed=9)
        inj.rule("r.site", "short_read")
        data = bytes(range(32))
        out = inj.filter_read("r.site", data)
        assert len(out) < len(data)
        assert data.startswith(out)

    def test_bit_flip_mutates(self):
        inj = FaultInjector(seed=9)
        inj.rule("r.site", "bit_flip")
        data = bytes(32)
        out = inj.filter_read("r.site", data)
        assert out != data and len(out) == len(data)

    def test_error_raises(self):
        inj = FaultInjector()
        inj.rule("r.site", "error")
        with pytest.raises(FaultError):
            inj.filter_read("r.site", b"abc")


class TestDeterminism:
    def test_same_seed_same_tear(self):
        tears = []
        for _ in range(2):
            inj = FaultInjector(seed=42)
            inj.rule("w.site", "torn_write")
            written = []
            with pytest.raises(CrashPoint):
                inj.do_write("w.site", written.append, bytes(range(200)))
            tears.append(written[0])
        assert tears[0] == tears[1]

    def test_different_seed_different_stream(self):
        outs = []
        for seed in (1, 2):
            inj = FaultInjector(seed=seed)
            inj.rule("r.site", "short_read", times=-1)
            outs.append(
                tuple(
                    len(inj.filter_read("r.site", bytes(100)))
                    for _ in range(8)
                )
            )
        assert outs[0] != outs[1]

