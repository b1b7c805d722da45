"""Unit tests for :mod:`repro.shard.partition`.

The satellite contract up front: a z value equal to a cut point must
route to exactly one shard, and the degenerate configurations (one
shard, shards that own no data, heavily skewed samples) must behave.
"""

import random

import pytest

from repro.core.geometry import Grid
from repro.shard.partition import ZRangePartitioner


# ----------------------------------------------------------------------
# Routing and the cut-point edge case
# ----------------------------------------------------------------------


def test_route_cut_point_goes_to_exactly_one_shard():
    part = ZRangePartitioner(4, (4, 8))
    # A z equal to a cut belongs to the shard *starting* there.
    assert part.route(4) == 1
    assert part.route(8) == 2
    # And the pixel just below still belongs to the previous shard.
    assert part.route(3) == 0
    assert part.route(7) == 1


def test_route_covers_whole_space_exactly_once():
    part = ZRangePartitioner(6, (10, 17, 40))
    counts = [0] * part.nshards
    for z in range(64):
        counts[part.route(z)] += 1
    # Every z routed once; shard sizes match the owned intervals.
    assert sum(counts) == 64
    assert counts == [hi - lo + 1 for lo, hi in part.intervals()]


def test_route_rejects_out_of_space_codes():
    part = ZRangePartitioner(4, (8,))
    with pytest.raises(ValueError):
        part.route(-1)
    with pytest.raises(ValueError):
        part.route(16)
    with pytest.raises(ValueError):
        part.route_many([0, 16])


def test_single_shard_degenerate():
    part = ZRangePartitioner(8)
    assert part.nshards == 1
    assert part.intervals() == [(0, 255)]
    assert part.route(0) == 0
    assert part.route(255) == 0
    assert part.prune([(3, 9), (100, 200)]) == [0]
    equi = ZRangePartitioner.equi_width(8, 1)
    assert equi.cuts == ()


def test_empty_shard_owns_interval_but_gets_no_codes():
    # Cuts at 1 and 2: shard 1 owns the single pixel [1, 1].
    part = ZRangePartitioner(4, (1, 2))
    assert part.interval(1) == (1, 1)
    assert part.route(1) == 1
    # A query interval missing pixel 1 never dispatches shard 1.
    assert part.prune([(2, 9)]) == [2]
    assert part.prune([(0, 0), (5, 6)]) == [0, 2]


def test_route_many_matches_route():
    part = ZRangePartitioner(10, (100, 500, 900))
    rng = random.Random(7)
    codes = [rng.randrange(1 << 10) for _ in range(200)]
    assert part.route_many(codes) == [part.route(z) for z in codes]


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------


def test_constructor_validates_cuts():
    with pytest.raises(ValueError):
        ZRangePartitioner(4, (0,))  # cut at 0 leaves an empty shard 0
    with pytest.raises(ValueError):
        ZRangePartitioner(4, (16,))  # cut at end of space
    with pytest.raises(ValueError):
        ZRangePartitioner(4, (5, 5))  # not strictly increasing
    with pytest.raises(ValueError):
        ZRangePartitioner(4, (8, 4))  # decreasing
    with pytest.raises(ValueError):
        ZRangePartitioner(-1)


def test_equi_width_cuts_are_aligned_element_boundaries():
    # Power-of-two shard counts cut exactly at depth-log2(n) boundaries.
    part = ZRangePartitioner.equi_width(12, 4)
    assert part.cuts == (1024, 2048, 3072)
    # Non-power-of-two counts stay distinct and aligned.
    part3 = ZRangePartitioner.equi_width(12, 3)
    align = 1 << (12 - 2)
    assert len(part3.cuts) == 2
    for cut in part3.cuts:
        assert cut % align == 0


@pytest.mark.parametrize("nshards", [1, 2, 3, 4, 5, 7, 8, 16])
def test_equi_width_always_yields_requested_shards(nshards):
    part = ZRangePartitioner.equi_width(16, nshards)
    assert part.nshards == nshards
    # Intervals tile the space.
    intervals = part.intervals()
    assert intervals[0][0] == 0
    assert intervals[-1][1] == (1 << 16) - 1
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert lo == hi + 1


def test_equi_width_validates():
    with pytest.raises(ValueError):
        ZRangePartitioner.equi_width(8, 0)
    with pytest.raises(ValueError):
        ZRangePartitioner.equi_width(2, 5)  # more shards than pixels


def test_from_codes_balances_and_collapses_duplicates():
    rng = random.Random(11)
    codes = [rng.randrange(1 << 12) for _ in range(1000)]
    part = ZRangePartitioner.from_codes(codes, 12, 4)
    sizes = [0] * part.nshards
    for z in codes:
        sizes[part.route(z)] += 1
    assert part.nshards == 4
    assert max(sizes) < 2 * min(sizes)  # roughly balanced
    # Massive skew: every code identical -> quantiles collapse.
    skewed = ZRangePartitioner.from_codes([42] * 100, 12, 4)
    assert skewed.nshards <= 2
    # Empty sample falls back to equi-width.
    empty = ZRangePartitioner.from_codes([], 12, 4)
    assert empty.cuts == ZRangePartitioner.equi_width(12, 4).cuts


def test_from_codes_balances_skewed_tree(grid64):
    rng = random.Random(13)
    # Cluster everything in one corner: equi-width would starve 3 of
    # 4 shards; the quantile cuts follow the data.
    pts = [
        (rng.randrange(16), rng.randrange(16))
        for _ in range(400)
    ]
    codes = [grid64.zvalue(p).bits for p in pts]
    part = ZRangePartitioner.from_codes(codes, grid64.total_bits, 4)
    sizes = [0] * part.nshards
    for p in set(pts):
        sizes[part.route(grid64.zvalue(p).bits)] += 1
    assert part.nshards >= 2
    assert min(sizes) > 0


# ----------------------------------------------------------------------
# Pruning
# ----------------------------------------------------------------------


def _brute_force_prune(part, intervals):
    hit = []
    for shard_id, (lo, hi) in enumerate(part.intervals()):
        if any(zlo <= hi and zhi >= lo for zlo, zhi in intervals):
            hit.append(shard_id)
    return hit


def test_prune_matches_brute_force_randomized():
    rng = random.Random(17)
    for _ in range(100):
        total_bits = rng.randrange(4, 14)
        nshards = rng.randrange(1, 9)
        part = ZRangePartitioner.equi_width(total_bits, nshards)
        space = 1 << total_bits
        intervals = []
        cursor = 0
        while cursor < space and len(intervals) < 6:
            lo = cursor + rng.randrange(0, max(1, space // 6))
            if lo >= space:
                break
            hi = min(space - 1, lo + rng.randrange(0, space // 4 + 1))
            intervals.append((lo, hi))
            cursor = hi + 2
        assert part.prune(intervals) == _brute_force_prune(
            part, intervals
        )


def test_prune_empty_and_full():
    part = ZRangePartitioner.equi_width(8, 4)
    assert part.prune([]) == []
    assert part.prune([(0, 255)]) == [0, 1, 2, 3]
    # One interval entirely inside one shard.
    assert part.prune([(70, 80)]) == [1]


def test_interval_validation():
    part = ZRangePartitioner.equi_width(8, 2)
    with pytest.raises(IndexError):
        part.interval(2)
    with pytest.raises(IndexError):
        part.interval(-1)
