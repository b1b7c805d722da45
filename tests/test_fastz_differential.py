"""Differential property tests: the fast z kernels vs the reference.

The contract of :mod:`repro.core.fastz` is *bit-identity* with the
one-bit-at-a-time reference of :mod:`repro.core.interleave` — same
codes, same coordinates, same errors, for every dimensionality and
depth the system uses.  These tests enforce it with seeded random
sweeps (plain ``random``, no extra dependencies) plus exhaustive small
cases and the edge values (all-zero and max coordinates) where
bit-twiddling bugs live.

The quick sweep runs in tier-1; the heavy sweep (more dims × depths ×
samples, exhaustive small grids) is marked ``slow`` and is meant for
nightly runs: ``PYTHONPATH=src python -m pytest -q -m slow``.
"""

import random

import pytest

from repro.core import fastz
from repro.core.decompose import Element, decompose
from repro.core.geometry import Grid, box_classifier
from repro.core.interleave import deinterleave, interleave, zrank


def random_point(rng: random.Random, ndims: int, depth: int):
    side = 1 << depth
    return tuple(rng.randrange(side) for _ in range(ndims))


def sample_points(rng: random.Random, ndims: int, depth: int, n: int):
    """n random points plus the corner/edge cases."""
    side = 1 << depth
    pts = [random_point(rng, ndims, depth) for _ in range(n)]
    pts.append(tuple([0] * ndims))                      # all-zero
    pts.append(tuple([side - 1] * ndims))               # all-max
    pts.append(tuple((side - 1 if i % 2 else 0) for i in range(ndims)))
    return pts


# ----------------------------------------------------------------------
# Scalar kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("ndims", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth", [1, 2, 3, 6, 8, 11, 16])
def test_interleave_fast_matches_reference(ndims, depth):
    rng = random.Random(1000 * ndims + depth)
    for point in sample_points(rng, ndims, depth, 25):
        assert fastz.interleave_fast(point, depth) == interleave(
            point, depth
        )


@pytest.mark.parametrize("ndims", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth", [1, 2, 3, 6, 8, 11, 16])
def test_deinterleave_fast_matches_reference(ndims, depth):
    rng = random.Random(2000 * ndims + depth)
    total = ndims * depth
    codes = [rng.randrange(1 << total) for _ in range(25)]
    codes += [0, (1 << total) - 1]
    for code in codes:
        assert fastz.deinterleave_fast(code, ndims, depth) == deinterleave(
            code, ndims, depth
        )


@pytest.mark.parametrize("ndims", [1, 2, 3, 4, 5])
def test_roundtrip_and_zrank(ndims):
    rng = random.Random(30 + ndims)
    for depth in range(1, 17):
        for point in sample_points(rng, ndims, depth, 5):
            code = fastz.interleave_fast(point, depth)
            assert fastz.deinterleave_fast(code, ndims, depth) == point
            assert fastz.zrank_fast(point, depth) == zrank(point, depth)


def test_depth_zero_is_origin_only():
    assert fastz.interleave_fast((0, 0, 0), 0) == interleave((0, 0, 0), 0)
    assert fastz.deinterleave_fast(0, 3, 0) == deinterleave(0, 3, 0)
    assert fastz.interleave_many([(0, 0)], 0) == [0]
    assert fastz.deinterleave_many([0], 2, 0) == [(0, 0)]


def test_spread_compact_are_inverses():
    rng = random.Random(99)
    for ndims in (2, 3, 4):
        for depth in (1, 5, 8, 13, 16):
            for _ in range(20):
                v = rng.randrange(1 << depth)
                spread = fastz.spread_bits(v, ndims, depth)
                assert fastz.compact_bits(spread, ndims, depth) == v


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("ndims", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth", [1, 2, 3, 6, 8, 11, 16])
def test_batch_matches_scalar_reference(ndims, depth):
    rng = random.Random(3000 * ndims + depth)
    pts = sample_points(rng, ndims, depth, 40)
    expected = [interleave(p, depth) for p in pts]
    assert fastz.interleave_many(pts, depth) == expected
    assert fastz.interleave_many(pts, depth, ndims) == expected
    assert fastz.zranks(pts, depth) == expected
    assert fastz.deinterleave_many(expected, ndims, depth) == pts


#: Every depth a z code of the system can have, so each branch of the
#: batch kernel (one spread byte, two, more) and the 8/9 and 16/17
#: boundaries between them are crossed for every dimension count.
ALL_DEPTHS = list(range(1, 21))


@pytest.mark.parametrize("ndims", [1, 2, 3, 4, 5])
def test_batch_matches_scalar_at_every_depth(ndims):
    rng = random.Random(4000 + ndims)
    for depth in ALL_DEPTHS:
        pts = sample_points(rng, ndims, depth, 6)
        assert fastz.interleave_many(pts, depth) == [
            interleave(p, depth) for p in pts
        ], depth


def _malformed(ndims, depth):
    """(batch, message) pairs: one well-formed point, then a bad one,
    with the error the batch kernel has always raised for it."""
    limit = 1 << depth
    rest = (0,) * (ndims - 1)
    where = "on axis 0 outside [0, {}) for depth {}".format(limit, depth)
    good = (0,) * ndims
    return [
        ([good, (-1,) + rest], f"point 1: coordinate -1 {where}"),
        ([good, (limit,) + rest], f"point 1: coordinate {limit} {where}"),
        (
            [good, (1,) * (ndims + 1)],
            f"point 1 has {ndims + 1} coordinates, expected {ndims}",
        ),
        (
            [good, (1.5,) + rest],
            "point 1: coordinate 1.5 on axis 0 is not an integer",
        ),
    ]


@pytest.mark.parametrize("ndims", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth", [3, 8, 9, 10, 16, 17])
def test_batch_errors_name_the_bad_point(ndims, depth):
    for batch, message in _malformed(ndims, depth):
        with pytest.raises(ValueError) as info:
            fastz.interleave_many(batch, depth)
        assert str(info.value) == message
    if ndims > 1:
        short = [(1,) * ndims, (1,) * (ndims - 1)]
        with pytest.raises(ValueError, match=r"^point 1 has \d+ coordinates"):
            fastz.interleave_many(short, depth)


def test_batch_empty_and_generator_inputs():
    assert fastz.interleave_many([], 4) == []
    assert fastz.deinterleave_many(iter([]), 2, 4) == []
    assert fastz.interleave_many(iter([(1, 2), (3, 0)]), 2) == [
        interleave((1, 2), 2),
        interleave((3, 0), 2),
    ]
    assert fastz.deinterleave_many(range(16), 2, 2) == [
        deinterleave(c, 2, 2) for c in range(16)
    ]


@pytest.mark.parametrize(
    "bad_batch",
    [
        [(1, 2), (3,)],              # ragged arity
        [(1, 2), (-1, 0)],           # negative coordinate
        [(1, 2), (8, 0)],            # out of grid
        [(1.5, 2)],                  # non-integer
        [(1, 2), (1, 2, 3)],         # too many coordinates
    ],
)
def test_batch_rejects_malformed_points(bad_batch):
    with pytest.raises(ValueError):
        fastz.interleave_many(bad_batch, 3)


def test_batch_rejects_malformed_codes():
    with pytest.raises(ValueError):
        fastz.deinterleave_many([5, 64], 2, 3)    # 64 >= 2**6
    with pytest.raises(ValueError):
        fastz.deinterleave_many([5, -1], 2, 3)
    with pytest.raises(ValueError):
        fastz.deinterleave_many([5, "x"], 2, 3)


def test_scalar_fast_rejects_what_reference_rejects():
    for args in [((9,), 3), ((-1, 0), 3), ((1.0, 2), 3), ((), 3)]:
        with pytest.raises(ValueError):
            interleave(*args)
        with pytest.raises(ValueError):
            fastz.interleave_fast(*args)
    with pytest.raises(ValueError):
        fastz.deinterleave_fast(64, 2, 3)
    with pytest.raises(ValueError):
        fastz.deinterleave_fast(1, 0, 3)


# ----------------------------------------------------------------------
# Batch element construction
# ----------------------------------------------------------------------


def test_elements_many_matches_element_of(grid64, figure_box):
    zvalues = decompose(grid64, box_classifier(figure_box))
    assert list(fastz.elements_many(grid64, zvalues)) == [
        Element.of(z, grid64) for z in zvalues
    ]
    too_long = zvalues[0]
    small = Grid(ndims=2, depth=1)
    with pytest.raises(ValueError):
        fastz.elements_many(small, [too_long.concat(too_long)])


# ----------------------------------------------------------------------
# Nightly sweeps (deselected from tier-1 by the `slow` marker)
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("ndims", [1, 2, 3, 4, 5])
def test_slow_exhaustive_small_grids(ndims):
    """Every code of every grid up to 4096 pixels, both directions."""
    for depth in range(1, 17):
        total = ndims * depth
        if total > 12:
            break
        codes = list(range(1 << total))
        points = fastz.deinterleave_many(codes, ndims, depth)
        for code, point in zip(codes, points):
            assert point == deinterleave(code, ndims, depth)
        assert fastz.interleave_many(points, depth) == codes


@pytest.mark.slow
@pytest.mark.parametrize("ndims", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth", list(range(1, 17)))
def test_slow_dense_random_sweep(ndims, depth):
    rng = random.Random(7_000_000 + 100 * ndims + depth)
    pts = sample_points(rng, ndims, depth, 400)
    expected = [interleave(p, depth) for p in pts]
    assert fastz.interleave_many(pts, depth) == expected
    assert [fastz.interleave_fast(p, depth) for p in pts] == expected
    assert fastz.deinterleave_many(expected, ndims, depth) == pts
    assert [
        fastz.deinterleave_fast(c, ndims, depth) for c in expected
    ] == pts


@pytest.mark.slow
@pytest.mark.parametrize("ndims", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth", ALL_DEPTHS)
def test_slow_batch_every_depth_and_error(ndims, depth):
    rng = random.Random(8_000_000 + 100 * ndims + depth)
    pts = sample_points(rng, ndims, depth, 300)
    assert fastz.interleave_many(pts, depth) == [
        interleave(p, depth) for p in pts
    ]
    for batch, message in _malformed(ndims, depth):
        with pytest.raises(ValueError) as info:
            fastz.interleave_many(batch, depth)
        assert str(info.value) == message
