"""Batched bit-twiddling z kernels — the fast shuffle/unshuffle path.

Every algorithm in the reproduction bottoms out in ``shuffle`` /
``unshuffle`` (Section 4's element operations) and z-interval
arithmetic, and :mod:`repro.core.interleave` computes them one bit at a
time with a Python function call per bit.  This module provides
bit-identical replacements built from the two classic techniques:

* **magic numbers** — the mask–shift bit dilation used by every fast
  Morton-code library: spreading a ``depth``-bit coordinate to stride
  ``ndims`` takes ``ceil(log2(depth))`` shift/or/and steps instead of
  ``depth`` single-bit extractions.  The (shift, mask) step sequences
  are generated once per ``(ndims, depth)`` and memoised;
* **lookup tables** — byte-wide spread tables and nibble-wide compact
  tables, built once per dimension count, that let the batch APIs
  shuffle a coordinate in one or two table hits.

The scalar entry points (:func:`interleave_fast`,
:func:`deinterleave_fast`, :func:`zrank_fast`) use the magic steps; the
batch entry points (:func:`interleave_many`, :func:`deinterleave_many`,
:func:`zranks`) use the tables.  Dimensions 2–4 take the table path,
one unrolled pass a point for coordinates of one or two bytes;
dimension 1 is the identity; five dimensions and up (and depths past
16) fall back to a tight scalar loop that is still several times
faster than the reference because it makes no per-bit function calls.

Both paths are verified bit-for-bit against the reference
implementation by ``tests/test_fastz_differential.py``, so they are the
only shuffle production code runs; the scalar
:mod:`repro.core.interleave` and :meth:`Grid.zvalue` stay as the
oracles that suite (and ``tests/test_fastz_oracle.py``) compares
against.

On top of the kernels sits :func:`elements_many`, which attaches
z-intervals to a batch of decomposed z values in one tight loop.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.decompose import Element
from repro.core.geometry import Grid
from repro.core.zvalue import ZValue

__all__ = [
    "FAST_MAX_DIMS",
    "spread_bits",
    "compact_bits",
    "interleave_fast",
    "deinterleave_fast",
    "zrank_fast",
    "interleave_many",
    "deinterleave_many",
    "zranks",
    "elements_many",
]

#: Largest dimensionality served by the magic-number/table fast path;
#: beyond it the generic scalar fallback is used.
FAST_MAX_DIMS = 4

#: Chunk widths of the batch lookup tables: spread tables consume a
#: byte of coordinate per hit, compact tables produce a nibble.
_SPREAD_CHUNK = 8
_COMPACT_CHUNK = 4


# ----------------------------------------------------------------------
# Magic-number step generation (cached per (ndims, depth))
# ----------------------------------------------------------------------


def _ones_every(block: int, stride: int, width: int) -> int:
    """A mask of ``block`` consecutive ones repeated every ``stride``
    bits, covering ``width`` bits."""
    mask = 0
    ones = (1 << block) - 1
    for pos in range(0, width, stride):
        mask |= ones << pos
    return mask


@functools.lru_cache(maxsize=None)
def _spread_steps(ndims: int, depth: int) -> Tuple[Tuple[int, int], ...]:
    """(shift, mask) steps dilating a ``depth``-bit value to stride
    ``ndims``: after applying them, input bit ``j`` sits at ``j*ndims``.

    Each step doubles the number of bit groups: ``v = (v | (v << shift))
    & mask`` with ``shift = s*(ndims-1)`` and a mask of ``s``-bit blocks
    every ``s*ndims`` positions, for ``s = n/2, n/4, ..., 1`` where
    ``n`` is ``depth`` rounded up to a power of two.  These are exactly
    the familiar magic constants (``0x0000FFFF..``, ``0x00FF00FF..``,
    ``0x0F0F..``, ``0x3333..``, ``0x5555..`` for two dimensions at
    32-bit width), generated for any width and stride.
    """
    if ndims <= 1 or depth <= 1:
        return ()
    n = 1
    while n < depth:
        n <<= 1
    width = ndims * n
    steps = []
    s = n
    while s > 1:
        s >>= 1
        steps.append((s * (ndims - 1), _ones_every(s, s * ndims, width)))
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def _compact_steps(ndims: int, depth: int) -> Tuple[Tuple[int, int], ...]:
    """(shift, mask) steps inverting :func:`_spread_steps`: applied as
    ``v = (v | (v >> shift)) & mask`` to a value whose live bits sit at
    multiples of ``ndims``."""
    if ndims <= 1 or depth <= 1:
        return ()
    n = 1
    while n < depth:
        n <<= 1
    width = ndims * n
    steps = []
    s = 1
    while s < n:
        steps.append(
            (s * (ndims - 1), _ones_every(2 * s, 2 * s * ndims, width))
        )
        s <<= 1
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def _every_mask(ndims: int, depth: int) -> int:
    """Ones at bit positions ``0, ndims, 2*ndims, ...`` — the positions
    occupied by one dimension's bits in an interleaved code."""
    return _ones_every(1, ndims, ndims * max(depth, 1))


def spread_bits(value: int, ndims: int, depth: int) -> int:
    """Dilate ``value`` (``depth`` bits) so bit ``j`` moves to position
    ``j * ndims`` — one coordinate's share of an interleaved code."""
    if value < 0 or value >= (1 << depth):
        raise ValueError(f"value {value} outside [0, 2**{depth})")
    for shift, mask in _spread_steps(ndims, depth):
        value = (value | (value << shift)) & mask
    return value


def compact_bits(value: int, ndims: int, depth: int) -> int:
    """Inverse of :func:`spread_bits`: gather the bits at positions
    ``0, ndims, 2*ndims, ...`` back into a contiguous ``depth``-bit
    value.  Bits at other positions are ignored."""
    value &= _every_mask(ndims, depth)
    for shift, mask in _compact_steps(ndims, depth):
        value = (value | (value >> shift)) & mask
    return value & ((1 << depth) - 1)


# ----------------------------------------------------------------------
# Batch lookup tables (cached per ndims)
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _spread_table(ndims: int) -> Tuple[int, ...]:
    """256-entry table: ``table[b]`` is byte ``b`` dilated to stride
    ``ndims``."""
    steps = _spread_steps(ndims, _SPREAD_CHUNK)

    def dilate(value: int) -> int:
        for shift, mask in steps:
            value = (value | (value << shift)) & mask
        return value

    return tuple(dilate(b) for b in range(1 << _SPREAD_CHUNK))


@functools.lru_cache(maxsize=None)
def _slot_tables(ndims: int, low_bit: int) -> Tuple[Tuple[int, ...], ...]:
    """Per axis, :func:`_spread_table` shifted to where a coordinate's
    byte starting at bit ``low_bit`` lands in an interleaved code."""
    table = _spread_table(ndims)
    return tuple(
        tuple(v << (ndims * low_bit + ndims - 1 - axis) for v in table)
        for axis in range(ndims)
    )


@functools.lru_cache(maxsize=None)
def _compact_table(ndims: int) -> Tuple[int, ...]:
    """Table over ``ndims * 4``-bit chunks of an interleaved code:
    ``table[c]`` gathers the chunk's bits at positions ``0, ndims,
    2*ndims, 3*ndims`` into a nibble.  Sizes: 256 (2-d), 4096 (3-d),
    65536 (4-d) entries."""
    key_bits = ndims * _COMPACT_CHUNK
    out = []
    for key in range(1 << key_bits):
        nibble = 0
        for j in range(_COMPACT_CHUNK):
            nibble |= ((key >> (j * ndims)) & 1) << j
        out.append(nibble)
    return tuple(out)


# ----------------------------------------------------------------------
# Validation helpers (identical failure behaviour to the reference)
# ----------------------------------------------------------------------


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")


def _check_coords(coords: Sequence[int], depth: int) -> None:
    ndims = len(coords)
    if ndims == 0:
        raise ValueError("need at least one coordinate")
    limit = 1 << depth
    for axis, c in enumerate(coords):
        if not isinstance(c, int):
            raise ValueError(
                f"coordinate {c!r} on axis {axis} is not an integer"
            )
        if not 0 <= c < limit:
            raise ValueError(
                f"coordinate {c} on axis {axis} outside [0, {limit}) "
                f"for depth {depth}"
            )


def _raise_batch_error(
    points: Sequence[Sequence[int]], depth: int, ndims: int
) -> None:
    """Re-scan a failed batch to produce a precise per-point error."""
    for index, point in enumerate(points):
        if len(point) != ndims:
            raise ValueError(
                f"point {index} has {len(point)} coordinates, "
                f"expected {ndims}"
            )
        try:
            _check_coords(point, depth)
        except ValueError as exc:
            raise ValueError(f"point {index}: {exc}") from None
    raise ValueError("batch interleave failed on malformed input")


# ----------------------------------------------------------------------
# Scalar fast path (magic steps)
# ----------------------------------------------------------------------


def _interleave_loop(coords: Sequence[int], depth: int) -> int:
    """Generic fallback: the reference algorithm without per-bit
    function calls."""
    code = 0
    for level in range(depth):
        shift = depth - 1 - level
        for c in coords:
            code = (code << 1) | ((c >> shift) & 1)
    return code


def _deinterleave_loop(code: int, ndims: int, depth: int) -> Tuple[int, ...]:
    coords = [0] * ndims
    pos = ndims * depth
    for _ in range(depth):
        for axis in range(ndims):
            pos -= 1
            coords[axis] = (coords[axis] << 1) | ((code >> pos) & 1)
    return tuple(coords)


def interleave_fast(coords: Sequence[int], depth: int) -> int:
    """Bit-identical fast :func:`repro.core.interleave.interleave`.

    >>> interleave_fast((3, 5), 3)
    27
    """
    _check_depth(depth)
    _check_coords(coords, depth)
    ndims = len(coords)
    if ndims == 1:
        return coords[0]
    if ndims > FAST_MAX_DIMS:
        return _interleave_loop(coords, depth)
    steps = _spread_steps(ndims, depth)
    code = 0
    for axis, c in enumerate(coords):
        for shift, mask in steps:
            c = (c | (c << shift)) & mask
        code |= c << (ndims - 1 - axis)
    return code


def deinterleave_fast(code: int, ndims: int, depth: int) -> Tuple[int, ...]:
    """Bit-identical fast :func:`repro.core.interleave.deinterleave`.

    >>> deinterleave_fast(27, 2, 3)
    (3, 5)
    """
    if ndims <= 0:
        raise ValueError("ndims must be positive")
    _check_depth(depth)
    total = ndims * depth
    if not 0 <= code < (1 << total):
        raise ValueError(f"code {code} outside [0, 2**{total})")
    if ndims == 1:
        return (code,)
    if ndims > FAST_MAX_DIMS:
        return _deinterleave_loop(code, ndims, depth)
    steps = _compact_steps(ndims, depth)
    every = _every_mask(ndims, depth)
    coords = []
    for axis in range(ndims):
        v = (code >> (ndims - 1 - axis)) & every
        for shift, mask in steps:
            v = (v | (v >> shift)) & mask
        coords.append(v)
    return tuple(coords)


def zrank_fast(coords: Sequence[int], depth: int) -> int:
    """Fast z-curve rank — alias of :func:`interleave_fast`, mirroring
    :func:`repro.core.interleave.zrank`."""
    return interleave_fast(coords, depth)


# ----------------------------------------------------------------------
# Batch APIs (lookup tables)
# ----------------------------------------------------------------------


def interleave_many(
    points: Iterable[Sequence[int]],
    depth: int,
    ndims: Optional[int] = None,
) -> List[int]:
    """Shuffle a batch of points to z codes.

    Equivalent to ``[interleave(p, depth) for p in points]`` but an
    order of magnitude faster: coordinates are validated with one
    accumulated bound check per batch and dilated through the byte-wide
    spread tables.  ``ndims`` defaults to the arity of the first point;
    every point must have the same arity.
    """
    _check_depth(depth)
    pts = points if isinstance(points, list) else list(points)
    if not pts:
        return []
    if ndims is None:
        ndims = len(pts[0])
    if ndims == 0:
        raise ValueError("need at least one coordinate")

    limit = 1 << depth
    try:
        acc = 0
        out: List[int] = []
        if ndims == 1:
            for (x,) in pts:
                acc |= x
                out.append(x)
        elif ndims > FAST_MAX_DIMS or depth > 2 * _SPREAD_CHUNK:
            # Five dimensions and up, or a third spread byte: the magic
            # steps one point at a time (each point checks itself).
            for p in pts:
                if len(p) != ndims:
                    _raise_batch_error(pts, depth, ndims)
                out.append(interleave_fast(p, depth))
        elif depth <= _SPREAD_CHUNK:
            # One hit a coordinate, in a table pre-shifted to its axis's
            # slot in the code.
            lo = _slot_tables(ndims, 0)
            if ndims == 2:
                lx, ly = lo
                for x, y in pts:
                    acc |= x | y
                    out.append(lx[x] | ly[y])
            elif ndims == 3:
                lx, ly, lz = lo
                for x, y, z in pts:
                    acc |= x | y | z
                    out.append(lx[x] | ly[y] | lz[z])
            else:
                lx, ly, lz, lw = lo
                for x, y, z, w in pts:
                    acc |= x | y | z | w
                    out.append(lx[x] | ly[y] | lz[z] | lw[w])
        else:
            # Two hits a coordinate: its low byte's slot table and its
            # high byte's.
            lo = _slot_tables(ndims, 0)
            hi = _slot_tables(ndims, _SPREAD_CHUNK)
            if ndims == 2:
                (lx, ly), (hx, hy) = lo, hi
                for x, y in pts:
                    acc |= x | y
                    out.append(lx[x & 255] | hx[x >> 8] | ly[y & 255] | hy[y >> 8])
            elif ndims == 3:
                (lx, ly, lz), (hx, hy, hz) = lo, hi
                for x, y, z in pts:
                    acc |= x | y | z
                    out.append(
                        lx[x & 255] | hx[x >> 8] | ly[y & 255] | hy[y >> 8]
                        | lz[z & 255] | hz[z >> 8]
                    )
            else:
                (lx, ly, lz, lw), (hx, hy, hz, hw) = lo, hi
                for x, y, z, w in pts:
                    acc |= x | y | z | w
                    out.append(
                        lx[x & 255] | hx[x >> 8] | ly[y & 255] | hy[y >> 8]
                        | lz[z & 255] | hz[z >> 8] | lw[w & 255] | hw[w >> 8]
                    )
    except (TypeError, ValueError, IndexError):
        _raise_batch_error(pts, depth, ndims)
    if acc < 0 or acc >= limit:
        _raise_batch_error(pts, depth, ndims)
    return out


def deinterleave_many(
    codes: Iterable[int], ndims: int, depth: int
) -> List[Tuple[int, ...]]:
    """Unshuffle a batch of z codes back to coordinate tuples.

    Equivalent to ``[deinterleave(c, ndims, depth) for c in codes]``,
    using the nibble-wide compact tables.
    """
    if ndims <= 0:
        raise ValueError("ndims must be positive")
    _check_depth(depth)
    zs = codes if isinstance(codes, list) else list(codes)
    if not zs:
        return []
    total = ndims * depth

    acc = 0
    out: List[Tuple[int, ...]] = []
    try:
        if ndims == 1:
            for code in zs:
                acc |= code
                out.append((code,))
        elif ndims > FAST_MAX_DIMS:
            for code in zs:
                acc |= code
                out.append(_deinterleave_loop(code, ndims, depth))
        else:
            table = _compact_table(ndims)
            chunk_bits = ndims * _COMPACT_CHUNK
            chunk_mask = (1 << chunk_bits) - 1
            nchunks = (depth + _COMPACT_CHUNK - 1) // _COMPACT_CHUNK
            axes = tuple(range(ndims))
            for code in zs:
                acc |= code
                coords = []
                for axis in axes:
                    v = code >> (ndims - 1 - axis)
                    c = 0
                    for i in range(nchunks):
                        c |= (
                            table[(v >> (chunk_bits * i)) & chunk_mask]
                            << (_COMPACT_CHUNK * i)
                        )
                    coords.append(c)
                out.append(tuple(coords))
    except TypeError:
        for index, code in enumerate(zs):
            if not isinstance(code, int):
                raise ValueError(
                    f"code {index}: {code!r} is not an integer"
                ) from None
        raise
    if acc < 0 or acc >= (1 << total):
        for index, code in enumerate(zs):
            if not 0 <= code < (1 << total):
                raise ValueError(
                    f"code {index}: {code} outside [0, 2**{total})"
                )
    return out


def zranks(
    points: Iterable[Sequence[int]],
    depth: int,
    ndims: Optional[int] = None,
) -> List[int]:
    """Batch z-curve ranks — alias of :func:`interleave_many`, named for
    readability when the codes are used as curve positions."""
    return interleave_many(points, depth, ndims)


# ----------------------------------------------------------------------
# Batch element construction
# ----------------------------------------------------------------------


def elements_many(
    grid: Grid, zvalues: Iterable[ZValue]
) -> Tuple[Element, ...]:
    """Attach z-intervals to a batch of z values — a tight-loop
    equivalent of ``tuple(Element.of(z, grid) for z in zvalues)``."""
    total = grid.total_bits
    out = []
    for zvalue in zvalues:
        pad = total - zvalue.length
        if pad < 0:
            raise ValueError(
                f"element of length {zvalue.length} too long for "
                f"{total} total bits"
            )
        zlo = zvalue.bits << pad
        out.append(Element(zvalue, zlo, zlo | ((1 << pad) - 1)))
    return tuple(out)

