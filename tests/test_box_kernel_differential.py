"""Differential tests: the integer box kernel vs the generic machinery.

``repro.core.decompose._BoxKernel`` is the only decomposition a box
ever gets — eager through ``decompose_box`` / ``box_intervals``, lazy
through ``BoxElementCursor``.  Its contract is *identity* with the
generic Section 6 path run on ``box_classifier(clipped box)``: the same
elements in the same order, and for the lazy cursor the same element
under the cursor after every ``step``/``seek`` and the same
``nodes_expanded`` at the end.  The oracle side uses only
``decompose`` / ``ElementCursor`` / ``box_classifier``, which share no
code with the kernel.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decompose import (
    BoxElementCursor,
    CoverMode,
    ElementCursor,
    box_intervals,
    decompose,
    decompose_box,
)
from repro.core.fastz import elements_many
from repro.core.geometry import Box, Grid, box_classifier, circle_classifier
from repro.db.statistics import estimate_scan
from repro.storage.prefix_btree import ZkdTree

from conftest import random_points


@st.composite
def grids_and_boxes(draw):
    """A 1–4-d grid of depth 1–6 and a box that may be a single pixel,
    the whole space, or hang partly or wholly off the grid."""
    ndims = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 6 if ndims < 3 else 4 if ndims == 3 else 3))
    grid = Grid(ndims, depth)
    side = grid.side
    shape = draw(st.sampled_from(["any", "any", "pixel", "whole", "off"]))
    ranges = []
    for axis in range(ndims):
        if shape == "pixel":
            lo = hi = draw(st.integers(0, side - 1))
        elif shape == "whole":
            lo, hi = 0, side - 1
        elif shape == "off" and axis == 0:
            lo = draw(st.integers(side, side + 3))
            hi = lo + draw(st.integers(0, 3))
        else:
            a = draw(st.integers(-3, side + 2))
            b = draw(st.integers(-3, side + 2))
            lo, hi = min(a, b), max(a, b)
        ranges.append((lo, hi))
    max_depth = draw(st.none() | st.integers(0, grid.total_bits))
    return grid, Box(tuple(ranges)), max_depth


@settings(max_examples=300, deadline=None)
@given(grids_and_boxes(), st.sampled_from(list(CoverMode)))
def test_eager_kernel_equals_generic_decompose(case, cover):
    grid, box, max_depth = case
    got = decompose_box(grid, box, max_depth, cover)
    clipped = box.clipped_to(grid.whole_space())
    if clipped is None:
        want = []
    else:
        want = decompose(grid, box_classifier(clipped), max_depth, cover)
    assert got == want
    assert box_intervals(grid, box, max_depth, cover) == [
        z.interval(grid.total_bits) for z in want
    ]


@settings(max_examples=300, deadline=None)
@given(grids_and_boxes(), st.data())
def test_lazy_kernel_equals_generic_cursor(case, data):
    grid, box, max_depth = case
    kernel = BoxElementCursor(grid, box, max_depth)
    clipped = box.clipped_to(grid.whole_space())
    if clipped is None:
        assert kernel.current is None
        assert kernel.step() is None and kernel.seek(0) is None
        assert kernel.nodes_expanded == 0
        return
    generic = ElementCursor(grid, box_classifier(clipped), max_depth)
    assert kernel.current == generic.current
    z = 0
    for _ in range(data.draw(st.integers(0, 40))):
        if data.draw(st.booleans()):
            assert kernel.step() == generic.step()
        else:
            # non-decreasing targets, as the merge issues them; a jump
            # of 0 re-seeks the element already under the cursor
            z += data.draw(st.integers(0, max(1, grid.npixels // 3)))
            assert kernel.seek(z) == generic.seek(z)
        assert kernel.current == generic.current
    # Run both dry: exhaustion pops whatever the seeks left pending.
    assert list(kernel) == list(generic)
    assert kernel.nodes_expanded == generic.nodes_expanded


def test_kernel_rejects_what_the_generic_path_rejects():
    grid = Grid(2, 3)
    box = Box(((1, 3), (0, 4)))
    off_grid = Box(((9, 12), (0, 4)))
    for max_depth in (-1, grid.total_bits + 1):
        with pytest.raises(ValueError, match="max_depth"):
            decompose(grid, box_classifier(box), max_depth)
        for build in (decompose_box, box_intervals, BoxElementCursor):
            with pytest.raises(ValueError, match="max_depth"):
                build(grid, box, max_depth)
        with pytest.raises(ValueError, match="max_depth"):
            BoxElementCursor(grid, off_grid, max_depth)
    with pytest.raises(ValueError, match="dimensionality"):
        decompose_box(grid, Box(((0, 1),)))


def test_no_box_reaches_the_generic_path(monkeypatch):
    """``split_region`` is the generic machinery's only way down the
    splitting tree; with it booby-trapped, a range query, a plan-side
    estimate and a result-cache lookup's decomposition must all still
    run."""
    # (``repro.core.decompose`` as an attribute is the re-exported
    # function; the module is only reachable through ``sys.modules``.)
    decompose_module = sys.modules["repro.core.decompose"]

    def trapped(*args, **kwargs):
        raise AssertionError("a box reached the generic decomposition")

    monkeypatch.setattr(decompose_module, "split_region", trapped)
    grid = Grid(2, 6)
    rng = random.Random(21)
    points = random_points(rng, grid, 400)
    tree = ZkdTree(grid, page_capacity=20)
    tree.insert_many(points)
    boxes = [
        Box(((5, 40), (11, 30))),
        Box(((-4, 9), (50, 80))),  # partly off the grid
        grid.whole_space(),
        Box(((70, 90), (0, 5))),  # wholly off the grid
    ]
    for box in boxes:
        want = sorted(p for p in points if box.contains_point(p))
        assert sorted(tree.range_query(box).matches) == want  # lazy
        expected, pages = estimate_scan(tree, box)  # eager, plan-side
        assert expected > 0 or not want
        assert pages <= tree.npages
        # eager, what a result-cache lookup builds for its trie walk
        elements = elements_many(grid, decompose_box(grid, box))
        assert [(e.zlo, e.zhi) for e in elements] == box_intervals(grid, box)
    # The trap itself works: a circle still needs the generic path.
    with pytest.raises(AssertionError, match="generic decomposition"):
        decompose(grid, circle_classifier((20, 20), 6.5))
