"""Cross-module property tests: invariants that tie the stack together.

These are the contracts the architecture rests on; each test draws
random scenes with hypothesis and checks that independent code paths
agree with each other or with a ground-truth model.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.baselines.dynamic_gridfile import GridFile
from repro.baselines.kdtree import KdTree
from repro.core.decompose import CoverMode, Element, decompose, decompose_box
from repro.core.geometry import Grid, circle_classifier
from repro.core.intervals import elements_to_intervals, intervals_to_elements
from repro.core.overlay import ElementRegion
from repro.core.rangesearch import brute_force_search
from repro.core.zvalue import ZValue
from repro.storage.prefix_btree import ZkdTree

from conftest import random_box, random_points

seeds = st.integers(0, 10**6)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_all_structures_agree_on_queries(seed):
    """zkd tree, kd tree, dynamic grid file and brute force return the
    same result set for every query."""
    grid = Grid(2, 5)
    rng = random.Random(seed)
    points = random_points(rng, grid, 150)
    zkd = ZkdTree(grid, page_capacity=8)
    kd = KdTree(grid, page_capacity=8)
    gf = GridFile(grid, page_capacity=8)
    for structure in (zkd, kd, gf):
        structure.insert_many(points)
    for _ in range(3):
        box = random_box(rng, grid)
        truth = brute_force_search(grid, points, box)
        assert list(zkd.range_query(box).matches) == truth
        assert list(kd.range_query(box).matches) == truth
        assert list(gf.range_query(box).matches) == truth


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_decompose_roundtrips_through_intervals(seed):
    """decompose -> intervals -> canonical elements -> intervals is a
    fixed point, and the canonical form is never larger."""
    grid = Grid(2, 4)
    rng = random.Random(seed)
    box = random_box(rng, grid)
    elements = [Element.of(z, grid) for z in decompose_box(grid, box)]
    intervals = elements_to_intervals(elements)
    canonical = intervals_to_elements(intervals, grid)
    assert elements_to_intervals(canonical) == intervals
    assert len(canonical) <= len(elements)
    assert intervals.cardinality() == box.volume


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_region_algebra_matches_decomposition_of_geometry(seed):
    """(A ∪ B) and (A ∩ B) computed on z intervals equal the direct
    decompositions of the geometric union/intersection."""
    grid = Grid(2, 4)
    rng = random.Random(seed)
    box_a = random_box(rng, grid)
    box_b = random_box(rng, grid)
    region_a = ElementRegion.from_box(grid, box_a)
    region_b = ElementRegion.from_box(grid, box_b)
    if box_a.intersects(box_b):
        direct = ElementRegion.from_box(grid, box_a.intersection(box_b))
        assert (region_a & region_b) == direct
    else:
        assert (region_a & region_b).is_empty()
    union_area = (region_a | region_b).area()
    inter_area = (region_a & region_b).area()
    assert union_area == box_a.volume + box_b.volume - inter_area


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_inner_outer_cover_sandwich(seed):
    """For any object and any cut-off depth:
    INNER coverage ⊆ exact coverage ⊆ OUTER coverage."""
    grid = Grid(2, 4)
    rng = random.Random(seed)
    cx, cy = rng.randrange(16), rng.randrange(16)
    radius = rng.uniform(1.0, 8.0)
    classify = circle_classifier((cx, cy), radius)
    exact = elements_to_intervals(
        Element.of(z, grid) for z in decompose(grid, classify)
    )
    for depth in (2, 4, 6):
        outer = elements_to_intervals(
            Element.of(z, grid)
            for z in decompose(grid, classify, max_depth=depth)
        )
        inner = elements_to_intervals(
            Element.of(z, grid)
            for z in decompose(
                grid, classify, max_depth=depth, cover=CoverMode.INNER
            )
        )
        assert outer.contains_set(exact)
        assert exact.contains_set(inner)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_element_coordinates_consistent_with_intervals(seed):
    """unshuffle(element) and the z interval describe the same pixels."""
    grid = Grid(2, 4)
    rng = random.Random(seed)
    box = random_box(rng, grid)
    for z in decompose_box(grid, box):
        element = Element.of(z, grid)
        region = grid.region_box(z)
        pixels_by_region = {
            grid.zvalue(p).bits for p in region.pixels()
        }
        assert pixels_by_region == set(
            range(element.zlo, element.zhi + 1)
        )


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_index_results_survive_bulk_vs_incremental(seed):
    """The loading path cannot change query answers."""
    grid = Grid(2, 5)
    rng = random.Random(seed)
    points = random_points(rng, grid, 120)
    incremental = ZkdTree(grid, page_capacity=6)
    incremental.insert_many(points)
    bulk = ZkdTree(grid, page_capacity=6)
    bulk.bulk_load(points)
    box = random_box(rng, grid)
    assert (
        incremental.range_query(box).matches
        == bulk.range_query(box).matches
    )


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_query_paths_agree_object_vs_box(seed):
    """object_query with a box oracle equals range_query with the box."""
    from repro.core.geometry import box_classifier

    grid = Grid(2, 5)
    rng = random.Random(seed)
    points = random_points(rng, grid, 120)
    tree = ZkdTree(grid, page_capacity=8)
    tree.insert_many(points)
    box = random_box(rng, grid)
    assert (
        tree.object_query(box_classifier(box)).matches
        == tree.range_query(box).matches
    )


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_zvalue_sort_is_spatial_containment_consistent(seed):
    """Sorting any element set lexicographically never separates a
    container from its contents by an unrelated element (the nesting
    property the sweep joins rely on)."""
    grid = Grid(2, 4)
    rng = random.Random(seed)
    zvalues = sorted(
        {
            ZValue.from_point(
                (rng.randrange(16), rng.randrange(16)), 4
            ).parent().parent()
            for _ in range(10)
        }
    )
    for i, a in enumerate(zvalues):
        for j in range(i + 1, len(zvalues)):
            b = zvalues[j]
            if a.contains(b):
                # Everything between them is also inside a.
                for k in range(i + 1, j):
                    assert a.contains(zvalues[k])


def test_no_public_callable_takes_a_kernel_flag():
    """One read path: nothing in ``repro`` lets a caller pick the
    shuffle kernel or the element stream (the scalar kernels and the
    BIGMIN variant are reference functions tests call directly)."""
    import importlib
    import inspect
    import pkgutil

    import repro

    def callables(module):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != (
                module.__name__
            ):
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{name}.{attr}", member
            elif inspect.isfunction(obj):
                yield name, obj

    seen = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, fn in callables(module):
            seen += 1
            flags = {"use_fast", "use_bigmin"} & set(
                inspect.signature(fn).parameters
            )
            assert not flags, f"{info.name}.{name} takes {sorted(flags)}"
    assert seen > 500  # the sweep really walked the package


def test_element_stream_is_lazy_everywhere_and_nothing_remembers_it():
    """``range_query`` has one element stream: the box is decomposed
    lazily inside the merge and no store holds on to it — a repeat
    generates the same elements again and reads the same pages, with
    identical matches, on a tree and a snapshot view.
    """
    from repro.concurrency import SnapshotManager

    grid = Grid(2, 6)
    rng = random.Random(16)
    points = sorted(set(random_points(rng, grid, 400)))
    manager = SnapshotManager()
    tree = ZkdTree(grid, page_capacity=8, snapshots=manager)
    tree.insert_many(points)
    epoch = manager.pin()
    try:
        view = tree.snapshot_view(epoch)
        for _ in range(8):
            box = random_box(rng, grid)
            truth = tuple(brute_force_search(grid, points, box))
            for target in (tree, view):
                fresh = target.range_query(box)
                again = target.range_query(box)
                assert fresh.matches == again.matches == truth
                assert fresh.merge.elements_generated > 0
                assert (
                    again.merge.elements_generated
                    == fresh.merge.elements_generated
                )
                assert again.pages_accessed == fresh.pages_accessed
    finally:
        manager.unpin(epoch)
