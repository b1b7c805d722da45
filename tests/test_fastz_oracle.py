"""End-to-end oracle tests: every search variant, production vs reference.

``brute_force_search`` is the ground truth; the three range-search
variants must agree with it — and with each other — whether they run on
the scalar reference pieces (``Grid.zvalue`` sequence, the generic
``ElementCursor`` / ``decompose`` over ``box_classifier``) or on what
production runs (batched ``build_point_sequence``, the box kernel
under the lazy cursor and ``decompose_box``, ``elements_many``).  The
reference side shares no code with the kernel.  Datasets cover uniform
random points and tight Gaussian-ish clusters (the z-order worst case
for skipping), and a stateful insert/search round-trip exercises the
merge against a mutating tree.
"""

import random

import pytest

from conftest import random_box, random_points

from repro.core import fastz
from repro.core.decompose import (
    Element,
    ElementCursor,
    decompose,
    decompose_box,
)
from repro.core.geometry import Box, Grid, box_classifier
from repro.core.rangesearch import (
    MergeStats,
    PointRecord,
    SortedPointCursor,
    brute_force_search,
    build_point_sequence,
    merge_search,
    range_search,
    range_search_bigmin,
    range_search_simple,
)
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.spatial import range_search_plan
from repro.db.types import INTEGER, OID
from repro.storage.btree import BTreeCursor
from repro.storage.prefix_btree import ZkdTree


def clustered_points(rng: random.Random, grid: Grid, n: int):
    """Points in a few tight clusters (hot spots on the curve)."""
    side = grid.side
    centers = [
        tuple(rng.randrange(side) for _ in range(grid.ndims))
        for _ in range(4)
    ]
    spread = max(1, side // 16)
    points = []
    for _ in range(n):
        center = rng.choice(centers)
        points.append(
            tuple(
                min(side - 1, max(0, c + rng.randrange(-spread, spread + 1)))
                for c in center
            )
        )
    return points


def scalar_point_sequence(grid, points):
    """``build_point_sequence`` on the scalar reference shuffle."""
    return sorted(
        (PointRecord(grid.zvalue(p).bits, tuple(p)) for p in points),
        key=lambda r: r.z,
    )


def all_variants(grid, points, box, reference):
    """Run every search variant and return the sorted result sets."""
    results = {}
    if reference:
        records = scalar_point_sequence(grid, points)
        clipped = box.clipped_to(grid.whole_space())
        classify = None if clipped is None else box_classifier(clipped)
        elements = [] if classify is None else [
            Element.of(z, grid) for z in decompose(grid, classify)
        ]
        lazy = [] if classify is None else merge_search(
            SortedPointCursor(records), ElementCursor(grid, classify)
        )
        results["lazy"] = sorted(lazy)
    else:
        records = build_point_sequence(grid, points)
        elements = fastz.elements_many(grid, decompose_box(grid, box))
        results["lazy"] = sorted(
            range_search(SortedPointCursor(records), grid, box)
        )
    results["bigmin"] = sorted(
        range_search_bigmin(SortedPointCursor(records), grid, box)
    )
    results["simple"] = sorted(range_search_simple(records, elements))
    return results


@pytest.mark.parametrize("dataset", ["uniform", "clustered"])
@pytest.mark.parametrize("ndims,depth", [(2, 6), (3, 4)])
def test_variants_agree_with_brute_force(dataset, ndims, depth):
    grid = Grid(ndims=ndims, depth=depth)
    rng = random.Random(hash((dataset, ndims, depth)) & 0xFFFF)
    if dataset == "uniform":
        points = random_points(rng, grid, 300)
    else:
        points = clustered_points(rng, grid, 300)
    for _ in range(15):
        box = random_box(rng, grid)
        truth = sorted(set(brute_force_search(grid, points, box)))
        deduped_truth = sorted(set(truth))
        for reference in (True, False):
            results = all_variants(grid, sorted(set(points)), box, reference)
            for variant, matched in results.items():
                assert sorted(set(matched)) == deduped_truth, (
                    variant,
                    reference,
                    box,
                )


def test_production_and_reference_identical_including_duplicates(
    grid64, rng
):
    points = random_points(rng, grid64, 400) * 2  # duplicates included
    for _ in range(10):
        box = random_box(rng, grid64)
        slow = all_variants(grid64, sorted(points), box, reference=True)
        fast = all_variants(grid64, sorted(points), box, reference=False)
        assert slow == fast


def test_out_of_space_and_degenerate_boxes(grid64, rng):
    points = random_points(rng, grid64, 100)
    records = build_point_sequence(grid64, points)
    assert records == scalar_point_sequence(grid64, points)
    boxes = [
        Box(((200, 300), (200, 300))),          # fully outside
        Box(((0, 200), (0, 200))),              # overhanging the space
        Box(((5, 5), (7, 7))),                  # single pixel
        grid64.whole_space(),                   # everything
    ]
    for box in boxes:
        truth = sorted(set(brute_force_search(grid64, points, box)))
        got = sorted(
            set(range_search(SortedPointCursor(records), grid64, box))
        )
        assert got == truth


def test_bigmin_seeks_match_scalar_unshuffle(grid64, rng, monkeypatch):
    """BIGMIN on the production unshuffle must take the *same* seeks as
    on the scalar reference ``deinterleave``, not just return the same
    points."""
    from repro.core import rangesearch
    from repro.core.interleave import deinterleave

    def scalar_zcode_in_box(code, box, depth):
        return box.contains_point(deinterleave(code, box.ndims, depth))

    points = sorted(set(random_points(rng, grid64, 300)))
    records = build_point_sequence(grid64, points)
    for _ in range(10):
        box = random_box(rng, grid64)
        slow_stats, fast_stats = MergeStats(), MergeStats()
        fast = list(
            range_search_bigmin(
                SortedPointCursor(records), grid64, box, fast_stats
            )
        )
        with monkeypatch.context() as patch:
            patch.setattr(rangesearch, "zcode_in_box", scalar_zcode_in_box)
            slow = list(
                range_search_bigmin(
                    SortedPointCursor(records), grid64, box, slow_stats
                )
            )
        assert slow == fast
        assert slow_stats == fast_stats


# ----------------------------------------------------------------------
# Stateful round-trip: inserts interleaved with queries
# ----------------------------------------------------------------------


def test_stateful_insert_search_roundtrip(grid64):
    rng = random.Random(0xBEEF)
    tree = ZkdTree(grid64, page_capacity=8, buffer_frames=4)
    live = set()
    for step in range(12):
        batch = random_points(rng, grid64, 40)
        if step % 2:
            tree.insert_many(batch)
        else:
            for point in batch:
                tree.insert(point)
        live.update(map(tuple, batch))
        for _ in range(3):
            box = random_box(rng, grid64)
            truth = sorted(
                set(brute_force_search(grid64, live, box))
            )
            lazy = tree.range_query(box)
            jumped = tuple(
                range_search_bigmin(BTreeCursor(tree.tree), grid64, box)
            )
            assert sorted(set(lazy.matches)) == truth
            assert lazy.matches == jumped
            assert lazy.merge.elements_generated > 0


def test_bulk_load_matches_scalar_keys(grid64, rng):
    points = random_points(rng, grid64, 500)
    fast_tree = ZkdTree(grid64, page_capacity=10)
    fast_tree.bulk_load(points)
    slow_tree = ZkdTree(grid64, page_capacity=10)
    slow_tree.tree.bulk_load(
        (r.z, r.payload) for r in scalar_point_sequence(grid64, points)
    )
    assert len(fast_tree) == len(slow_tree) == len(points)
    assert fast_tree.points() == slow_tree.points()
    assert fast_tree.npages == slow_tree.npages
    box = random_box(rng, grid64)
    assert (
        fast_tree.range_query(box).matches
        == slow_tree.range_query(box).matches
    )


def test_relational_plan_matches_brute_force(grid64, rng):
    from repro.db.relation import Relation

    schema = Schema.of(("id", OID), ("x", INTEGER), ("y", INTEGER))
    rel = Relation("pts", schema)
    points = random_points(rng, grid64, 200)
    for i, (x, y) in enumerate(points):
        rel.insert((i, x, y))
    for _ in range(5):
        box = random_box(rng, grid64)
        plan = range_search_plan(rel, ["x", "y"], box, grid64)
        assert sorted(plan.rows) == sorted(
            tuple(p) for p in points if box.contains_point(p)
        )


def test_database_range_query_matches_brute_force(grid64):
    rng = random.Random(0xD6)
    db = SpatialDatabase(grid64, page_capacity=8)
    db.create_table(
        "cities", Schema.of(("c@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    points = random_points(rng, grid64, 150)
    for i, (x, y) in enumerate(points):
        db.insert("cities", (f"c{i}", x, y))
    db.create_index("cities_xy", "cities", ("x", "y"))
    for _ in range(8):
        box = random_box(rng, grid64)
        rows = db.range_query("cities", ("x", "y"), box).rows
        assert sorted(rows) == sorted(
            (f"c{i}", x, y)
            for i, (x, y) in enumerate(points)
            if box.contains_point((x, y))
        )
