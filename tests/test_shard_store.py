"""Integration tests for the sharded spatial store.

Everything here checks one of three promises: (1) results are identical
to the single-store path, (2) shards that cannot contribute are pruned
before dispatch, (3) the trace/EXPLAIN surface reports per-shard
actuals.
"""

import random

import pytest

from repro.core.geometry import Box, Grid
from repro.core.rangesearch import range_search_bigmin
from repro.db import INTEGER, OID, Schema, SpatialDatabase
from repro.db.statistics import estimate_matches, estimate_pages
from repro.obs import format_trace, trace
from repro.shard import ShardedSpatialStore, ZRangePartitioner
from repro.storage.btree import BTreeCursor
from repro.storage.diskstore import FilePageStore
from repro.storage.prefix_btree import ZkdTree

from conftest import random_box, random_points


@pytest.fixture
def loaded(grid64, rng):
    pts = random_points(rng, grid64, 1200)
    single = ZkdTree(grid64)
    single.bulk_load(pts)
    store = ShardedSpatialStore.build(grid64, pts, nshards=4)
    return pts, single, store


# ----------------------------------------------------------------------
# Routing and maintenance
# ----------------------------------------------------------------------


def test_points_land_in_owning_shard(loaded, grid64):
    _, _, store = loaded
    for shard_id, shard in enumerate(store.shards):
        lo, hi = store.partitioner.interval(shard_id)
        for point in shard.points():
            assert lo <= grid64.zvalue(point).bits <= hi


def test_bulk_load_and_insert_agree(grid64, rng):
    pts = random_points(rng, grid64, 400)
    bulk = ShardedSpatialStore.build(grid64, pts, nshards=3)
    incremental = ShardedSpatialStore(grid64, nshards=3)
    for p in pts:
        incremental.insert(p)
    assert bulk.points() == incremental.points()
    assert bulk.shard_sizes() == incremental.shard_sizes()


def test_len_contains_delete(grid64, rng):
    pts = random_points(rng, grid64, 200)
    store = ShardedSpatialStore.build(grid64, pts, nshards=4)
    assert len(store) == len(pts)
    assert pts[0] in store
    assert store.delete(pts[0])
    assert len(store) == len(pts) - 1
    assert not store.delete((grid64.side - 1, grid64.side - 1)) or True
    # points() stays globally z-ordered after the delete
    codes = [grid64.zvalue(p).bits for p in store.points()]
    assert codes == sorted(codes)


def test_build_validates_partition_policy(grid64):
    with pytest.raises(ValueError):
        ShardedSpatialStore.build(grid64, [], nshards=2, partition="bogus")
    with pytest.raises(ValueError):
        ShardedSpatialStore(
            grid64,
            partitioner=ZRangePartitioner.equi_width(grid64.total_bits, 2),
            nshards=3,
        )
    with pytest.raises(ValueError):
        ShardedSpatialStore(
            grid64, partitioner=ZRangePartitioner(4, ())
        )


# ----------------------------------------------------------------------
# Query identity and pruning
# ----------------------------------------------------------------------


def test_range_query_matches_single_store(loaded, rng, grid64):
    _, single, store = loaded
    for _ in range(25):
        box = random_box(rng, grid64)
        expected = single.range_query(box)
        got = store.range_query(box)
        assert got.matches == expected.matches
        assert len(got.shards_hit) + got.shards_pruned == store.nshards


def test_selective_box_prunes_shards(loaded):
    _, _, store = loaded
    # A tiny corner box decomposes into low-z elements only.
    result = store.range_query(Box(((0, 3), (0, 3))))
    assert result.shards_pruned >= 1
    assert result.shards_hit == (0,)


def test_degenerate_one_shard_store(grid64, rng):
    pts = random_points(rng, grid64, 150)
    single = ZkdTree(grid64)
    single.bulk_load(pts)
    store = ShardedSpatialStore.build(grid64, pts, nshards=1)
    box = random_box(rng, grid64)
    assert store.range_query(box).matches == single.range_query(box).matches
    assert store.range_query(box).shards_pruned == 0


def test_empty_box_dispatches_nothing(loaded, grid64):
    _, _, store = loaded
    side = grid64.side
    result = store.range_query(Box(((side + 5, side + 9), (0, 3))))
    assert result.matches == ()
    assert result.shards_hit == ()
    assert result.shards_pruned == store.nshards


def test_agrees_with_bigmin_reference(loaded, rng, grid64):
    _, single, store = loaded
    box = random_box(rng, grid64)
    expected = tuple(
        range_search_bigmin(BTreeCursor(single.tree), grid64, box)
    )
    assert single.range_query(box).matches == expected
    # Each shard's slice equals the decomposition-free reference on
    # that shard's own leaf chain, and the gather concatenates them.
    per_shard = [
        tuple(range_search_bigmin(BTreeCursor(shard.tree), grid64, box))
        for shard in store.shards
    ]
    assert store.range_query(box).matches == expected
    assert tuple(p for part in per_shard for p in part) == expected


def test_result_aggregates(loaded, rng, grid64):
    _, single, store = loaded
    box = Box(((4, 40), (4, 40)))
    got = store.range_query(box)
    assert got.nmatches == len(got.matches)
    assert got.pages_accessed == sum(
        r.pages_accessed for r in got.shard_results
    )
    assert got.merge.matches == got.nmatches
    assert 0.0 <= got.efficiency <= 1.0


def test_object_and_proximity_queries(loaded, grid64):
    _, single, store = loaded
    center = (grid64.side // 2, grid64.side // 2)
    assert (
        store.within_distance(center, 9.5).matches
        == single.within_distance(center, 9.5).matches
    )
    assert store.nearest_neighbours(center, 5) == (
        single.nearest_neighbours(center, 5)
    )


# ----------------------------------------------------------------------
# File-backed shards
# ----------------------------------------------------------------------


def test_file_backed_shards(tmp_path, grid64, rng):
    pts = random_points(rng, grid64, 400)
    single = ZkdTree(grid64)
    single.bulk_load(pts)
    store = ShardedSpatialStore.build(
        grid64,
        pts,
        nshards=2,
        store_factory=lambda i: FilePageStore(
            str(tmp_path / f"shard{i}.zkd"), page_capacity=20
        ),
    )
    try:
        for _ in range(5):
            box = random_box(rng, grid64)
            assert (
                store.range_query(box).matches
                == single.range_query(box).matches
            )
    finally:
        store.close()


# ----------------------------------------------------------------------
# Tracing and EXPLAIN
# ----------------------------------------------------------------------


def test_scatter_span_has_one_child_per_dispatched_shard(loaded):
    _, _, store = loaded
    with trace("q") as t:
        store.range_query(Box(((2, 30), (2, 30))))
    span = t.find("shard.scatter_gather")
    assert span is not None
    assert span.counters["shards_hit"] >= 1
    assert (
        span.counters["shards_hit"] + span.counters["shards_pruned"]
        == store.nshards
    )
    # One curated child per dispatched shard, nothing leaked from the
    # suppressed per-shard sub-queries.
    children = [c.name for c in span.children]
    assert all(name.startswith("shard[") for name in children)
    assert len(children) == span.counters["shards_hit"]


def test_explain_renders_per_shard_lines(loaded):
    _, _, store = loaded
    with trace("q") as t:
        store.range_query(Box(((0, 40), (0, 40))))
    text = format_trace(t)
    assert "shard.scatter_gather" in text
    assert "shards_pruned" in text
    # Compact one-line leaves with actual rows/pages and the z range.
    for line in text.splitlines():
        if line.lstrip().startswith("shard["):
            assert "rows=" in line and "pages=" in line and "z=[" in line
            break
    else:
        pytest.fail("no shard[i] line rendered")


def test_session_read_traces_like_the_live_read(grid64, rng):
    # A pinned read of a sharded index runs the live store's scatter:
    # the same span, counters and shard[i] children.
    db = SpatialDatabase(grid64, page_capacity=20)
    db.create_table(
        "t", Schema.of(("i@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    db.insert_many(
        "t",
        [
            (f"r{i}", x, y)
            for i, (x, y) in enumerate(random_points(rng, grid64, 800))
        ],
    )
    db.create_index("t_xy", "t", ("x", "y"), shards=4)
    box = Box(((2, 40), (2, 40)))

    def shape(span):
        return (
            span.name,
            span.attrs,
            span.counters,
            [shape(child) for child in span.children],
        )

    def scatter_span(reader):
        with trace("q") as t:
            reader.range_query_stats("t", ("x", "y"), box)
        span = t.find("shard.scatter_gather")
        assert span is not None
        return shape(span)

    with db.session() as session:
        pinned = scatter_span(session)
    live = scatter_span(db)
    assert pinned == live
    assert len(live[3]) == live[2]["shards_hit"] > 1


# ----------------------------------------------------------------------
# Database / planner / statistics integration
# ----------------------------------------------------------------------


def _seeded_db(grid, pts, **index_kwargs):
    db = SpatialDatabase(grid, page_capacity=20)
    db.create_table(
        "pts", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    db.insert_many(
        "pts", [(f"p{i}", x, y) for i, (x, y) in enumerate(pts)]
    )
    entry = db.create_index("pts_xy", "pts", ("x", "y"), **index_kwargs)
    return db, entry


def test_database_sharded_index_path(grid64, rng):
    pts = random_points(rng, grid64, 600)
    db_plain, _ = _seeded_db(grid64, pts)
    db_sharded, entry = _seeded_db(grid64, pts, shards=4)
    assert entry.tree.nshards == 4
    box = Box(((3, 27), (5, 33)))
    from repro.db.planner import plan_range_query

    plan = plan_range_query(db_sharded, "pts", ("x", "y"), box)
    assert plan.method == "sharded-index-scan"
    assert "sharded-index-scan" in plan.explain()
    assert sorted(plan.execute().rows) == sorted(
        db_plain.range_query("pts", ("x", "y"), box).rows
    )
    # Maintained inserts route into the sharded index too.
    db_sharded.insert("pts", ("new", 6, 6))
    assert (6, 6) in entry.tree
    stats = db_sharded.range_query_stats("pts", ("x", "y"), box)
    assert stats.shards_hit


def test_create_index_takes_the_ledgers_executor_literal(grid64, rng):
    # benchmarks/ledger/workloads.py passes executor="serial" and reads
    # a TypeError as "no sharding": the literal must keep building the
    # sharded index, and any other value must fail as a ValueError.
    pts = random_points(rng, grid64, 300)
    _, entry = _seeded_db(grid64, pts, shards=4, executor="serial")
    assert entry.tree.nshards == 4
    assert entry.tree.range_query(Box(((3, 27), (5, 33)))).shards_hit
    with pytest.raises(ValueError):
        _seeded_db(grid64, pts, shards=4, executor="process")


def test_sharded_estimates_close_to_single(grid64, rng):
    pts = random_points(rng, grid64, 800)
    single = ZkdTree(grid64, page_capacity=20)
    single.bulk_load(pts)
    store = ShardedSpatialStore.build(
        grid64, pts, nshards=4, page_capacity=20
    )
    for _ in range(10):
        box = random_box(rng, grid64)
        actual = store.range_query(box).nmatches
        est_sharded = estimate_matches(store, box)
        est_single = estimate_matches(single, box)
        # Same ballpark as the single-store histogram estimate.
        assert abs(est_sharded - actual) <= abs(est_single - actual) + max(
            20, 0.5 * actual
        )
        assert estimate_pages(store, box) >= 0


def test_balanced_partition_on_skew(grid64):
    rng = random.Random(5)
    # Clustered corner data: balanced cuts spread it, equi-width won't.
    pts = [(rng.randrange(12), rng.randrange(12)) for _ in range(500)]
    single = ZkdTree(grid64)
    single.bulk_load(pts)
    balanced = ShardedSpatialStore.build(
        grid64, pts, nshards=4, partition="balanced"
    )
    assert max(balanced.shard_sizes()) < len(pts)
    box = Box(((0, 11), (0, 11)))
    assert (
        balanced.range_query(box).matches
        == single.range_query(box).matches
    )


def test_grid3d_store(grid3d):
    rng = random.Random(9)
    pts = random_points(rng, grid3d, 300)
    single = ZkdTree(grid3d)
    single.bulk_load(pts)
    store = ShardedSpatialStore.build(grid3d, pts, nshards=3)
    box = random_box(rng, grid3d)
    assert store.range_query(box).matches == single.range_query(box).matches
