"""Sharded spatial engine: z-range partitioning with scatter–gather
reads.

The paper's invariant — objects are sets of elements, elements are
contiguous z intervals, algorithms are merges of z-ordered sequences —
makes the keyspace trivially partitionable.  This package cuts z space
at element boundaries (:mod:`~repro.shard.partition`), stores one zkd
tree per shard (:mod:`~repro.shard.store`), and answers a query as
pruned per-shard merges run in shard order
(:mod:`~repro.shard.scatter`) with an order-preserving gather.  Results
are byte-identical to the single-store algorithms — the differential
test suite holds the engine to exactly that.
"""

from repro.shard.partition import ZRangePartitioner
from repro.shard.scatter import (
    PartialResultError,
    ResiliencePolicy,
    ScatterStats,
    run_shard_calls,
)
from repro.shard.store import (
    ShardedQueryResult,
    ShardedSpatialStore,
    gather_in_z_order,
)

__all__ = [
    "PartialResultError",
    "ResiliencePolicy",
    "ScatterStats",
    "run_shard_calls",
    "ZRangePartitioner",
    "ShardedQueryResult",
    "ShardedSpatialStore",
    "gather_in_z_order",
]
