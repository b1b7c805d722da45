"""Quickstart: z values, decomposition, and range search in 60 lines.

Run:  python examples/quickstart.py
"""

import random

from repro import Box, Grid, ZkdTree, decompose_box, interleave
from repro.core.rangesearch import range_search_bigmin
from repro.core.zvalue import ZValue

# ----------------------------------------------------------------------
# 1. Z values: interleave coordinate bits (Figure 4 of the paper).
# ----------------------------------------------------------------------
grid = Grid(ndims=2, depth=3)  # an 8x8 pixel space
print("z code of [3, 5]:", interleave((3, 5), 3))  # -> 27 (011011)

# Elements are variable-length bitstrings naming regions.
element = ZValue.from_string("001")
print("element 001 covers x,y ranges:", element.region(ndims=2, depth=3))
print("its z interval:", element.interval(grid.total_bits))

# ----------------------------------------------------------------------
# 2. Decompose a query box into elements (Figure 2).
# ----------------------------------------------------------------------
box = Box(((1, 3), (0, 4)))  # the paper's running example
print("\ndecomposition of", box)
for z in decompose_box(grid, box):
    print(f"  {str(z):>6}  -> region {z.region(2, 3)}")

# ----------------------------------------------------------------------
# 3. Store points in a zkd B+-tree and run range queries (Section 5).
# ----------------------------------------------------------------------
big_grid = Grid(ndims=2, depth=8)  # 256 x 256
tree = ZkdTree(big_grid, page_capacity=20)

rng = random.Random(42)
points = [(rng.randrange(256), rng.randrange(256)) for _ in range(5000)]
tree.insert_many(points)
print(f"\nstored {len(tree)} points on {tree.npages} data pages")

query = Box(((40, 90), (60, 110)))
result = tree.range_query(query)
print(f"query {query}:")
print(f"  matches:        {result.nmatches}")
print(f"  pages accessed: {result.pages_accessed}")
print(f"  efficiency:     {result.efficiency:.2f}")

# The same search through BIGMIN jumps instead of box decomposition
# (the reference variant, run directly on a cursor over the leaf chain):
jumped = range_search_bigmin(tree.cursor(), big_grid, query)
assert tuple(jumped) == result.matches

# Partial-match query: fix x, leave y unrestricted (Section 5.3.1).
pm = tree.partial_match_query((128, None))
print(f"partial match x=128: {pm.nmatches} matches, "
      f"{pm.pages_accessed} pages")
