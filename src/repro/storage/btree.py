"""A B+-tree with paged leaves — the file organization of Section 4/5.

"For the experiments we implemented a prefix B+tree to store points in z
order" (Section 5.3.2).  This module supplies that structure:

* leaf pages live in a :class:`~repro.storage.page.PageStore` and are
  fetched through a :class:`~repro.storage.buffer.BufferManager`, so
  data-page accesses are observable — the quantity the experiments
  measure;
* inner nodes are kept in memory (the paper counts *data* pages only);
* separators are the **shortest distinguishing prefixes** of the keys
  they separate (the "prefix" in prefix B+-tree), computed on the z
  codes' bitstrings;
* :func:`scan_ranges` is every leaf-chain read: driven by z ranges, it
  bisects a leaf per range and slices its records, loading exactly the
  pages the Section 3.3 merge would and building no object per record;
* :class:`BTreeCursor` is the record-at-a-time sequential + random
  access (``step`` / ``seek``) of the :class:`repro.core.rangesearch.
  ZCursor` interface — the merge oracle's point side and the merge
  join's.

Duplicate keys are allowed (two points may share a pixel).  Insertion
sends duplicates to the right; the loose separator invariant
``left keys <= separator <= right keys`` is restored by seeks descending
to the leftmost eligible child and scanning forward along the leaf
chain.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.rangesearch import MergeStats, PointRecord, ZCursor
from repro.storage.buffer import BufferManager
from repro.storage.page import Page, PageStore, Record

__all__ = ["shortest_separator", "BPlusTree", "BTreeCursor", "scan_ranges"]

#: ``advance(floor)``: the next ``(zlo, zhi)`` range with ``zhi >= floor``
#: in ascending order, or ``None`` when there is none.
Advance = Callable[[int], Optional[Tuple[int, int]]]


def shortest_separator(left_high: int, right_low: int, total_bits: int) -> int:
    """The smallest key ``s`` with ``left_high < s <= right_low`` having
    the most trailing zero bits — the shortest bitstring prefix that
    separates the two keys.

    This is the prefix B+-tree separator rule applied to fixed-width
    z codes: strip the common prefix, keep one more bit, pad with zeros.
    """
    if left_high >= right_low:
        raise ValueError(
            f"keys not separable: left high {left_high} >= right low {right_low}"
        )
    if right_low >= (1 << total_bits):
        raise ValueError(f"key {right_low} does not fit in {total_bits} bits")
    diff = left_high ^ right_low
    # Position (from LSB) of the highest differing bit.
    top = diff.bit_length() - 1
    # Keep the common prefix plus the first differing bit (which is 1 in
    # right_low since right_low > left_high), zero the rest.
    return (right_low >> top) << top


def separator_prefix_length(separator: int, total_bits: int) -> int:
    """Stored bit length of a prefix-compressed separator."""
    if separator == 0:
        return 0
    trailing = (separator & -separator).bit_length() - 1
    return total_bits - trailing


class _InnerNode:
    """An in-memory index node: ``len(children) == len(keys) + 1``."""

    __slots__ = ("keys", "children")

    def __init__(
        self,
        keys: List[int],
        children: List[Union["_InnerNode", int]],
    ) -> None:
        self.keys = keys
        self.children = children

    @property
    def nchildren(self) -> int:
        return len(self.children)


@dataclass
class _SplitResult:
    separator: int
    new_node: Union[_InnerNode, int]


class BPlusTree:
    """B+-tree over integer keys with duplicate support.

    ``order`` bounds the number of children of an inner node;
    leaf capacity comes from the page store.
    """

    def __init__(
        self,
        store: PageStore,
        buffer: Optional[BufferManager] = None,
        order: int = 32,
        total_bits: int = 64,
        _allocate_first_leaf: bool = True,
    ) -> None:
        if order < 3:
            raise ValueError("order must be at least 3")
        self._store = store
        # NOTE: `buffer or ...` would be wrong here — an empty
        # BufferManager is falsy (it defines __len__).
        self._buffer = (
            buffer if buffer is not None else BufferManager(store, capacity=8)
        )
        self._order = order
        self._total_bits = total_bits
        self._root: Union[_InnerNode, int] = 0
        self._first_leaf = 0
        self._nrecords = 0
        #: Records per leaf page id, kept by every leaf write
        #: (:meth:`_mark_dirty`): the planner's statistics and the
        #: rebalancing fill checks read it instead of the pages.
        self._counts: Dict[int, int] = {}
        #: Every leaf page id touched, in access order; the experiment
        #: harness resets this per query and counts distinct entries.
        self.leaf_accesses: List[int] = []
        #: Index-descent accounting for the observability layer: how many
        #: root-to-leaf descents ran and how many inner nodes they
        #: visited (the "index descent" term of the planner's cost).
        self.descents = 0
        self.node_visits = 0
        if _allocate_first_leaf:
            first = store.allocate()
            self._buffer.put(first)
            self._counts[first.page_id] = 0
            self._root = first.page_id
            self._first_leaf = first.page_id

    @classmethod
    def open(
        cls,
        store: PageStore,
        buffer: Optional[BufferManager] = None,
        order: int = 32,
        total_bits: int = 64,
    ) -> "BPlusTree":
        """Rebuild a tree over an existing leaf chain (e.g. a
        :class:`~repro.storage.diskstore.FilePageStore` written by an
        earlier process).  Inner nodes live in memory, so only the leaf
        chain persists; the index is reconstructed bottom-up here.
        """
        live = store.page_ids()
        if not live:
            return cls(store, buffer, order, total_bits)
        targets = set()
        for page_id in live:
            next_page = store.peek(page_id).next_page
            if next_page is not None:
                targets.add(next_page)
        heads = [page_id for page_id in live if page_id not in targets]
        if len(heads) != 1:
            raise ValueError(
                f"store does not contain a single leaf chain "
                f"(chain heads: {heads})"
            )
        tree = cls(
            store, buffer, order, total_bits, _allocate_first_leaf=False
        )
        tree._first_leaf = heads[0]
        tree._root = heads[0]
        tree._rebuild_index()
        return tree

    def _rebuild_index(self) -> None:
        """Reconstruct the in-memory inner levels from the leaf chain.

        One pass that keeps a separator per leaf, never the decoded
        leaves: reopening a store must not hold the whole tree's records
        in memory at once."""
        level: List[Tuple[int, Union[_InnerNode, int]]] = []
        count = 0
        previous_high: Optional[int] = None  # of the last non-empty leaf
        left_high: Optional[int] = None  # of the leaf just before, if any
        for page_id in self.leaf_ids():
            page = self._store.peek(page_id)
            count += page.nrecords
            self._counts[page_id] = page.nrecords
            low = None if page.is_empty else page.low_key
            if low is not None:
                if previous_high is not None and previous_high > low:
                    raise ValueError("leaf chain is not key-ordered")
                previous_high = page.high_key
            if not level:
                separator = 0
            elif left_high is not None and low is not None and left_high < low:
                separator = shortest_separator(left_high, low, self._total_bits)
            else:
                separator = 0 if low is None else low
            level.append((separator, page_id))
            left_high = None if low is None else page.high_key
        self._nrecords = count
        if len(level) <= 1:
            self._root = self._first_leaf
            return
        while len(level) > 1:
            next_level: List[Tuple[int, Union[_InnerNode, int]]] = []
            for start in range(0, len(level), self._order):
                group = level[start : start + self._order]
                node = _InnerNode(
                    keys=[key for key, _ in group[1:]],
                    children=[child for _, child in group],
                )
                next_level.append((group[0][0], node))
            level = next_level
        self._root = level[0][1]

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def store(self) -> PageStore:
        return self._store

    @property
    def buffer(self) -> BufferManager:
        return self._buffer

    def __len__(self) -> int:
        return self._nrecords

    @property
    def height(self) -> int:
        """Number of inner levels above the leaves."""
        h = 0
        node = self._root
        while isinstance(node, _InnerNode):
            h += 1
            node = node.children[0]
        return h

    @property
    def nleaves(self) -> int:
        """Leaf pages, counted off the in-memory index: no page is read
        (a versioned store would copy every one)."""
        level: List[Union[_InnerNode, int]] = [self._root]
        while isinstance(level[0], _InnerNode):
            level = [child for node in level for child in node.children]
        return len(level)

    def leaf_ids(self) -> Iterator[int]:
        """Leaf page ids in key (chain) order, without access counting."""
        page_id: Optional[int] = self._first_leaf
        while page_id is not None:
            page = self._buffer.peek(page_id)
            yield page_id
            page_id = page.next_page

    def reset_access_log(self) -> None:
        self.leaf_accesses.clear()

    def reset_counters(self) -> None:
        """Zero the per-query counters (access log + descent counts)."""
        self.leaf_accesses.clear()
        self.descents = 0
        self.node_visits = 0

    def _load_leaf(self, page_id: int) -> Page:
        self.leaf_accesses.append(page_id)
        return self._buffer.get(page_id)

    def clone_index(self) -> Tuple[Union[_InnerNode, int], int, int]:
        """A deep copy of the in-memory inner-node graph plus the chain
        head and record count — leaves are referenced by page id only.

        The snapshot layer freezes this at pin time; later splits and
        merges mutate only the live graph, so a frozen copy stays a
        consistent router into the page versions retained for its epoch.
        """

        def copy(node: Union[_InnerNode, int]) -> Union[_InnerNode, int]:
            if isinstance(node, _InnerNode):
                return _InnerNode(
                    list(node.keys), [copy(child) for child in node.children]
                )
            return node

        return copy(self._root), self._first_leaf, self._nrecords

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        if not 0 <= key < (1 << self._total_bits):
            raise ValueError(f"key {key} outside [0, 2**{self._total_bits})")
        split = self._insert_into(self._root, key, value)
        if split is not None:
            self._root = _InnerNode(
                keys=[split.separator], children=[self._root, split.new_node]
            )
        self._nrecords += 1

    def _insert_into(
        self, node: Union[_InnerNode, int], key: int, value: Any
    ) -> Optional[_SplitResult]:
        if isinstance(node, _InnerNode):
            index = bisect.bisect_right(node.keys, key)
            split = self._insert_into(node.children[index], key, value)
            if split is None:
                return None
            node.keys.insert(index, split.separator)
            node.children.insert(index + 1, split.new_node)
            if node.nchildren <= self._order:
                return None
            return self._split_inner(node)
        return self._insert_into_leaf(node, key, value)

    def _insert_into_leaf(
        self, page_id: int, key: int, value: Any
    ) -> Optional[_SplitResult]:
        page = self._load_leaf(page_id)
        if not page.is_full:
            page.insert(key, value)
            self._mark_dirty(page)
            return None
        # Split, preferring a boundary that does not break a duplicate
        # run so the strict prefix separator exists.
        sibling_page = self._store.allocate()
        self._buffer.put(sibling_page)
        records = sorted(page.records + [(key, value)], key=lambda r: r[0])
        mid = self._duplicate_safe_split_point(records)
        sibling_page.records = records[mid:]
        sibling_page.next_page = page.next_page
        page.records = records[:mid]
        page.next_page = sibling_page.page_id
        self._mark_dirty(page, sibling_page)
        separator = self._leaf_separator(page, sibling_page)
        return _SplitResult(separator=separator, new_node=sibling_page.page_id)

    @staticmethod
    def _duplicate_safe_split_point(records: List[Tuple[int, Any]]) -> int:
        mid = len(records) // 2
        lo, hi = mid, mid
        while lo > 1 and records[lo - 1][0] == records[lo][0]:
            lo -= 1
        while hi < len(records) - 1 and records[hi - 1][0] == records[hi][0]:
            hi += 1
        if records[lo - 1][0] != records[lo][0] and mid - lo <= hi - mid:
            return lo
        if records[hi - 1][0] != records[hi][0]:
            return hi
        return lo if records[lo - 1][0] != records[lo][0] else mid

    def _leaf_separator(self, left: Page, right: Page) -> int:
        if left.high_key < right.low_key:
            return shortest_separator(
                left.high_key, right.low_key, self._total_bits
            )
        # A duplicate run spans the split (single-key page): fall back to
        # the plain low key; the loose invariant handles lookups.
        return right.low_key

    def _split_inner(self, node: _InnerNode) -> _SplitResult:
        mid = node.nchildren // 2
        separator = node.keys[mid - 1]
        right = _InnerNode(keys=node.keys[mid:], children=node.children[mid:])
        node.keys = node.keys[: mid - 1]
        node.children = node.children[:mid]
        return _SplitResult(separator=separator, new_node=right)

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------

    def bulk_load(
        self, records: Iterator[Tuple[int, Any]], fill_factor: float = 1.0
    ) -> None:
        """Build the tree bottom-up from records ("existing sort
        utilities can be used to create z ordered sequences", Section 4
        — this is the load path that exploits them).

        The tree must be empty.  Leaves are packed to ``fill_factor`` of
        capacity; 1.0 gives minimum pages (best read efficiency), lower
        values leave slack for subsequent inserts.
        """
        if self._nrecords:
            raise ValueError("bulk_load requires an empty tree")
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError("fill factor must be in (0, 1]")
        items = sorted(records, key=lambda r: r[0])
        if not items:
            return
        for key, _ in items:
            if not 0 <= key < (1 << self._total_bits):
                raise ValueError(
                    f"key {key} outside [0, 2**{self._total_bits})"
                )
        per_leaf = max(1, int(self._store.page_capacity * fill_factor))
        # Fill the pre-allocated first leaf, then chain new ones.
        leaves: List[Page] = []
        first = self._buffer.peek(self._first_leaf)
        for start in range(0, len(items), per_leaf):
            chunk = items[start : start + per_leaf]
            if start == 0:
                page = first
                page.records = list(chunk)
            else:
                page = self._store.allocate()
                page.records = list(chunk)
                leaves[-1].next_page = page.page_id
            leaves.append(page)
        # Push every filled leaf through the buffer so the chain and
        # contents reach persistent stores (mutating the Page objects
        # alone is only visible to the in-memory store).
        self._mark_dirty(*leaves)
        # Build the index levels bottom-up.
        level: List[Tuple[int, Union[_InnerNode, int]]] = [
            (page.low_key, page.page_id) for page in leaves
        ]
        # Replace low keys with prefix-compressed separators where a
        # left neighbour exists.
        for index in range(1, len(level)):
            left_high = leaves[index - 1].high_key
            right_low = leaves[index].low_key
            if left_high < right_low:
                level[index] = (
                    shortest_separator(
                        left_high, right_low, self._total_bits
                    ),
                    level[index][1],
                )
        fanout = self._order
        while len(level) > 1:
            next_level: List[Tuple[int, Union[_InnerNode, int]]] = []
            for start in range(0, len(level), fanout):
                group = level[start : start + fanout]
                node = _InnerNode(
                    keys=[key for key, _ in group[1:]],
                    children=[child for _, child in group],
                )
                next_level.append((group[0][0], node))
            level = next_level
        self._root = level[0][1]
        self._nrecords = len(items)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _leftmost_leaf_for(self, key: int) -> int:
        self.descents += 1
        node = self._root
        while isinstance(node, _InnerNode):
            self.node_visits += 1
            node = node.children[bisect.bisect_left(node.keys, key)]
        return node

    def search(self, key: int) -> List[Any]:
        """All values stored under ``key``."""
        out: List[Any] = []
        cursor = self.cursor(start=key)
        record = cursor.current
        while record is not None and record.z == key:
            out.append(record.payload)
            record = cursor.step()
        return out

    def cursor(self, start: Optional[int] = None) -> "BTreeCursor":
        """A seekable cursor over the leaf chain, positioned at the first
        record with key ``>= start`` (or the first record)."""
        return BTreeCursor(self, start)

    def items(self) -> Iterator[Tuple[int, Any]]:
        """All records in key order (counts page accesses)."""
        cursor = self.cursor()
        record = cursor.current
        while record is not None:
            yield record.z, record.payload
            record = cursor.step()

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, key: int, value: Any = None) -> bool:
        """Remove one record with ``key`` (and ``value`` if given).
        Returns whether a record was removed."""
        removed = self._delete_from(self._root, key, value)
        if removed:
            self._nrecords -= 1
            if isinstance(self._root, _InnerNode) and self._root.nchildren == 1:
                self._root = self._root.children[0]
        return removed

    def _min_leaf_fill(self) -> int:
        return self._store.page_capacity // 2

    def _delete_from(
        self, node: Union[_InnerNode, int], key: int, value: Any
    ) -> bool:
        if not isinstance(node, _InnerNode):
            page = self._load_leaf(node)
            removed = page.remove(key, value)
            if removed:
                self._mark_dirty(page)
            return removed
        # The record may sit in any child from the leftmost eligible to
        # the rightmost eligible (duplicates straddle separators).
        lo = bisect.bisect_left(node.keys, key)
        hi = bisect.bisect_right(node.keys, key)
        for index in range(lo, hi + 1):
            if self._delete_from(node.children[index], key, value):
                self._rebalance_child(node, index)
                return True
        return False

    def _rebalance_child(self, parent: _InnerNode, index: int) -> None:
        child = parent.children[index]
        if isinstance(child, _InnerNode):
            if child.nchildren >= max(2, self._order // 2):
                return
            self._rebalance_inner(parent, index)
        else:
            if self._counts[child] >= self._min_leaf_fill():
                return
            self._rebalance_leaf(parent, index)

    # -- leaf rebalancing ------------------------------------------------

    def _rebalance_leaf(self, parent: _InnerNode, index: int) -> None:
        page = self._load_leaf(parent.children[index])
        left = (
            self._load_leaf(parent.children[index - 1]) if index > 0 else None
        )
        right = (
            self._load_leaf(parent.children[index + 1])
            if index + 1 < parent.nchildren
            else None
        )
        minimum = self._min_leaf_fill()
        # Borrow from the richer sibling when it can spare a record.
        if left is not None and left.nrecords > minimum:
            record = left.records.pop()
            page.records.insert(0, record)
            parent.keys[index - 1] = self._safe_separator(left, page)
            self._mark_dirty(left, page)
            return
        if right is not None and right.nrecords > minimum:
            record = right.records.pop(0)
            page.records.append(record)
            if right.is_empty:
                # Should not happen (right was above minimum) — guard.
                raise AssertionError("borrow emptied the right sibling")
            parent.keys[index] = self._safe_separator(page, right)
            self._mark_dirty(page, right)
            return
        # Merge with a sibling.
        if left is not None:
            self._merge_leaves(parent, index - 1, left, page)
        elif right is not None:
            self._merge_leaves(parent, index, page, right)
        # Else: single-child parent, handled by root collapse.

    def _safe_separator(self, left: Page, right: Page) -> int:
        if left.is_empty or right.is_empty:
            raise AssertionError("separator requested for an empty page")
        if left.high_key < right.low_key:
            return shortest_separator(
                left.high_key, right.low_key, self._total_bits
            )
        return right.low_key

    def _mark_dirty(self, *pages: Page) -> None:
        """Write leaves back through the buffer and record their counts
        — the one path every leaf write takes."""
        for page in pages:
            self._buffer.put(page, dirty=True)
            self._counts[page.page_id] = page.nrecords

    def _merge_leaves(
        self, parent: _InnerNode, left_index: int, left: Page, right: Page
    ) -> None:
        left.records.extend(right.records)
        left.next_page = right.next_page
        self._mark_dirty(left)
        self._buffer.invalidate(right.page_id)
        self._store.free(right.page_id)
        del self._counts[right.page_id]
        del parent.keys[left_index]
        del parent.children[left_index + 1]

    # -- inner rebalancing -------------------------------------------------

    def _rebalance_inner(self, parent: _InnerNode, index: int) -> None:
        child = parent.children[index]
        assert isinstance(child, _InnerNode)
        left = parent.children[index - 1] if index > 0 else None
        right = (
            parent.children[index + 1]
            if index + 1 < parent.nchildren
            else None
        )
        minimum = max(2, self._order // 2)
        if isinstance(left, _InnerNode) and left.nchildren > minimum:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
            return
        if isinstance(right, _InnerNode) and right.nchildren > minimum:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
            return
        if isinstance(left, _InnerNode):
            self._merge_inner(parent, index - 1, left, child)
        elif isinstance(right, _InnerNode):
            self._merge_inner(parent, index, child, right)

    def _merge_inner(
        self,
        parent: _InnerNode,
        left_index: int,
        left: _InnerNode,
        right: _InnerNode,
    ) -> None:
        left.keys.append(parent.keys[left_index])
        left.keys.extend(right.keys)
        left.children.extend(right.children)
        del parent.keys[left_index]
        del parent.children[left_index + 1]

    # ------------------------------------------------------------------
    # Introspection for figures and benches
    # ------------------------------------------------------------------

    def separator_bit_lengths(self) -> List[int]:
        """Stored bit lengths of all index separators — the payoff of the
        prefix compression (benchmarked against full-width keys)."""
        bits: List[int] = []

        def walk(node: Union[_InnerNode, int]) -> None:
            if isinstance(node, _InnerNode):
                bits.extend(
                    separator_prefix_length(key, self._total_bits)
                    for key in node.keys
                )
                for sub in node.children:
                    walk(sub)

        walk(self._root)
        return bits

    def partition_boundaries(self) -> List[int]:
        """The low key of every leaf page, in order — the page
        boundaries that induce the spatial partition of Figure 6."""
        bounds = []
        for page_id in self.leaf_ids():
            page = self._buffer.peek(page_id)
            if not page.is_empty:
                bounds.append(page.low_key)
        return bounds

    def cover_stats(self, kernel: Any) -> Tuple[float, int, int]:
        """``(expected records, pages read, box nodes left)`` of a scan
        of the box whose :class:`~repro.core.decompose._BoxKernel` is
        ``kernel``, read off the in-memory index alone.

        The leaves are an equi-depth histogram over z: a leaf owns the
        codes between the separators on either side of it, ``(left,
        right]`` as the descent routes them, and holds its ``_counts``
        records spread uniformly over them.  The pages are the leaves
        the box meets, plus the leftmost leaf, where every
        :func:`scan_ranges` starts.  The leaves are visited in key order
        — one descent per inner node the box meets, then a forward
        bisect of its keys — and ``kernel.cover`` weighs the box against
        each, so the box is split only where a separator cuts it.  No
        page is read.  A concurrent writer may reshape a node mid-walk,
        so each node's lists are copied and clamped to a consistent
        length: the estimate may be off, the walk never fails.
        """
        nodes = kernel.start_cover()
        if not nodes:
            return 0.0, 0, 0
        cover = kernel.cover
        counts = self._counts
        leftmost = self._first_leaf
        bisect_left = bisect.bisect_left
        total = self._total_bits
        expected = 0.0
        pages = 1  # the leftmost leaf, until the box meets it

        def visit(node: Union[_InnerNode, int], lo: int, hi: int) -> None:
            nonlocal expected, pages
            if isinstance(node, _InnerNode):
                keys, children = list(node.keys), list(node.children)
            else:  # a one-leaf tree
                keys, children = [], [node]
            nkeys = min(len(keys), len(children) - 1)
            bottom = not isinstance(children[0], _InnerNode)
            zbits, length, _, _ = nodes[-1]
            i = bisect_left(keys, zbits << total - length, 0, nkeys)
            while True:
                # Equal keys (a duplicate run over several leaves) leave
                # the child between them just that one code.
                chi = keys[i] if i < nkeys else hi
                clo = keys[i - 1] + 1 if i else lo
                if clo > chi:
                    clo = chi
                if not bottom:
                    visit(children[i], clo, chi)
                else:
                    pixels = cover(clo, chi)
                    if pixels:
                        leaf = children[i]
                        expected += counts.get(leaf, 0) * pixels / (chi - clo + 1)
                        pages += leaf != leftmost
                if not nodes or i == nkeys:
                    return
                zbits, length, edges, _ = nodes[-1]
                pad = total - length
                zlo = zbits << pad
                if zlo > hi:
                    return
                if zlo > chi:
                    i = bisect_left(keys, zlo, i + 1, nkeys)
                    continue
                zhi = ((zbits + 1) << pad) - 1
                if bottom and not edges and zhi > chi:
                    # Inside the box past this leaf: every leaf before the
                    # one holding its last code is covered whole.
                    j = bisect_left(keys, zhi, i + 1, nkeys)
                    expected += sum(counts.get(c, 0) for c in children[i + 1 : j])
                    pages += j - i - 1
                    i = j - 1
                i += 1

        visit(self._root, 0, (1 << total) - 1)
        return expected, pages, len(nodes)

    def check_invariants(self) -> None:
        """Validate structure; raises ``AssertionError`` on violation.
        Used by the property-based tests."""
        leaf_chain = list(self.leaf_ids())
        assert len(set(leaf_chain)) == len(leaf_chain), "leaf chain has a cycle"
        assert self.nleaves == len(leaf_chain), "index and leaf chain differ"
        previous_high: Optional[int] = None
        total = 0
        for page_id in leaf_chain:
            page = self._buffer.peek(page_id)
            keys = page.keys()
            assert keys == sorted(keys), f"leaf {page_id} out of order"
            assert page.nrecords <= page.capacity, f"leaf {page_id} overflow"
            if keys:
                if previous_high is not None:
                    assert previous_high <= keys[0], "leaf chain out of order"
                previous_high = keys[-1]
            total += page.nrecords
        assert total == self._nrecords, (
            f"record count drift: chain has {total}, tree says {self._nrecords}"
        )
        assert self._counts == {
            page_id: self._buffer.peek(page_id).nrecords for page_id in leaf_chain
        }, "per-leaf counts differ from the leaf chain"

        reachable: List[int] = []

        def walk(node: Union[_InnerNode, int]) -> None:
            if isinstance(node, _InnerNode):
                assert len(node.keys) + 1 == len(node.children)
                assert node.keys == sorted(node.keys)
                assert node.nchildren <= self._order, "inner node overflow"
                for sub in node.children:
                    walk(sub)
            else:
                reachable.append(node)

        walk(self._root)
        assert reachable == leaf_chain, (
            "index does not reach the leaf chain in order: "
            f"{reachable} vs {leaf_chain}"
        )


def _descend(
    tree: Any, key: int, load: Callable[[int], Page]
) -> Tuple[Optional[Page], int]:
    """The leaf and index of the first record with a key ``>= key``
    (``(None, 0)`` past the chain's end): descend to the leftmost
    eligible leaf, then walk the chain, loading leaves through ``load``.
    """
    page = load(tree._leftmost_leaf_for(key))
    # ``(key,)`` sorts just before every ``(key, value)`` record, so
    # this lands where bisecting a freshly built key list would.
    probe = (key,)
    index = bisect.bisect_left(page.records, probe)
    while index >= len(page.records):
        if page.next_page is None:
            return None, 0
        page = load(page.next_page)
        index = bisect.bisect_left(page.records, probe)
    return page, index


class BTreeCursor(ZCursor[Any]):
    """Sequential/random access over the leaf chain.

    Implements the :class:`~repro.core.rangesearch.ZCursor` protocol, so
    a B+-tree can stand in wherever a sorted point list could — the
    paper's "any data structure that supports both random and sequential
    accessing can be used".
    """

    def __init__(self, tree: BPlusTree, start: Optional[int] = None) -> None:
        self._tree = tree
        self._page: Optional[Page] = None
        self._index = 0
        self._position(0 if start is None else start)

    def _position(self, key: int) -> None:
        self._page, self._index = _descend(self._tree, key, self._tree._load_leaf)

    @property
    def current(self) -> Optional[PointRecord[Any]]:
        if self._page is None:
            return None
        key, value = self._page.records[self._index]
        return PointRecord(key, value)

    def step(self) -> Optional[PointRecord[Any]]:
        if self._page is None:
            return None
        self._index += 1
        while self._index >= self._page.nrecords:
            if self._page.next_page is None:
                self._page = None
                self._index = 0
                return None
            self._page = self._tree._load_leaf(self._page.next_page)
            self._index = 0
        return self.current

    def seek(self, z: int) -> Optional[PointRecord[Any]]:
        record = self.current
        if record is not None and record.z >= z:
            return record
        if self._page is not None and self._page.high_key >= z:
            # Target is on the current page: binary search locally.
            self._index = bisect.bisect_left(
                self._page.records, (z,), lo=self._index
            )
            return self.current
        # Random access: descend from the root.
        self._position(z)
        return self.current


def scan_ranges(
    tree: Any,
    advance: Advance,
    loaded: Dict[int, int],
    stats: Optional[MergeStats] = None,
) -> Iterator[List[Record]]:
    """The records whose keys fall in the ranges ``advance`` hands out,
    as one slice of a leaf's records per (range, leaf) pair, in key
    order — the merge of Section 3.3 taken a range at a time.

    ``tree`` is anything with ``_leftmost_leaf_for`` and ``_load_leaf``
    (a :class:`BPlusTree`, or a snapshot view's frozen index).  For the
    current range ``[zlo, zhi]`` and the key under the scan:

    * key below ``zlo`` — seek: bisect the leaf when its high key reaches
      ``zlo``, else descend from the root (a *point seek*);
    * key above ``zhi`` — ``advance(key)`` (an *element seek*);
    * otherwise bisect ``zhi + 1`` and take the slice, following the
      chain past the leaf's end, then ``advance`` from the key that
      ended it (an element seek, as the merge's next step would be).

    These are :class:`BTreeCursor`'s page loads under the merge, so
    ``loaded`` — page id to record count, filled as leaves load — and
    ``stats``' seeks and matches equal the merge's; ``records_scanned``
    is their sum, one merge step each.
    """
    load_leaf = tree._load_leaf
    bisect_left = bisect.bisect_left

    def load(page_id: int) -> Page:
        page = load_leaf(page_id)
        loaded[page_id] = len(page.records)
        return page

    page, index = _descend(tree, 0, load)
    bounds = advance(0)
    matches = point_seeks = element_seeks = 0
    while page is not None and bounds is not None:
        records = page.records
        key = records[index][0]
        zlo, zhi = bounds
        if key < zlo:
            point_seeks += 1
            if records[-1][0] >= zlo:
                index = bisect_left(records, (zlo,), index)
            else:
                page, index = _descend(tree, zlo, load)
            continue
        if key <= zhi:
            probe = (zhi + 1,)
            while True:
                end = bisect_left(records, probe, index)
                matches += end - index
                if end > index:
                    yield records[index:end]
                if end < len(records):
                    index = end
                    break
                if page.next_page is None:
                    page = None
                    break
                page = load(page.next_page)  # an empty leaf slices empty
                records, index = page.records, 0
            if page is None:
                break
            key = records[index][0]
        element_seeks += 1
        bounds = advance(key)
    if stats is not None:
        stats.matches += matches
        stats.points_examined += matches
        stats.point_seeks += point_seeks
        stats.element_seeks += element_seeks
        stats.records_scanned += matches + point_seeks + element_seeks
