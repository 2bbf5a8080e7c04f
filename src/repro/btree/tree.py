"""A page-backed B+-tree with step-wise range cursors.

Every node visit goes through the buffer pool, so index scans and estimation
descents are charged in physical I/Os — the paper's metric. Leaves are
linked for range scans. Duplicate keys are supported by ordering entries on
``(key, rid)``.

Deletion is lazy (no rebalancing): the retrieval engine the paper describes
never depends on post-delete balance, and lazy deletion keeps RIDs and
estimates correct, which is what matters here.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import BTreeError
from repro.btree.node import InternalNode, Key, LeafNode, Node, normalize_key
from repro.storage.buffer_pool import BufferPool, CostMeter, NULL_METER
from repro.storage.pager import PageKind
from repro.storage.rid import RID

#: RID sentinels for entry-space range bounds.
RID_MIN = RID(-1, -1)
RID_MAX = RID(1 << 62, 1 << 62)


@functools.total_ordering
class _Top:
    """Sentinel comparing greater than every column value."""

    def __lt__(self, other: object) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Top)

    def __hash__(self) -> int:
        return hash("_Top")

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()

#: An entry is (key, rid); bounds are synthetic entries.
Entry = tuple[Key, RID]

#: CPU charge (in page-I/O units) for handing one index entry to a scan
ENTRY_CPU_COST = 0.0002


@dataclass(frozen=True)
class KeyRange:
    """A (possibly prefix, possibly open-ended) key range on an index.

    ``lo``/``hi`` are key tuples that may be shorter than the index key
    (prefix ranges); ``None`` means unbounded on that side.
    """

    lo: Key | None = None
    hi: Key | None = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    @staticmethod
    def all() -> "KeyRange":
        """The unbounded range (full index scan)."""
        return KeyRange()

    @staticmethod
    def exact(key: Any) -> "KeyRange":
        """An equality range on a (possibly prefix) key."""
        k = normalize_key(key)
        return KeyRange(lo=k, hi=k)

    @property
    def is_empty_syntactically(self) -> bool:
        """True when the bounds themselves admit no key."""
        if self.lo is None or self.hi is None:
            return False
        common = min(len(self.lo), len(self.hi))
        lo_cut, hi_cut = self.lo[:common], self.hi[:common]
        if lo_cut > hi_cut:
            return True
        if lo_cut == hi_cut and len(self.lo) == len(self.hi):
            return not (self.lo_inclusive and self.hi_inclusive)
        return False

    def low_bound(self) -> Entry | None:
        """Synthetic inclusive entry-space lower bound (None = open)."""
        if self.lo is None:
            return None
        if self.lo_inclusive:
            return (self.lo, RID_MIN)
        return (self.lo + (TOP,), RID_MAX)

    def high_bound(self) -> Entry | None:
        """Synthetic inclusive entry-space upper bound (None = open)."""
        if self.hi is None:
            return None
        if self.hi_inclusive:
            return (self.hi + (TOP,), RID_MAX)
        return (self.hi, RID_MIN)

    def contains_key(self, key: Key) -> bool:
        """Key-space membership with prefix semantics."""
        if self.lo is not None:
            cut = key[: len(self.lo)]
            if cut < self.lo or (cut == self.lo and not self.lo_inclusive):
                return False
        if self.hi is not None:
            cut = key[: len(self.hi)]
            if cut > self.hi or (cut == self.hi and not self.hi_inclusive):
                return False
        return True

    def describe(self) -> str:
        """Human-readable form for traces."""
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "+inf" if self.hi is None else repr(self.hi)
        lb = "[" if self.lo_inclusive else "("
        rb = "]" if self.hi_inclusive else ")"
        return f"{lb}{lo} .. {hi}{rb}"


def _entry_le(a: Entry | None, b: Entry, open_low: bool) -> bool:
    """a <= b treating None as -inf (open_low) — helper for bound checks."""
    if a is None:
        return True
    return a <= b


class BTree:
    """A B+-tree mapping composite keys to RIDs.

    ``order`` is the maximum entry count of a leaf and the maximum child
    count of an internal node. Real Rdb trees have fanouts in the hundreds;
    benchmarks use small orders so that trees are deep enough to show
    estimation behaviour at modest data sizes.
    """

    def __init__(self, buffer_pool: BufferPool, name: str, order: int = 32) -> None:
        if order < 4:
            raise BTreeError("order must be >= 4")
        self.buffer_pool = buffer_pool
        self.name = name
        self.order = order
        root = self._new_leaf(NULL_METER)
        self._root_id = root.page_id
        self.height = 1
        self.entry_count = 0
        self.leaf_count = 1
        self.internal_count = 0

    # -- node helpers -------------------------------------------------------

    def _new_leaf(self, meter: CostMeter) -> LeafNode:
        page = self.buffer_pool.allocate(PageKind.INDEX, owner=self.name, meter=meter)
        node = LeafNode(page_id=page.page_id)
        page.payload = node
        return node

    def _new_internal(self, meter: CostMeter) -> InternalNode:
        page = self.buffer_pool.allocate(PageKind.INDEX, owner=self.name, meter=meter)
        node = InternalNode(page_id=page.page_id)
        page.payload = node
        return node

    def _node(self, page_id: int, meter: CostMeter) -> Node:
        return self.buffer_pool.get(page_id, meter).payload

    def _peek_node(self, page_id: int) -> Node:
        """Unaccounted node access for oracles/invariant checks."""
        return self.buffer_pool.pager.peek(page_id).payload

    # -- mutation -------------------------------------------------------------

    def insert(self, key: Any, rid: RID, meter: CostMeter = NULL_METER) -> None:
        """Insert one ``(key, rid)`` entry. Duplicates of the same pair are
        allowed (multiset semantics, like a non-unique index)."""
        entry = (normalize_key(key), rid)
        split = self._insert_into(self._root_id, entry, meter)
        if split is not None:
            separator, new_child = split
            new_root = self._new_internal(meter)
            new_root.separators = [separator]
            new_root.children = [self._root_id, new_child]
            self._root_id = new_root.page_id
            self.height += 1
        self.entry_count += 1

    def _insert_into(
        self, page_id: int, entry: Entry, meter: CostMeter
    ) -> tuple[Entry, int] | None:
        node = self._node(page_id, meter)
        if node.is_leaf:
            return self._insert_into_leaf(node, entry, meter)
        index = node.child_index_for(entry)
        split = self._insert_into(node.children[index], entry, meter)
        if split is None:
            return None
        separator, new_child = split
        node.separators.insert(index, separator)
        node.children.insert(index + 1, new_child)
        if len(node.children) <= self.order:
            return None
        return self._split_internal(node, meter)

    def _insert_into_leaf(
        self, leaf: LeafNode, entry: Entry, meter: CostMeter
    ) -> tuple[Entry, int] | None:
        lo, hi = 0, len(leaf.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if leaf.entries[mid] < entry:
                lo = mid + 1
            else:
                hi = mid
        leaf.entries.insert(lo, entry)
        if len(leaf.entries) <= self.order:
            return None
        return self._split_leaf(leaf, meter)

    def _split_leaf(self, leaf: LeafNode, meter: CostMeter) -> tuple[Entry, int]:
        mid = len(leaf.entries) // 2
        right = self._new_leaf(meter)
        right.entries = leaf.entries[mid:]
        leaf.entries = leaf.entries[:mid]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right.page_id
        self.leaf_count += 1
        return right.entries[0], right.page_id

    def _split_internal(self, node: InternalNode, meter: CostMeter) -> tuple[Entry, int]:
        mid = len(node.separators) // 2
        separator = node.separators[mid]
        right = self._new_internal(meter)
        right.separators = node.separators[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.separators = node.separators[:mid]
        node.children = node.children[: mid + 1]
        self.internal_count += 1
        return separator, right.page_id

    def delete(self, key: Any, rid: RID, meter: CostMeter = NULL_METER) -> bool:
        """Remove one ``(key, rid)`` entry; returns False if absent.

        Lazy: leaves may underflow; separators are left untouched.
        """
        entry = (normalize_key(key), rid)
        page_id = self._root_id
        while True:
            node = self._node(page_id, meter)
            if node.is_leaf:
                break
            page_id = node.children[node.child_index_for(entry)]
        try:
            node.entries.remove(entry)
        except ValueError:
            return False
        self.entry_count -= 1
        return True

    # -- lookup / scans -------------------------------------------------------

    def search(self, key: Any, meter: CostMeter = NULL_METER) -> list[RID]:
        """All RIDs stored under an exact (full-length) key."""
        return [rid for _, rid in self.scan_range(KeyRange.exact(key), meter)]

    def range_cursor(self, key_range: KeyRange, meter: CostMeter | None = None) -> "RangeCursor":
        """Create a step-wise cursor over a key range."""
        return RangeCursor(self, key_range, meter if meter is not None else CostMeter(self.name))

    def scan_range(
        self, key_range: KeyRange, meter: CostMeter = NULL_METER
    ) -> Iterator[Entry]:
        """Iterate all entries of a range (convenience over the cursor)."""
        cursor = self.range_cursor(key_range, meter)
        while True:
            entry = cursor.next_entry()
            if entry is None:
                return
            yield entry

    def first_leaf_for(self, bound: Entry | None, meter: CostMeter) -> LeafNode:
        """Descend to the leaf that would contain ``bound`` (leftmost if None)."""
        page_id = self._root_id
        while True:
            node = self._node(page_id, meter)
            if node.is_leaf:
                return node
            if bound is None:
                page_id = node.children[0]
            else:
                page_id = node.children[node.child_index_for(bound)]

    @property
    def average_fanout(self) -> float:
        """Average tree fanout ``f`` used by the Figure 5 estimate.

        Computed so that a subtree rooted at level ``j`` (leaves at level 1)
        carries about ``f**j`` entries: ``f = entry_count ** (1/height)``,
        floored at 2 to keep powers meaningful for tiny trees.
        """
        if self.entry_count <= 1:
            return 2.0
        return max(2.0, self.entry_count ** (1.0 / self.height))

    # -- oracles / invariants (unaccounted) ------------------------------------

    def entries(self) -> Iterator[Entry]:
        """All entries in order, without charging I/O (test oracle)."""
        node = self._peek_node(self._root_id)
        while not node.is_leaf:
            node = self._peek_node(node.children[0])
        while True:
            yield from node.entries
            if node.next_leaf is None:
                return
            node = self._peek_node(node.next_leaf)

    def count_range_exact(self, key_range: KeyRange) -> int:
        """Exact number of entries in a range, without charging I/O."""
        return sum(1 for key, _ in self.entries() if key_range.contains_key(key))

    def check_invariants(self) -> None:
        """Raise :class:`BTreeError` on any structural violation."""
        leaf_depths: set[int] = set()
        count = self._check_node(self._root_id, None, None, 1, leaf_depths)
        if count != self.entry_count:
            raise BTreeError(f"entry_count={self.entry_count} but found {count}")
        if len(leaf_depths) > 1:
            raise BTreeError(f"leaves at multiple depths: {leaf_depths}")
        if leaf_depths and next(iter(leaf_depths)) != self.height:
            raise BTreeError("height mismatch")
        ordered = list(self.entries())
        if ordered != sorted(ordered):
            raise BTreeError("leaf chain out of order")

    def _check_node(
        self,
        page_id: int,
        low: Entry | None,
        high: Entry | None,
        depth: int,
        leaf_depths: set[int],
    ) -> int:
        node = self._peek_node(page_id)
        if node.is_leaf:
            leaf_depths.add(depth)
            for entry in node.entries:
                if low is not None and entry < low:
                    raise BTreeError(f"entry {entry} below node low bound {low}")
                if high is not None and entry >= high:
                    raise BTreeError(f"entry {entry} at/above node high bound {high}")
            return len(node.entries)
        if len(node.children) != len(node.separators) + 1:
            raise BTreeError("separator/child count mismatch")
        if node.separators != sorted(node.separators):
            raise BTreeError("separators out of order")
        total = 0
        for i, child in enumerate(node.children):
            child_low = node.separators[i - 1] if i > 0 else low
            child_high = node.separators[i] if i < len(node.separators) else high
            total += self._check_node(child, child_low, child_high, depth + 1, leaf_depths)
        return total


class RangeCursor:
    """Step-wise iteration over a key range, one entry (or leaf run) per call.

    The cursor records how many entries it has consumed; together with a
    range estimate this yields the "fraction scanned" that drives Jscan's
    projected-cost calculation.
    """

    def __init__(self, tree: BTree, key_range: KeyRange, meter: CostMeter) -> None:
        self.tree = tree
        self.key_range = key_range
        self.meter = meter
        self.consumed = 0
        self.exhausted = False
        self._high = key_range.high_bound()
        self._leaf: LeafNode | None = None
        self._pos = 0
        if key_range.is_empty_syntactically:
            self.exhausted = True
            return
        low = key_range.low_bound()
        self._leaf = tree.first_leaf_for(low, meter)
        self._pos = 0
        if low is not None:
            # binary search within the leaf for the first qualifying entry
            entries = self._leaf.entries
            lo, hi = 0, len(entries)
            while lo < hi:
                mid = (lo + hi) // 2
                if entries[mid] < low:
                    lo = mid + 1
                else:
                    hi = mid
            self._pos = lo

    def next_entry(self) -> Entry | None:
        """Return the next (key, rid) entry, or None when the range ends."""
        if self.exhausted:
            return None
        while True:
            assert self._leaf is not None
            if self._pos >= len(self._leaf.entries):
                if self._leaf.next_leaf is None:
                    self.exhausted = True
                    return None
                self._leaf = self.tree._node(self._leaf.next_leaf, self.meter)
                self._pos = 0
                continue
            entry = self._leaf.entries[self._pos]
            if self._high is not None and entry > self._high:
                self.exhausted = True
                return None
            self._pos += 1
            self.meter.charge_cpu(ENTRY_CPU_COST)
            self.consumed += 1
            return entry

    def next_leaf_run(self, limit: int | None = None) -> list[Entry]:
        """Return the entries of the range left in the current leaf (at most
        ``limit`` of them).

        The next leaf is read only when the current one is used up — the
        moment :meth:`next_entry` would read it — so a caller that works
        through the run entry by entry and gives up in the middle has read
        exactly the pages repeated ``next_entry`` calls would have. An
        empty list means the range is exhausted.

        The run is handed over *uncharged*: the caller charges
        :data:`ENTRY_CPU_COST` for each entry as it looks at it (the scans
        interleave those charges with their own per-entry work, and stop
        paying when they stop looking).
        """
        high = self._high
        while not self.exhausted:
            leaf = self._leaf
            assert leaf is not None
            entries = leaf.entries
            pos = self._pos
            if pos >= len(entries):
                if leaf.next_leaf is None:
                    self.exhausted = True
                    break
                self._leaf = self.tree._node(leaf.next_leaf, self.meter)
                self._pos = 0
                continue
            stop = len(entries)
            ends_here = high is not None and entries[-1] > high
            if ends_here:
                stop = bisect_right(entries, high, pos)
            if limit is not None and stop - pos > limit:
                stop = pos + limit
            elif ends_here:
                self.exhausted = True  # the range ends inside this leaf
            self._pos = stop
            self.consumed += stop - pos
            return entries[pos:stop]
        return []

    def next_entries(self, count: int) -> list[Entry]:
        """Return up to ``count`` next entries in one call.

        Accounting is identical to ``count`` repeated :meth:`next_entry`
        calls: the same leaf reads hit the meter, ``consumed`` advances by
        the number of entries returned, and each entry carries the same CPU
        charge (applied per entry so float accumulation matches exactly).
        A short list means the range is exhausted.
        """
        out: list[Entry] = []
        while len(out) < count and not self.exhausted:
            out.extend(self.next_leaf_run(count - len(out)))
        self.meter.charge_cpu_each(ENTRY_CPU_COST, len(out))
        return out
