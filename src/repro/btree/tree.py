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
from bisect import bisect_left, bisect_right, insort_left
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import BTreeError
from repro.btree.node import InternalNode, Key, LeafNode, Node, normalize_key
from repro.storage.buffer_pool import BufferPool, CostMeter, NULL_METER
from repro.storage.pager import PageKind
from repro.storage.rid import RID

#: RID sentinels for entry-space range bounds.
RID_MIN: RID = -1
RID_MAX: RID = 1 << 62


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


def _packed_sizes(count: int, capacity: int) -> list[int]:
    """Sizes of the fewest nodes of ``capacity`` that hold ``count`` items:
    all full, but the last two evened out if the last would be under half."""
    full, rest = divmod(count, capacity)
    sizes = [capacity] * full
    if rest:
        sizes.append(rest)
        if full and rest < (capacity + 1) // 2:
            sizes[-2:] = [(capacity + rest + 1) // 2, (capacity + rest) // 2]
    return sizes


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
        #: (internal node, index of the child taken) from the root down —
        #: walked back up only when the leaf splits
        path: list[tuple[InternalNode, int]] = []
        node = self._node(self._root_id, meter)
        while not node.is_leaf:
            index = bisect_right(node.separators, entry)
            path.append((node, index))
            node = self._node(node.children[index], meter)
        insort_left(node.entries, entry)
        self.entry_count += 1
        if len(node.entries) <= self.order:
            return
        separator, new_child = self._split_leaf(node, meter)
        while path:
            parent, index = path.pop()
            parent.separators.insert(index, separator)
            parent.children.insert(index + 1, new_child)
            if len(parent.children) <= self.order:
                return
            separator, new_child = self._split_internal(parent, meter)
        new_root = self._new_internal(meter)
        new_root.separators = [separator]
        new_root.children = [self._root_id, new_child]
        self._root_id = new_root.page_id
        self.internal_count += 1
        self.height += 1

    def bulk_load(self, entries: Iterable[Entry], meter: CostMeter = NULL_METER) -> None:
        """Fill a tree that holds nothing yet with ``(key, rid)`` entries
        (keys as :meth:`insert` takes them), bottom-up: one sort, then each
        level written left to right.

        Every node is packed full — there is no fill factor to choose: a
        full tree is the smallest and shallowest, and the first insert into
        a full leaf splits it exactly as it would have split on the way to
        an incrementally built tree. Only the last two nodes of a level
        share their load evenly when the last would otherwise be under half
        full. Pages come from :meth:`BufferPool.allocate`, as a split's do.
        """
        if self.entry_count or self.height > 1:
            raise BTreeError("bulk_load needs an empty tree")
        entries = sorted([(normalize_key(key), rid) for key, rid in entries])
        if not entries:
            return
        leaf: LeafNode = self._node(self._root_id, meter)
        #: (smallest entry below the node, its page) for the level just built
        level: list[tuple[Entry, int]] = []
        start = 0
        for size in _packed_sizes(len(entries), self.order):
            if start:
                previous, leaf = leaf, self._new_leaf(meter)
                previous.next_leaf = leaf.page_id
            leaf.entries = entries[start : start + size]
            level.append((entries[start], leaf.page_id))
            start += size
        self.entry_count = len(entries)
        self.leaf_count = len(level)
        while len(level) > 1:
            parents: list[tuple[Entry, int]] = []
            start = 0
            for size in _packed_sizes(len(level), self.order):
                group = level[start : start + size]
                node = self._new_internal(meter)
                node.separators = [low for low, _ in group[1:]]
                node.children = [page_id for _, page_id in group]
                parents.append((group[0][0], node.page_id))
                start += size
            self.internal_count += len(parents)
            self.height += 1
            level = parents
        self._root_id = level[0][1]

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
        node = self._node(self._root_id, meter)
        while not node.is_leaf:
            node = self._node(node.children[bisect_right(node.separators, entry)], meter)
        entries = node.entries
        position = bisect_left(entries, entry)
        if position == len(entries) or entries[position] != entry:
            return False
        del entries[position]
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

    def probe(self, key_range: KeyRange, meter: CostMeter) -> list[Entry]:
        """The entries of an equality range, found in one descent.

        Reads exactly the pages a Figure 5 estimate of ``key_range``
        followed by a :class:`RangeCursor` walk of it would read, in the
        same order of first touch (the estimate's pages are a prefix of
        the cursor's path): the root-to-leaf path, then the following
        leaves while the range may continue past the current one. The one
        difference is where the estimate proves the range empty: a descent
        that no separator inside the range split, ending in a leaf with no
        entry in the range, stops there.
        """
        low = key_range.low_bound()
        high = key_range.high_bound()
        node = self._node(self._root_id, meter)
        split = False
        while not node.is_leaf:
            separators = node.separators
            index = bisect_right(separators, low)
            if index < len(separators) and separators[index] <= high:
                split = True
            node = self._node(node.children[index], meter)
        position = bisect_left(node.entries, low)
        if not split and bisect_right(node.entries, high, position) == position:
            return []
        return self._walk_leaves(node, position, high, meter)

    def walk_from(
        self, node: Node, first: int, key_range: KeyRange, meter: CostMeter
    ) -> list[Entry]:
        """The entries of ``key_range``, walked on from where its Figure 5
        estimate stopped (:attr:`RangeEstimate.stop` and ``first``).

        From a leaf, ``first`` is the range's first entry there; from a
        split node, the child the range starts in, which is descended to
        its leftmost leaf for the low bound. Together with the estimate's
        descent this reads exactly the pages, in the same order of first
        touch, that the estimate followed by a :class:`RangeCursor` walk
        reads — the cursor's own root-to-leaf descent only re-touches the
        estimate's path, which leaves the pool's recency order as it was.
        """
        low = key_range.low_bound()
        if not node.is_leaf:
            node = self._node(node.children[first], meter)
            while not node.is_leaf:
                index = 0 if low is None else bisect_right(node.separators, low)
                node = self._node(node.children[index], meter)
            first = 0 if low is None else bisect_left(node.entries, low)
        return self._walk_leaves(node, first, key_range.high_bound(), meter)

    def _walk_leaves(
        self, leaf: LeafNode, position: int, high: Entry | None, meter: CostMeter
    ) -> list[Entry]:
        """The entries from ``leaf.entries[position]`` up to ``high``,
        reading the following leaves while the range may go on — as a
        :class:`RangeCursor` does, including the one leaf past a range that
        ends on its leaf's last entry."""
        entries = leaf.entries
        stop = len(entries) if high is None else bisect_right(entries, high, position)
        found = entries[position:stop]
        while stop == len(entries) and leaf.next_leaf is not None:
            leaf = self._node(leaf.next_leaf, meter)
            entries = leaf.entries
            stop = len(entries) if high is None else bisect_right(entries, high)
            found.extend(entries[:stop])
        return found

    def first_leaf_for(self, bound: Entry | None, meter: CostMeter) -> LeafNode:
        """Descend to the leaf that would contain ``bound`` (leftmost if None)."""
        node = self._node(self._root_id, meter)
        while not node.is_leaf:
            index = 0 if bound is None else bisect_right(node.separators, bound)
            node = self._node(node.children[index], meter)
        return node

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
        """Raise :class:`BTreeError` on any structural violation, the
        tree's own bookkeeping (counts and height) included."""
        leaf_depths: list[int] = []
        internals: list[int] = []
        count = self._check_node(self._root_id, None, None, 1, leaf_depths, internals)
        if count != self.entry_count:
            raise BTreeError(f"entry_count={self.entry_count} but found {count}")
        if len(set(leaf_depths)) > 1:
            raise BTreeError(f"leaves at multiple depths: {set(leaf_depths)}")
        if leaf_depths[0] != self.height:
            raise BTreeError("height mismatch")
        if (len(leaf_depths), len(internals)) != (self.leaf_count, self.internal_count):
            raise BTreeError(
                f"leaf_count={self.leaf_count} internal_count={self.internal_count} "
                f"but found {len(leaf_depths)} leaves and {len(internals)} internal nodes"
            )
        ordered = list(self.entries())
        if ordered != sorted(ordered):
            raise BTreeError("leaf chain out of order")
        if len(ordered) != count:
            raise BTreeError(f"leaf chain holds {len(ordered)} of {count} entries")

    def _check_node(
        self,
        page_id: int,
        low: Entry | None,
        high: Entry | None,
        depth: int,
        leaf_depths: list[int],
        internals: list[int],
    ) -> int:
        node = self._peek_node(page_id)
        if node.is_leaf:
            leaf_depths.append(depth)
            for entry in node.entries:
                if low is not None and entry < low:
                    raise BTreeError(f"entry {entry} below node low bound {low}")
                if high is not None and entry >= high:
                    raise BTreeError(f"entry {entry} at/above node high bound {high}")
            return len(node.entries)
        internals.append(page_id)
        if len(node.children) != len(node.separators) + 1:
            raise BTreeError("separator/child count mismatch")
        if node.separators != sorted(node.separators):
            raise BTreeError("separators out of order")
        total = 0
        for i, child in enumerate(node.children):
            child_low = node.separators[i - 1] if i > 0 else low
            child_high = node.separators[i] if i < len(node.separators) else high
            total += self._check_node(
                child, child_low, child_high, depth + 1, leaf_depths, internals
            )
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
        if low is not None:
            self._pos = bisect_left(self._leaf.entries, low)

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
            self.meter.charge_entries(1)
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

        The run is handed over *uncharged*: the caller charges the entries
        it looks at (the scans stop paying when they stop looking).
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
        calls: the same leaf reads hit the meter, and ``consumed`` and the
        meter's entry count advance by the number of entries returned. A
        short list means the range is exhausted.
        """
        out: list[Entry] = []
        while len(out) < count and not self.exhausted:
            out.extend(self.next_leaf_run(count - len(out)))
        self.meter.charge_entries(len(out))
        return out
