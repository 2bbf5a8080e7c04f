"""Figure 5: range estimation by descent to a split node.

    "We first descend the tree from the root along the path containing only
    those nodes which branches include all range keys. The lowest node of
    the path is a 'split' node. Its level is a 'split' level l. The number
    of its neighboring children containing the range is k+1 if l>1, and the
    number of range-satisfying RIDs is k if l=1. Assuming that the left- and
    rightmost children of the split node range contain 50% of
    range-satisfying keys (and thus counting those two nodes as one) and
    assuming the average tree fanout be f, we can now estimate the number of
    range RIDs as RangeRIDs ~= k * f**(l-1)."

The estimate is "fast, well suited for small ranges, and ... always
up-to-date": the descent costs one root-to-split-node path of page reads and
needs no maintained statistics. When the descent bottoms out in a leaf the
count is exact — in particular an empty range is *detected*, enabling the
Section 5 shortcut that cancels the whole retrieval.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.btree.node import Node
from repro.btree.tree import BTree, KeyRange
from repro.storage.buffer_pool import CostMeter, NULL_METER


@dataclass(frozen=True)
class RangeEstimate:
    """Result of a descent-to-split-node estimation."""

    #: estimated number of range-satisfying RIDs
    rids: float
    #: True when the descent reached a leaf and counted exactly
    exact: bool
    #: split node level (leaves are level 1)
    split_level: int
    #: the paper's k (children-minus-one at the split node; exact count at a leaf)
    k: int
    #: average fanout used for extrapolation
    fanout: float
    #: the node the descent stopped at — the leaf it counted in, or the
    #: split node — so a walk of the range can go on from there instead of
    #: descending again (:meth:`BTree.walk_from`); None when the bounds
    #: alone decided the estimate
    stop: Node | None = field(default=None, compare=False, repr=False)
    #: the first entry (leaf) or child (split node) of the range in ``stop``
    first: int = field(default=0, compare=False, repr=False)

    @property
    def is_empty(self) -> bool:
        """True when the range is known to contain no RIDs."""
        return self.exact and self.rids == 0

    def bounded_leaves(self) -> int | None:
        """How many leaves hold the whole range, when the descent shows it:
        1 for a count in a leaf, the k+1 children of a split at level 2,
        None for a split higher up (or no descent)."""
        if self.stop is None:
            return None
        if self.exact:
            return 1
        return self.k + 1 if self.split_level == 2 else None


def estimate_range(
    tree: BTree, key_range: KeyRange, meter: CostMeter = NULL_METER
) -> RangeEstimate:
    """Estimate the number of RIDs in ``key_range`` by descent to split node."""
    fanout = tree.average_fanout
    if key_range.is_empty_syntactically:
        return RangeEstimate(rids=0.0, exact=True, split_level=tree.height, k=0, fanout=fanout)
    low = key_range.low_bound()
    high = key_range.high_bound()
    page_id = tree._root_id
    level = tree.height
    while True:
        node = tree._node(page_id, meter)
        if node.is_leaf:
            entries = node.entries
            first = 0 if low is None else bisect_left(entries, low)
            last = len(entries) if high is None else bisect_right(entries, high)
            k = max(0, last - first)
            return RangeEstimate(
                rids=float(k), exact=True, split_level=1, k=k, fanout=fanout,
                stop=node, first=first,
            )
        # child i spans [separators[i-1], separators[i]): the children that
        # intersect [low, high] are first..last
        separators = node.separators
        first = 0 if low is None else bisect_right(separators, low)
        last = len(separators) if high is None else bisect_right(separators, high)
        if last < first:
            # bounds that cross inside this node (an exclusive prefix bound
            # above a longer inclusive one): no entry can lie between them
            return RangeEstimate(rids=0.0, exact=True, split_level=level, k=0, fanout=fanout)
        if last == first:
            page_id = node.children[first]
            level -= 1
            continue
        # split node found: k+1 children contain the range; the two edge
        # children are assumed half-full of qualifying keys, so they count
        # as one child together.
        k = last - first
        rids = k * fanout ** (level - 1)  # RangeRIDs ~= k * f**(l-1)
        return RangeEstimate(
            rids=rids, exact=False, split_level=level, k=k, fanout=fanout,
            stop=node, first=first,
        )


def estimation_io_cost(tree: BTree) -> int:
    """Worst-case physical reads of one estimation (a root-to-leaf path)."""
    return tree.height
