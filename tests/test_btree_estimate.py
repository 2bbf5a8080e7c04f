"""Tests for the Figure 5 descent-to-split-node estimator."""

import random

import pytest

from repro.btree.estimate import RangeEstimate, estimate_range, estimation_io_cost
from repro.btree.tree import BTree, KeyRange
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.pager import Pager
from repro.storage.rid import make_rid


def make_tree(n, order=4):
    tree = BTree(BufferPool(Pager(), 512), "ix", order=order)
    for i in range(n):
        tree.insert(i, make_rid(i, 0))
    return tree


def test_empty_range_detected_exactly():
    tree = make_tree(100)
    estimate = estimate_range(tree, KeyRange(lo=(200,), hi=(300,)))
    assert estimate.is_empty
    assert estimate.exact
    assert estimate.rids == 0


def test_syntactically_empty_range():
    tree = make_tree(50)
    estimate = estimate_range(tree, KeyRange(lo=(30,), hi=(10,)))
    assert estimate.is_empty


def test_small_range_exact_at_leaf():
    tree = make_tree(100)
    # a single-key range almost always resolves inside one leaf
    estimate = estimate_range(tree, KeyRange(lo=(17,), hi=(17,)))
    if estimate.exact:
        assert estimate.rids == 1
    else:
        assert estimate.rids >= 1


def test_estimate_positive_for_nonempty_ranges():
    tree = make_tree(500, order=8)
    for lo, hi in [(0, 10), (100, 200), (250, 499), (0, 499)]:
        estimate = estimate_range(tree, KeyRange(lo=(lo,), hi=(hi,)))
        true_count = hi - lo + 1
        assert estimate.rids > 0
        # within an order of magnitude of truth (it is a coarse estimator)
        assert estimate.rids <= true_count * 10
        assert estimate.rids >= true_count / 10


def test_estimate_monotone_in_range_size_roughly():
    tree = make_tree(1000, order=8)
    small = estimate_range(tree, KeyRange(lo=(0,), hi=(9,))).rids
    large = estimate_range(tree, KeyRange(lo=(0,), hi=(799,))).rids
    assert large > small


def test_estimate_formula_k_times_fanout_power():
    tree = make_tree(300, order=8)
    estimate = estimate_range(tree, KeyRange(lo=(50,), hi=(150,)))
    if not estimate.exact:
        expected = estimate.k * estimate.fanout ** (estimate.split_level - 1)
        assert estimate.rids == pytest.approx(expected)


def test_estimation_cost_bounded_by_height():
    tree = make_tree(2000, order=8)
    tree.buffer_pool.clear()
    meter = CostMeter()
    estimate_range(tree, KeyRange(lo=(900,), hi=(905,)), meter)
    assert meter.io_reads <= estimation_io_cost(tree) == tree.height


def test_estimate_always_fresh_after_inserts():
    tree = make_tree(50)
    before = estimate_range(tree, KeyRange(lo=(100,), hi=(200,)))
    assert before.is_empty
    for i in range(100, 120):
        tree.insert(i, make_rid(i, 0))
    after = estimate_range(tree, KeyRange(lo=(100,), hi=(200,)))
    assert not after.is_empty
    assert after.rids >= 1


def test_full_range_estimate_near_entry_count():
    tree = make_tree(700, order=8)
    estimate = estimate_range(tree, KeyRange.all())
    assert estimate.rids == pytest.approx(tree.entry_count, rel=0.8)


def test_duplicate_heavy_range():
    tree = BTree(BufferPool(Pager(), 512), "ix", order=4)
    for i in range(60):
        tree.insert(5, make_rid(i, 0))  # all entries share one key
    estimate = estimate_range(tree, KeyRange(lo=(5,), hi=(5,)))
    assert estimate.rids > 0


def test_paper_worked_example_shape():
    """Figure 5: l=2, k=1, f=3 gives RangeRIDs ~= 3.

    We rebuild the same situation: a split at level 2 with two adjacent
    children containing the range in a fanout-3 tree.
    """
    tree = BTree(BufferPool(Pager(), 512), "ix", order=4)
    for i in range(27):
        tree.insert(i, make_rid(i, 0))
    # pick a range that straddles exactly two leaves
    node = tree._peek_node(tree._root_id)
    while not node.is_leaf:
        node = tree._peek_node(node.children[0])
    first_leaf_last = node.entries[-1][0][0]
    estimate = estimate_range(
        tree, KeyRange(lo=(first_leaf_last,), hi=(first_leaf_last + 1,))
    )
    if not estimate.exact:
        assert estimate.k >= 1
        assert estimate.rids == pytest.approx(
            estimate.k * estimate.fanout ** (estimate.split_level - 1)
        )


# -- the bisect descent against the per-child loop it replaced ---------------


def _child_intersects(child_low, child_high, low, high):
    """Does child entry-span [child_low, child_high) intersect [low, high]?"""
    if high is not None and child_low is not None and child_low > high:
        return False
    if low is not None and child_high is not None and child_high <= low:
        return False
    return True


def estimate_range_by_testing_every_child(tree, key_range, meter):
    """``estimate_range`` as it was before it bisected: the oracle."""
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
            k = sum(1 for key, _ in node.entries if key_range.contains_key(key))
            return RangeEstimate(rids=float(k), exact=True, split_level=1, k=k, fanout=fanout)
        hits = []
        for i in range(len(node.children)):
            child_low = node.separators[i - 1] if i > 0 else None
            child_high = node.separators[i] if i < len(node.separators) else None
            if _child_intersects(child_low, child_high, low, high):
                hits.append(i)
        if len(hits) == 0:
            return RangeEstimate(rids=0.0, exact=True, split_level=level, k=0, fanout=fanout)
        if len(hits) == 1:
            page_id = node.children[hits[0]]
            level -= 1
            continue
        k = len(hits) - 1
        return RangeEstimate(
            rids=k * fanout ** (level - 1), exact=False, split_level=level, k=k, fanout=fanout
        )


def random_range(rng):
    """Open, exclusive, prefix, empty and inverted bounds; every other range
    is narrow, so that descents also end in a leaf."""
    def bound(first):
        shape = rng.random()
        if shape < 0.15:
            return None
        return (first,) if shape < 0.4 else (first, rng.randrange(-1, 25))

    first = rng.randrange(-2, 42)
    second = first + rng.randrange(-1, 2) if rng.random() < 0.5 else rng.randrange(-2, 42)
    return KeyRange(
        lo=bound(first), hi=bound(second),
        lo_inclusive=rng.random() < 0.6, hi_inclusive=rng.random() < 0.6,
    )


@pytest.mark.parametrize("order, bulk", [(4, False), (4, True), (8, False), (32, True)])
def test_estimate_equals_the_per_child_oracle(order, bulk):
    rng = random.Random(order * 2 + bulk)
    # composite keys, about two entries of each; a stretch of the key space left empty
    entries = [
        ((first, rng.randrange(0, 24)), make_rid(i, 0))
        for i, first in enumerate(
            rng.choice([v for v in range(40) if not 17 <= v <= 21]) for _ in range(1500)
        )
    ]
    tree = BTree(BufferPool(Pager(), 4096), "ix", order=order)
    if bulk:
        tree.bulk_load(entries)
    else:
        for key, rid in entries:
            tree.insert(key, rid)
    for key, rid in rng.sample(entries, 300):  # lazily deleted: sparse leaves
        tree.delete(key, rid)
    seen = set()
    for _ in range(3000):
        key_range = random_range(rng)
        expected_meter, meter = CostMeter(), CostMeter()
        expected = estimate_range_by_testing_every_child(tree, key_range, expected_meter)
        assert estimate_range(tree, key_range, meter) == expected, key_range
        assert meter == expected_meter
        low, high = key_range.low_bound(), key_range.high_bound()
        seen.add("open-low" if low is None else "open-high" if high is None else "closed")
        if key_range.is_empty_syntactically:
            seen.add("syntactically-empty")
        elif low is not None and high is not None and low > high:
            seen.add("crossing-bounds")
        elif expected.exact:
            seen.add("leaf-count" if expected.rids else "leaf-empty")
        else:
            seen.add(f"split-at-level-{min(expected.split_level, 3)}")
        if key_range.lo is not None and len(key_range.lo) == 1:
            seen.add("prefix")
        if not key_range.lo_inclusive or not key_range.hi_inclusive:
            seen.add("exclusive")
    assert seen >= {
        "open-low", "open-high", "closed", "syntactically-empty", "crossing-bounds",
        "leaf-count", "leaf-empty", "split-at-level-2", "split-at-level-3",
        "prefix", "exclusive",
    }


def test_root_split_on_a_packed_tree_is_underpriced():
    """The known bias of Figure 5 on a bulk-built index, pinned so it stays
    visible until the estimate prices each level by its own width (ROADMAP
    item 4): 8 000 entries pack into 250 leaves under 8 nodes under a root of
    8, ``f`` is still ``8000 ** (1/3) = 20``, and a range that splits at the
    root is priced at ``k * 20**2`` when each root child holds 1 024."""
    entries = [((i,), make_rid(i // 32, i % 32)) for i in range(8000)]
    packed = BTree(BufferPool(Pager(), 512), "packed", order=32)
    packed.bulk_load(entries)
    grown = BTree(BufferPool(Pager(), 512), "grown", order=32)
    for key, rid in entries:
        grown.insert(key, rid)
    root = packed._peek_node(packed._root_id)
    assert (packed.height, len(root.children), packed.leaf_count) == (3, 8, 250)
    assert packed.average_fanout == grown.average_fanout == pytest.approx(20.0)
    key_range = KeyRange(lo=(2000,), hi=(6005,))
    actual = packed.count_range_exact(key_range)
    assert actual == 4006

    def qerror(tree):
        estimate = estimate_range(tree, key_range)
        assert estimate.split_level == 3 and not estimate.exact
        return max(estimate.rids / actual, actual / estimate.rids)

    assert qerror(packed) == pytest.approx(4006 / 1600)  # k = 4 root children
    assert qerror(grown) == pytest.approx(6000 / 4006)  # k = 15 of its root's 29
