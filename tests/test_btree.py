"""Tests for the B+-tree: structure, scans, deletion, cost accounting."""

import pytest

from repro.btree.tree import BTree, KeyRange
from repro.errors import BTreeError
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.pager import Pager
from repro.storage.rid import make_rid


def make_tree(order=4) -> BTree:
    return BTree(BufferPool(Pager(), 256), "ix", order=order)


def fill(tree: BTree, keys) -> None:
    for i, key in enumerate(keys):
        tree.insert(key, make_rid(i, 0))


def test_empty_tree_search():
    tree = make_tree()
    assert tree.search(5) == []
    assert tree.entry_count == 0
    assert tree.height == 1


def test_insert_and_search_single():
    tree = make_tree()
    tree.insert(5, make_rid(1, 1))
    assert tree.search(5) == [make_rid(1, 1)]


def test_order_validation():
    with pytest.raises(BTreeError):
        BTree(BufferPool(Pager(), 8), "bad", order=2)


def test_split_grows_height():
    tree = make_tree(order=4)
    fill(tree, range(20))
    assert tree.height >= 2
    tree.check_invariants()


def test_duplicate_keys_supported():
    tree = make_tree()
    tree.insert(7, make_rid(1, 0))
    tree.insert(7, make_rid(2, 0))
    tree.insert(7, make_rid(3, 0))
    assert sorted(tree.search(7)) == [make_rid(1, 0), make_rid(2, 0), make_rid(3, 0)]


def test_composite_keys():
    tree = make_tree()
    tree.insert((1, "a"), make_rid(0, 0))
    tree.insert((1, "b"), make_rid(1, 0))
    tree.insert((2, "a"), make_rid(2, 0))
    rids = [rid for _, rid in tree.scan_range(KeyRange(lo=(1,), hi=(1,)))]
    assert rids == [make_rid(0, 0), make_rid(1, 0)]


def test_range_scan_inclusive_bounds():
    tree = make_tree()
    fill(tree, range(50))
    keys = [key[0] for key, _ in tree.scan_range(KeyRange(lo=(10,), hi=(15,)))]
    assert keys == [10, 11, 12, 13, 14, 15]


def test_range_scan_exclusive_bounds():
    tree = make_tree()
    fill(tree, range(50))
    key_range = KeyRange(lo=(10,), hi=(15,), lo_inclusive=False, hi_inclusive=False)
    keys = [key[0] for key, _ in tree.scan_range(key_range)]
    assert keys == [11, 12, 13, 14]


def test_range_scan_open_ended():
    tree = make_tree()
    fill(tree, range(20))
    low_open = [key[0] for key, _ in tree.scan_range(KeyRange(hi=(3,)))]
    assert low_open == [0, 1, 2, 3]
    high_open = [key[0] for key, _ in tree.scan_range(KeyRange(lo=(17,)))]
    assert high_open == [17, 18, 19]


def test_full_scan_range_all():
    tree = make_tree()
    fill(tree, range(33))
    assert len(list(tree.scan_range(KeyRange.all()))) == 33


def test_empty_syntactic_range():
    tree = make_tree()
    fill(tree, range(10))
    assert list(tree.scan_range(KeyRange(lo=(8,), hi=(3,)))) == []
    exclusive_point = KeyRange(lo=(5,), hi=(5,), lo_inclusive=False)
    assert list(tree.scan_range(exclusive_point)) == []


def test_range_between_keys_is_empty():
    tree = make_tree()
    fill(tree, [0, 10, 20, 30])
    assert list(tree.scan_range(KeyRange(lo=(11,), hi=(19,)))) == []


def test_delete_existing():
    tree = make_tree()
    fill(tree, range(30))
    assert tree.delete(7, make_rid(7, 0))
    assert tree.search(7) == []
    assert tree.entry_count == 29
    tree.check_invariants()


def test_delete_missing_returns_false():
    tree = make_tree()
    fill(tree, range(5))
    assert not tree.delete(3, make_rid(99, 0))
    assert not tree.delete(42, make_rid(0, 0))
    assert tree.entry_count == 5


def test_delete_one_duplicate_only():
    tree = make_tree()
    tree.insert(5, make_rid(1, 0))
    tree.insert(5, make_rid(2, 0))
    tree.delete(5, make_rid(1, 0))
    assert tree.search(5) == [make_rid(2, 0)]


def test_entries_iterator_sorted():
    tree = make_tree()
    fill(tree, [9, 3, 7, 1, 5, 0, 8, 2, 6, 4])
    assert [key[0] for key, _ in tree.entries()] == list(range(10))


def test_count_range_exact():
    tree = make_tree()
    fill(tree, range(100))
    assert tree.count_range_exact(KeyRange(lo=(10,), hi=(19,))) == 10


def test_average_fanout_bounds():
    tree = make_tree(order=8)
    fill(tree, range(200))
    fanout = tree.average_fanout
    assert 2.0 <= fanout <= 200


def test_cursor_counts_consumed():
    tree = make_tree()
    fill(tree, range(40))
    cursor = tree.range_cursor(KeyRange(lo=(5,), hi=(14,)))
    while cursor.next_entry() is not None:
        pass
    assert cursor.consumed == 10
    assert cursor.exhausted
    assert cursor.next_entry() is None


def test_cold_scan_charges_index_reads():
    pool = BufferPool(Pager(), 256)
    tree = BTree(pool, "ix", order=4)
    fill(tree, range(200))
    pool.clear()
    meter = CostMeter()
    list(tree.scan_range(KeyRange.all(), meter))
    # must read at least every leaf once
    assert meter.io_reads >= tree.leaf_count


def test_insert_reverse_and_random_orders_agree():
    forward, backward = make_tree(), make_tree()
    fill(forward, range(64))
    fill(backward, reversed(range(64)))
    assert [k for k, _ in forward.entries()] == [k for k, _ in backward.entries()]
    forward.check_invariants()
    backward.check_invariants()


def test_check_invariants_detects_corruption():
    tree = make_tree()
    fill(tree, range(50))
    # corrupt a leaf deliberately
    node = tree._peek_node(tree._root_id)
    while not node.is_leaf:
        node = tree._peek_node(node.children[0])
    node.entries.reverse()
    with pytest.raises(BTreeError):
        tree.check_invariants()


def test_counters_match_the_walked_tree():
    # a root split makes an internal node too: internal_count used to miss
    # it, one per level above the leaves
    tree = make_tree()
    fill(tree, range(400))
    assert tree.height >= 3
    pages = sum(1 for _ in tree.buffer_pool.pager.pages_of(tree.name))
    assert tree.leaf_count + tree.internal_count == pages
    tree.check_invariants()
    for counter in ("leaf_count", "internal_count", "height"):
        setattr(tree, counter, getattr(tree, counter) + 1)
        with pytest.raises(BTreeError):
            tree.check_invariants()
        setattr(tree, counter, getattr(tree, counter) - 1)
    tree.check_invariants()


def test_check_invariants_detects_a_broken_leaf_chain():
    tree = make_tree()
    fill(tree, range(50))
    first = tree._peek_node(tree._root_id)
    while not first.is_leaf:
        first = tree._peek_node(first.children[0])
    first.next_leaf = tree._peek_node(first.next_leaf).next_leaf  # skip one leaf
    with pytest.raises(BTreeError):
        tree.check_invariants()
