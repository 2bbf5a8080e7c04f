"""Property-based tests: the B+-tree against a sorted-list oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.tree import BTree, KeyRange
from repro.errors import BTreeError
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.rid import make_rid

keys = st.lists(st.integers(min_value=-50, max_value=50), max_size=120)


def build(key_list, order=4):
    tree = BTree(BufferPool(Pager(), 512), "ix", order=order)
    entries = []
    for i, key in enumerate(key_list):
        rid = make_rid(i, 0)
        tree.insert(key, rid)
        entries.append(((key,), rid))
    return tree, sorted(entries)


@given(keys, st.sampled_from([4, 5, 8, 16]))
@settings(max_examples=60)
def test_entries_match_sorted_oracle(key_list, order):
    tree, oracle = build(key_list, order)
    assert list(tree.entries()) == oracle
    tree.check_invariants()


@given(keys, st.integers(-60, 60), st.integers(-60, 60))
@settings(max_examples=60)
def test_range_scan_matches_oracle(key_list, a, b):
    lo, hi = min(a, b), max(a, b)
    tree, oracle = build(key_list)
    got = [(key, rid) for key, rid in tree.scan_range(KeyRange(lo=(lo,), hi=(hi,)))]
    expected = [(key, rid) for key, rid in oracle if lo <= key[0] <= hi]
    assert got == expected


@given(keys, st.integers(-60, 60), st.integers(-60, 60), st.booleans(), st.booleans())
@settings(max_examples=60)
def test_range_scan_bound_flags(key_list, a, b, lo_inc, hi_inc):
    lo, hi = min(a, b), max(a, b)
    tree, oracle = build(key_list)
    key_range = KeyRange(lo=(lo,), hi=(hi,), lo_inclusive=lo_inc, hi_inclusive=hi_inc)
    got = [key[0] for key, _ in tree.scan_range(key_range)]
    expected = [
        key[0]
        for key, _ in oracle
        if (key[0] > lo or (lo_inc and key[0] == lo))
        and (key[0] < hi or (hi_inc and key[0] == hi))
    ]
    assert got == expected


@given(keys)
@settings(max_examples=40)
def test_delete_everything_leaves_empty_tree(key_list):
    tree, oracle = build(key_list)
    for key, rid in oracle:
        assert tree.delete(key, rid)
    assert tree.entry_count == 0
    assert list(tree.entries()) == []


@given(keys, st.data())
@settings(max_examples=40)
def test_interleaved_insert_delete_matches_oracle(key_list, data):
    tree = BTree(BufferPool(Pager(), 512), "ix", order=4)
    live: list = []
    for i, key in enumerate(key_list):
        tree.insert(key, make_rid(i, 0))
        live.append(((key,), make_rid(i, 0)))
        if live and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(live))
            live.remove(victim)
            assert tree.delete(victim[0], victim[1])
    assert list(tree.entries()) == sorted(live)


@given(keys)
@settings(max_examples=40)
def test_exact_count_matches_scan(key_list):
    tree, _ = build(key_list)
    key_range = KeyRange(lo=(-10,), hi=(10,))
    assert tree.count_range_exact(key_range) == len(list(tree.scan_range(key_range)))


# -- bottom-up build against the incremental one ----------------------------

#: duplicate-heavy composite keys: few distinct values per column
composite_keys = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=140
)


def build_both(key_list, order):
    """The same entries in a ``bulk_load``ed tree and an incrementally built
    one."""
    entries = [(key, make_rid(i, 0)) for i, key in enumerate(key_list)]
    packed = BTree(BufferPool(Pager(), 512), "packed", order=order)
    packed.bulk_load(entries)
    grown = BTree(BufferPool(Pager(), 512), "grown", order=order)
    for key, rid in entries:
        grown.insert(key, rid)
    return packed, grown, entries


def composite_range(a, b, lo_inc, hi_inc, prefix):
    lo, hi = (a[:1], b[:1]) if prefix else (a, b)
    return KeyRange(lo=lo, hi=hi, lo_inclusive=lo_inc, hi_inclusive=hi_inc)


key_pair = st.tuples(st.integers(-1, 7), st.integers(-1, 4))


@given(composite_keys, st.sampled_from([4, 8, 32]), st.data())
@settings(max_examples=120, deadline=None)
def test_bulk_load_equals_incremental_build(key_list, order, data):
    packed, grown, entries = build_both(key_list, order)
    packed.check_invariants()
    assert list(packed.entries()) == list(grown.entries()) == sorted(entries)
    assert packed.leaf_count <= grown.leaf_count and packed.height <= grown.height
    ranges = [
        composite_range(*data.draw(st.tuples(key_pair, key_pair, st.booleans(),
                                             st.booleans(), st.booleans())))
        for _ in range(4)
    ] + [KeyRange.all()]
    for key_range in ranges:
        assert list(packed.scan_range(key_range)) == list(grown.scan_range(key_range))
    # churn: a packed tree splits and shrinks like any other
    live = sorted(entries)
    for step in range(data.draw(st.integers(0, 40))):
        if live and data.draw(st.booleans()):
            victim = live.pop(data.draw(st.integers(0, len(live) - 1)))
            assert packed.delete(*victim) and grown.delete(*victim)
        else:
            entry = (data.draw(key_pair), make_rid(1000 + step, 0))
            packed.insert(*entry)
            grown.insert(*entry)
            live.append(entry)
    packed.check_invariants()
    assert list(packed.entries()) == list(grown.entries()) == sorted(live)
    for key_range in ranges:
        assert list(packed.scan_range(key_range)) == list(grown.scan_range(key_range))


@pytest.mark.parametrize("order", [4, 8, 32])
def test_bulk_load_at_the_node_boundaries(order):
    """0, 1, ``order`` and ``order + 1`` entries — and every count around
    the sizes where a level gains a node — build trees no node of which is
    under half full (the root excepted), with exact bookkeeping."""
    for count in [0, 1, order, order + 1, *range(order * order - 2, order * order + order + 3)]:
        tree = BTree(BufferPool(Pager(), 4096), "ix", order=order)
        entries = [((i // 2,), make_rid(i, 0)) for i in range(count)]
        tree.bulk_load(reversed(entries))
        tree.check_invariants()
        assert list(tree.entries()) == entries
        assert tree.leaf_count == max(1, -(-count // order))
        stack = [(tree._root_id, True)]
        while stack:
            page_id, is_root = stack.pop()
            node = tree._peek_node(page_id)
            assert len(node) <= order
            assert is_root or len(node) >= (order + 1) // 2
            if not node.is_leaf:
                stack.extend((child, False) for child in node.children)


def test_bulk_load_takes_keys_as_insert_does():
    # scalar keys are wrapped like insert's, so the two can be mixed
    tree = BTree(BufferPool(Pager(), 64), "ix", order=4)
    pages, keys = (5, 3, 4, 9, 1, 7), (5, 3, (4,), 9, 1, 7)
    tree.bulk_load([(key, make_rid(page, 0)) for page, key in zip(pages, keys)])
    tree.insert(6, make_rid(6, 0))
    assert tree.delete(5, make_rid(5, 0)) and tree.delete((3,), make_rid(3, 0))
    tree.check_invariants()
    assert [key for key, _ in tree.entries()] == [(1,), (4,), (6,), (7,), (9,)]
    assert tree.search(7) == [make_rid(7, 0)]


def test_bulk_load_refuses_a_tree_that_holds_entries():
    tree = BTree(BufferPool(Pager(), 64), "ix", order=4)
    tree.insert(1, make_rid(0, 0))
    with pytest.raises(BTreeError):
        tree.bulk_load([((2,), make_rid(0, 1))])
