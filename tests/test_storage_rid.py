"""Tests for RIDs, sorted RID buffers, and Yao's formula."""

import gc
import random
import sys

import pytest
from hypothesis import given, strategies as st

import repro
from repro.storage.rid import (
    _YAO_TABLES,
    SortedRidBuffer,
    _yao_products,
    make_rid,
    rid_page,
    rid_slot,
    yao_pages_touched,
)

rid_strategy = st.tuples(
    st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=63)
).map(lambda pair: make_rid(*pair))


def test_rid_encode_decode_roundtrip():
    rid = make_rid(12345, 17)
    assert (rid_page(rid), rid_slot(rid)) == (12345, 17)
    # the packing the bitmap filter has always hashed: page * 65536 + slot
    assert rid == 12345 * 65536 + 17


@given(rid_strategy)
def test_rid_encode_decode_roundtrip_property(rid):
    assert make_rid(rid_page(rid), rid_slot(rid)) == rid


def test_leaf_entries_and_inserted_rids_leave_the_cyclic_gc():
    # a RID is a plain int, so neither it nor the (key, rid) leaf entry
    # holding it stays on the collector's heap once a collection has seen it
    conn = repro.connect()
    table = conn.create_table("T", [("A", "int"), ("B", "int")])
    table.insert_many((i, i % 7) for i in range(500))
    table.create_index("IX_A", ["A"])
    rid = table.insert((500, 3))
    # a collection untracks a tuple whose items are already untracked, and
    # it may meet a pair before that pair's key tuple: two passes settle both
    gc.collect()
    gc.collect()
    entries = list(table.indexes["IX_A"].btree.entries())
    assert entries[0] == ((0,), make_rid(0, 0)) and entries[-1] == ((500,), rid)
    assert not any(map(gc.is_tracked, entries))
    assert not gc.is_tracked(rid)
    assert table.heap.fetch(rid) == (500, 3)


def test_rid_ordering_is_page_major():
    assert make_rid(1, 9) < make_rid(2, 0)
    assert make_rid(1, 2) < make_rid(1, 3)


def test_sorted_buffer_keeps_order():
    buffer = SortedRidBuffer()
    for rid in [make_rid(3, 0), make_rid(1, 2), make_rid(2, 5), make_rid(1, 1)]:
        buffer.add(rid)
    assert buffer.to_list() == sorted(buffer.to_list())
    assert len(buffer) == 4


def test_sorted_buffer_membership():
    buffer = SortedRidBuffer([make_rid(1, 1), make_rid(2, 2)])
    assert make_rid(1, 1) in buffer
    assert make_rid(1, 2) not in buffer


def test_sorted_buffer_intersect():
    a = SortedRidBuffer([make_rid(1, 1), make_rid(2, 2), make_rid(3, 3)])
    b = SortedRidBuffer([make_rid(2, 2), make_rid(3, 3), make_rid(4, 4)])
    assert a.intersect(b).to_list() == [make_rid(2, 2), make_rid(3, 3)]


def test_sorted_buffer_union_dedupes():
    a = SortedRidBuffer([make_rid(1, 1), make_rid(2, 2)])
    b = SortedRidBuffer([make_rid(2, 2), make_rid(3, 3)])
    assert a.union(b).to_list() == [make_rid(1, 1), make_rid(2, 2), make_rid(3, 3)]


@given(st.lists(rid_strategy, max_size=60), st.lists(rid_strategy, max_size=60))
def test_intersect_union_match_set_semantics(lhs, rhs):
    a, b = SortedRidBuffer(lhs), SortedRidBuffer(rhs)
    assert set(a.intersect(b).to_list()) == (set(lhs) & set(rhs))
    assert set(a.union(b).to_list()) == (set(lhs) | set(rhs))
    assert a.union(b).to_list() == sorted(set(lhs) | set(rhs))


def test_distinct_pages():
    buffer = SortedRidBuffer([make_rid(1, 0), make_rid(1, 5), make_rid(2, 0)])
    assert buffer.distinct_pages() == 2


def test_yao_zero_records():
    assert yao_pages_touched(10, 8, 0) == 0.0


def test_yao_all_records_touches_all_pages():
    assert yao_pages_touched(10, 8, 80) == pytest.approx(10.0)
    assert yao_pages_touched(10, 8, 1000) == pytest.approx(10.0)


def test_yao_single_record():
    assert yao_pages_touched(10, 8, 1) == pytest.approx(1.0)


def test_yao_monotone_in_k():
    previous = 0.0
    for k in range(0, 80, 5):
        value = yao_pages_touched(10, 8, k)
        assert value >= previous
        previous = value


def test_yao_bounded_by_k_and_pages():
    for k in (1, 5, 17, 50):
        value = yao_pages_touched(20, 10, k)
        assert value <= min(k, 20) + 1e-9


def test_yao_approximation_matches_exact_for_large_k():
    # the closed form used for k > 1000 should agree with the product form
    exact_like = 50 * (1.0 - (1.0 - 1.0 / 50) ** 1500)
    assert yao_pages_touched(50, 40, 1500) == pytest.approx(exact_like, rel=0.05)


def test_yao_empty_table():
    assert yao_pages_touched(0, 8, 5) == 0.0


# -- the prefix-product table is bit-identical to the plain product loop -----


def yao_product_loop(total_pages, records_per_page, k):
    """``yao_pages_touched`` as it was before the table: the reference."""
    if total_pages <= 0 or k <= 0:
        return 0.0
    m = float(total_pages)
    n = float(total_pages * records_per_page)
    if k >= n:
        return m
    if k > 1000:
        return m * (1.0 - (1.0 - 1.0 / m) ** k)
    prod = 1.0
    per_page = n / m
    for i in range(1, int(k) + 1):
        numerator = n - per_page - i + 1
        denominator = n - i + 1
        if numerator <= 0:
            return m
        prod *= numerator / denominator
    return m * (1.0 - prod)


YAO_SHAPES = [(1, 1), (2, 1), (5, 2), (157, 32), (800, 32), (4800, 32)]


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
@pytest.mark.parametrize("shape", YAO_SHAPES)
def test_yao_table_equals_product_loop_bit_for_bit(shape, order):
    # the table is extended lazily, so the order of the calls decides how
    # it gets built: every order must give the loop's float exactly
    ks = list(range(0, 1001))
    if order == "descending":
        ks.reverse()
    elif order == "random":
        random.Random(1993).shuffle(ks)
    _yao_products.cache_clear()
    for k in ks:
        assert yao_pages_touched(*shape, k) == yao_product_loop(*shape, k), k


def test_yao_saturates_when_a_numerator_runs_out():
    # m=5, r=2: n - n/m - i + 1 <= 0 from i = 9 on -> every page is touched
    assert yao_product_loop(5, 2, 9) == 5.0
    _yao_products.cache_clear()
    assert yao_pages_touched(5, 2, 9) == 5.0
    assert yao_pages_touched(5, 2, 8) == yao_product_loop(5, 2, 8) < 5.0
    # k >= n never reaches the table
    assert yao_pages_touched(5, 2, 10) == yao_pages_touched(5, 2, 11) == 5.0
    assert yao_pages_touched(1, 1, 1) == 1.0


def test_yao_closed_form_branch_is_untouched():
    # the closed form above 1000 records steps *down* about 1 % at k = 1001:
    # a known wart, kept because smoothing it would change switch decisions
    assert yao_pages_touched(800, 32, 1001) == yao_product_loop(800, 32, 1001)
    assert yao_pages_touched(800, 32, 1001) == 800 * (1.0 - (1.0 - 1.0 / 800) ** 1001)
    assert yao_pages_touched(800, 32, 1001) < yao_pages_touched(800, 32, 1000)
    assert yao_pages_touched(4800, 32, 50_000) == yao_product_loop(4800, 32, 50_000)


def test_yao_accepts_fractional_record_counts():
    for k in (0.5, 2.5, 999.9, 1000.5):
        assert yao_pages_touched(157, 32, k) == yao_product_loop(157, 32, k)


def test_yao_memo_is_bounded_and_survives_eviction():
    _yao_products.cache_clear()
    shapes = [(pages, 32) for pages in range(100, 100 + 3 * _YAO_TABLES)]
    for _ in range(2):  # the second pass meets evicted shapes again
        for shape in shapes:
            assert yao_pages_touched(*shape, 700) == yao_product_loop(*shape, 700)
            assert yao_pages_touched(*shape, 30) == yao_product_loop(*shape, 30)
        assert _yao_products.cache_info().currsize <= _YAO_TABLES
    # nothing is built before a call needs it
    _yao_products.cache_clear()
    assert yao_pages_touched(800, 32, 20) == yao_product_loop(800, 32, 20)
    assert len(_yao_products(800, 32)) == 21


def test_yao_table_extension_is_thread_safe():
    import threading

    # more threads than cores, all extending the same fresh tables at once
    shapes = [(4000 + i, 32) for i in range(_YAO_TABLES)]
    ks = list(range(1, 1001, 7))
    expected = {(shape, k): yao_product_loop(*shape, k) for shape in shapes for k in ks}
    _yao_products.cache_clear()
    start = threading.Barrier(6)
    failures = []

    def worker(seed):
        order = ks[:]
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)
        for shape in shapes:
            for k in order:
                if yao_pages_touched(*shape, k) != expected[shape, k]:
                    failures.append((seed, shape, k))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert not failures
    for shape in shapes:
        assert len(_yao_products(*shape)) == ks[-1] + 1
