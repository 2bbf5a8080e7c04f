"""Tests for RIDs, sorted RID buffers, and Yao's formula."""

import gc
import math
import sys

import pytest
from hypothesis import given, strategies as st

import repro
from repro.storage.rid import (
    SortedRidBuffer,
    make_rid,
    rid_page,
    rid_slot,
    yao_pages_touched,
    yao_reach,
)
from tests.test_chunked_advance import BENCHMARK_SHAPES

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
    # Cardenas' with-replacement approximation runs a little low, but close
    exact_like = 50 * (1.0 - (1.0 - 1.0 / 50) ** 1500)
    assert yao_pages_touched(50, 40, 1500) == pytest.approx(exact_like, rel=0.05)


def test_yao_empty_table():
    assert yao_pages_touched(0, 8, 5) == 0.0


# -- the short product against the k-factor product ---------------------------


def yao_product_loop(total_pages, records_per_page):
    """Yao's pages for every count ``k = 0 .. n + 1`` as the ``k``-factor
    product ``prod_{i<=k} (n - d - i + 1)/(n - i + 1)``, run up once, one
    record at a time: the reference."""
    n, d = total_pages * records_per_page, records_per_page
    pages, missed = [0.0], 1.0
    for i in range(1, n + 2):
        missed = 0.0 if i > n - d else missed * ((n - d - i + 1) / (n - i + 1))
        pages.append(total_pages * (1.0 - missed))
    return pages


YAO_SHAPES = [(1, 1), (2, 1), (5, 2), (157, 32), (800, 32), (4800, 32)]

#: every (pages, records a page) checked, named ``PAGESxRECORDS``
SHAPES = sorted(set(YAO_SHAPES + BENCHMARK_SHAPES))
SHAPE_IDS = [f"{pages}x{per_page}" for pages, per_page in SHAPES]

#: counts checked one by one; past them only the last ``d + 2`` are
DENSE_COUNTS = 40_000


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_yao_is_the_product_loop_and_never_falls(shape):
    pages, per_page = shape
    n = pages * per_page
    reference = yao_product_loop(*shape)
    counts = range(n + 2)
    if n + 2 > DENSE_COUNTS:
        counts = [*range(DENSE_COUNTS), *range(n - per_page, n + 2)]
    previous = 0.0
    for k in counts:
        value = yao_pages_touched(pages, per_page, k)
        assert value == pytest.approx(reference[k], rel=1e-12, abs=0.0), k
        assert previous <= value <= pages, k  # exactly, in floating point
        previous = value


def test_yao_saturates_when_a_numerator_runs_out():
    # m=5, r=2: n - n/m - i + 1 <= 0 from i = 9 on -> every page is touched
    reference = yao_product_loop(5, 2)
    assert reference[9] == 5.0
    assert yao_pages_touched(5, 2, 9) == 5.0
    assert yao_pages_touched(5, 2, 8) == pytest.approx(reference[8], rel=1e-12)
    assert yao_pages_touched(5, 2, 8) < 5.0
    assert yao_pages_touched(5, 2, 10) == yao_pages_touched(5, 2, 11) == 5.0
    assert yao_pages_touched(1, 1, 1) == 1.0


def test_yao_has_no_step_where_a_closed_form_once_took_over():
    # Cardenas' approximation above 1 000 records used to drop this to
    # 571.26 pages at k = 1 001; the exact product keeps rising
    assert yao_pages_touched(800, 32, 1000) < yao_pages_touched(800, 32, 1001)
    assert yao_pages_touched(800, 32, 1001) == pytest.approx(576.94, abs=0.005)


def test_yao_accepts_fractional_record_counts():
    for k in (0.5, 2.5, 999.9, 1000.5):
        assert yao_pages_touched(157, 32, k) == yao_pages_touched(157, 32, int(k))
    assert yao_pages_touched(157, 32, 0.5) == 0.0


# -- one count inverts a threshold on the fetch price ---------------------------


def fetch_price(pages, per_page, k, spill_rids_per_page):
    """What ``JscanProcess.rid_fetch_cost`` charges for ``k`` RIDs."""
    cost = yao_pages_touched(pages, per_page, k)
    return cost + k // spill_rids_per_page if spill_rids_per_page else cost


@pytest.mark.parametrize("spill_rids_per_page", [0, 16, 512])
@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_yao_reach_is_the_one_count_where_the_price_reaches_a_target(shape,
                                                                      spill_rids_per_page):
    pages, n = shape[0], shape[0] * shape[1]

    def price(k):
        return fetch_price(*shape, k, spill_rids_per_page)

    targets = {0.95 * pages, float(pages), pages + 1.0, 0.0, -1.0, math.inf}
    for k in (1, 20, 100, 999, 1000, 1001, 1002, 4096, n // 2, n - 1, n, 3 * n):
        if 0 < k:
            value = price(k)
            targets |= {value, 0.95 * value, math.nextafter(value, math.inf),
                        math.nextafter(value, -math.inf)}
    for target in sorted(targets):
        reach = yao_reach(*shape, target, spill_rids_per_page)
        if reach == sys.maxsize:
            # only a fetch that never reads a spill back stops rising
            assert not spill_rids_per_page or target == math.inf
            assert price(n) < target
        else:
            assert price(reach) >= target, target
            assert reach == 0 or price(reach - 1) < target, target
