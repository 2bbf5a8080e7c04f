"""Record identifiers and RID-list helpers.

A RID names a record by (page number, slot) in one int. Jscan (Section 6)
manipulates RID lists heavily: building them from index scans, intersecting
them through filters, sorting them for page-clustered final fetches. Yao's
formula estimates how many distinct pages a sorted RID fetch will touch, the
"projected second stage cost" used by the two-stage competition.
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, Iterable, Iterator

#: A record identifier, ``page << SLOT_BITS | slot``: ordered page-major like
#: the pair it packs and, unlike a tuple subclass, never on the cyclic GC's
#: heap, so the ``(key, rid)`` leaf entry holding it leaves that heap too.
RID = int

#: bits of a RID that hold the slot; a heap page has at most ``1 << SLOT_BITS``
SLOT_BITS = 16
SLOT_MASK = (1 << SLOT_BITS) - 1


def make_rid(page: int, slot: int) -> RID:
    """The RID of ``slot`` on heap page ``page``."""
    return page << SLOT_BITS | slot


def rid_page(rid: RID) -> int:
    """The heap page number a RID names."""
    return rid >> SLOT_BITS


def rid_slot(rid: RID) -> int:
    """The slot within its page a RID names."""
    return rid & SLOT_MASK


def page_rids(page: int, slots: Iterable[int]) -> list[RID]:
    """The RIDs of the given slots of one heap page (built without a
    Python-level call per RID: the bulk scans name every survivor)."""
    return list(map((page << SLOT_BITS).__or__, slots))


class SortedRidBuffer:
    """An in-memory RID list with membership tests, read in sorted order.

    This is the "in-buffer sorted RID list" filter of Section 6, used when a
    RID list is small enough to stay in main memory. RIDs are appended as
    they arrive and the list is sorted when it is next read — iterated,
    tested or combined — so the final fetch stage walks pages monotonically,
    and a scan storing RIDs in key order pays one sort instead of a shift of
    the list per RID. Every read sees what inserting each RID in order
    would have left (duplicates are kept, matching index duplicates).
    """

    __slots__ = ("_rids", "_sorted")

    def __init__(self, rids: Iterable[RID] = ()) -> None:
        self._rids: list[RID] = sorted(rids)
        self._sorted = True

    def _ordered(self) -> list[RID]:
        rids = self._rids
        if not self._sorted:
            rids.sort()
            self._sorted = True
        return rids

    def __len__(self) -> int:
        return len(self._rids)

    def __iter__(self) -> Iterator[RID]:
        return iter(self._ordered())

    def __contains__(self, rid: RID) -> bool:
        rids = self._ordered()
        i = bisect_left(rids, rid)
        return i < len(rids) and rids[i] == rid

    def add(self, rid: RID) -> None:
        """Insert one RID."""
        self.extend((rid,))

    def extend(self, rids: Iterable[RID]) -> None:
        """Insert many RIDs."""
        self._rids.extend(rids)
        self._sorted = False

    def to_list(self) -> list[RID]:
        """Return the RIDs as a (sorted) list copy."""
        return list(self._ordered())

    def keep_only(self, keep: Callable[[RID], bool]) -> int:
        """Drop every RID failing ``keep``; returns how many were dropped."""
        count = len(self._rids)
        self._rids = list(filter(keep, self._rids))
        return count - len(self._rids)

    def intersect(self, other: "SortedRidBuffer") -> "SortedRidBuffer":
        """Sorted-merge intersection of two buffers."""
        result: list[RID] = []
        a, b = self._ordered(), other._ordered()
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] == b[j]:
                result.append(a[i])
                i += 1
                j += 1
            elif a[i] < b[j]:
                i += 1
            else:
                j += 1
        out = SortedRidBuffer()
        out._rids = result
        return out

    def union(self, other: "SortedRidBuffer") -> "SortedRidBuffer":
        """Sorted-merge union (duplicates collapsed)."""
        result: list[RID] = []
        a, b = self._ordered(), other._ordered()
        i = j = 0
        while i < len(a) or j < len(b):
            if j >= len(b) or (i < len(a) and a[i] <= b[j]):
                candidate = a[i]
                i += 1
                if j < len(b) and b[j] == candidate:
                    j += 1
            else:
                candidate = b[j]
                j += 1
            if not result or result[-1] != candidate:
                result.append(candidate)
        out = SortedRidBuffer()
        out._rids = result
        return out

    def distinct_pages(self) -> int:
        """Number of distinct heap pages referenced."""
        return len({rid >> SLOT_BITS for rid in self._rids})


#: prefix-product tables are kept for this many ``(pages, records/page)``
#: pairs, least recently used first out; a table has at most 1001 doubles
_YAO_TABLES = 8
_yao_extend_lock = threading.Lock()


@lru_cache(maxsize=_YAO_TABLES)
def _yao_products(total_pages: int, records_per_page: int) -> "array[float]":
    """The growing table of Yao prefix products for one table shape.

    ``products[k]`` is ``prod_{i=1..k} (n - n/m - i + 1)/(n - i + 1)``,
    multiplied up in exactly that order, or ``0.0`` from the first ``k``
    whose numerator is not positive. The cache hands every caller the same
    array on purpose: :func:`yao_pages_touched` extends it in place.
    """
    return array("d", (1.0,))


def _extend_yao_products(products: "array[float]", m: float, n: float, k: int) -> None:
    # the tables are process-wide, shared by every database; an embedding
    # application's threads may want the same table extended at once
    with _yao_extend_lock:
        per_page = n / m
        prod = products[-1]
        for i in range(len(products), k + 1):
            numerator = n - per_page - i + 1
            denominator = n - i + 1
            if numerator <= 0:
                prod = 0.0
            else:
                prod *= numerator / denominator
            products.append(prod)


#: the largest record count :func:`yao_pages_touched` multiplies out exactly
_YAO_EXACT_LIMIT = 1000


def yao_pages_touched(total_pages: int, records_per_page: int, k: int) -> float:
    """Yao's formula: expected distinct pages touched fetching ``k`` records.

    Given a table of ``total_pages`` pages with ``records_per_page`` records
    each, selecting ``k`` records uniformly without replacement touches on
    average ``m * (1 - prod_{i=1..k} (n - n/m - i + 1)/(n - i + 1))`` pages.
    This is the engine's estimate for the cost of a sorted RID-list fetch
    (the "second stage" of Jscan's two-stage competition).

    Jscan re-projects that cost at every index entry, so the product is not
    recomputed per call: it is read from a prefix-product table per
    ``(total_pages, records_per_page)`` that grows to the largest ``k`` asked
    for so far. The table holds the same multiplications in the same order
    as the plain loop, so the result is bit-identical to it.

    A cheap closed-form approximation ``m * (1 - (1 - 1/m)**k)`` is used when
    the exact product would be long; it is accurate for the sizes we model.
    """
    if total_pages <= 0 or k <= 0:
        return 0.0
    m = float(total_pages)
    n = float(total_pages * records_per_page)
    if k >= n:
        return m
    if k > _YAO_EXACT_LIMIT:
        return m * (1.0 - (1.0 - 1.0 / m) ** k)
    k = int(k)
    products = _yao_products(total_pages, records_per_page)
    if k >= len(products):
        _extend_yao_products(products, m, n, k)
    return m * (1.0 - products[k])


def yao_pages_bound(total_pages: int, records_per_page: int, k: int) -> float:
    """The most :func:`yao_pages_touched` gives for any count up to ``k``.

    Both of its branches grow with ``k``, but the closed form starts a
    little below the exact product it takes over from, so the bound is the
    larger of the two branch ends.
    """
    return max(
        yao_pages_touched(total_pages, records_per_page, min(k, _YAO_EXACT_LIMIT)),
        yao_pages_touched(total_pages, records_per_page, k),
    )


#: inverted thresholds kept: a statement's guaranteed cost repeats with the
#: statement, and a workload runs a few hundred distinct ones
_YAO_BOUNDS = 1024


@lru_cache(maxsize=_YAO_BOUNDS)
def yao_count_bounds(
    total_pages: int, records_per_page: int, pages: float
) -> tuple[int, int, int]:
    """The record counts whose Yao estimate reaches ``pages``, as integers.

    Returns ``(low, top, high)``: ``yao_pages_touched(total_pages,
    records_per_page, k) >= pages`` holds exactly when ``low <= k <= top``
    or ``k >= high`` (a bound that is never reached is ``sys.maxsize``).
    Each branch of the formula grows with ``k``, so each is inverted by a
    binary search over the very calls it stands for; there are two ranges
    because the closed form starts a little below the exact product it
    takes over from at ``k = 1001``. A caller comparing a count against
    the same ``pages`` at every step thus compares integers instead.
    """
    never = sys.maxsize

    def reaches(k: int) -> bool:
        return yao_pages_touched(total_pages, records_per_page, k) >= pages

    if total_pages <= 0:
        return (0, never, 0) if reaches(0) else (never, never, never)
    n = total_pages * records_per_page
    top = min(_YAO_EXACT_LIMIT, n - 1)
    low = bisect_left(range(top + 1), True, key=reaches)
    if low > top:
        low = never
    closed = range(_YAO_EXACT_LIMIT + 1, n)
    high = closed.start + bisect_left(closed, True, key=reaches)
    if high >= n:
        high = n if reaches(n) else never
    return low, top, high
