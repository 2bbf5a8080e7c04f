"""Record identifiers and RID-list helpers.

A RID names a record by (page number, slot) in one int. Jscan (Section 6)
manipulates RID lists heavily: building them from index scans, intersecting
them through filters, sorting them for page-clustered final fetches. Yao's
formula gives how many distinct pages a sorted RID fetch is expected to
touch, the "projected second stage cost" used by the two-stage competition.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from functools import lru_cache
from operator import truediv
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


def yao_pages_touched(total_pages: int, records_per_page: int, k: int) -> float:
    """Yao's formula: expected distinct pages touched fetching ``k`` records.

    Selecting ``k`` of the ``n = m * d`` records of a table of ``m`` pages
    holding ``d`` records each, uniformly without replacement, misses a
    given page with probability ``C(n - d, k) / C(n, k) = C(n - k, d) /
    C(n, d)``, so on average ``m * (1 - prod_{j<d} (n - k - j)/(n - j))``
    pages are touched. This is the engine's estimate for the cost of a
    sorted RID-list fetch (the "second stage" of Jscan's two-stage
    competition). A fractional ``k`` counts its whole records.

    The product is exact for every count: ``d`` quotients of integers, each
    rounded once. Each quotient falls as ``k`` grows and a rounded product
    of falling factors cannot rise, so the result never decreases with
    ``k``, in floating point as in the formula; :func:`yao_reach` inverts
    a threshold on it to one count.
    """
    if total_pages <= 0 or k <= 0:
        return 0.0
    n = total_pages * records_per_page
    k = int(k)
    if k > n - records_per_page:
        return float(total_pages)  # too few records left to miss a page
    missed = math.prod(map(
        truediv, range(n - k, n - k - records_per_page, -1), range(n, n - records_per_page, -1)
    ))
    return total_pages * (1.0 - missed)


#: inverted thresholds kept: a statement's guaranteed cost repeats with the
#: statement, and a workload runs a few hundred distinct ones
_YAO_REACHES = 1024


@lru_cache(maxsize=_YAO_REACHES)
def yao_reach(
    total_pages: int, records_per_page: int, pages: float, spill_rids_per_page: int = 0
) -> int:
    """The fewest records whose fetch costs at least ``pages``.

    The cost of fetching ``k`` records is :func:`yao_pages_touched`, plus,
    for a list spilled to a temp table of ``spill_rids_per_page`` RIDs a
    page, the ``k // spill_rids_per_page`` full pages reading it back reads
    (its tail is still in memory). That cost never decreases with ``k``, so
    it is at least ``pages`` exactly from the count returned on
    (``sys.maxsize`` when no count reaches it), found by a binary search
    over the very calls it stands for. A caller comparing a count against
    the same ``pages`` at every step thus compares integers instead.
    """

    def reaches(k: int) -> bool:
        cost = yao_pages_touched(total_pages, records_per_page, k)
        if spill_rids_per_page:
            cost += k // spill_rids_per_page
        return cost >= pages

    # past every record Yao's pages stay put: only a read-back keeps growing
    top = max(0, total_pages * records_per_page)
    if not reaches(top):
        if not spill_rids_per_page or not pages < math.inf:
            return sys.maxsize
        while not reaches(top):
            top = 2 * top + spill_rids_per_page
    return bisect_left(range(top + 1), True, key=reaches)
