"""LRU buffer pool with per-process cost attribution.

The paper's dynamic optimizer charges each competing strategy for the
physical I/O it causes. The pool therefore takes a :class:`CostMeter` on
every access: hits are (almost) free, misses charge one I/O to the meter.

Batch execution adds two bulk entry points: :meth:`BufferPool.get_many`
fetches a run of pages in one call with accounting identical to the same
sequence of :meth:`BufferPool.get` calls, and :meth:`BufferPool.prefetch`
is the sequential read-ahead path — it loads only the *uncached* pages of a
run (bounded by a configurable window, default 8), charging the requesting
meter and current owner for exactly the physical reads it performs.

The pool also provides the *cache interference* hook the paper discusses in
Section 3(c): "the pattern of caching the disk pages is influenced by many
asynchronous processes totally unrelated to a given retrieval". Benchmarks
inject interference by evicting random pages between steps.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import random

from repro.storage.pager import Page, Pager, PageKind


#: a zero read count for every page kind, copied into each new meter
_NO_READS: dict[PageKind, int] = dict.fromkeys(PageKind, 0)

#: CPU charge (in page-I/O units) for handing one index entry to a scan
ENTRY_CPU_COST = 0.0002

#: CPU charge (in page-I/O units) for examining one heap record
RECORD_CPU_COST = 0.001


@dataclass(slots=True)
class CostMeter:
    """Counts the work charged to one process/strategy.

    Costs are in units of one physical page I/O. The meter counts what it
    is charged — page reads and writes, buffer hits, index entries handed
    to a scan and heap records examined — and prices the counts only when
    read: an entry costs :data:`ENTRY_CPU_COST` and a record
    :data:`RECORD_CPU_COST`, small fractions of an I/O, so that ties
    between otherwise equal plans break in favour of less CPU work, as in
    the paper's cost model. Counts add exactly: merging meters in any
    order, or splitting the same work between several, leaves the same
    total.
    """

    name: str = ""
    io_reads: int = 0
    io_writes: int = 0
    buffer_hits: int = 0
    #: index entries handed to a scan
    entries: int = 0
    #: heap records examined
    records: int = 0
    #: breakdown of read misses per page kind
    reads_by_kind: dict[PageKind, int] = field(default_factory=_NO_READS.copy)

    @property
    def cpu(self) -> float:
        """CPU cost in page-I/O units: the entry and record counts, priced."""
        return self.entries * ENTRY_CPU_COST + self.records * RECORD_CPU_COST

    @property
    def total(self) -> float:
        """Total cost: physical I/Os plus fractional CPU cost."""
        return self.io_reads + self.io_writes + self.cpu

    @property
    def io_total(self) -> int:
        """Physical I/O count only (paper's headline metric)."""
        return self.io_reads + self.io_writes

    def charge_read(self, kind: PageKind) -> None:
        """Charge one physical page read of the given kind."""
        self.io_reads += 1
        self.reads_by_kind[kind] += 1

    def charge_write(self) -> None:
        """Charge one physical page write."""
        self.io_writes += 1

    def charge_hit(self) -> None:
        """Record one buffer-pool hit (free in I/O units)."""
        self.buffer_hits += 1

    def charge_entries(self, count: int) -> None:
        """Charge ``count`` index entries handed to a scan."""
        self.entries += count

    def charge_records(self, count: int) -> None:
        """Charge ``count`` heap records examined."""
        self.records += count

    def merge(self, other: "CostMeter") -> None:
        """Fold another meter's charges into this one."""
        self.io_reads += other.io_reads
        self.io_writes += other.io_writes
        self.buffer_hits += other.buffer_hits
        self.entries += other.entries
        self.records += other.records
        for kind, count in other.reads_by_kind.items():
            self.reads_by_kind[kind] += count

    def snapshot(self) -> "CostMeter":
        """Return a copy of the current charges."""
        copy = CostMeter(name=self.name)
        copy.merge(self)
        return copy

    @classmethod
    def merged(cls, meters: Iterable["CostMeter"], name: str = "") -> "CostMeter":
        """One meter holding the charges of all of ``meters``: what their
        work cost together, priced once."""
        total = cls(name=name)
        for meter in meters:
            total.merge(meter)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostMeter({self.name!r}, reads={self.io_reads}, writes={self.io_writes}, "
            f"hits={self.buffer_hits}, entries={self.entries}, records={self.records})"
        )


class NullMeter(CostMeter):
    """A meter that discards every charge.

    Used where the caller does not care about attribution. A plain shared
    :class:`CostMeter` would silently *accumulate* charges from every
    unmetered call site for the life of the process — a hazard for any code
    that later reads the shared instance — so the null object genuinely
    drops charges instead: all its counters stay zero forever.
    """

    __slots__ = ()

    def charge_read(self, kind: PageKind) -> None:
        pass

    def charge_write(self) -> None:
        pass

    def charge_hit(self) -> None:
        pass

    def charge_entries(self, count: int) -> None:
        pass

    def charge_records(self, count: int) -> None:
        pass

    def merge(self, other: "CostMeter") -> None:
        pass


#: Meter used when the caller does not care about attribution. All charge
#: methods are no-ops, so sharing one instance is safe.
NULL_METER = NullMeter(name="<null>")


@dataclass(slots=True)
class OwnerCacheStats:
    """Cumulative hit/miss counts attributed to one cache owner.

    Owners are the multi-query server's sessions: the scheduler tags the
    pool with the session whose query is about to step, so emergent cache
    interference between concurrent sessions becomes measurable per session.
    """

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Total attributed page reads."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of this owner's accesses served from cache."""
        return self.hits / self.accesses if self.accesses else 0.0


class BufferPool:
    """A fixed-capacity LRU page cache over a :class:`Pager`.

    All engine page access goes through :meth:`get` (or the batched
    :meth:`get_many`/:meth:`prefetch`). The pool is shared by all processes
    of a retrieval (and between retrievals), so the cache state itself is a
    source of the cost uncertainty the paper exploits.
    """

    def __init__(
        self, pager: Pager, capacity: int = 256, read_ahead_window: int = 8
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        if read_ahead_window < 1:
            raise ValueError("read-ahead window must be >= 1")
        self.pager = pager
        self.capacity = capacity
        #: default cap on physical reads per :meth:`prefetch` call
        self.read_ahead_window = read_ahead_window
        self._cache: OrderedDict[int, Page] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: physical reads issued by the read-ahead path (subset of misses)
        self.prefetched = 0
        #: optional histogram recording each read-ahead run's loaded page
        #: count (anything with ``record(value)``); installed by the
        #: server's metrics registry so run-length distributions are
        #: observable without the pool importing the metrics layer
        self.run_hist = None
        #: accounting tag set by the scheduler around every query step;
        #: ``None`` means unattributed (direct single-query use)
        self.current_owner: str | None = None
        self.owner_stats: dict[str, OwnerCacheStats] = {}
        #: pin refcounts by page id: pinned pages are never chosen as LRU
        #: or interference-eviction victims. The batch read paths pin their
        #: in-flight run so admitting page N of a run can never evict page 1
        #: of the same run, and an interference tick landing mid-run cannot
        #: drop pages the run is about to return.
        self._pinned: dict[int, int] = {}

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def stats_for(self, owner: str) -> OwnerCacheStats:
        """The (created-on-demand) hit/miss stats of one owner."""
        stats = self.owner_stats.get(owner)
        if stats is None:
            stats = self.owner_stats[owner] = OwnerCacheStats()
        return stats

    def get(self, page_id: int, meter: CostMeter = NULL_METER) -> Page:
        """Fetch a page, charging ``meter`` one read on a miss."""
        page = self._cache.get(page_id)
        if page is not None:
            self._cache.move_to_end(page_id)
            self.hits += 1
            meter.charge_hit()
            if self.current_owner is not None:
                self.stats_for(self.current_owner).hits += 1
            return page
        page = self.pager.read(page_id)
        self.misses += 1
        meter.charge_read(page.kind)
        if self.current_owner is not None:
            self.stats_for(self.current_owner).misses += 1
        self._admit(page)
        return page

    def get_many(
        self, page_ids: Sequence[int], meter: CostMeter = NULL_METER
    ) -> list[Page]:
        """Fetch a run of pages in one call.

        Accounting is byte-identical to calling :meth:`get` once per page in
        order — hits and misses are charged per page — so batched scans cost
        exactly what their row-at-a-time equivalents would.
        """
        cache = self._cache
        pages: list[Page] = []
        for page_id in page_ids:
            self.pin(page_id)
        try:
            for page_id in page_ids:
                page = cache.get(page_id)
                if page is not None:
                    cache.move_to_end(page_id)
                    self.hits += 1
                    meter.charge_hit()
                    if self.current_owner is not None:
                        self.stats_for(self.current_owner).hits += 1
                else:
                    page = self.pager.read(page_id)
                    self.misses += 1
                    meter.charge_read(page.kind)
                    if self.current_owner is not None:
                        self.stats_for(self.current_owner).misses += 1
                    self._admit(page)
                pages.append(page)
        finally:
            for page_id in page_ids:
                self.unpin(page_id)
        return pages

    def prefetch(
        self,
        page_ids: Iterable[int],
        meter: CostMeter = NULL_METER,
        window: int | None = None,
    ) -> int:
        """Sequential read-ahead: load the uncached pages of a run.

        Reads at most ``window`` (default: the pool's configured
        ``read_ahead_window``) uncached pages, charging each physical read
        to ``meter`` and to the current owner's miss count. Pages already
        cached are left untouched — no hit is charged and their LRU recency
        does not change, so a later :meth:`get` observes the same totals a
        row-at-a-time access sequence would in I/O units (buffer *hits* may
        be higher, since prefetched pages hit on their subsequent get).
        Returns the number of pages physically read.
        """
        cap = self.read_ahead_window if window is None else window
        loaded = 0
        run: list[int] = []
        try:
            for page_id in page_ids:
                if loaded >= cap:
                    break
                if page_id in self._cache:
                    continue
                page = self.pager.read(page_id)
                self.misses += 1
                self.prefetched += 1
                meter.charge_read(page.kind)
                if self.current_owner is not None:
                    self.stats_for(self.current_owner).misses += 1
                self._admit(page)
                self.pin(page_id)
                run.append(page_id)
                loaded += 1
        finally:
            for page_id in run:
                self.unpin(page_id)
        if loaded and self.run_hist is not None:
            self.run_hist.record(loaded)
        return loaded

    def put(self, page: Page, meter: CostMeter = NULL_METER) -> None:
        """Write a page through the cache, charging one write."""
        self.pager.write(page)
        meter.charge_write()
        self._admit(page)

    def allocate(
        self,
        kind: PageKind,
        owner: str = "",
        payload: object = None,
        meter: CostMeter = NULL_METER,
    ) -> Page:
        """Allocate a new page through the cache, charging one write."""
        page = self.pager.allocate(kind, owner=owner, payload=payload)
        meter.charge_write()
        self._admit(page)
        return page

    def _admit(self, page: Page) -> None:
        self._cache[page.page_id] = page
        self._cache.move_to_end(page.page_id)
        self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        """Drop unpinned pages in LRU order until within capacity.

        When every resident page is pinned the pool is allowed to run
        transiently over capacity (a pinned run longer than the pool);
        :meth:`unpin` shrinks it back as pins release.
        """
        excess = len(self._cache) - self.capacity
        if excess <= 0:
            return
        victims: list[int] = []
        for page_id in self._cache:  # LRU first
            if page_id not in self._pinned:
                victims.append(page_id)
                if len(victims) >= excess:
                    break
        for page_id in victims:
            del self._cache[page_id]

    # -- pinning ----------------------------------------------------------

    def pin(self, page_id: int) -> None:
        """Protect a page from LRU and interference eviction (refcounted)."""
        self._pinned[page_id] = self._pinned.get(page_id, 0) + 1

    def unpin(self, page_id: int) -> None:
        """Release one pin; the last release makes the page evictable again
        (and shrinks any transient over-capacity the pin caused)."""
        count = self._pinned.get(page_id, 0)
        if count <= 1:
            self._pinned.pop(page_id, None)
            self._evict_over_capacity()
        else:
            self._pinned[page_id] = count - 1

    def pinned(self, page_id: int) -> bool:
        """True while at least one pin holds the page."""
        return page_id in self._pinned

    # -- cache management -------------------------------------------------

    def evict(self, page_id: int) -> None:
        """Forcibly drop one page from the cache if present.

        This is the DDL path (drop table/index frees the page outright), so
        it clears any pins along with the page — unlike LRU and
        interference eviction, which both respect pins.
        """
        self._cache.pop(page_id, None)
        self._pinned.pop(page_id, None)

    def clear(self) -> None:
        """Empty the cache (cold-start benchmarks). Pins do not survive."""
        self._cache.clear()
        self._pinned.clear()

    def evict_random(self, fraction: float, rng: random.Random) -> int:
        """Simulate cache interference from unrelated queries.

        Evicts roughly ``fraction`` of the *evictable* (unpinned) cached
        pages chosen uniformly at random. Pages pinned by an in-flight
        batch read — or by a join hash build holding its current run across
        scheduling quanta — are never victims, and they no longer dilute
        the tick either: victims are sampled among unpinned pages only, so
        the interference rate stays constant instead of silently dropping
        toward zero as pins accumulate. Returns the number of pages
        actually evicted.

        In the common no-pins case victims are chosen by *index* into the
        cache's iteration order, so no copy of the full key list is
        materialized per call (this runs inside benchmark interference
        loops, once per engine step).
        """
        if not self._cache or fraction <= 0:
            return 0
        if not self._pinned:
            size = len(self._cache)
            count = max(1, int(size * min(fraction, 1.0)))
            wanted = set(rng.sample(range(size), count))
            victims = [
                page_id
                for position, page_id in enumerate(self._cache)
                if position in wanted
            ]
        else:
            eligible = [
                page_id for page_id in self._cache if page_id not in self._pinned
            ]
            if not eligible:
                return 0
            count = min(len(eligible),
                        max(1, int(len(eligible) * min(fraction, 1.0))))
            victims = rng.sample(eligible, count)
        for page_id in victims:
            del self._cache[page_id]
        return len(victims)

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses served from cache (0 when no accesses)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
