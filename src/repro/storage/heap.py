"""Heap files: slotted pages of rows addressed by RIDs.

A heap file is the physical storage of one table. Rows are tuples; the
schema lives in the catalog layer. Scans and fetches charge I/O through the
buffer pool so Tscan cost equals the page count and random fetch cost shows
the caching effects the paper discusses.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import RecordNotFoundError, StorageError
from repro.storage.buffer_pool import BufferPool, CostMeter, NULL_METER
from repro.storage.pager import PageKind
from repro.storage.rid import RID, SLOT_BITS, SLOT_MASK, make_rid

Row = tuple


class HeapFile:
    """An append-only heap of fixed-capacity slotted pages.

    Deletions mark slots ``None``; pages are never reclaimed (matching the
    retrieval-focused scope of the paper — we need stable RIDs, not space
    management).
    """

    def __init__(self, buffer_pool: BufferPool, name: str, rows_per_page: int = 32) -> None:
        if rows_per_page < 1:
            raise StorageError("rows_per_page must be >= 1")
        if rows_per_page > 1 << SLOT_BITS:
            # a larger slot would spill into the page bits of its RID
            raise StorageError(f"rows_per_page must be <= {1 << SLOT_BITS}")
        self.buffer_pool = buffer_pool
        self.name = name
        self.rows_per_page = rows_per_page
        #: page ids in file order; index in this list == the RID's page
        self._page_ids: list[int] = []
        self._row_count = 0

    # -- properties --------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Number of heap pages (== full Tscan physical read cost, cold)."""
        return len(self._page_ids)

    @property
    def row_count(self) -> int:
        """Number of live rows."""
        return self._row_count

    # -- mutation ------------------------------------------------------------

    def insert(self, row: Row, meter: CostMeter = NULL_METER) -> RID:
        """Append a row, returning its RID."""
        if not self._page_ids or self._last_page_full(meter):
            page = self.buffer_pool.allocate(
                PageKind.HEAP, owner=self.name, payload=[], meter=meter
            )
            self._page_ids.append(page.page_id)
        page_no = len(self._page_ids) - 1
        page = self.buffer_pool.get(self._page_ids[page_no], meter)
        slots: list = page.payload
        slots.append(row)
        self._row_count += 1
        return make_rid(page_no, len(slots) - 1)

    def insert_many(self, rows: Iterable[Row], meter: CostMeter = NULL_METER) -> list[RID]:
        """Bulk insert; returns RIDs in insertion order."""
        return [self.insert(row, meter) for row in rows]

    def delete(self, rid: RID, meter: CostMeter = NULL_METER) -> None:
        """Mark a slot empty. The RID becomes dangling."""
        slots, slot = self._record(rid, meter)
        slots[slot] = None
        self._row_count -= 1

    def update(self, rid: RID, row: Row, meter: CostMeter = NULL_METER) -> None:
        """Overwrite a slot in place."""
        slots, slot = self._record(rid, meter)
        slots[slot] = row

    # -- access --------------------------------------------------------------

    def fetch(self, rid: RID, meter: CostMeter = NULL_METER) -> Row:
        """Read one record by RID (a "data record fetch")."""
        slots, slot = self._record(rid, meter)
        return slots[slot]

    def scan(self, meter: CostMeter = NULL_METER) -> Iterator[tuple[RID, Row]]:
        """Full sequential scan: yields (RID, row) in physical order."""
        for page_no in range(len(self._page_ids)):
            for rid, row in self.scan_page(page_no, meter):
                yield rid, row

    def scan_page(self, page_no: int, meter: CostMeter = NULL_METER) -> Iterator[tuple[RID, Row]]:
        """Scan the live rows of one page (one sequential-read unit)."""
        if page_no < 0 or page_no >= len(self._page_ids):
            raise StorageError(f"heap {self.name!r} has no page {page_no}")
        page = self.buffer_pool.get(self._page_ids[page_no], meter)
        for slot, row in enumerate(page.payload):
            if row is not None:
                yield make_rid(page_no, slot), row

    def scan_page_run(
        self, start: int, count: int, meter: CostMeter = NULL_METER
    ) -> list[list[Row | None]]:
        """Read a run of pages in one buffer-pool call.

        Returns the slot list of each page in the run
        ``[start, min(start+count, page_count))`` — the page's own list, not
        a copy: slot ``i`` of page ``n`` is the record ``make_rid(n, i)``,
        ``None`` where it was deleted, and the caller must not change it.
        The pages are pulled (and pinned meanwhile) through
        :meth:`BufferPool.get_many`, so hits and misses are charged exactly
        as ``count`` successive :meth:`scan_page` calls would charge them,
        without per-page buffer-pool dispatch. The bulk scans run a page
        kernel (:func:`repro.expr.eval.compile_page_kernel`) over each list
        and build RIDs only for the records that pass.
        """
        if start < 0 or start >= len(self._page_ids):
            raise StorageError(f"heap {self.name!r} has no page {start}")
        stop = min(start + max(count, 1), len(self._page_ids))
        pages = self.buffer_pool.get_many(self._page_ids[start:stop], meter)
        return [page.payload for page in pages]

    def page_id(self, page_no: int) -> int:
        """The buffer-pool page id backing heap page ``page_no``.

        Used by consumers that pin pages across scheduling quanta (the join
        hash build keeps its current read run pinned between steps).
        """
        if page_no < 0 or page_no >= len(self._page_ids):
            raise StorageError(f"heap {self.name!r} has no page {page_no}")
        return self._page_ids[page_no]

    def prefetch(
        self,
        rids: Iterable[RID],
        meter: CostMeter = NULL_METER,
        window: int | None = None,
    ) -> int:
        """Read ahead the distinct heap pages referenced by a RID run.

        Maps RIDs to their pages (dropping duplicates while preserving first
        occurrence order, and silently skipping out-of-range pages so a later
        :meth:`fetch` still raises the proper error) and hands the run to
        :meth:`BufferPool.prefetch`. Returns the number of pages physically
        read — each charged to ``meter`` as a normal miss.
        """
        limit = len(self._page_ids)
        pages = dict.fromkeys(rid >> SLOT_BITS for rid in rids)
        page_ids = [self._page_ids[page_no] for page_no in pages if 0 <= page_no < limit]
        return self.buffer_pool.prefetch(page_ids, meter, window)

    def fetch_sorted(
        self,
        rids: Sequence[RID],
        meter: CostMeter = NULL_METER,
        keep: Callable[[Row], bool] | None = None,
    ) -> Iterator[tuple[RID, Row]]:
        """Fetch records for a *sorted* RID list, page-clustered.

        Sorted access touches each distinct page once while it stays cached,
        which is the benefit the paper credits to Jscan's offline RID list
        ("accessing several records on a single page only once").
        """
        for rid in rids:
            row = self.fetch(rid, meter)
            if keep is None or keep(row):
                yield rid, row

    # -- internals ----------------------------------------------------------

    def _record(self, rid: RID, meter: CostMeter) -> tuple[list[Row | None], int]:
        """The slot list (read through the pool) and slot of a live record."""
        page_no, slot = rid >> SLOT_BITS, rid & SLOT_MASK
        if 0 <= page_no < len(self._page_ids):
            slots = self.buffer_pool.get(self._page_ids[page_no], meter).payload
            if slot < len(slots) and slots[slot] is not None:
                return slots, slot
        raise RecordNotFoundError(f"no record at page {page_no} slot {slot}")

    def _last_page_full(self, meter: CostMeter) -> bool:
        page = self.buffer_pool.get(self._page_ids[-1], meter)
        return len(page.payload) >= self.rows_per_page
