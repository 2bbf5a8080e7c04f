"""Fin — the final retrieval stage (Figure 4).

Executed only upon background (Jscan) completion, as the alternative to
foreground delivery: fetch the data records of the complete RID list in
sorted (page-clustered) order, evaluate the full restriction, and deliver.
RIDs already delivered by a foreground process are filtered out through the
foreground buffer — "the buffer is passed to the final stage where it helps
to filter out the already delivered records".

When Jscan recommended Tscan instead, the tactics run a
:class:`~repro.engine.scans.TscanProcess` with the same skip-filter.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import TableSchema
from repro.engine.metrics import RetrievalTrace
from repro.engine.scans import Predicate, Sink, _Scan
from repro.errors import RecordNotFoundError
from repro.expr.ast import Expr
from repro.storage.heap import HeapFile
from repro.storage.rid import RID, SLOT_BITS, SLOT_MASK


class FinalStageProcess(_Scan):
    """Sorted RID-list fetch with restriction evaluation and delivery.

    One step is one RID of the list. Steps run a read-ahead window at a
    time, and within it a heap page's run of RIDs at a time (see
    :meth:`_do_batch`); a step is a window of one.
    """

    def __init__(
        self,
        rids: Sequence[RID],
        heap: HeapFile,
        schema: TableSchema,
        restriction: Expr,
        host_vars: Mapping[str, Any],
        sink: Sink,
        trace: RetrievalTrace | None = None,
        config: EngineConfig = DEFAULT_CONFIG,
        skip_rids: Callable[[RID], bool] | None = None,
        name: str = "final-stage",
        predicate: Predicate | None = None,
    ) -> None:
        super().__init__(
            name, schema, restriction, host_vars, sink, trace, config, predicate
        )
        self.rids = sorted(rids)
        self.heap = heap
        self.skip_rids = skip_rids
        self._next = 0
        self.delivered = 0
        self.rejected = 0
        self.skipped = 0
        if trace is not None:
            self.span = trace.tracer.open("final-stage", rids=len(self.rids))

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        """Fetch up to ``max_steps`` RIDs, a read-ahead window at a time.

        Before each window of non-skipped RIDs, their distinct heap pages
        are loaded through :meth:`HeapFile.prefetch`. Because the RID list
        is sorted (page-clustered) and prefetch charges exactly the misses
        the row-at-a-time fetches would have charged, ``io_reads`` is
        identical for a run that completes; a consumer stop mid-window can
        leave at most ``read_ahead_window - 1`` speculative page reads
        charged.

        The window's RIDs are then taken in order, a heap page's run at a
        time: one buffer-pool access when the run's page comes up, charged
        as the first of the per-RID :meth:`BufferPool.get` calls would be,
        and the run's other records charged as the hits those calls would
        add — to the pool, the meter and the current owner's stats — with
        the window's record CPU and counters. Each record is tested with the
        compiled restriction (a page kernel call costs more than the two or
        three records a page of a Jscan list usually holds) and goes to the
        sink as it passes; a collecting sink that cannot reach its limit in
        the window takes the window's rows in one piece instead. Nothing
        after the record where the consumer stops, the restriction raises
        or a RID names no record (:class:`RecordNotFoundError`, its fetch
        charged) is charged, counted or delivered: every meter field, pool
        and owner count, counter and row is what fetching one record per
        step gives.
        """
        rids = self.rids
        heap = self.heap
        pool = heap.buffer_pool
        meter = self.meter
        skip = self.skip_rids
        predicate = self.predicate
        sink = self.sink
        slot_bits, slot_mask = SLOT_BITS, SLOT_MASK
        steps = 0
        while steps < max_steps:
            start = self._next
            remaining = len(rids) - start
            if remaining <= 0:
                return steps + 1, True
            window = min(max_steps - steps, remaining)
            upcoming = rids[start : start + window]
            fetched = upcoming
            if skip is not None:
                fetched = [rid for rid in upcoming if not skip(rid)]
            if fetched:
                # page cap bounded by pool capacity: the RID list is sorted,
                # so as long as one prefetch run fits the pool, every
                # prefetched page is still cached when its fetch arrives and
                # io_reads stays identical to row-at-a-time fetching
                heap.prefetch(
                    fetched, meter, window=min(pool.read_ahead_window, pool.capacity)
                )
            # a collecting sink that cannot reach its limit in this window
            # takes the window's rows in one piece, after its last record
            take = getattr(sink, "take", None)
            whole = take is not None and (
                sink.limit is None or sink.limit - len(sink.rows) > len(fetched)
            )
            passed_rids: list[RID] = []
            passed_rows: list[tuple] = []
            page_count = heap.page_count
            current = -1
            accessed = skipped = unread = unlooked = 0
            stop = error = None
            for at, rid in enumerate(upcoming):
                if skip is not None and skip(rid):
                    skipped += 1
                    continue
                page_no = rid >> slot_bits
                if page_no != current:
                    if page_no >= page_count:
                        # its fetch raises before it reads a page
                        stop, unread = at, 1
                        error = RecordNotFoundError(
                            f"no record at page {page_no} slot {rid & slot_mask}"
                        )
                        break
                    slots = pool.get(heap.page_id(page_no), meter).payload
                    current = page_no
                    accessed += 1
                    slot_count = len(slots)
                slot = rid & slot_mask
                row = slots[slot] if slot < slot_count else None
                if row is None:
                    stop, unlooked = at, 1
                    error = RecordNotFoundError(f"no record at page {page_no} slot {slot}")
                    break
                try:
                    passes = predicate(row)
                except Exception as exc:  # raised once its record is charged
                    stop, error = at, exc
                    break
                if passes:
                    passed_rids.append(rid)
                    if whole:
                        passed_rows.append(row)
                    elif not sink(rid, row):
                        self.stopped_by_consumer = True
                        stop = at
                        break
            if whole and passed_rids:
                take(passed_rids, passed_rows)
            # the RIDs fetched: one pool access per page, the repeats hits
            reached = (window if stop is None else stop + 1) - skipped - unread
            hits = reached - accessed
            if hits:
                pool.hits += hits
                meter.buffer_hits += hits
                if pool.current_owner is not None:
                    pool.stats_for(pool.current_owner).hits += hits
            looked = reached - unlooked
            meter.charge_records(looked)
            delivered = len(passed_rids)
            rejected = looked - delivered - (error is not None and not (unread or unlooked))
            self.delivered += delivered
            self.rejected += rejected
            self.skipped += skipped
            if self.trace is not None:
                counters = self.trace.counters
                counters.records_fetched += looked
                counters.records_delivered += delivered
                counters.fetches_rejected += rejected
            if stop is not None:
                # the RID the scan ends at: the consumer's last, the one
                # whose record raised, or the one that names no record
                self._next = start + stop + 1
                if error is not None:
                    raise error
                return steps + stop + 1, True
            self._next = start + window
            steps += window
            if self._next >= len(rids):
                return steps, True
        return steps, False
