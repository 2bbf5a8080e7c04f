"""The per-entry Jscan loop and the row-at-a-time final stage, kept as oracles.

Both processes now advance a chunk at a time (a leaf run of index entries,
a page run of records). These subclasses keep the loops the chunked
routines replaced, one entry or one record per step, so a test can run the
same process both ways and compare everything it leaves behind.
"""

from __future__ import annotations

from repro.competition.two_stage import MIN_PROJECTION_FRACTION
from repro.engine.final_stage import FinalStageProcess
from repro.engine.jscan import (
    PROBABILISTIC_CHECK_INTERVAL,
    _SPILL_READ_RIDS_PER_PAGE,
    JscanProcess,
)
from repro.engine.metrics import EventKind
from repro.obs.audit import DecisionKind
from repro.storage.buffer_pool import ENTRY_CPU_COST
from repro.storage.rid import yao_pages_touched


class PerEntryJscan(JscanProcess):
    """Jscan evaluating its switch criterion at every entry, one entry per
    loop iteration, with a Yao call per projection. A scan's cost is what
    Jscan prices it at: the I/O its steps made plus its scanned entries'
    CPU charge."""

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        meter = self.meter
        counters = self.trace.counters
        config = self.config
        buffer_limit = config.allocated_rid_buffer_size
        min_fraction = MIN_PROJECTION_FRACTION
        threshold = self.criterion.threshold
        limit_fraction = self.criterion.scan_cost_limit_fraction
        static_threshold = self.static_rid_threshold
        probabilistic = self._prob_criterion
        on_keep = self.on_keep
        pages = self.heap.page_count
        rows_per_page = self.heap.rows_per_page
        in_filter = None if self._filter is None else self._filter.may_contain
        guaranteed = self.guaranteed_best_cost()
        steps = 0
        while steps < max_steps:
            steps += 1
            scan = self._active
            if scan is None:
                if not self._queue:
                    return steps, self._finalize()
                scan = self._active = self._start_scan(self._queue.pop(0))
                self._maybe_start_partner()
            partner = self._partner
            if partner is not None:
                self._turn ^= 1
                if (
                    self._turn
                    and len(partner.rid_list) < buffer_limit
                    and not scan.rid_list.spills
                ):
                    scan = partner
            before = meter.io_reads + meter.io_writes
            if not scan.run:
                run = scan.cursor.next_leaf_run()
                if not run:
                    scan.io += meter.io_reads + meter.io_writes - before
                    self._complete_scan(scan)
                    if self.finished:
                        return steps, True
                    if self._active is None:
                        if not self._queue:
                            return steps, self._finalize()
                        self._active = self._start_scan(self._queue.pop(0))
                    self._maybe_start_partner()
                    in_filter = None if self._filter is None else self._filter.may_contain
                    guaranteed = self.guaranteed_best_cost()
                    continue
                scan.run = run
            entry = scan.run.pop(0)
            rid = entry[1]
            meter.charge_entries(1)
            scanned = scan.scanned = scan.scanned + 1
            counters.index_entries_scanned += 1
            if in_filter is not None and not in_filter(rid):
                counters.rids_filtered_out += 1
            else:
                rid_list = scan.rid_list
                spills_before = rid_list.spills
                rid_list.add(rid, meter)
                if rid_list.spills != spills_before:
                    self.trace.emit(
                        EventKind.SPILL,
                        index=scan.name,
                        rids=len(rid_list),
                        region=rid_list.region.value,
                    )
                scan.kept += 1
                if on_keep is not None:
                    on_keep(rid, scan.position)
            scan.io += meter.io_reads + meter.io_writes - before
            scan_cost = scan.io + scanned * ENTRY_CPU_COST
            if static_threshold is not None:
                if scan.kept > static_threshold:
                    self._abandon_scan(scan, "static-threshold")
                continue
            if probabilistic is not None and scanned % PROBABILISTIC_CHECK_INTERVAL:
                continue
            projection = None
            estimate = scan.candidate.estimated_rids
            if estimate is not None:
                fraction = scanned / max(estimate, float(scanned))
                if fraction >= min_fraction:
                    projected_size = scan.kept / fraction
                    projection = yao_pages_touched(pages, rows_per_page, int(projected_size))
                    if scan.rid_list.spills:
                        projection += projected_size / _SPILL_READ_RIDS_PER_PAGE
            if probabilistic is not None:
                reason = self._probabilistic_verdict(scan, guaranteed)
                if reason is None:
                    continue
            elif guaranteed <= 0 or (
                projection is not None and projection >= threshold * guaranteed
            ):
                reason = "projected-cost"
            elif scan_cost >= limit_fraction * guaranteed:
                reason = "scan-cost"
            else:
                continue
            self.trace.note(
                DecisionKind.STAGE_TRANSITION,
                f"abandon({scan.name})",
                reason=reason,
                scanned=scanned,
                kept=scan.kept,
                scan_cost=round(scan_cost, 2),
                guaranteed=round(guaranteed, 2),
                projection=None if projection is None else round(projection, 2),
            )
            self._abandon_scan(scan, reason)
            self._maybe_start_partner()
        return steps, False


class RowAtATimeFinalStage(FinalStageProcess):
    """The final stage fetching, charging, evaluating and delivering one
    record per step through :meth:`HeapFile.fetch`."""

    def _do_step(self) -> bool:
        if self._next >= len(self.rids):
            return True
        rid = self.rids[self._next]
        self._next += 1
        if self.skip_rids is not None and self.skip_rids(rid):
            self.skipped += 1
            return self._next >= len(self.rids)
        row = self.heap.fetch(rid, self.meter)
        self.meter.charge_records(1)
        if self.trace is not None:
            self.trace.counters.records_fetched += 1
        if self.predicate(row):
            self.delivered += 1
            if self.trace is not None:
                self.trace.counters.records_delivered += 1
            if not self.sink(rid, row):
                self.stopped_by_consumer = True
                return True
        else:
            self.rejected += 1
            if self.trace is not None:
                self.trace.counters.fetches_rejected += 1
        return self._next >= len(self.rids)

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        steps = 0
        while steps < max_steps:
            remaining = len(self.rids) - self._next
            if remaining <= 0:
                return steps + 1, True
            window = min(max_steps - steps, remaining)
            upcoming = self.rids[self._next : self._next + window]
            if self.skip_rids is not None:
                upcoming = [rid for rid in upcoming if not self.skip_rids(rid)]
            if upcoming:
                pool = self.heap.buffer_pool
                self.heap.prefetch(
                    upcoming,
                    self.meter,
                    window=min(pool.read_ahead_window, pool.capacity),
                )
            for _ in range(window):
                steps += 1
                if self._do_step():
                    return steps, True
        return steps, False
