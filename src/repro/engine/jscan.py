"""Jscan — the joint scan of fetch-needed indexes (Section 6, Figure 6).

Jscan scans the preselected indexes in ascending-selectivity order. Each
index scan builds a RID list (hybrid storage: static buffer, allocated
buffer, temp table + bitmap) filtered against the previously completed
list, so each completed list is the running intersection. Unproductive
scans are eliminated by a *two-stage competition*: during a scan, the cost
of retrieving by the projected final RID list is continuously compared
against the *guaranteed best* retrieval (Tscan, or retrieval by the last
complete list); the scan is terminated "a bit before the costs are
equalized". A direct criterion additionally bounds the scan's own cost by a
proportion of the guaranteed best.

Rdb/VMS also "can partially change the order of index scans by limited
simultaneous scanning of two adjacent indexes" — implemented here as pair
mode: the next index scans alongside the current one (within main memory
only); whichever completes first delivers the next filter, and the other's
partial list is refiltered in memory.

The result is either a complete RID list (possibly empty — an immediate
end-of-data), or the recommendation that Tscan is the best retrieval.

A ``static_rid_threshold`` turns this class into the statically-controlled
Jscan of [MoHa90]: a scan is abandoned only when its list outgrows the
threshold, and neither the guaranteed best nor a projection is consulted.
The baseline that sets it (``benchmarks/paper/mohan_jscan.py``) also turns
``simultaneous_adjacent_scans`` off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.btree.tree import ENTRY_CPU_COST, Entry
from repro.competition.process import Process
from repro.competition.two_stage import (
    MIN_PROJECTION_FRACTION,
    SwitchCriterion,
    SwitchDecision,
)
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.initial import JscanCandidate
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.obs.audit import DecisionKind
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.heap import HeapFile
from repro.storage.hybrid_list import HybridRidList, RidListRegion
from repro.storage.rid import RID, yao_pages_touched


#: RIDs per temp-table page assumed when pricing the read-back of a spilled list
_SPILL_READ_RIDS_PER_PAGE = 512.0

#: with ``probabilistic_switch``, re-evaluate every N scanned entries
#: (posterior integration is pricier than the threshold check)
PROBABILISTIC_CHECK_INTERVAL = 16


@dataclass
class _IndexScan:
    """Live state of one index scan inside Jscan."""

    candidate: JscanCandidate
    cursor: object  # RangeCursor
    rid_list: HybridRidList
    position: int = 0
    scanned: int = 0
    kept: int = 0
    scan_cost: float = 0.0
    #: entries of the cursor's current leaf not yet looked at
    run: Iterator[Entry] = field(default_factory=lambda: iter(()))

    @property
    def name(self) -> str:
        return self.candidate.index.name


class JscanProcess(Process):
    """The joint-scan background process. One step == one index entry;
    :meth:`step` is :meth:`run_batch` of one."""

    def __init__(
        self,
        candidates: list[JscanCandidate],
        heap: HeapFile,
        buffer_pool: BufferPool,
        trace: RetrievalTrace,
        config: EngineConfig = DEFAULT_CONFIG,
        static_rid_threshold: float | None = None,
        on_keep: Callable[[RID, int], None] | None = None,
        name: str = "jscan",
    ) -> None:
        super().__init__(name)
        if not candidates:
            raise ValueError("Jscan needs at least one candidate index")
        self.heap = heap
        self.buffer_pool = buffer_pool
        self.trace = trace
        self.config = config
        self.criterion = SwitchCriterion(
            threshold=config.switch_threshold,
            scan_cost_limit_fraction=config.scan_cost_limit_fraction,
        )
        self._prob_criterion = None
        if config.probabilistic_switch:
            from repro.competition.probabilistic import BayesianSwitchCriterion

            self._prob_criterion = BayesianSwitchCriterion(
                heap_pages=heap.page_count,
                rows_per_page=heap.rows_per_page,
                scan_cost_limit_fraction=config.scan_cost_limit_fraction,
            )
        self.static_rid_threshold = static_rid_threshold
        #: tap: called with (rid, scan_position) for every kept RID —
        #: the fast-first tactic "borrows" RIDs through this hook
        self.on_keep = on_keep

        self._queue: list[JscanCandidate] = list(candidates)
        self._started = 0  # scan position counter (0 == first index)
        self._active: _IndexScan | None = None
        self._partner: _IndexScan | None = None
        self._filter: HybridRidList | None = None
        #: (filter list, heap pages, cost) of the last guaranteed-best answer
        self._guaranteed: tuple[HybridRidList | None, int, float] | None = None
        self._turn = 0
        self.completed_scans = 0
        self.abandoned_scans = 0
        self.reorders = 0

        # results
        self.result_list: HybridRidList | None = None
        self.tscan_recommended = False
        self.empty = False
        self.span = trace.tracer.open(
            "scan",
            strategy="jscan",
            indexes=[candidate.index.name for candidate in candidates],
        )

    # -- cost model -----------------------------------------------------------

    def tscan_cost(self) -> float:
        """Cost of the fallback sequential scan."""
        return float(self.heap.page_count)

    def rid_fetch_cost(self, rid_count: float, rid_list: HybridRidList | None = None) -> float:
        """Estimated cost of the final stage for a RID list of given size.

        Yao's expected distinct pages for the sorted fetch, plus reading the
        spill pages back when the list lives in a temp table.
        """
        cost = yao_pages_touched(self.heap.page_count, self.heap.rows_per_page, int(rid_count))
        if rid_list is not None and rid_list.region is RidListRegion.SPILLED:
            cost += rid_count / _SPILL_READ_RIDS_PER_PAGE
        return cost

    def guaranteed_best_cost(self) -> float:
        """The cost of the best retrieval guaranteed available right now.

        It changes only when a scan completes (a new filter list) or the
        heap grows, so it is kept per (filter list, heap page count)
        instead of being re-derived at every index entry.
        """
        pages = self.heap.page_count
        cached = self._guaranteed
        if cached is not None and cached[0] is self._filter and cached[1] == pages:
            return cached[2]
        best = self.tscan_cost()
        if self._filter is not None:
            best = min(best, self.rid_fetch_cost(len(self._filter), self._filter))
        self._guaranteed = (self._filter, pages, best)
        return best

    # -- scan lifecycle ----------------------------------------------------------

    def _start_scan(self, candidate: JscanCandidate) -> _IndexScan:
        position = self._started
        self._started += 1
        scan = _IndexScan(
            candidate=candidate,
            cursor=candidate.index.btree.range_cursor(candidate.key_range, self.meter),
            rid_list=HybridRidList(
                self.buffer_pool, f"{self.name}:{candidate.index.name}", self.config
            ),
            position=position,
        )
        self.trace.emit(
            EventKind.SCAN_START,
            strategy="jscan-index",
            index=candidate.index.name,
            position=position,
        )
        self.trace.counters.scans_started += 1
        return scan

    def _maybe_start_partner(self) -> None:
        if (
            self.config.simultaneous_adjacent_scans
            and self._partner is None
            and self._active is not None
            and self._queue
        ):
            self._partner = self._start_scan(self._queue.pop(0))
            self.trace.emit(
                EventKind.SIMULTANEOUS_PAIR,
                active=self._active.name,
                partner=self._partner.name,
            )

    def _abandon_scan(self, scan: _IndexScan, reason: str) -> None:
        scan.rid_list.discard()
        self.abandoned_scans += 1
        self.trace.counters.scans_abandoned += 1
        self.trace.emit(
            EventKind.SCAN_ABANDONED,
            index=scan.name,
            reason=reason,
            scanned=scan.scanned,
            kept=scan.kept,
            scan_cost=round(scan.scan_cost, 2),
        )
        if scan is self._active:
            self._active = self._partner
            self._partner = None
        elif scan is self._partner:
            self._partner = None

    def _complete_scan(self, scan: _IndexScan) -> None:
        """A cursor exhausted: its list is the new running intersection."""
        if (
            scan is self._partner
            and scan.kept > 0
            and self._active.rid_list.region is RidListRegion.SPILLED
        ):
            # defensive: accepting a partner win would require refiltering
            # the active's list out of memory, which the paper rules out
            # (the _choose_scan freeze makes this unreachable in practice,
            # but installing the filter without the refilter would corrupt
            # results). Drop the partner's work; the previous filter stands.
            scan.rid_list.discard()
            self.abandoned_scans += 1
            self.trace.counters.scans_abandoned += 1
            self.trace.emit(
                EventKind.SCAN_ABANDONED, index=scan.name,
                reason="active-spilled-no-refilter", scanned=scan.scanned,
                kept=scan.kept, scan_cost=round(scan.scan_cost, 2),
            )
            self._partner = None
            return
        self.completed_scans += 1
        # the exhausted cursor walked its whole range: record the true
        # cardinality so selectivity feedback can sharpen later estimates
        scan.candidate.observed = scan.scanned
        self.trace.emit(
            EventKind.SCAN_COMPLETE,
            index=scan.name,
            scanned=scan.scanned,
            kept=scan.kept,
        )
        old_filter = self._filter
        self._filter = scan.rid_list
        self.trace.emit(
            EventKind.FILTER_BUILT,
            index=scan.name,
            rids=scan.kept,
            region=scan.rid_list.region.value,
        )
        if old_filter is not None:
            old_filter.discard()
        if scan.kept == 0:
            # empty intersection: no record can satisfy the conjunction
            self.empty = True
            self.result_list = scan.rid_list
            self.finished = True
            self.trace.emit(EventKind.RID_LIST_COMPLETE, rids=0, empty=True)
            return
        if scan is self._partner:
            # the partner finished first: dynamic reorder. The active scan's
            # partial list is refiltered in memory against the new filter.
            self.reorders += 1
            self.trace.emit(
                EventKind.REORDERED, winner=scan.name, continuing=self._active.name
            )
            new_filter = self._filter
            dropped = self._active.rid_list.refilter(new_filter.may_contain)
            self._active.kept -= dropped
            self.meter.charge_cpu(ENTRY_CPU_COST * (self._active.kept + dropped))
            self._partner = None
        else:
            # active finished; partner (if any) is promoted and refiltered
            if self._partner is not None:
                new_filter = self._filter
                dropped = self._partner.rid_list.refilter(new_filter.may_contain)
                self._partner.kept -= dropped
                self.meter.charge_cpu(
                    ENTRY_CPU_COST * (self._partner.kept + dropped)
                )
            self._active = self._partner
            self._partner = None

    # -- the advance routine -----------------------------------------------------

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        """Advance by up to ``max_steps`` index entries.

        A step takes one entry (or meets the end of a range) from the scan
        whose turn it is, filters it, stores it, adds what that cost to the
        scan's cost and evaluates the switch criterion — at every entry, on
        exactly the numbers a one-entry-per-call loop would see. Entries
        come a leaf run at a time (:meth:`RangeCursor.next_leaf_run`), so
        the page after an abandoned entry is never read.
        """
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
                # the pair alternates and pauses at the memory-buffer
                # boundary ("the simultaneous scan ... does not continue
                # beyond the memory buffer"): the partner stops advancing
                # when its own list would spill, and also once the *active*
                # list has spilled — a partner win would then require
                # refiltering the active list out of memory, which is
                # exactly what the paper rules out (a live list has spilled,
                # i.e. is in the SPILLED region, exactly when ``spills`` > 0)
                self._turn ^= 1
                if (
                    self._turn
                    and len(partner.rid_list) < buffer_limit
                    and not scan.rid_list.spills
                ):
                    scan = partner
            before = meter.io_reads + meter.io_writes + meter.cpu
            entry = next(scan.run, None)
            if entry is None:
                run = scan.cursor.next_leaf_run()
                if not run:
                    scan.scan_cost += meter.io_reads + meter.io_writes + meter.cpu - before
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
                scan.run = iter(run)
                entry = next(scan.run)
            rid = entry[1]
            meter.cpu += ENTRY_CPU_COST
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
            scan_cost = scan.scan_cost = scan.scan_cost + (
                meter.io_reads + meter.io_writes + meter.cpu - before
            )

            # -- the switch criterion, at every entry ---------------------------
            if static_threshold is not None:
                # [MoHa90]-style static control: abandon when the list exceeds
                # a precomputed threshold; no dynamic readjustment
                if scan.kept > static_threshold:
                    self._abandon_scan(scan, "static-threshold")
                continue
            if probabilistic is not None and scanned % PROBABILISTIC_CHECK_INTERVAL:
                continue
            # projected final-retrieval cost from the list being built: Yao's
            # pages for the projected size, plus reading the spill pages back
            projection = None
            estimate = scan.candidate.estimated_rids
            if estimate is not None:
                fraction = scanned / max(estimate, float(scanned))
                if fraction >= min_fraction:
                    projected_size = scan.kept / fraction
                    projection = yao_pages_touched(pages, rows_per_page, int(projected_size))
                    if scan.rid_list.spills:
                        projection += projected_size / _SPILL_READ_RIDS_PER_PAGE
            # the probabilistic rule, or SwitchCriterion.evaluate inlined
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
            # the switch criterion's inputs at the moment it fired: what the
            # scan had cost, what the projection said it would cost (None
            # while no reliable projection exists), and the guaranteed
            # bound it lost to
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

    def _probabilistic_verdict(self, scan: _IndexScan, guaranteed: float) -> str | None:
        """The abandon reason under ``probabilistic_switch`` (None: go on)."""
        from repro.competition.probabilistic import ScanEvidence

        estimate = scan.candidate.estimated_rids
        decision = self._prob_criterion.evaluate(
            ScanEvidence(
                scanned=scan.scanned,
                kept=scan.kept,
                estimated_total=estimate if estimate is not None else float(scan.scanned),
                scan_cost=scan.scan_cost,
            ),
            guaranteed,
        )
        if decision is SwitchDecision.CONTINUE:
            return None
        return "projected-cost" if decision is SwitchDecision.ABANDON_PROJECTED else "scan-cost"

    def _finalize(self) -> bool:
        if self._filter is not None:
            self.result_list = self._filter
            self.trace.emit(
                EventKind.RID_LIST_COMPLETE,
                rids=len(self._filter),
                region=self._filter.region.value,
            )
        else:
            self.tscan_recommended = True
            self.trace.emit(EventKind.TSCAN_RECOMMENDED)
        return True

    def _on_abandon(self) -> None:
        for scan in (self._active, self._partner):
            if scan is not None:
                scan.rid_list.discard()
        if self._filter is not None and self._filter is not self.result_list:
            self._filter.discard()

    def next_batch(self, max_rids: int) -> list[tuple[RID, int]]:
        """Advance until up to ``max_rids`` new RIDs have been kept.

        Returns the newly kept ``(rid, scan_position)`` pairs, in keep
        order. Steps run through :meth:`run_batch`, so cost accounting and
        the two-stage switch decisions are identical to repeated
        :meth:`step` calls; an installed :attr:`on_keep` tap still fires for
        every kept RID. An empty list means the joint scan ended (finished,
        empty intersection, Tscan recommendation, or abandonment) without
        keeping more RIDs.
        """
        if max_rids < 1:
            raise ValueError("max_rids must be >= 1")
        kept: list[tuple[RID, int]] = []
        outer = self.on_keep

        def capture(rid: RID, position: int) -> None:
            kept.append((rid, position))
            if outer is not None:
                outer(rid, position)

        self.on_keep = capture
        try:
            while self.active and len(kept) < max_rids:
                self.run_batch(max_rids - len(kept))
        finally:
            self.on_keep = outer
        return kept

    # -- consuming the result ------------------------------------------------------

    def sorted_result(self, meter: CostMeter | None = None) -> list[RID]:
        """Materialize the final RID list, sorted for page-clustered fetch,
        then discard the list: Jscan releases its memory and temp space
        "before any records are delivered"."""
        if self.result_list is None:
            raise RuntimeError("jscan produced no RID list")
        rids = self.result_list.sorted_rids(meter if meter is not None else self.meter)
        self.result_list.discard()
        return rids
