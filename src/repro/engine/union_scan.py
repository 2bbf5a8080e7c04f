"""Union joint scan — the OR extension of Jscan.

The paper's Section 6 Jscan handles restrictions whose "index-bound
portions [are] connected by ANDs"; Section 8 names OR coverage as the
natural extension. This module implements it in the same competition
style:

* every top-level disjunct gets a covering index range
  (:func:`repro.expr.disjunction.cover_disjuncts`);
* the ranges are scanned in ascending estimated size, their RIDs unioned
  (deduplicated — a record satisfying several disjuncts is fetched once);
* a two-stage competition projects the final fetch cost of the *union*
  while scanning; when the projection approaches the Tscan cost, the whole
  arrangement is abandoned in favour of Tscan (a disjunct covering most of
  the table makes every index plan useless — unlike AND, OR can only grow).

The result mirrors Jscan's: a sorted RID list for the final stage, or a
Tscan recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.btree.estimate import estimate_range
from repro.btree.tree import RangeCursor
from repro.competition.process import Process
from repro.competition.two_stage import (
    MIN_PROJECTION_FRACTION,
    SwitchCriterion,
    SwitchDecision,
)
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.expr.disjunction import DisjunctRange
from repro.storage.buffer_pool import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.rid import RID, yao_pages_touched


@dataclass
class _DisjunctScan:
    """Live state of one disjunct's range scan."""

    ranged: DisjunctRange
    cursor: RangeCursor
    estimate: float
    scanned: int = 0


class UnionScanProcess(Process):
    """Scan every disjunct's range, unioning RIDs. One step == one entry."""

    def __init__(
        self,
        disjuncts: list[DisjunctRange],
        heap: HeapFile,
        buffer_pool: BufferPool,
        trace: RetrievalTrace,
        config: EngineConfig = DEFAULT_CONFIG,
        name: str = "union-scan",
    ) -> None:
        super().__init__(name)
        if not disjuncts:
            raise ValueError("union scan needs at least one disjunct")
        self.heap = heap
        self.buffer_pool = buffer_pool
        self.trace = trace
        self.config = config
        self.criterion = SwitchCriterion(
            threshold=config.switch_threshold,
            scan_cost_limit_fraction=config.scan_cost_limit_fraction,
        )
        # estimate every range up front (cheap descents), scan small first:
        # a huge disjunct then triggers the switch before much work is sunk
        self._scans: list[_DisjunctScan] = []
        for ranged in disjuncts:
            estimate = estimate_range(ranged.index.btree, ranged.key_range, self.meter)
            self._scans.append(
                _DisjunctScan(
                    ranged=ranged,
                    cursor=ranged.index.btree.range_cursor(ranged.key_range, self.meter),
                    estimate=max(estimate.rids, 0.0),
                )
            )
        self._scans.sort(key=lambda scan: scan.estimate)
        self._current = 0
        #: entries scanned so far, over all disjuncts
        self._scanned = 0
        self._rids: set[RID] = set()
        #: tap: called with each RID newly added to the union (duplicates
        #: are skipped); :meth:`next_batch` captures through it
        self.on_keep: "Callable[[RID], None] | None" = None
        self.duplicates_skipped = 0
        self.total_estimate = sum(scan.estimate for scan in self._scans)
        self.tscan_recommended = False
        self.span = trace.tracer.open(
            "scan",
            strategy="union",
            disjuncts=len(self._scans),
        )
        trace.emit(
            EventKind.SCAN_START,
            strategy="union-scan",
            disjuncts=len(self._scans),
            order=[scan.ranged.index.name for scan in self._scans],
        )
        self.trace.counters.scans_started += 1

    # -- cost model ---------------------------------------------------------

    def tscan_cost(self) -> float:
        """The guaranteed alternative: a full sequential scan."""
        return float(self.heap.page_count)

    def projected_final_cost(self) -> float | None:
        """Projected fetch cost of the completed union."""
        scanned = self._scanned
        if scanned == 0 or self.total_estimate <= 0:
            return None
        fraction = scanned / max(self.total_estimate, float(scanned))
        if fraction < MIN_PROJECTION_FRACTION:
            return None
        projected_unique = len(self._rids) / fraction
        return yao_pages_touched(
            self.heap.page_count, self.heap.rows_per_page, int(projected_unique)
        )

    # -- stepping ----------------------------------------------------------------

    def _do_step(self) -> bool:
        while self._current < len(self._scans):
            scan = self._scans[self._current]
            entry = scan.cursor.next_entry()
            if entry is None:
                self.trace.emit(
                    EventKind.SCAN_COMPLETE,
                    index=scan.ranged.index.name,
                    scanned=scan.scanned,
                    kept=len(self._rids),
                )
                self._current += 1
                continue
            _, rid = entry
            scan.scanned += 1
            self._scanned += 1
            self.trace.counters.index_entries_scanned += 1
            if rid in self._rids:
                self.duplicates_skipped += 1
            else:
                self._rids.add(rid)
                if self.on_keep is not None:
                    self.on_keep(rid)
            decision = self.criterion.evaluate(
                self.projected_final_cost(), self.meter.total, self.tscan_cost()
            )
            if decision is not SwitchDecision.CONTINUE:
                reason = (
                    "projected-cost"
                    if decision is SwitchDecision.ABANDON_PROJECTED
                    else "scan-cost"
                )
                self.trace.emit(
                    EventKind.SCAN_ABANDONED,
                    index="union-scan",
                    reason=reason,
                    kept=len(self._rids),
                )
                self.trace.counters.scans_abandoned += 1
                self.tscan_recommended = True
                self._rids.clear()
                return True
            return False
        self.trace.emit(EventKind.RID_LIST_COMPLETE, rids=len(self._rids), union=True)
        return True

    def next_batch(self, max_rids: int) -> list[RID]:
        """Advance until up to ``max_rids`` RIDs joined the union.

        Returns the newly unioned RIDs in arrival order (duplicates never
        appear). Steps run through :meth:`run_batch` with accounting and
        switch decisions identical to repeated :meth:`step` calls. An empty
        list means the scan ended (union complete or Tscan recommended).
        """
        if max_rids < 1:
            raise ValueError("max_rids must be >= 1")
        fresh: list[RID] = []
        outer = self.on_keep

        def capture(rid: RID) -> None:
            fresh.append(rid)
            if outer is not None:
                outer(rid)

        self.on_keep = capture
        try:
            while self.active and len(fresh) < max_rids:
                self.run_batch(max_rids - len(fresh))
        finally:
            self.on_keep = outer
        return fresh

    # -- result -------------------------------------------------------------------

    def sorted_result(self) -> list[RID]:
        """The deduplicated union, sorted for page-clustered fetching."""
        return sorted(self._rids)

    @property
    def empty(self) -> bool:
        """True when the completed union is empty (no row can satisfy)."""
        return self.finished and not self.tscan_recommended and not self._rids
