"""Jscan one index entry at a time, with its switch rule as a hook.

The product's :class:`~repro.engine.jscan.JscanProcess` advances a leaf run
at a time and bounds the paper's switch criterion over each run. This
subclass keeps the loop that routine replaced: one entry per iteration and
a verdict after every entry. It serves twice:

* the tests run it beside the chunked routine as their oracle, with the
  default verdict — the paper's rule, :class:`SwitchCriterion` on a Yao
  projection — and require everything the two leave behind to be equal;
* the comparators Section 6 measures Jscan against override the verdict:
  the [MoHa90] static threshold (:mod:`paper.mohan_jscan`) and the
  Bayesian rule after [Ant91B] (:mod:`paper.probabilistic`).
"""

from __future__ import annotations

from repro.competition.two_stage import MIN_PROJECTION_FRACTION, SwitchDecision
from repro.engine.jscan import REASONS, JscanProcess, _IndexScan
from repro.engine.metrics import EventKind


class PerEntryJscan(JscanProcess):
    """Jscan taking one entry per loop iteration and judging the scan after
    each with :meth:`_judge`."""

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        meter = self.meter
        counters = self.trace.counters
        buffer_limit = self.config.allocated_rid_buffer_size
        on_keep = self.on_keep
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
            rid = scan.run.pop(0)[1]
            meter.charge_entries(1)
            scan.scanned += 1
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
            self._judge(scan, guaranteed)
        return steps, False

    def _projection(self, scan: _IndexScan) -> float | None:
        """The final fetch's cost for the list ``scan`` would complete at
        its observed keep rate; None before ``MIN_PROJECTION_FRACTION`` of
        its estimated range is scanned."""
        estimate = scan.candidate.estimated_rids
        if estimate is None:
            return None
        fraction = scan.scanned / max(estimate, float(scan.scanned))
        if fraction < MIN_PROJECTION_FRACTION:
            return None
        return self.rid_fetch_cost(scan.kept / fraction, scan.rid_list)

    def _judge(self, scan: _IndexScan, guaranteed: float) -> None:
        """The switch rule after ``scan``'s latest entry — the paper's: give
        the scan up when its projected fetch nears the guaranteed best, or
        its own cost passes a fraction of it."""
        projection = self._projection(scan)
        decision = self.criterion.evaluate(projection, scan.scan_cost, guaranteed)
        if decision is not SwitchDecision.CONTINUE:
            self._switch_away(scan, REASONS[decision], guaranteed, projection)
