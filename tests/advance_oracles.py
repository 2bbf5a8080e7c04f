"""The per-entry Jscan loop and the row-at-a-time final stage, kept as oracles.

Both processes now advance a chunk at a time (a leaf run of index entries,
a page run of records). The loops the chunked routines replaced, one entry
or one record per step, run the same process another way, so a test can
compare everything the two leave behind. The per-entry Jscan is also the
base of the comparators Section 6 measures Jscan against, so it lives in
``benchmarks/paper/per_entry_jscan.py``; with its default verdict it judges
the scan by the paper's rule after every entry.
"""

from __future__ import annotations

from paper.per_entry_jscan import PerEntryJscan
from repro.engine.final_stage import FinalStageProcess

__all__ = ["PerEntryJscan", "RowAtATimeFinalStage"]


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
