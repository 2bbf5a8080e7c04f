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

from repro.competition.process import Process
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import TableSchema
from repro.engine.metrics import RetrievalTrace
from repro.engine.scans import BatchingSinkMixin, Predicate, Sink
from repro.expr.ast import Expr
from repro.expr.eval import compile_predicate
from repro.storage.heap import RECORD_CPU_COST, HeapFile
from repro.storage.rid import RID


class FinalStageProcess(BatchingSinkMixin, Process):
    """Sorted RID-list fetch with restriction evaluation and delivery."""

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
        super().__init__(name)
        self.rids = sorted(rids)
        self.heap = heap
        self.schema = schema
        self.restriction = restriction
        self.host_vars = dict(host_vars)
        self.sink = sink
        self.trace = trace
        self.config = config
        self.predicate = predicate if predicate is not None else compile_predicate(
            restriction, schema.position, self.host_vars
        )
        self.skip_rids = skip_rids
        self.stopped_by_consumer = False
        self._next = 0
        self.delivered = 0
        self.rejected = 0
        self.skipped = 0
        if trace is not None:
            self.span = trace.tracer.open("final-stage", rids=len(self.rids))

    def _do_step(self) -> bool:
        if self._next >= len(self.rids):
            return True
        rid = self.rids[self._next]
        self._next += 1
        if self.skip_rids is not None and self.skip_rids(rid):
            self.skipped += 1
            return self._next >= len(self.rids)
        row = self.heap.fetch(rid, self.meter)
        self.meter.charge_cpu(RECORD_CPU_COST)
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
        """Fetch up to ``max_steps`` RIDs, read-ahead window at a time.

        Before each window of non-skipped RIDs, their distinct heap pages
        are loaded through :meth:`HeapFile.prefetch`; the per-RID fetches in
        ``_do_step`` then hit the cache. Because the RID list is sorted
        (page-clustered) and prefetch charges exactly the misses the
        row-at-a-time fetches would have charged, ``io_reads`` is identical
        for a run that completes; a consumer stop mid-window can leave at
        most ``read_ahead_window - 1`` speculative page reads charged.
        """
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
                # page cap bounded by pool capacity: the RID list is sorted,
                # so as long as one prefetch run fits the pool, every
                # prefetched page is still cached when its fetch arrives and
                # io_reads stays identical to row-at-a-time fetching
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
