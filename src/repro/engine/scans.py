"""The basic retrieval strategies: Tscan, Sscan, Fscan (Section 4).

    "Tscan: Full table scan (no indexes involved) - a classical sequential
     retrieval.
     Sscan: Self-sufficient index scan.
     Fscan: Fetch-needed index scan with immediate data record fetches - a
     classical indexed retrieval."

(Jscan lives in :mod:`repro.engine.jscan`.) Each scan is a
:class:`~repro.competition.process.Process`: Tscan steps one heap page at a
time, index scans one entry at a time, so tactics can interleave them at
proportional speeds and abandon them mid-run.

Each scan has one advance routine, ``_do_batch``; a step is a batch of one.
The routine works a heap page or a B-tree leaf run at a time — the
restriction as one page kernel call, RIDs built for survivors only, the
per-record charges added in one loop, counters bumped once — and leaves
behind exactly what a scan looking at one record per step would: the same
rows, charges, counters and page reads, whatever the batch size. The one
exception is Tscan's read-ahead: a consumer stop keeps the pages of the
current ``get_many`` run that were already read (docs/performance.md).

Scans push results into a *sink* ``(rid, row) -> bool``; a False return is
the consumer saying "enough" (EXISTS satisfied, LIMIT reached, cursor
closed) — the paper's forceful early termination. Nothing after the row
the sink stops at is delivered, charged or counted.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.competition.process import Process
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import IndexInfo, TableSchema
from repro.engine.metrics import RetrievalTrace
from repro.errors import RetrievalError
from repro.expr.ast import Expr
from repro.expr.eval import compile_page_kernel, compile_predicate
from repro.btree.tree import KeyRange, RangeCursor
from repro.storage.heap import HeapFile
from repro.storage.rid import RID, page_rids

#: a delivery sink; False return requests retrieval stop
Sink = Callable[[RID, tuple], bool]

#: a compiled restriction: row -> bool (see repro.expr.eval.compile_predicate)
Predicate = Callable[[tuple], bool]

#: the same restriction over a page of rows: slots -> the slots that pass
#: (see repro.expr.eval.compile_page_kernel)
PageKernel = Callable[[Sequence], list[int]]


class BatchingSinkMixin:
    """Pull-based batch API for sink-driven processes.

    Every scan delivers rows by *pushing* into ``self.sink``. This mixin adds
    the complementary *pull* API: :meth:`next_batch` steps the process (via
    ``run_batch``, so batched storage paths are used) until up to
    ``max_rows`` deliveries have accumulated and returns them as a list.
    Deliveries still flow through the installed sink unchanged — the same
    steps run, the same costs are charged, and a sink returning False stops
    the scan exactly as in push mode — so batch and row consumption are
    equivalent in row sequence and :class:`CostMeter` totals. (The capturing
    sink takes rows one call at a time; only :class:`CollectingSink` takes a
    page's survivors in one piece.)

    A step may deliver more rows than requested (Tscan steps whole pages);
    the surplus is buffered and returned by the next call, never dropped.
    """

    sink: Sink
    _pending_batch: list | None = None

    def next_batch(self, max_rows: int) -> list[tuple[RID, tuple]]:
        """Return up to ``max_rows`` delivered ``(rid, row)`` pairs.

        An empty list means the process is exhausted (finished, abandoned,
        or stopped by its consumer, with no buffered surplus left).
        """
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        pending = self._pending_batch
        if pending is None:
            pending = self._pending_batch = []
        if self.active and len(pending) < max_rows:
            outer = self.sink

            def capture(rid: RID, row: tuple) -> bool:
                pending.append((rid, row))
                return outer(rid, row)

            self.sink = capture
            try:
                while self.active and len(pending) < max_rows:
                    self.run_batch(max_rows - len(pending))
            finally:
                self.sink = outer
        batch = pending[:max_rows]
        del pending[:max_rows]
        return batch


class CollectingSink:
    """The sink of a retrieval: collects rows and RIDs until ``limit``.

    Called with one ``(rid, row)`` it is an ordinary :data:`Sink`; the bulk
    scans hand it a whole page's survivors at once (:meth:`take`), and it
    stops at exactly the row the calls would stop at.
    """

    __slots__ = ("rows", "rids", "limit")

    def __init__(
        self, rows: list[tuple], rids: list[RID], limit: int | None = None
    ) -> None:
        self.rows = rows
        self.rids = rids
        self.limit = limit

    def __call__(self, rid: RID, row: tuple) -> bool:
        self.rows.append(row)
        self.rids.append(rid)
        return self.limit is None or len(self.rows) < self.limit

    def take(self, rids: Sequence[RID], rows: Sequence[tuple]) -> int | None:
        """Collect ``rows`` in order; returns the position of the row that
        reached the limit (nothing after it is taken), else ``None``."""
        limit = self.limit
        if limit is None or len(self.rows) + len(rows) < limit or not rows:
            self.rows.extend(rows)
            self.rids.extend(rids)
            return None
        # a call collects its row before it looks at the limit
        room = max(1, limit - len(self.rows))
        self.rows.extend(rows[:room])
        self.rids.extend(rids[:room])
        return room - 1


class _Scan(BatchingSinkMixin, Process):
    """What the three scans are made of: the restriction, compiled as a row
    predicate and as a page kernel, the sink, and the trace."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        restriction: Expr,
        host_vars: Mapping[str, Any],
        sink: Sink,
        trace: RetrievalTrace | None,
        config: EngineConfig,
        predicate: Predicate | None,
    ) -> None:
        super().__init__(name)
        self.schema = schema
        self.restriction = restriction
        self.host_vars = dict(host_vars)
        self.sink = sink
        self.trace = trace
        self.config = config
        #: restriction compiled once per scan — or shared across the whole
        #: plan when the caller passes a cached predicate
        self.predicate = predicate if predicate is not None else compile_predicate(
            restriction, schema.position, self.host_vars
        )
        self.stopped_by_consumer = False

    def _page_kernel(self) -> PageKernel:
        """The same restriction, a page (or leaf run) of rows at a time."""
        return compile_page_kernel(
            self.restriction, self.schema.position, self.host_vars
        )

    def _sift(
        self,
        slots: Sequence[tuple | None],
        rids_of: Callable[[list[int]], list[RID]],
        skip_rids: Callable[[RID], bool] | None = None,
    ) -> tuple[int, int, bool, Exception | None]:
        """Evaluate the restriction over one page of rows, deliver what passes.

        ``slots`` are a heap page's slots (``None`` where a record was
        deleted) or the rows of an index leaf run; ``rids_of`` names the
        records in the given slots. Returns ``(last, delivered, stopped,
        error)``: ``last`` is the last slot a scan going row by row would
        have looked at — the page's last, the one where the consumer said
        "enough", or the one whose row made the restriction raise. The caller
        charges up to there, then raises ``error`` if there is one. The rows
        go to the sink in order — in one piece where it takes that
        (:class:`CollectingSink`) — and none after the one it stops at.
        """
        last, error = len(slots) - 1, None
        try:
            hits = self.kernel(slots)
        except Exception:  # handed back at the row it belongs to
            # Row by row, the rows before the offending one are delivered
            # first, and a consumer satisfied by those never meets the error.
            hits = []
            for slot, row in enumerate(slots):
                if row is None or (
                    skip_rids is not None and skip_rids(rids_of([slot])[0])
                ):
                    continue
                try:
                    if self.predicate(row):
                        hits.append(slot)
                except Exception as raised:
                    last, error = slot, raised
                    break
        else:
            if skip_rids is not None:
                hits = [s for s, rid in zip(hits, rids_of(hits)) if not skip_rids(rid)]
        if not hits:
            return last, 0, False, error
        rids, rows = rids_of(hits), [slots[slot] for slot in hits]
        take = getattr(self.sink, "take", None)
        if take is not None:
            stop_at = take(rids, rows)
        else:
            sink = self.sink
            stop_at = next(
                (i for i, rid in enumerate(rids) if not sink(rid, rows[i])), None
            )
        if stop_at is not None:
            self.stopped_by_consumer = True
            return hits[stop_at], stop_at + 1, True, None
        return last, len(hits), False, error


class TscanProcess(_Scan):
    """Sequential full-table scan. One step == one heap page."""

    def __init__(
        self,
        heap: HeapFile,
        schema: TableSchema,
        restriction: Expr,
        host_vars: Mapping[str, Any],
        sink: Sink,
        trace: RetrievalTrace | None = None,
        config: EngineConfig = DEFAULT_CONFIG,
        skip_rids: Callable[[RID], bool] | None = None,
        name: str = "tscan",
        predicate: Predicate | None = None,
    ) -> None:
        super().__init__(
            name, schema, restriction, host_vars, sink, trace, config, predicate
        )
        self.heap = heap
        self.kernel = self._page_kernel()
        #: RIDs to suppress (already delivered by a foreground process)
        self.skip_rids = skip_rids
        self._next_page = 0
        if trace is not None:
            self.span = trace.tracer.open(
                "scan", strategy="tscan", pages=heap.page_count
            )

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        """Scan up to ``max_steps`` pages, each through the page kernel.

        Pages are fetched in read-ahead-window-sized runs through one
        ``get_many`` call each (a step is a run of one). Records are charged
        and counted as far as the scan looks: a consumer stop in the middle
        of a page charges nothing after the stop row, but leaves the run's
        already-fetched trailing pages read (at most ``read_ahead_window -
        1`` of them — see docs/performance.md).
        """
        heap = self.heap
        meter = self.meter
        counters = None if self.trace is None else self.trace.counters
        steps = 0
        while steps < max_steps:
            if self._next_page >= heap.page_count:
                return steps + 1, True
            run = min(
                max_steps - steps,
                heap.page_count - self._next_page,
                heap.buffer_pool.read_ahead_window,
            )
            for slots in heap.scan_page_run(self._next_page, run, meter):
                steps += 1
                last, delivered, stopped, error = self._sift(
                    slots, partial(page_rids, self._next_page), self.skip_rids
                )
                looked = last + 1 - slots[: last + 1].count(None)
                meter.charge_records(looked)
                if counters is not None:
                    counters.records_fetched += looked
                    counters.records_delivered += delivered
                if error is not None:
                    raise error
                if stopped:
                    return steps, True
                self._next_page += 1
            if self._next_page >= heap.page_count:
                return steps, True
        return steps, False


class SscanProcess(_Scan):
    """Self-sufficient index scan: delivers straight from index entries.

    Requires every column the restriction and the output need to be present
    in the index. Delivered rows are full-width tuples with non-indexed
    positions left as None (the engine only routes here when nothing else
    reads them).
    """

    def __init__(
        self,
        index: IndexInfo,
        key_range: KeyRange,
        schema: TableSchema,
        restriction: Expr,
        host_vars: Mapping[str, Any],
        sink: Sink,
        trace: RetrievalTrace | None = None,
        config: EngineConfig = DEFAULT_CONFIG,
        name: str | None = None,
        predicate: Predicate | None = None,
    ) -> None:
        super().__init__(
            name or f"sscan:{index.name}", schema, restriction, host_vars, sink,
            trace, config, predicate,
        )
        self.index = index
        self.kernel = self._page_kernel()
        self.cursor: RangeCursor = index.btree.range_cursor(key_range, self.meter)
        self.delivered = 0
        # a delivered row reads, position by position, the key column
        # indexed there, or the None appended to the key
        picks = [len(index.positions)] * len(schema)
        for column, position in enumerate(index.positions):
            picks[position] = column
        self._row_of: Callable[[tuple], tuple] = (
            itemgetter(*picks) if len(picks) > 1 else itemgetter(slice(1))
        )
        if trace is not None:
            self.span = trace.tracer.open(
                "scan", strategy="sscan", index=index.name
            )

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        """Scan up to ``max_steps`` index entries, a leaf run at a time.

        The run's rows go through the page kernel in one call; entries are
        charged and counted one by one as far as the scan looks, so a
        consumer stop inside a leaf pays for nothing after the stop entry
        and the next leaf is read only when this one is used up.
        """
        meter = self.meter
        row_of = self._row_of
        steps = 0
        while steps < max_steps:
            entries = self.cursor.next_leaf_run(max_steps - steps)
            if not entries:
                return steps + 1, True  # the step that meets the end of the range
            last, delivered, stopped, error = self._sift(
                [row_of(key + (None,)) for key, _ in entries],
                lambda hits: [entries[slot][1] for slot in hits],
            )
            steps += last + 1
            meter.charge_entries(last + 1)
            self.delivered += delivered
            if self.trace is not None:
                self.trace.counters.index_entries_scanned += last + 1
                self.trace.counters.records_delivered += delivered
            if error is not None:
                raise error
            if stopped:
                return steps, True
        return steps, False


class FscanProcess(_Scan):
    """Fetch-needed index scan with immediate record fetches.

    One step == one index entry (plus its record fetch). An optional
    *filter* (anything with ``may_contain``) can be installed between any
    two steps or batches — the Sorted tactic plugs Jscan's completed filter
    in mid-flight to suppress useless fetches.
    """

    def __init__(
        self,
        index: IndexInfo,
        key_range: KeyRange,
        heap: HeapFile,
        schema: TableSchema,
        restriction: Expr,
        host_vars: Mapping[str, Any],
        sink: Sink,
        trace: RetrievalTrace | None = None,
        config: EngineConfig = DEFAULT_CONFIG,
        name: str | None = None,
        predicate: Predicate | None = None,
    ) -> None:
        super().__init__(
            name or f"fscan:{index.name}", schema, restriction, host_vars, sink,
            trace, config, predicate,
        )
        self.index = index
        self.heap = heap
        self.cursor: RangeCursor = index.btree.range_cursor(key_range, self.meter)
        #: installable RID filter (e.g. a completed Jscan bitmap)
        self.filter: Any | None = None
        self.fetched = 0
        self.rejected = 0
        self.filtered_out = 0
        self.delivered = 0
        if trace is not None:
            self.span = trace.tracer.open(
                "scan", strategy="fscan", index=index.name
            )

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        """Scan up to ``max_steps`` index entries, a leaf run at a time.

        Each entry is charged, filtered, fetched, evaluated and delivered
        before the next is looked at — a record fetch is I/O, so nothing is
        done ahead of a consumer that may stop — and the next leaf is read
        only when the current one is used up.
        """
        meter = self.meter
        fetch = self.heap.fetch
        predicate = self.predicate
        sink = self.sink
        may_contain = None if self.filter is None else self.filter.may_contain
        steps = filtered_out = fetched = delivered = rejected = 0
        try:
            while steps < max_steps:
                entries = self.cursor.next_leaf_run(max_steps - steps)
                if not entries:
                    return steps + 1, True  # the step that meets the end of the range
                for _, rid in entries:
                    steps += 1
                    meter.entries += 1
                    if may_contain is not None and not may_contain(rid):
                        filtered_out += 1
                        continue
                    row = fetch(rid, meter)
                    fetched += 1
                    meter.records += 1
                    if predicate(row):
                        delivered += 1
                        if not sink(rid, row):
                            self.stopped_by_consumer = True
                            return steps, True
                    else:
                        rejected += 1
            return steps, False
        finally:
            self.filtered_out += filtered_out
            self.fetched += fetched
            self.delivered += delivered
            self.rejected += rejected
            if self.trace is not None:
                counters = self.trace.counters
                counters.index_entries_scanned += steps
                counters.rids_filtered_out += filtered_out
                counters.records_fetched += fetched
                counters.records_delivered += delivered
                counters.fetches_rejected += rejected


def check_self_sufficient(index: IndexInfo, needed_columns: frozenset[str]) -> None:
    """Raise unless ``index`` can serve all needed columns by itself."""
    if not index.covers(needed_columns):
        missing = set(needed_columns) - set(index.columns)
        raise RetrievalError(
            f"index {index.name!r} is not self-sufficient: missing {sorted(missing)}"
        )
