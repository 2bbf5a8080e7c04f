"""The four competition tactics of Section 7, and the single scans.

* **Background-only** — total-time, fetch-needed indexes only: Jscan, then
  the final stage (or Tscan when Jscan recommends it).
* **Fast-first** — fast-first, fetch-needed indexes only: Jscan in the
  background while a foreground process "borrows" RIDs from Jscan's first
  index scan, fetches and delivers immediately; a direct
  foreground/background competition decides when the foreground stops.
* **Sorted** — fast-first with an order-needed index: foreground Fscan in
  the requested order, background Jscan over the remaining indexes builds a
  filter that, once complete, suppresses useless foreground fetches.
* **Index-only** — a self-sufficient index exists: foreground Sscan races
  background Jscan; buffer overflow kills Jscan (Sscan is safer), a small
  complete RID list kills Sscan.

Each tactic is a *step generator* taking a :class:`TacticContext` and
yielding control once per *batch* of process steps
(``config.batch_size``, default 64) until it returns a
:class:`TacticOutcome` — the yield points are where the multi-query
scheduler (:mod:`repro.server`) interleaves concurrent retrievals and where
cancellation lands. Batching changes only the yield frequency: while two
processes compete, the competition still interleaves foreground/background
one step at a time and evaluates every switch criterion after every step;
a scan left without a partner runs the rest of each quantum in one
``run_batch`` call (the same steps, the same yields), so switch points and
cost accounting are identical at any batch size
(``batch_size=1`` restores one yield per step exactly). The decision and
the strategy table that runs these live in :mod:`repro.engine.retrieval`.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping

from repro.competition.process import Process, advance
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import TableSchema
from repro.engine.final_stage import FinalStageProcess
from repro.engine.initial import InitialArrangement
from repro.engine.jscan import JscanProcess
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.engine.scans import (
    FscanProcess,
    Predicate,
    Sink,
    SscanProcess,
    TscanProcess,
)
from repro.engine.union_scan import UnionScanProcess
from repro.expr.ast import Expr
from repro.expr.eval import compile_predicate
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.heap import HeapFile
from repro.storage.rid import RID


@dataclass
class TacticContext:
    """Everything a tactic needs to run one retrieval."""

    heap: HeapFile
    schema: TableSchema
    restriction: Expr
    host_vars: Mapping[str, Any]
    buffer_pool: BufferPool
    arrangement: InitialArrangement
    sink: Sink
    trace: RetrievalTrace
    config: EngineConfig = DEFAULT_CONFIG
    #: the restriction compiled once per retrieval (or shared across
    #: executions through a plan's predicate cache); every scan a tactic
    #: spawns reuses this callable instead of compiling its own
    predicate: Predicate | None = None
    #: every process a tactic created, active or not — the cancellation path
    #: abandons whatever is still running so scans release their buffers and
    #: temp structures mid-flight
    spawned: list[Process] = field(default_factory=list)

    def spawn(self, process: Process) -> Process:
        """Register a process for cancellation tracking and return it."""
        self.spawned.append(process)
        return process


@dataclass
class TacticOutcome:
    """What a tactic did: the processes it ran (for cost accounting) and a
    human-readable account of the strategy that delivered the result."""

    processes: list[Process] = field(default_factory=list)
    description: str = ""
    stopped_by_consumer: bool = False

    @property
    def total_cost(self) -> float:
        """Cost of every process the tactic ran (sunk costs included)."""
        return CostMeter.merged(process.meter for process in self.processes).total

    @property
    def total_io(self) -> int:
        """Physical I/O summed over every process."""
        return sum(process.meter.io_total for process in self.processes)


class ForegroundBuffer:
    """Bounded buffer of RIDs delivered by a foreground process.

    Used by the final stage to filter out already-delivered records. The
    bound matters: overflowing it forces the foreground to terminate
    (fast-first) or the background to be abandoned (index-only).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._rids: set[RID] = set()

    def __len__(self) -> int:
        return len(self._rids)

    def add(self, rid: RID) -> bool:
        """Record a delivered RID; returns False on overflow."""
        if len(self._rids) >= self.capacity:
            return False
        self._rids.add(rid)
        return True

    def __contains__(self, rid: RID) -> bool:
        return rid in self._rids


class BorrowingFetchProcess(Process):
    """The fast-first foreground: fetches RIDs borrowed from Jscan.

    "Fgr may borrow RIDs from Bgr in order to satisfy a fast-first request."
    One step == one borrowed RID: fetch, evaluate the full restriction,
    deliver, and remember the RID in the foreground buffer.
    """

    def __init__(
        self,
        queue: deque[RID],
        heap: HeapFile,
        schema: TableSchema,
        restriction: Expr,
        host_vars: Mapping[str, Any],
        sink: Sink,
        fgr_buffer: ForegroundBuffer,
        trace: RetrievalTrace,
        config: EngineConfig = DEFAULT_CONFIG,
        name: str = "foreground-borrow",
        predicate: Predicate | None = None,
    ) -> None:
        super().__init__(name)
        self.queue = queue
        self.heap = heap
        self.schema = schema
        self.restriction = restriction
        self.host_vars = dict(host_vars)
        self.predicate = predicate if predicate is not None else compile_predicate(
            restriction, schema.position, self.host_vars
        )
        self.sink = sink
        self.fgr_buffer = fgr_buffer
        self.trace = trace
        self.config = config
        self.stopped_by_consumer = False
        self.buffer_overflow = False
        self.delivered = 0
        self.rejected = 0
        self.span = trace.tracer.open("scan", strategy="foreground-borrow")

    @property
    def has_work(self) -> bool:
        """True when a borrowed RID is waiting."""
        return bool(self.queue)

    def _do_step(self) -> bool:
        if not self.queue:
            return False  # idle step; the tactic loop avoids calling these
        rid = self.queue.popleft()
        row = self.heap.fetch(rid, self.meter)
        self.meter.charge_records(1)
        self.trace.counters.records_fetched += 1
        if self.predicate(row):
            if not self.fgr_buffer.add(rid):
                self.buffer_overflow = True
                return True  # overflow terminates the foreground run
            self.delivered += 1
            self.trace.counters.records_delivered += 1
            if not self.sink(rid, row):
                self.stopped_by_consumer = True
                return True
        else:
            self.rejected += 1
            self.trace.counters.fetches_rejected += 1
        return False


#: a tactic written as a step generator: yields after every process step,
#: returns the outcome when the retrieval is resolved
StepOutcome = Generator[None, None, TacticOutcome]


def _traced(name: str):
    """Wrap a tactic step generator in a ``tactic`` timeline span.

    The span opens when the tactic generator first runs and closes in a
    ``finally`` — so cancellation (GeneratorExit) still closes it, keeping
    the tracer's span stack strictly nested. An abandoned tactic is marked
    ``abandoned``; a completed one records its outcome description.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(ctx: TacticContext, *args: Any, **kwargs: Any) -> StepOutcome:
            span = ctx.trace.tracer.begin("tactic", tactic=name)
            outcome: TacticOutcome | None = None
            try:
                outcome = yield from fn(ctx, *args, **kwargs)
                return outcome
            finally:
                if outcome is not None:
                    ctx.trace.tracer.end(span, outcome=outcome.description)
                else:
                    ctx.trace.tracer.end(span, abandoned=True)

        return wrapper

    return decorate


def _finish_rid_list(
    ctx: TacticContext,
    scan: JscanProcess | UnionScanProcess,
    outcome: TacticOutcome,
    reason: str,
    empty: str,
    skip: Callable[[RID], bool] | None = None,
) -> Generator[None, None, None]:
    """Run what a finished RID-list scan leads to: the Tscan it recommends
    (switching for ``reason``), nothing for an empty list (described as
    ``empty``), or the final stage over its sorted RIDs."""
    if scan.tscan_recommended:
        ctx.trace.emit(EventKind.STRATEGY_SWITCH, to="tscan", reason=reason)
        ctx.trace.counters.strategy_switches += 1
        tscan = ctx.spawn(TscanProcess(
            ctx.heap, ctx.schema, ctx.restriction, ctx.host_vars, ctx.sink,
            ctx.trace, ctx.config, skip_rids=skip, predicate=ctx.predicate,
        ))
        ctx.trace.emit(EventKind.SCAN_START, strategy="tscan")
        yield from advance(tscan, ctx.config.batch_size)
        outcome.processes.append(tscan)
        outcome.stopped_by_consumer |= tscan.stopped_by_consumer
        outcome.description += " -> tscan"
        return
    rids = scan.sorted_result()
    if not rids:
        outcome.description += empty
        return
    ctx.trace.emit(EventKind.FINAL_STAGE_START, rids=len(rids))
    final = ctx.spawn(FinalStageProcess(
        rids, ctx.heap, ctx.schema, ctx.restriction, ctx.host_vars, ctx.sink,
        ctx.trace, ctx.config, skip_rids=skip, predicate=ctx.predicate,
    ))
    yield from advance(final, ctx.config.batch_size)
    outcome.processes.append(final)
    outcome.stopped_by_consumer |= final.stopped_by_consumer
    outcome.description += f" -> final-stage({len(rids)} rids)"


def _finish_background(
    ctx: TacticContext,
    jscan: JscanProcess,
    outcome: TacticOutcome,
    skip: Callable[[RID], bool] | None,
) -> Generator[None, None, None]:
    """Run the final stage appropriate to how Jscan ended."""
    yield from _finish_rid_list(
        ctx, jscan, outcome, "jscan-recommended", " -> empty-intersection shortcut", skip
    )


# ---------------------------------------------------------------------------
# The single-scan strategies: Tscan, and Sscan of one self-sufficient index
# ---------------------------------------------------------------------------


def tscan_steps(ctx: TacticContext) -> StepOutcome:
    """A sequential scan of the whole table (no useful index, or forced)."""
    span = ctx.trace.tracer.begin("tactic", tactic="tscan")
    try:
        ctx.trace.emit(EventKind.TACTIC_SELECTED, tactic="tscan")
        ctx.trace.emit(EventKind.SCAN_START, strategy="tscan")
        tscan = ctx.spawn(TscanProcess(
            ctx.heap, ctx.schema, ctx.restriction, ctx.host_vars, ctx.sink,
            ctx.trace, ctx.config, predicate=ctx.predicate,
        ))
        yield from advance(tscan, ctx.config.batch_size)
    finally:
        ctx.trace.tracer.end(span)
    return TacticOutcome(
        processes=[tscan],
        description="tscan",
        stopped_by_consumer=tscan.stopped_by_consumer,
    )


def sscan_steps(ctx: TacticContext, candidate, ordered: bool = False) -> StepOutcome:
    """An Sscan of one self-sufficient index, no record fetched; ``ordered``
    when it is the order index, delivering the requested order."""
    label = "sorted-sscan" if ordered else "sscan"
    span = ctx.trace.tracer.begin("tactic", tactic=label)
    try:
        ctx.trace.emit(
            EventKind.TACTIC_SELECTED, tactic=label, index=candidate.index.name
        )
        ctx.trace.emit(
            EventKind.SCAN_START, strategy="sscan", index=candidate.index.name
        )
        sscan = ctx.spawn(SscanProcess(
            candidate.index, candidate.key_range, ctx.schema, ctx.restriction,
            ctx.host_vars, ctx.sink, ctx.trace, ctx.config,
            predicate=ctx.predicate,
        ))
        yield from advance(sscan, ctx.config.batch_size)
        if sscan.finished and not sscan.stopped_by_consumer:
            # whole range walked: true cardinality for the feedback loop
            candidate.observed = sscan.cursor.consumed
    finally:
        ctx.trace.tracer.end(span)
    return TacticOutcome(
        processes=[sscan],
        description=f"{label}({candidate.index.name})",
        stopped_by_consumer=sscan.stopped_by_consumer,
    )


# ---------------------------------------------------------------------------
# Union (OR) tactic — the Section 8 extension
# ---------------------------------------------------------------------------


@_traced("union-or")
def union_or_steps(ctx: TacticContext, covered) -> StepOutcome:
    """Union joint scan over covered disjuncts, then the final stage.

    ``covered`` is the list of
    :class:`repro.expr.disjunction.DisjunctRange` proving every top-level
    OR term is covered by some index range.
    """
    ctx.trace.emit(EventKind.TACTIC_SELECTED, tactic="union-or", disjuncts=len(covered))
    outcome = TacticOutcome(description=f"union-or: {len(covered)} disjunct scans")
    union = ctx.spawn(
        UnionScanProcess(covered, ctx.heap, ctx.buffer_pool, ctx.trace, ctx.config)
    )
    yield from advance(union, ctx.config.batch_size)
    outcome.processes.append(union)
    yield from _finish_rid_list(ctx, union, outcome, "union-too-big", " -> empty union")
    return outcome


# ---------------------------------------------------------------------------
# Background-only tactic
# ---------------------------------------------------------------------------


@_traced("background-only")
def background_only_steps(ctx: TacticContext) -> StepOutcome:
    """Jscan to completion, then the final stage (Section 7)."""
    ctx.trace.emit(EventKind.TACTIC_SELECTED, tactic="background-only")
    outcome = TacticOutcome(description="background-only: jscan")
    jscan = ctx.spawn(JscanProcess(
        ctx.arrangement.jscan_candidates, ctx.heap, ctx.buffer_pool, ctx.trace, ctx.config
    ))
    yield from advance(jscan, ctx.config.batch_size)
    outcome.processes.append(jscan)
    yield from _finish_background(ctx, jscan, outcome, skip=None)
    return outcome


# ---------------------------------------------------------------------------
# Fast-first tactic
# ---------------------------------------------------------------------------


@_traced("fast-first")
def fast_first_steps(ctx: TacticContext) -> StepOutcome:
    """Jscan in background; foreground borrows, fetches, delivers (Section 7)."""
    ctx.trace.emit(EventKind.TACTIC_SELECTED, tactic="fast-first")
    outcome = TacticOutcome(description="fast-first: fgr-borrow || jscan")
    borrow_queue: deque[RID] = deque()

    def tap(rid: RID, position: int) -> None:
        if position == 0:
            borrow_queue.append(rid)

    jscan = ctx.spawn(JscanProcess(
        ctx.arrangement.jscan_candidates, ctx.heap, ctx.buffer_pool, ctx.trace,
        ctx.config, on_keep=tap,
    ))
    fgr_buffer = ForegroundBuffer(ctx.config.foreground_buffer_size)
    fgr = ctx.spawn(BorrowingFetchProcess(
        borrow_queue, ctx.heap, ctx.schema, ctx.restriction, ctx.host_vars,
        ctx.sink, fgr_buffer, ctx.trace, ctx.config, predicate=ctx.predicate,
    ))
    outcome.processes = [jscan, fgr]
    # competition checks run after every step; only the yield is batched
    quantum = max(1, ctx.config.batch_size)
    pending = 0

    while True:
        # consumer satisfied: the fast-first goal is met, stop everything
        if fgr.stopped_by_consumer:
            jscan.abandon()
            if fgr.active:
                fgr.abandon()
            outcome.stopped_by_consumer = True
            outcome.description += " -> consumer-stop (fast success)"
            ctx.trace.emit(EventKind.CONSUMER_STOPPED, by="foreground")
            return outcome
        if fgr.finished and fgr.buffer_overflow:
            ctx.trace.emit(EventKind.FOREGROUND_BUFFER_OVERFLOW)
            ctx.trace.emit(EventKind.FOREGROUND_TERMINATED, reason="buffer-overflow")
            break
        # direct fgr/bgr competition: foreground cost must stay a fraction
        # of the guaranteed best or fast-first "becomes less realistic"
        if (
            fgr.active
            and fgr.meter.total
            >= ctx.config.scan_cost_limit_fraction * jscan.guaranteed_best_cost()
        ):
            fgr.abandon()
            ctx.trace.emit(EventKind.FOREGROUND_TERMINATED, reason="competition")
            ctx.trace.counters.strategy_switches += 1
        if not jscan.active:
            # the background resolved the retrieval; remaining borrowed RIDs
            # are cheaper to deliver through Fin/Tscan than by random fetch
            if fgr.active:
                ctx.trace.emit(EventKind.FOREGROUND_TERMINATED, reason="background-complete")
            break
        # equal-speed interleave: whichever process has spent less goes next
        fgr_ready = fgr.active and fgr.has_work
        if fgr_ready and (not jscan.active or fgr.meter.total <= jscan.meter.total):
            fgr.step()
        elif jscan.active:
            jscan.step()
        elif fgr_ready:
            fgr.step()
        else:
            break
        pending += 1
        if pending >= quantum:
            pending = 0
            yield

    if fgr.active:
        fgr.abandon()
    if not jscan.active and not jscan.finished:
        # jscan was abandoned — nothing more to do
        return outcome
    if jscan.active:
        yield from advance(jscan, ctx.config.batch_size)
    skip = lambda rid: rid in fgr_buffer  # noqa: E731 - tiny closure
    yield from _finish_background(ctx, jscan, outcome, skip=skip)
    return outcome


# ---------------------------------------------------------------------------
# Sorted tactic
# ---------------------------------------------------------------------------


@_traced("sorted")
def sorted_tactic_steps(ctx: TacticContext) -> StepOutcome:
    """Order-delivering Fscan cooperating with a filter-building Jscan."""
    ctx.trace.emit(EventKind.TACTIC_SELECTED, tactic="sorted")
    order = ctx.arrangement.order_index
    if order is None:
        raise ValueError("sorted tactic requires an order-needed index")
    outcome = TacticOutcome(description=f"sorted: fscan({order.index.name}) || jscan-filter")
    fscan = ctx.spawn(FscanProcess(
        order.index, order.key_range, ctx.heap, ctx.schema, ctx.restriction,
        ctx.host_vars, ctx.sink, ctx.trace, ctx.config, predicate=ctx.predicate,
    ))
    ctx.trace.emit(EventKind.SCAN_START, strategy="fscan", index=order.index.name)
    others = [
        candidate
        for candidate in ctx.arrangement.jscan_candidates
        if candidate.index.name != order.index.name
    ]
    jscan: JscanProcess | None = None
    if others:
        jscan = ctx.spawn(
            JscanProcess(others, ctx.heap, ctx.buffer_pool, ctx.trace, ctx.config)
        )
        outcome.processes = [fscan, jscan]
    else:
        outcome.processes = [fscan]

    filter_installed = False
    quantum = max(1, ctx.config.batch_size)
    pending = 0
    while fscan.active:
        if jscan is not None and jscan.finished and not filter_installed:
            if jscan.empty:
                # no record can satisfy the other indexes' conjuncts
                fscan.abandon()
                outcome.description += " -> empty-intersection shortcut"
                ctx.trace.emit(EventKind.STRATEGY_SWITCH, to="empty", reason="jscan-empty")
                return outcome
            if jscan.result_list is not None:
                fscan.filter = jscan.result_list
                filter_installed = True
                ctx.trace.emit(
                    EventKind.STRATEGY_SWITCH,
                    to="filtered-fscan",
                    filter_rids=len(jscan.result_list),
                )
                ctx.trace.counters.strategy_switches += 1
            # tscan_recommended: the filter would not help; fscan continues
        if jscan is None or not jscan.active:
            # no partner left to interleave with: the rest of the quantum
            # in one call (the same steps, the same yields)
            pending += fscan.run_batch(quantum - pending)[0]
        elif jscan.meter.total < fscan.meter.total:
            jscan.step()
            pending += 1
        else:
            fscan.step()
            pending += 1
        if pending >= quantum:
            pending = 0
            yield
        if fscan.stopped_by_consumer:
            outcome.stopped_by_consumer = True
            ctx.trace.emit(EventKind.CONSUMER_STOPPED, by="foreground")
            break
    if jscan is not None and jscan.active:
        jscan.abandon()  # "a quick Fscan completion eliminates a potentially
        # big Jscan overhead"
    outcome.description += " -> fscan-delivered-all" if not outcome.stopped_by_consumer else ""
    return outcome


# ---------------------------------------------------------------------------
# Index-only tactic
# ---------------------------------------------------------------------------


@_traced("index-only")
def index_only_steps(ctx: TacticContext) -> StepOutcome:
    """Sscan (foreground) racing Jscan (background)."""
    ctx.trace.emit(EventKind.TACTIC_SELECTED, tactic="index-only")
    best = ctx.arrangement.best_sscan
    if best is None:
        raise ValueError("index-only tactic requires a self-sufficient index")
    outcome = TacticOutcome(description=f"index-only: sscan({best.index.name}) || jscan")
    fgr_buffer = ForegroundBuffer(ctx.config.foreground_buffer_size)
    delivered_rids: list[RID] = []

    def recording_sink(rid: RID, row: tuple) -> bool:
        # on buffer overflow the row is still delivered — the buffer only
        # exists to dedupe against a final stage, and overflow kills Jscan
        # (so no final stage will run)
        fgr_buffer.add(rid)
        delivered_rids.append(rid)
        return ctx.sink(rid, row)

    sscan = ctx.spawn(SscanProcess(
        best.index, best.key_range, ctx.schema, ctx.restriction, ctx.host_vars,
        recording_sink, ctx.trace, ctx.config, predicate=ctx.predicate,
    ))
    ctx.trace.emit(EventKind.SCAN_START, strategy="sscan", index=best.index.name)
    jscan: JscanProcess | None = None
    if ctx.arrangement.jscan_candidates:
        jscan = ctx.spawn(JscanProcess(
            ctx.arrangement.jscan_candidates, ctx.heap, ctx.buffer_pool,
            ctx.trace, ctx.config,
        ))
        outcome.processes = [sscan, jscan]
    else:
        outcome.processes = [sscan]

    quantum = max(1, ctx.config.batch_size)
    pending = 0
    while sscan.active:
        if jscan is not None and len(fgr_buffer) >= fgr_buffer.capacity:
            # overflow: "Jscan terminates and Sscan continues because it is
            # a safer strategy"
            if jscan.active:
                jscan.abandon()
                ctx.trace.emit(EventKind.FOREGROUND_BUFFER_OVERFLOW)
                ctx.trace.emit(EventKind.SCAN_ABANDONED, index="jscan", reason="fgr-overflow")
            jscan = None
        if jscan is not None and jscan.finished:
            if jscan.empty:
                sscan.abandon()
                outcome.description += " -> empty-intersection shortcut"
                return outcome
            if jscan.result_list is not None:
                fin_cost = jscan.rid_fetch_cost(len(jscan.result_list), jscan.result_list)
                remaining = _estimated_remaining_cost(sscan, best)
                if fin_cost < remaining:
                    # "Sscan is abandoned in favor of a 'sure' final stage"
                    sscan.abandon()
                    ctx.trace.emit(
                        EventKind.STRATEGY_SWITCH, to="final-stage",
                        reason="jscan-won", fin_cost=round(fin_cost, 1),
                        sscan_remaining=round(remaining, 1),
                    )
                    ctx.trace.counters.strategy_switches += 1
                    skip = lambda rid: rid in fgr_buffer  # noqa: E731
                    yield from _finish_background(ctx, jscan, outcome, skip=skip)
                    return outcome
            jscan = None  # tscan recommended or not competitive: sscan continues
        if jscan is None:
            # no partner left to interleave with: the rest of the quantum
            # in one call (the same steps, the same yields)
            pending += sscan.run_batch(quantum - pending)[0]
        elif jscan.meter.total < sscan.meter.total:
            jscan.step()
            pending += 1
        else:
            sscan.step()
            pending += 1
        if pending >= quantum:
            pending = 0
            yield
        if sscan.stopped_by_consumer:
            outcome.stopped_by_consumer = True
            ctx.trace.emit(EventKind.CONSUMER_STOPPED, by="foreground")
            break
    if jscan is not None and jscan.active:
        jscan.abandon()
    if sscan.finished and not sscan.stopped_by_consumer:
        # the scan covered the whole range: its consumed-entry count is the
        # true cardinality, fed back to sharpen the next execution's estimate
        best.observed = sscan.cursor.consumed
    outcome.description += " -> sscan-delivered-all" if not outcome.stopped_by_consumer else ""
    return outcome


def _estimated_remaining_cost(sscan: SscanProcess, candidate) -> float:
    """Extrapolate the remaining Sscan cost from its progress so far.

    Uses the candidate's *effective* RID count, so selectivity feedback
    from earlier executions sharpens the stage-switch projection too.
    """
    consumed = sscan.cursor.consumed
    if not consumed:
        return float("inf")
    per_entry = sscan.meter.total / consumed
    return max(0.0, (candidate.estimated_rids - consumed)) * per_entry
