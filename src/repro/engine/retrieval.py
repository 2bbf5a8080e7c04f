"""The single-table retrieval executor (Figure 4).

Entry point of the dynamic optimizer: classify and estimate the available
indexes (initial stage), resolve the clear cases statically, and dispatch
the uncertain ones to a competition tactic. Foreground processes deliver
records immediately; background processes work toward the shortest RID list
or a Tscan recommendation; the final stage runs only on background
completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Mapping, Sequence

from repro.btree.tree import ENTRY_CPU_COST
from repro.competition.process import advance, drain
from repro.competition.two_stage import SwitchCriterion, SwitchDecision
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import IndexInfo, TableSchema
from repro.engine.goals import OptimizationGoal
from repro.engine.initial import (
    InitialArrangement,
    IterationContext,
    JscanCandidate,
    run_initial_stage,
)
from repro.engine.metrics import EventKind, RetrievalCounters, RetrievalTrace
from repro.engine.scans import CollectingSink, Predicate, SscanProcess, TscanProcess
from repro.engine.tactics import (
    StepOutcome,
    TacticContext,
    TacticOutcome,
    background_only_steps,
    fast_first_steps,
    index_only_steps,
    sorted_tactic_steps,
    union_or_steps,
)
from repro.expr.disjunction import cover_disjuncts
from repro.errors import RetrievalError
from repro.expr.ast import ALWAYS_TRUE, Expr
from repro.expr.eval import compile_predicate, referenced_columns
from repro.obs.audit import AuditLog, DecisionKind
from repro.obs.trace import Tracer
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.heap import RECORD_CPU_COST, HeapFile
from repro.storage.rid import RID, yao_pages_bound


@dataclass
class RetrievalRequest:
    """One retrieval to execute against a single table."""

    restriction: Expr = ALWAYS_TRUE
    host_vars: Mapping[str, Any] = field(default_factory=dict)
    #: columns the caller will read (None = all table columns)
    output_columns: tuple[str, ...] | None = None
    #: requested delivery order (column names, ascending)
    order_by: tuple[str, ...] = ()
    #: stop after this many delivered records (None = all)
    limit: int | None = None
    goal: OptimizationGoal = OptimizationGoal.DEFAULT
    #: per-plan compiled-predicate cache (``repro.cache.PredicateCache``);
    #: None compiles the restriction once for this retrieval only
    predicate_cache: Any | None = None
    #: adaptive selectivity feedback store (``repro.cache.FeedbackStore``);
    #: None leaves raw descent estimates untouched
    feedback: Any | None = None
    #: estimation-quality subsystem (``repro.estimate.Estimator``); when
    #: attached, every completed scan's effective estimated-vs-actual pair
    #: is ring-buffered at retirement, its per-index histogram backs up
    #: cold feedback signatures, and its confidence verdicts gate whether
    #: a competition is staged at all
    estimator: Any | None = None
    #: bypass the dispatcher and run one named strategy — used by
    #: counterfactual replay (:mod:`repro.obs.regret`) to execute a
    #: rejected alternative. Vocabulary: ``tscan``, ``sscan``,
    #: ``sorted-sscan``, ``sorted``, ``index-only``, ``fast-first``,
    #: ``background-only``, ``union-or``, ``short-range``. None (the
    #: default) keeps the normal dynamic dispatch.
    force_strategy: str | None = None


@dataclass
class RetrievalResult:
    """Rows plus the dynamic execution metrics of how they were obtained."""

    rows: list[tuple]
    rids: list[RID]
    trace: RetrievalTrace
    description: str
    goal: OptimizationGoal
    stopped_early: bool = False
    estimation_cost: float = 0.0
    execution_cost: float = 0.0
    execution_io: int = 0
    #: how a partitioned retrieval was scattered and merged
    #: (:class:`repro.partition.scatter.ScatterInfo`; None for ordinary
    #: single-table retrievals)
    scatter: Any = None

    @property
    def total_cost(self) -> float:
        """Estimation plus execution cost, in page-I/O units."""
        return self.estimation_cost + self.execution_cost

    def summary(self) -> str:
        """One-paragraph account of what the optimizer did — the
        user-facing face of the paper's "dynamic execution metrics"."""
        counters = self.trace.counters
        lines = [
            f"strategy : {self.description}",
            f"goal     : {self.goal.value}"
            + ("  (stopped early by consumer)" if self.stopped_early else ""),
            f"rows     : {len(self.rows)} delivered, "
            f"{counters.records_fetched} records fetched, "
            f"{counters.fetches_rejected} fetches rejected",
            f"index    : {counters.index_entries_scanned} entries scanned, "
            f"{counters.rids_filtered_out} RIDs filtered out",
            f"scans    : {counters.scans_started} started, "
            f"{counters.scans_abandoned} abandoned, "
            f"{counters.strategy_switches} strategy switches",
            f"cost     : {self.total_cost:.1f} "
            f"({self.estimation_cost:.1f} estimation + "
            f"{self.execution_cost:.1f} execution; {self.execution_io} physical I/O)",
        ]
        return "\n".join(lines)


class SingleTableRetrieval:
    """The retrieval subsystem for one table."""

    def __init__(
        self,
        heap: HeapFile,
        schema: TableSchema,
        indexes: Sequence[IndexInfo],
        buffer_pool: BufferPool,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> None:
        self.heap = heap
        self.schema = schema
        self.indexes = list(indexes)
        self.buffer_pool = buffer_pool
        self.config = config

    # -- public API ---------------------------------------------------------

    def run(
        self,
        request: RetrievalRequest,
        context: IterationContext | None = None,
        tracer: "Tracer | None" = None,
    ) -> RetrievalResult:
        """Execute one retrieval, dynamically choosing/racing strategies."""
        return drain(self.run_steps(request, context, tracer))

    def run_steps(
        self,
        request: RetrievalRequest,
        context: IterationContext | None = None,
        tracer: "Tracer | None" = None,
    ) -> Generator[RetrievalResult, None, RetrievalResult]:
        """Execute one retrieval as a step generator.

        Yields the live (partially filled) :class:`RetrievalResult` once per
        scheduling quantum — up to ``config.batch_size`` engine steps — so a
        server-level scheduler can interleave many retrievals over the
        shared buffer pool without paying a generator suspension per step
        (``batch_size=1`` restores one yield per step). Closing the
        generator mid-flight cancels the retrieval: every still-active
        process is abandoned (releasing its buffers and temp structures) and
        the trace records ``SCAN_ABANDONED`` / ``CONSUMER_STOPPED`` events.

        When a :class:`~repro.obs.trace.Tracer` is supplied, the whole
        retrieval runs inside a ``retrieval`` span: initial-stage events,
        tactic spans, and scan spans all nest under it in the timeline.
        """
        trace = RetrievalTrace(tracer)
        span = trace.tracer.begin(
            "retrieval", table=self.heap.name, goal=request.goal.value
        )
        audit = trace.audit
        if audit.enabled:
            audit.begin_retrieval(self.heap.name, request)
        estimation_meter = CostMeter(name="initial-stage")
        goal = request.goal
        if goal is OptimizationGoal.DEFAULT:
            goal = OptimizationGoal.TOTAL_TIME

        needs_post_sort = bool(request.order_by)
        rows: list[tuple] = []
        rids: list[RID] = []
        limit = request.limit

        output = request.output_columns or self.schema.names
        needed = frozenset(referenced_columns(request.restriction)) | set(output) | set(
            request.order_by
        )
        unknown = [name for name in needed if name not in self.schema]
        if unknown:
            raise RetrievalError(f"unknown columns {sorted(unknown)}")

        arrangement = run_initial_stage(
            self.indexes,
            request.restriction,
            request.host_vars,
            needed,
            request.order_by,
            estimation_meter,
            trace,
            self.config,
            context,
            feedback=request.feedback,
            table_name=self.heap.name,
            estimator=request.estimator,
            allow_probe=request.force_strategy is None,
        )
        if arrangement.probe is not None:
            return self._run_probe(request, arrangement, trace, span, goal)
        short = arrangement.short_range
        if short is not None and (
            request.force_strategy == "short-range"
            or (request.force_strategy is None and self._race_is_settled(short, goal))
        ):
            return self._run_short_range(
                request, arrangement, trace, span, goal, estimation_meter, context
            )
        if arrangement.order_index is not None and request.order_by:
            needs_post_sort = False

        # a SORT node controls the retrieval when we must post-sort: the
        # paper's rule forces total-time in that case
        if needs_post_sort:
            goal = OptimizationGoal.TOTAL_TIME

        collect_limit = None if needs_post_sort else limit

        sink = CollectingSink(rows, rids, collect_limit)

        result = RetrievalResult(
            rows=rows, rids=rids, trace=trace, description="", goal=goal,
            estimation_cost=estimation_meter.total,
        )

        if arrangement.empty:
            result.description = "shortcut: provably empty result"
            trace.emit(EventKind.RETRIEVAL_COMPLETE, rows=0)
            self._record_context(context, arrangement)
            if audit.enabled:
                audit.end_retrieval(result)
            trace.tracer.end(span, rows=0, shortcut="empty")
            return result

        predicate = self._predicate(request)
        ctx = TacticContext(
            heap=self.heap,
            schema=self.schema,
            restriction=request.restriction,
            host_vars=request.host_vars,
            buffer_pool=self.buffer_pool,
            arrangement=arrangement,
            sink=sink,
            trace=trace,
            config=self.config,
            predicate=predicate,
        )
        if request.force_strategy is not None:
            inner = self._dispatch_forced(ctx, arrangement, request.force_strategy)
        else:
            inner = self._dispatch_steps(
                ctx, arrangement, goal, bool(request.order_by),
                estimator=request.estimator,
            )
        try:
            while True:
                try:
                    next(inner)
                except StopIteration as stop:
                    outcome = stop.value
                    break
                yield result
        except GeneratorExit:
            # cancellation: the scheduler closed us mid-retrieval; closing
            # ``inner`` ends the tactic span first, keeping strict nesting
            inner.close()
            self._abandon_spawned(ctx, trace)
            # the sunk cost of the abandoned processes still belongs to the
            # retrieval: cancelled (and budget-truncated replay) results
            # report the work they actually did
            result.execution_cost = sum(p.meter.total for p in ctx.spawned)
            result.execution_io = sum(p.meter.io_total for p in ctx.spawned)
            trace.tracer.end(span, cancelled=True)
            raise

        result.description = outcome.description
        result.stopped_early = outcome.stopped_by_consumer
        result.execution_cost = outcome.total_cost
        result.execution_io = outcome.total_io

        if needs_post_sort:
            self._post_sort(rows, rids, request.order_by)
            if limit is not None and len(rows) > limit:
                del rows[limit:]
                del rids[limit:]
            result.description += " -> sort"
        return self._complete(trace, span, result, request, arrangement, context)

    def _complete(
        self,
        trace: RetrievalTrace,
        span: Any,
        result: RetrievalResult,
        request: RetrievalRequest,
        arrangement: InitialArrangement | None,
        context: IterationContext | None = None,
    ) -> RetrievalResult:
        """End a retrieval that ran: ``RETRIEVAL_COMPLETE``, what its scans
        observed recorded (``arrangement``; None for the probe, which
        estimated nothing), the audit closed and the span ended."""
        trace.emit(EventKind.RETRIEVAL_COMPLETE, rows=len(result.rows))
        audit = trace.audit
        if arrangement is not None:
            self._record_context(context, arrangement)
            self._record_feedback(request, arrangement)
            self._record_estimator(request, arrangement)
            if audit.enabled:
                self._record_audit_estimates(audit, arrangement)
        if audit.enabled:
            audit.end_retrieval(result)
        trace.tracer.end(
            span,
            rows=len(result.rows),
            cost=round(result.total_cost, 3),
            io=result.execution_io,
            strategy=result.description,
        )
        return result

    def _predicate(self, request: RetrievalRequest) -> Any:
        """The restriction compiled once for the whole retrieval — or the
        plan's cached compilation when executing a cached plan."""
        if request.predicate_cache is not None:
            return request.predicate_cache.get(
                request.restriction, self.schema.position, request.host_vars
            )
        return compile_predicate(
            request.restriction, self.schema.position, request.host_vars
        )

    def _run_probe(
        self,
        request: RetrievalRequest,
        arrangement: InitialArrangement,
        trace: RetrievalTrace,
        span: Any,
        goal: OptimizationGoal,
    ) -> RetrievalResult:
        """The unique-key probe (Section 5's clearest case).

        One descent of the unique index and one fetch per entry found, the
        full restriction applied to each row: no estimate, no Jscan, no RID
        list, no final stage, and no yield — the retrieval completes in the
        quantum that starts it. The pages read, and their LRU order, are
        those of the estimate-then-Jscan path (see :meth:`BTree.probe`).
        """
        index = arrangement.probe.index
        tactic = trace.tracer.begin("tactic", tactic="unique-probe")
        meter = CostMeter(name="unique-probe")
        entries = index.btree.probe(arrangement.probe.key_range, meter)
        rows: list[tuple] = []
        rids: list[RID] = []
        result = RetrievalResult(
            rows=rows, rids=rids, trace=trace, description="", goal=goal
        )
        if not entries:
            trace.emit(EventKind.SHORTCUT_EMPTY, index=index.name)
            result.description = "shortcut: provably empty result"
        else:
            trace.emit(
                EventKind.SHORTCUT_SMALL_RANGE,
                index=index.name,
                rids=len(entries),
                skipped_estimates=arrangement.skipped_estimates,
            )
            if trace.audit.enabled:
                trace.audit.decision(
                    DecisionKind.TACTIC_SELECTION,
                    "unique-probe",
                    (),
                    goal=goal.value,
                    index=index.name,
                )
            post_sort = bool(request.order_by) and len(entries) > 1
            sink = CollectingSink(rows, rids, None if post_sort else request.limit)
            result.stopped_early = self._deliver(
                [rid for _, rid in entries], self._predicate(request), sink, meter,
                trace.counters,
            )
            if post_sort:
                self._post_sort(rows, rids, request.order_by)
                if request.limit is not None:
                    del rows[request.limit:]
                    del rids[request.limit:]
            result.description = f"unique-probe({index.name})"
        result.execution_cost = meter.total
        result.execution_io = meter.io_total
        trace.tracer.end(tactic, rows=len(rows))
        return self._complete(trace, span, result, request, None)

    def _race_is_settled(
        self, candidate: JscanCandidate, goal: OptimizationGoal
    ) -> bool:
        """Whether the race over a short range provably never gives up on
        the index for the Tscan, so that fetching the range directly
        changes only the machinery.

        The descent bounds what the race can meet: at most ``entries``
        entries, and the leaves that hold them plus the one a cursor looks
        past the range's end in. Each bound only grows what the one
        :class:`SwitchCriterion` compares, so a single evaluation on them
        covers every evaluation the race makes against the Tscan: the
        Jscan's projection, at most Yao's pages for the larger of the
        estimate and ``entries``, and the own cost of each process — the
        Jscan's walk and, under fast-first, a foreground fetching every
        entry. (A fast-first race also checks its foreground once more,
        against fetching the completed RID list; that outcome depends on
        the pages the foreground met, and the direct path, fetching in
        index order to the limit, has no foreground to stop.) The RID list
        must also stay in memory (a spill writes pages), and the pool must
        hold the descent's path (else the Jscan's own descent reads it
        again).
        """
        config = self.config
        heap = self.heap
        btree = candidate.index.btree
        estimate = candidate.estimate
        leaves = estimate.bounded_leaves()
        entries = estimate.k if estimate.exact else leaves * btree.order
        if (
            entries > config.allocated_rid_buffer_size
            or btree.buffer_pool.capacity < btree.height
        ):
            return False
        criterion = SwitchCriterion(
            threshold=config.switch_threshold,
            scan_cost_limit_fraction=config.scan_cost_limit_fraction,
        )
        projection = yao_pages_bound(
            heap.page_count,
            heap.rows_per_page,
            int(max(candidate.estimated_rids, entries)),
        )
        cost = leaves + 1 + entries * ENTRY_CPU_COST
        if goal is OptimizationGoal.FAST_FIRST:
            cost = max(cost, entries * (1.0 + RECORD_CPU_COST))
        decision = criterion.evaluate(projection, cost, float(heap.page_count))
        return decision is SwitchDecision.CONTINUE

    def _run_short_range(
        self,
        request: RetrievalRequest,
        arrangement: InitialArrangement,
        trace: RetrievalTrace,
        span: Any,
        goal: OptimizationGoal,
        estimation_meter: CostMeter,
        context: IterationContext | None,
    ) -> RetrievalResult:
        """A very short range, fetched directly (Section 5).

        The walk goes on from where the Figure 5 descent stopped and reads
        the leaves the Jscan's cursor would (:meth:`BTree.walk_from`); every
        entry's record then goes through :meth:`_deliver`. Under total-time
        the fetch is the final stage's: page order after the same
        read-ahead, so rows, page reads, pool recency and costs are those of
        background-only. Under fast-first it is in index order and stops at
        the limit. No Jscan, RID list, final stage or yield: the retrieval
        completes in the quantum that starts it, and records what a
        completed Jscan records.
        """
        candidate = arrangement.short_range
        index = candidate.index
        estimate = candidate.estimate
        fast_first = goal is OptimizationGoal.FAST_FIRST
        tactic = trace.tracer.begin("tactic", tactic="short-range")
        trace.emit(EventKind.TACTIC_SELECTED, tactic="short-range", index=index.name)
        audit = trace.audit
        if audit.enabled:
            audit.decision(
                DecisionKind.TACTIC_SELECTION,
                "short-range",
                ("fast-first" if fast_first else "background-only", "tscan"),
                goal=goal.value,
                index=index.name,
                tscan_pages=self.heap.page_count,
                best_jscan_rids=candidate.estimated_rids,
            )
        walk = CostMeter(name="short-range")
        entries = index.btree.walk_from(
            estimate.stop, estimate.first, candidate.key_range, walk
        )
        walk.charge_cpu_each(ENTRY_CPU_COST, len(entries))
        trace.counters.index_entries_scanned += len(entries)
        candidate.observed = len(entries)
        rids = [rid for _, rid in entries]
        fetch = CostMeter(name="short-range-fetch")
        if not fast_first:
            rids.sort()
            pool = self.heap.buffer_pool
            self.heap.prefetch(
                rids, fetch, window=min(pool.read_ahead_window, pool.capacity)
            )
        rows: list[tuple] = []
        delivered: list[RID] = []
        result = RetrievalResult(
            rows=rows, rids=delivered, trace=trace,
            description=f"short-range({index.name})", goal=goal,
            estimation_cost=estimation_meter.total,
        )
        result.stopped_early = self._deliver(
            rids, self._predicate(request),
            CollectingSink(rows, delivered, request.limit), fetch, trace.counters,
        )
        # two meters summed as the Jscan's and the final stage's are: the
        # float total is then bit for bit the raced retrieval's
        result.execution_cost = walk.total + fetch.total
        result.execution_io = walk.io_total + fetch.io_total
        trace.tracer.end(tactic, rows=len(rows))
        return self._complete(trace, span, result, request, arrangement, context)

    def _deliver(
        self,
        rids: Sequence[RID],
        predicate: Predicate,
        sink: CollectingSink,
        meter: CostMeter,
        counters: RetrievalCounters,
    ) -> bool:
        """Fetch each RID's record, apply the full restriction, and hand
        the survivors to ``sink`` — the final stage's per-RID work, for the
        two paths that have no final stage. Returns True when the sink
        stopped the retrieval."""
        heap = self.heap
        for rid in rids:
            row = heap.fetch(rid, meter)
            meter.charge_cpu(RECORD_CPU_COST)
            counters.records_fetched += 1
            if not predicate(row):
                counters.fetches_rejected += 1
                continue
            counters.records_delivered += 1
            if not sink(rid, row):
                return True
        return False

    # -- dispatch ---------------------------------------------------------------

    def _dispatch_steps(
        self,
        ctx: TacticContext,
        arrangement: InitialArrangement,
        goal: OptimizationGoal,
        order_requested: bool,
        estimator: Any | None = None,
    ) -> StepOutcome:
        audit = ctx.trace.audit

        def record(chosen: str, alternatives: tuple[str, ...], **inputs: Any) -> None:
            # the explicit tactic-selection decision: names the rejected
            # strategies in the replayable force_strategy vocabulary and
            # carries the estimates the dispatch was decided on
            if audit.enabled:
                best = arrangement.best_sscan
                audit.decision(
                    DecisionKind.TACTIC_SELECTION,
                    chosen,
                    alternatives,
                    goal=goal.value,
                    tscan_pages=self.heap.page_count,
                    jscan_candidates=len(arrangement.jscan_candidates),
                    best_jscan_rids=(
                        arrangement.jscan_candidates[0].estimated_rids
                        if arrangement.jscan_candidates
                        else None
                    ),
                    best_sscan_rids=(
                        best.estimated_rids if best is not None else None
                    ),
                    **inputs,
                )

        if order_requested and arrangement.order_index is not None:
            order_index = arrangement.order_index.index
            covering = next(
                (
                    candidate
                    for candidate in arrangement.sscan_candidates
                    if candidate.index is order_index
                ),
                None,
            )
            if covering is not None:
                # the order index is also self-sufficient: an ordered Sscan
                # delivers sorted results with zero record fetches — a clear
                # case, no competition needed
                record("sorted-sscan", ("sorted",), index=covering.index.name)
                return (yield from self._run_sscan_steps(ctx, covering, ordered=True))
            record("sorted", ("tscan",), order_index=order_index.name)
            return (yield from sorted_tactic_steps(ctx))
        has_jscan = bool(arrangement.jscan_candidates)
        has_sscan = arrangement.best_sscan is not None
        if has_sscan and has_jscan:
            winner = self._gate_competition(ctx, arrangement, estimator, audit)
            if winner == "sscan":
                best = arrangement.best_sscan
                assert best is not None
                return (yield from self._run_sscan_steps(ctx, best))
            if winner == "background-only":
                return (yield from background_only_steps(ctx))
            record("index-only", ("sscan", "background-only"))
            return (yield from index_only_steps(ctx))
        if has_sscan:
            # clear case: "the only optimization task to be resolved is to
            # pick the one whose scan is the cheapest"
            best = arrangement.best_sscan
            assert best is not None
            record("sscan", ("tscan",), index=best.index.name)
            return (yield from self._run_sscan_steps(ctx, best))
        if has_jscan:
            if goal is OptimizationGoal.FAST_FIRST:
                record("fast-first", ("tscan",))
                return (yield from fast_first_steps(ctx))
            record("background-only", ("tscan",))
            return (yield from background_only_steps(ctx))
        # OR extension (Section 8): a disjunctive restriction whose every
        # top-level disjunct is covered by some index range can be resolved
        # by a union joint scan
        covered = cover_disjuncts(ctx.restriction, self.indexes, ctx.host_vars)
        if covered:
            record("union-or", ("tscan",), disjuncts=len(covered))
            return (yield from union_or_steps(ctx, covered))
        # clear case: no useful index at all
        record("tscan", ())
        return (yield from self._run_tscan_steps(ctx))

    def _dispatch_forced(
        self, ctx: TacticContext, arrangement: InitialArrangement, strategy: str
    ) -> StepOutcome:
        """Run one named strategy, bypassing the dynamic dispatch.

        Counterfactual replay (:mod:`repro.obs.regret`) uses this to
        execute a rejected alternative against the (shadow) arrangement.
        Raises :class:`~repro.errors.RetrievalError` when the arrangement
        cannot support the strategy.
        """
        if strategy == "tscan":
            return (yield from self._run_tscan_steps(ctx))
        if strategy in ("sscan", "sorted-sscan"):
            if strategy == "sorted-sscan" and arrangement.order_index is not None:
                order_index = arrangement.order_index.index
                covering = next(
                    (
                        candidate
                        for candidate in arrangement.sscan_candidates
                        if candidate.index is order_index
                    ),
                    None,
                )
                if covering is not None:
                    return (
                        yield from self._run_sscan_steps(ctx, covering, ordered=True)
                    )
            best = arrangement.best_sscan
            if best is None:
                raise RetrievalError(
                    f"cannot force {strategy!r}: no self-sufficient index"
                )
            return (yield from self._run_sscan_steps(ctx, best))
        if strategy == "sorted":
            if arrangement.order_index is None:
                raise RetrievalError("cannot force 'sorted': no order index")
            return (yield from sorted_tactic_steps(ctx))
        if strategy == "index-only":
            if arrangement.best_sscan is None:
                raise RetrievalError(
                    "cannot force 'index-only': no self-sufficient index"
                )
            return (yield from index_only_steps(ctx))
        if strategy in ("fast-first", "background-only"):
            if not arrangement.jscan_candidates:
                raise RetrievalError(
                    f"cannot force {strategy!r}: no fetch-needed index"
                )
            if strategy == "fast-first":
                return (yield from fast_first_steps(ctx))
            return (yield from background_only_steps(ctx))
        if strategy == "union-or":
            covered = cover_disjuncts(ctx.restriction, self.indexes, ctx.host_vars)
            if not covered:
                raise RetrievalError(
                    "cannot force 'union-or': disjuncts not index-covered"
                )
            return (yield from union_or_steps(ctx, covered))
        if strategy == "short-range":
            # a short range that qualifies never gets here (run_steps)
            raise RetrievalError(
                "cannot force 'short-range': the range is not one quantum short"
            )
        raise RetrievalError(f"unknown forced strategy {strategy!r}")

    def _gate_competition(
        self,
        ctx: TacticContext,
        arrangement: InitialArrangement,
        estimator: Any | None,
        audit: AuditLog,
    ) -> str | None:
        """The variance gate: skip the index-only race when estimates are
        demonstrably trustworthy.

        Competition exists because initial estimates are untrusted. Once
        the estimator has seen this (table, index, signature) enough times
        with stable, near-1 q-errors on *both* competing candidates, the
        corrected estimates decide the race's outcome just as reliably as
        running it — so pick the winner statically, audit the skip with
        its confidence inputs, and save the loser's wasted steps. Returns
        the strategy to run directly (``"sscan"`` / ``"background-only"``)
        or None to compete as usual.
        """
        if estimator is None or not self.config.competition_gate:
            return None
        best = arrangement.best_sscan
        lead = arrangement.jscan_candidates[0]
        assert best is not None
        if best.estimated_rids is None or any(
            candidate.estimated_rids is None
            for candidate in arrangement.jscan_candidates
        ):
            # an unestimated candidate (estimation shortcut or disabled
            # dynamic estimation) has no projection to trust — compete
            estimator.competed += 1
            return None
        verdict = estimator.combined_verdict(
            [
                (self.heap.name, best.index.name, ctx.restriction),
                (self.heap.name, lead.index.name, ctx.restriction),
            ]
        )
        # even a non-trusting score informs the switch criteria downstream
        ctx.confidence = verdict.score
        if not verdict.trust:
            estimator.competed += 1
            return None
        config = self.config
        # trusted corrected projections of both arms: the sscan walks its
        # whole range entry by entry; the jscan walks every candidate's
        # range and then random-fetches the (at most) shortest RID list
        sscan_cost = best.estimated_rids * ENTRY_CPU_COST
        jscan_entries = sum(
            candidate.estimated_rids for candidate in arrangement.jscan_candidates
        )
        fetch_rids = min(
            candidate.estimated_rids for candidate in arrangement.jscan_candidates
        )
        jscan_cost = jscan_entries * ENTRY_CPU_COST + fetch_rids * 1.0
        winner = "sscan" if sscan_cost <= jscan_cost else "background-only"
        estimator.trusted += 1
        if audit.enabled:
            audit.decision(
                DecisionKind.COMPETITION_SKIPPED,
                winner,
                ("index-only",),
                sscan_cost=round(sscan_cost, 3),
                jscan_cost=round(jscan_cost, 3),
                **verdict.inputs(),
            )
        ctx.trace.emit(
            EventKind.COMPETITION_SKIPPED,
            winner=winner,
            confidence=round(verdict.score, 4),
        )
        return winner

    @staticmethod
    def _record_audit_estimates(
        audit: AuditLog, arrangement: InitialArrangement
    ) -> None:
        """Feed estimated-vs-observed cardinalities into the audit log.

        These pairs drive the estimate-error-ratio histogram — the live
        capture of the paper's Figure 2.1/2.2 L-shapes."""
        candidates = list(arrangement.jscan_candidates) + list(
            arrangement.sscan_candidates
        )
        for candidate in candidates:
            estimate = candidate.estimate
            if estimate is None or candidate.observed is None:
                continue
            audit.observe_estimate(
                candidate.index.name, estimate.rids, candidate.observed
            )

    def _run_sscan_steps(
        self, ctx: TacticContext, candidate, ordered: bool = False
    ) -> StepOutcome:
        label = "sorted-sscan" if ordered else "sscan"
        span = ctx.trace.tracer.begin("tactic", tactic=label)
        try:
            ctx.trace.emit(
                EventKind.TACTIC_SELECTED,
                tactic=label,
                index=candidate.index.name,
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

    def _run_tscan_steps(self, ctx: TacticContext) -> StepOutcome:
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

    @staticmethod
    def _abandon_spawned(ctx: TacticContext, trace: RetrievalTrace) -> None:
        """Cancellation cleanup: abandon every still-active process.

        ``Process.abandon`` releases held resources (Jscan discards its
        hybrid RID lists, freeing spilled temp-table pages) — the cancelled
        query must leave nothing behind in the shared pool.
        """
        for process in ctx.spawned:
            if process.active:
                process.abandon()
                trace.counters.scans_abandoned += 1
                trace.emit(
                    EventKind.SCAN_ABANDONED, index=process.name, reason="cancelled"
                )
        trace.emit(EventKind.CONSUMER_STOPPED, by="cancellation")

    # -- helpers -------------------------------------------------------------------

    def _post_sort(
        self, rows: list[tuple], rids: list[RID], order_by: tuple[str, ...]
    ) -> None:
        positions = [self.schema.index_of(name) for name in order_by]
        paired = sorted(
            zip(rows, rids),
            key=lambda pair: tuple(pair[0][position] for position in positions),
        )
        rows[:] = [row for row, _ in paired]
        rids[:] = [rid for _, rid in paired]

    def _record_feedback(
        self, request: RetrievalRequest, arrangement: InitialArrangement
    ) -> None:
        """Record estimated-vs-actual cardinality for every completed scan.

        The raw descent estimate (never the adjusted one) is compared to
        the observed entry count, so corrections converge instead of
        compounding across executions. Exact estimates are already the
        truth and produce no feedback.
        """
        feedback = request.feedback
        if feedback is None:
            return
        candidates = list(arrangement.jscan_candidates) + list(
            arrangement.sscan_candidates
        )
        for candidate in candidates:
            estimate = candidate.estimate
            if estimate is None or estimate.exact or candidate.observed is None:
                continue
            feedback.record(
                self.heap.name,
                candidate.index.name,
                request.restriction,
                estimate.rids,
                candidate.observed,
            )

    def _record_estimator(
        self, request: RetrievalRequest, arrangement: InitialArrangement
    ) -> None:
        """Ring-buffer every completed scan's *effective* estimate q-error.

        Unlike :meth:`_record_feedback` (which must record raw estimates
        so corrections converge), the estimator scores the estimate the
        engine actually *acted on* — ``estimated_rids`` with feedback
        applied — because that is the number whose trustworthiness the
        competition gate rides on. The scanned key range tags along so the
        per-(table, index) self-tuning histogram can refine itself.
        """
        estimator = request.estimator
        if estimator is None:
            return
        candidates = list(arrangement.jscan_candidates) + list(
            arrangement.sscan_candidates
        )
        for candidate in candidates:
            if candidate.estimate is None or candidate.observed is None:
                continue
            key_range = candidate.key_range
            estimator.record(
                self.heap.name,
                candidate.index.name,
                request.restriction,
                candidate.estimated_rids,
                candidate.observed,
                lo=key_range.lo[0] if key_range.lo else None,
                hi=key_range.hi[0] if key_range.hi else None,
            )

    def _record_context(
        self, context: IterationContext | None, arrangement: InitialArrangement
    ) -> None:
        if context is None:
            return
        order = [candidate.index.name for candidate in arrangement.jscan_candidates]
        estimates = {
            candidate.index.name: candidate.estimate.rids
            for candidate in arrangement.jscan_candidates
            if candidate.estimate is not None
        }
        context.record(order, estimates)
