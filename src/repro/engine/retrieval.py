"""The single-table retrieval executor (Figure 4).

Entry point of the dynamic optimizer: classify and estimate the available
indexes (initial stage), then make one decision before any race —
:meth:`SingleTableRetrieval.decide` settles the clear cases (``proven``),
skips the race when both arms' estimates are demonstrably trustworthy
(``trusted``), and stages a competition tactic for the uncertain rest
(``raced``). One strategy table runs the decision, and the same table runs
a forced strategy. Foreground processes deliver records immediately;
background processes work toward the shortest RID list or a Tscan
recommendation; the final stage runs only on background completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Sequence

from repro.competition.process import drain
from repro.competition.two_stage import SwitchCriterion, SwitchDecision
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import IndexInfo, TableSchema
from repro.engine.goals import OptimizationGoal
from repro.engine.initial import (
    InitialArrangement,
    IterationContext,
    SscanCandidate,
    run_initial_stage,
)
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.engine.scans import CollectingSink
from repro.engine.tactics import (
    TacticContext,
    background_only_steps,
    fast_first_steps,
    index_only_steps,
    sorted_tactic_steps,
    sscan_steps,
    tscan_steps,
    union_or_steps,
)
from repro.expr.disjunction import cover_disjuncts
from repro.errors import RetrievalError
from repro.expr.ast import ALWAYS_TRUE, Expr
from repro.expr.eval import compile_predicate, referenced_columns
from repro.obs.trace import Tracer
from repro.storage.buffer_pool import ENTRY_CPU_COST, RECORD_CPU_COST, BufferPool, CostMeter
from repro.storage.heap import HeapFile
from repro.storage.rid import RID, yao_pages_touched


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
    #: bypass :meth:`SingleTableRetrieval.decide` and run one named
    #: strategy from the strategy table — used by counterfactual replay
    #: (:mod:`repro.obs.regret`) to execute a rejected alternative.
    #: Vocabulary: ``tscan``, ``sscan``, ``sorted-sscan``, ``sorted``,
    #: ``index-only``, ``fast-first``, ``background-only``, ``union-or``,
    #: ``short-range`` (a forced retrieval never probes). None (the
    #: default) decides.
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


#: the three bases of a decision: a clear case that needs no race, a race
#: skipped because both arms' estimates are trusted, a race staged
PROVEN, TRUSTED, RACED = "proven", "trusted", "raced"


@dataclass(frozen=True, slots=True)
class Decision:
    """What :meth:`SingleTableRetrieval.decide` chose, and on what basis."""

    #: the strategy, in the ``force_strategy`` vocabulary
    strategy: str
    #: ``proven``, ``trusted`` or ``raced``
    basis: str
    #: the rejected strategies, in the same (replayable) vocabulary
    alternatives: tuple[str, ...] = ()
    #: inputs the choice was made on beyond the arrangement's estimates
    #: (the audit adds those, the goal and the basis); None when none
    inputs: Mapping[str, Any] | None = None


_UNIQUE_PROBE = Decision("unique-probe", PROVEN)


def _covering_sscan(arrangement: InitialArrangement) -> SscanCandidate | None:
    """The self-sufficient candidate on the order index, if any: an ordered
    Sscan of it delivers sorted results with zero record fetches."""
    order = arrangement.order_index
    if order is None:
        return None
    return next((c for c in arrangement.sscan_candidates if c.index is order.index), None)


def _sorted_sscan(arrangement: InitialArrangement) -> tuple | None:
    """What ``sorted-sscan`` scans: the covering order index in order, or
    else (a forced run) the cheapest self-sufficient index unordered."""
    covering = _covering_sscan(arrangement)
    if covering is not None:
        return covering, True
    best = arrangement.best_sscan
    return (best, False) if best is not None else None


_NO_SSCAN = "no self-sufficient index"
_NO_JSCAN = "no fetch-needed index"

#: The strategy table, for a decided and a forced strategy alike: name ->
#: (what it runs on, read off (retrieval, arrangement, request); why it
#: cannot run when that is missing; its tactic — None: fetched directly).
_STRATEGIES: dict[str, tuple[Callable, str, Callable | None]] = {
    "unique-probe": (lambda r, a, q: a.unique, "a forced retrieval never probes", None),
    "short-range": (
        lambda r, a, q: a.direct is not None and not a.unique,
        "the range is not one quantum short", None,
    ),
    "tscan": (lambda r, a, q: True, "", lambda ctx, _: tscan_steps(ctx)),
    "sscan": (lambda r, a, q: a.best_sscan, _NO_SSCAN, sscan_steps),
    "sorted-sscan": (
        lambda r, a, q: _sorted_sscan(a), _NO_SSCAN,
        lambda ctx, scan: sscan_steps(ctx, *scan),
    ),
    "sorted": (
        lambda r, a, q: a.order_index, "no order index",
        lambda ctx, _: sorted_tactic_steps(ctx),
    ),
    "index-only": (
        lambda r, a, q: a.best_sscan, _NO_SSCAN, lambda ctx, _: index_only_steps(ctx)
    ),
    "fast-first": (
        lambda r, a, q: a.jscan_candidates, _NO_JSCAN,
        lambda ctx, _: fast_first_steps(ctx),
    ),
    "background-only": (
        lambda r, a, q: a.jscan_candidates, _NO_JSCAN,
        lambda ctx, _: background_only_steps(ctx),
    ),
    "union-or": (
        lambda r, a, q: r._cover(a, q), "disjuncts not index-covered", union_or_steps
    ),
}


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
        trace = RetrievalTrace(tracer, self.heap.name, request)
        span = trace.tracer.begin(
            "retrieval", table=self.heap.name, goal=request.goal.value
        )
        estimation_meter = CostMeter(name="initial-stage")
        goal = request.goal
        if goal is OptimizationGoal.DEFAULT:
            goal = OptimizationGoal.TOTAL_TIME

        output = request.output_columns or self.schema.names
        needed = frozenset(referenced_columns(request.restriction)) | set(output) | set(
            request.order_by
        )
        unknown = [name for name in needed if name not in self.schema]
        if unknown:
            raise RetrievalError(f"unknown columns {sorted(unknown)}")

        force = request.force_strategy
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
            allow_probe=force is None,
        )
        # a SORT node controls the retrieval when we must post-sort: the
        # paper's rule forces total-time in that case
        needs_post_sort = bool(request.order_by) and arrangement.order_index is None
        if needs_post_sort:
            goal = OptimizationGoal.TOTAL_TIME
        rows: list[tuple] = []
        rids: list[RID] = []
        result = RetrievalResult(
            rows=rows, rids=rids, trace=trace, description="", goal=goal,
            estimation_cost=estimation_meter.total,
        )
        if arrangement.empty:
            result.description = "shortcut: provably empty result"
            return self._complete(trace, span, result, request, arrangement, context)

        if force is None:
            decision = self.decide(arrangement, goal, request)
            strategy = decision.strategy
            trace.decision = decision
            trace.decided_on = (
                len(trace.events), goal, self.heap.page_count, arrangement
            )
            if decision.basis == TRUSTED:
                trace.emit(
                    EventKind.COMPETITION_SKIPPED,
                    winner=strategy,
                    confidence=decision.inputs["confidence"],
                )
        else:
            strategy = force
        row = _STRATEGIES.get(strategy)
        if row is None:
            raise RetrievalError(f"unknown forced strategy {strategy!r}")
        needs, missing, tactic = row
        operand = needs(self, arrangement, request)
        if not operand:
            raise RetrievalError(f"cannot force {strategy!r}: {missing}")
        if tactic is None:
            return self._fetch_directly(request, arrangement, result, trace, span, context)

        limit = request.limit
        ctx = TacticContext(
            heap=self.heap,
            schema=self.schema,
            restriction=request.restriction,
            host_vars=request.host_vars,
            buffer_pool=self.buffer_pool,
            arrangement=arrangement,
            sink=CollectingSink(rows, rids, None if needs_post_sort else limit),
            trace=trace,
            config=self.config,
            predicate=self._predicate(request),
        )
        inner = tactic(ctx, operand)
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
            sunk = CostMeter.merged(p.meter for p in ctx.spawned)
            result.execution_cost = sunk.total
            result.execution_io = sunk.io_total
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

    # -- the decision ---------------------------------------------------------

    def decide(
        self,
        arrangement: InitialArrangement,
        goal: OptimizationGoal,
        request: RetrievalRequest,
    ) -> Decision:
        """Figure 4's one choice before any race: the strategy this
        retrieval runs, and on what basis (Sections 5 and 7).

        ``proven`` — a clear case the race would settle the same way: the
        unique-key probe; a short range whose race provably never gives
        up on the index; a covering order index (sorted-sscan); a
        self-sufficient index with nothing to race (sscan); no usable
        index at all (tscan). ``trusted`` — the variance gate found both
        arms of an index-only race demonstrably well estimated and picks
        the winner statically. ``raced`` — everything else stages a
        competition tactic: index-only, fast-first, background-only,
        sorted and union-or. The only side effect is the estimator's
        ``competed``/``trusted`` count when the gate is consulted.
        """
        direct = arrangement.direct
        if direct is not None:
            if arrangement.unique:
                return _UNIQUE_PROBE
            # A short range: does its race provably never give up on the
            # index for the Tscan? The descent bounds what the race can
            # meet: at most ``entries`` entries, and the leaves that hold
            # them plus the one a cursor looks past the range's end in.
            # Each bound only grows what the one SwitchCriterion compares,
            # so a single evaluation on them covers every evaluation the
            # race makes against the Tscan: the Jscan's projection, at most
            # Yao's pages for the larger of the estimate and ``entries``,
            # and the own cost of each process — the Jscan's walk and,
            # under fast-first, a foreground fetching every entry. (A
            # fast-first race also checks its foreground once more, against
            # fetching the completed RID list; that outcome depends on the
            # pages the foreground met, and the direct path, fetching in
            # index order to the limit, has no foreground to stop.) The RID
            # list must also stay in memory (a spill writes pages), and the
            # pool must hold the descent's path (else the Jscan's own
            # descent reads it again).
            config = self.config
            heap = self.heap
            btree = direct.index.btree
            estimate = direct.estimate
            leaves = estimate.bounded_leaves()
            entries = estimate.k if estimate.exact else leaves * btree.order
            fast_first = goal is OptimizationGoal.FAST_FIRST
            if (
                entries <= config.allocated_rid_buffer_size
                and btree.buffer_pool.capacity >= btree.height
            ):
                criterion = SwitchCriterion(
                    threshold=config.switch_threshold,
                    scan_cost_limit_fraction=config.scan_cost_limit_fraction,
                )
                projection = yao_pages_touched(
                    heap.page_count,
                    heap.rows_per_page,
                    int(max(direct.estimated_rids, entries)),
                )
                cost = leaves + 1 + entries * ENTRY_CPU_COST
                if fast_first:
                    cost = max(cost, entries * (1.0 + RECORD_CPU_COST))
                settled = criterion.evaluate(projection, cost, float(heap.page_count))
                if settled is SwitchDecision.CONTINUE:
                    race = "fast-first" if fast_first else "background-only"
                    return Decision("short-range", PROVEN, (race, "tscan"))

        order_index = arrangement.order_index
        if request.order_by and order_index is not None:
            covering = _covering_sscan(arrangement)
            if covering is not None:
                return Decision(
                    "sorted-sscan", PROVEN, ("sorted",),
                    {"index": covering.index.name},
                )
            return Decision(
                "sorted", RACED, ("tscan",), {"order_index": order_index.index.name}
            )
        best = arrangement.best_sscan
        candidates = arrangement.jscan_candidates
        estimator = request.estimator
        if best is not None and candidates:
            # The variance gate. Competition exists because initial
            # estimates are untrusted. Once the estimator has seen this
            # (table, index, signature) enough times with stable, near-1
            # q-errors on *both* arms, the corrected estimates decide the
            # race's outcome just as reliably as running it — so the
            # cheaper arm runs alone, and the loser's wasted steps are
            # saved. An unestimated arm (the estimation shortcut) has no
            # projection to trust, and competes.
            if estimator is not None and self.config.competition_gate:
                verdict = None
                if all(candidate.estimated_rids is not None for candidate in candidates):
                    verdict = estimator.combined_verdict([
                        (self.heap.name, best.index.name, request.restriction),
                        (self.heap.name, candidates[0].index.name, request.restriction),
                    ])
                if verdict is None or not verdict.trust:
                    estimator.competed += 1
                else:
                    # trusted corrected projections of both arms: the sscan
                    # walks its whole range entry by entry; the jscan walks
                    # every candidate's range and then random-fetches the
                    # (at most) shortest RID list
                    sscan_cost = best.estimated_rids * ENTRY_CPU_COST
                    jscan_entries = sum(c.estimated_rids for c in candidates)
                    fetch_rids = min(c.estimated_rids for c in candidates)
                    jscan_cost = jscan_entries * ENTRY_CPU_COST + fetch_rids * 1.0
                    estimator.trusted += 1
                    winner, other = (
                        ("sscan", "background-only")
                        if sscan_cost <= jscan_cost
                        else ("background-only", "sscan")
                    )
                    return Decision(winner, TRUSTED, (other, "index-only"), {
                        "sscan_cost": round(sscan_cost, 3),
                        "jscan_cost": round(jscan_cost, 3),
                        **verdict.inputs(),
                    })
            return Decision("index-only", RACED, ("sscan", "background-only"))
        if best is not None:
            # "the only optimization task to be resolved is to pick the
            # one whose scan is the cheapest"
            return Decision("sscan", PROVEN, ("tscan",), {"index": best.index.name})
        if candidates:
            if goal is OptimizationGoal.FAST_FIRST:
                return Decision("fast-first", RACED, ("tscan",))
            return Decision("background-only", RACED, ("tscan",))
        # OR extension (Section 8): a disjunctive restriction whose every
        # top-level disjunct is covered by some index range is resolved by
        # a union joint scan
        covered = self._cover(arrangement, request)
        if covered:
            return Decision("union-or", RACED, ("tscan",), {"disjuncts": len(covered)})
        return Decision("tscan", PROVEN)

    def _cover(
        self, arrangement: InitialArrangement, request: RetrievalRequest
    ) -> list:
        """The restriction's top-level disjuncts, each covered by an index
        range (empty when one is not), found once per retrieval."""
        if arrangement.covered is None:
            arrangement.covered = (
                cover_disjuncts(request.restriction, self.indexes, request.host_vars)
                or []
            )
        return arrangement.covered

    # -- running it -----------------------------------------------------------

    def _fetch_directly(
        self,
        request: RetrievalRequest,
        arrangement: InitialArrangement,
        result: RetrievalResult,
        trace: RetrievalTrace,
        span: Any,
        context: IterationContext | None,
    ) -> RetrievalResult:
        """The unique-key probe or a very short range, fetched directly
        (Section 5): no Jscan, RID list, final stage or yield — the
        retrieval completes in the quantum that starts it.

        The probe descends the unique index once (:meth:`BTree.probe`,
        which reads the pages of the estimate-then-Jscan path, in the same
        order) and estimates nothing. A short range walks on from where its
        Figure 5 descent stopped, reading the leaves the Jscan's cursor
        would (:meth:`BTree.walk_from`), and records what a completed
        Jscan records. Every entry's record is then fetched and the full
        restriction applied. Under total-time a short range fetches as the
        final stage does — page order after the same read-ahead, so rows,
        page reads, pool recency and costs are those of background-only;
        under fast-first (and for the probe) in index order, to the limit.
        """
        candidate = arrangement.direct
        index = candidate.index
        unique = arrangement.unique
        label = "unique-probe" if unique else "short-range"
        tactic = trace.tracer.begin("tactic", tactic=label)
        result.description = f"{label}({index.name})"
        meter = CostMeter(name=label)
        if unique:
            entries = index.btree.probe(candidate.key_range, meter)
            if entries:
                trace.emit(
                    EventKind.SHORTCUT_SMALL_RANGE,
                    index=index.name,
                    rids=len(entries),
                    skipped_estimates=arrangement.skipped_estimates,
                )
            else:
                trace.emit(EventKind.SHORTCUT_EMPTY, index=index.name)
                result.description = "shortcut: provably empty result"
        else:
            trace.emit(EventKind.TACTIC_SELECTED, tactic=label, index=index.name)
            estimate = candidate.estimate
            entries = index.btree.walk_from(
                estimate.stop, estimate.first, candidate.key_range, meter
            )
            meter.charge_entries(len(entries))
            trace.counters.index_entries_scanned += len(entries)
            candidate.observed = len(entries)
        rids = [rid for _, rid in entries]
        if not unique and result.goal is not OptimizationGoal.FAST_FIRST:
            rids.sort()
            pool = self.heap.buffer_pool
            self.heap.prefetch(
                rids, meter, window=min(pool.read_ahead_window, pool.capacity)
            )
        rows, delivered = result.rows, result.rids
        post_sort = bool(request.order_by) and len(rids) > 1
        limit = request.limit
        if rids:
            predicate = self._predicate(request)
            sink = CollectingSink(rows, delivered, None if post_sort else limit)
            heap = self.heap
            counters = trace.counters
            for rid in rids:
                row = heap.fetch(rid, meter)
                meter.charge_records(1)
                counters.records_fetched += 1
                if not predicate(row):
                    counters.fetches_rejected += 1
                    continue
                counters.records_delivered += 1
                if not sink(rid, row):
                    result.stopped_early = True
                    break
        if post_sort:
            self._post_sort(rows, delivered, request.order_by)
            if limit is not None:
                del rows[limit:]
                del delivered[limit:]
        result.execution_cost = meter.total
        result.execution_io = meter.io_total
        trace.tracer.end(tactic, rows=len(rows))
        return self._complete(trace, span, result, request, arrangement, context)

    def _complete(
        self,
        trace: RetrievalTrace,
        span: Any,
        result: RetrievalResult,
        request: RetrievalRequest,
        arrangement: InitialArrangement,
        context: IterationContext | None,
    ) -> RetrievalResult:
        """End a retrieval: ``RETRIEVAL_COMPLETE``, what its scans observed
        retired (the probe estimated nothing) and the span ended."""
        trace.emit(EventKind.RETRIEVAL_COMPLETE, rows=len(result.rows))
        if not arrangement.unique:
            self._retire(request, arrangement, context, trace)
        trace.tracer.end(
            span,
            rows=len(result.rows),
            cost=round(result.total_cost, 3),
            io=result.execution_io,
            strategy=result.description,
        )
        return result

    def _retire(
        self,
        request: RetrievalRequest,
        arrangement: InitialArrangement,
        context: IterationContext | None,
        trace: RetrievalTrace,
    ) -> None:
        """Hand what the retrieval learned to everyone who learns from it.

        The iteration context keeps the settled Jscan order and its raw
        estimates. Then, for every candidate whose scan completed: the
        feedback store gets the raw descent estimate (never the adjusted
        one, so corrections converge instead of compounding; exact
        estimates are already the truth and give no feedback); the
        estimator gets the estimate the engine *acted on* —
        ``estimated_rids``, feedback applied — because that is the number
        whose trustworthiness the variance gate rides on, with the key
        range for its self-tuning histogram; and the trace keeps the raw
        estimated-vs-observed pair, the live capture of the paper's Figure
        2.1/2.2 L-shapes.
        """
        if context is not None:
            context.record(
                [candidate.index.name for candidate in arrangement.jscan_candidates],
                {
                    candidate.index.name: candidate.estimate.rids
                    for candidate in arrangement.jscan_candidates
                    if candidate.estimate is not None
                },
            )
        feedback = request.feedback
        estimator = request.estimator
        table = self.heap.name
        for candidate in (*arrangement.jscan_candidates, *arrangement.sscan_candidates):
            estimate = candidate.estimate
            observed = candidate.observed
            if estimate is None or observed is None:
                continue
            name = candidate.index.name
            if feedback is not None and not estimate.exact:
                feedback.record(
                    table, name, request.restriction, estimate.rids, observed
                )
            if estimator is not None:
                key_range = candidate.key_range
                estimator.record(
                    table,
                    name,
                    request.restriction,
                    candidate.estimated_rids,
                    observed,
                    lo=key_range.lo[0] if key_range.lo else None,
                    hi=key_range.hi[0] if key_range.hi else None,
                )
            trace.estimates.append((name, estimate.rids, observed))

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
