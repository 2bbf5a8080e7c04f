"""The scatter-gather coordinator: Figure 4 generalized to N partitions.

One retrieval against a partitioned table becomes one independent
retrieval per (un-pruned) partition — each running the complete dynamic
engine of :mod:`repro.engine.retrieval`, with its own initial stage,
competition tactics, and two-stage switch rule over that partition's
private buffer pool — plus this coordinator, which runs the fetches one
after another, gathers their results, and merges.

The coordinator is itself a step generator, so it plugs into the
cooperative scheduler exactly like a single-table retrieval: it steps
each partition's engine directly on the scheduler thread, yielding once
per engine quantum, so every step is deterministic. Every fetch runs
untraced with predicate caching disabled; the coordinator applies
traces, audit records, and metrics in partition order after the gather.
Selectivity feedback and the estimator reach a fetch as
:class:`PartitionFeedbackView` / :class:`PartitionEstimatorView`: frozen
snapshots of the parent table's learned corrections in, buffered
observations out, replayed into the parent stores post-gather — so no
partition learns from a sibling fetch of the same statement.

Cancellation (the scheduler closing this generator → ``GeneratorExit``)
closes the in-flight partition generator, which abandons its scans and
releases its pins and temp structures — the same ``_on_abandon``
discipline joins use. Costs sunk in completed fetches and the aborted one
are folded into the live result before re-raising, so cancelled scatters
account the work they actually did.

Accounting invariant: the merged result's ``estimation_cost``,
``execution_cost``, and ``execution_io`` are exactly the sums of the
per-partition values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Generator

from repro.cache.feedback import predicate_signature
from repro.engine.goals import OptimizationGoal
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.engine.retrieval import RetrievalRequest, RetrievalResult
from repro.estimate import ConfidenceVerdict
from repro.obs.audit import DecisionKind
from repro.obs.trace import Tracer
from repro.partition.merge import bag_union, merge_sorted_runs

@dataclass
class PartitionFetch:
    """The gathered outcome of one partition's retrieval."""

    partition: int
    rows: int
    cost: float
    io: int
    description: str


@dataclass
class ScatterInfo:
    """How a partitioned retrieval was scattered and merged.

    Attached to the merged result as ``result.scatter``; benchmarks and
    the metrics layer read it.
    """

    table: str
    partitions: int
    candidates: tuple[int, ...]
    ordered_merge: bool = False
    merged_rows: int = 0
    fetches: list[PartitionFetch] = field(default_factory=list)

    @property
    def pruned(self) -> int:
        return self.partitions - len(self.candidates)


#: the gate verdict partition fetches always get: partition-level races
#: stay races (gating happens once, at the coordinator's level of the
#: learned state), and fetches never read the mutable parent stats
_NEVER_TRUST = ConfidenceVerdict(
    trust=False, score=0.0, count=0, mean_log_q=0.0, var_log_q=0.0, threshold=1.0
)


class PartitionFeedbackView:
    """Frozen selectivity feedback for one partition fetch.

    Carries a read-only snapshot of the *parent* table's learned
    correction ratios into the fetch — so a partition's initial estimates
    start from the parent signature's observed selectivity — and buffers
    the fetch's own observations. The coordinator replays every buffer
    into the parent store in partition order after the gather, so every
    fetch of one statement starts from the same learned state.
    """

    enabled = True

    def __init__(self, ratios: dict[tuple[str, str], float]) -> None:
        self._ratios = ratios
        self.adjustments = 0
        #: (index_name, restriction, estimated, actual) in observation order
        self.buffered: list[tuple] = []

    def adjust(
        self, table: str, index_name: str, restriction: Any, estimated: float
    ) -> int | None:
        ratio = self._ratios.get((index_name, predicate_signature(restriction)))
        if ratio is None:
            return None
        self.adjustments += 1
        return max(0, round(estimated * ratio))

    def record(
        self, table: str, index_name: str, restriction: Any,
        estimated: float, actual: int,
    ) -> None:
        self.buffered.append((index_name, restriction, estimated, actual))


class PartitionEstimatorView:
    """Frozen estimator stand-in for one partition fetch.

    ``estimate_range`` consults frozen copies of the parent table's
    self-tuning histograms; ``record`` buffers observations the
    coordinator replays into the parent estimator (under the parent table
    name) after the gather. The confidence gate never fires inside a
    partition fetch: ``combined_verdict`` is always cold, so
    partition-level competitions remain races while the parent-level
    signature statistics still learn from every fetch.
    """

    enabled = True

    def __init__(self, histograms: dict[str, Any]) -> None:
        self._histograms = histograms
        self.buffered: list[tuple] = []
        self.trusted = 0
        self.competed = 0

    def estimate_range(
        self, table: str, index: str, lo: Any, hi: Any
    ) -> float | None:
        hist = self._histograms.get(index)
        if hist is None:
            return None
        return hist.estimate(lo, hi)

    def combined_verdict(self, pairs: list) -> ConfidenceVerdict:
        return _NEVER_TRUST

    def record(
        self, table: str, index: str, restriction: Any,
        estimated: float, actual: int, lo: Any = None, hi: Any = None,
    ) -> None:
        self.buffered.append((index, restriction, estimated, actual, lo, hi))


def scatter_steps(
    table: Any,
    request: RetrievalRequest,
    tracer: "Tracer | None" = None,
    feedback: Any = None,
    estimator: Any = None,
) -> Generator[RetrievalResult, None, RetrievalResult]:
    """Execute one retrieval against a partitioned table.

    ``table`` is a :class:`~repro.db.partitioned.PartitionedTable`; the
    generator contract matches
    :meth:`~repro.engine.retrieval.SingleTableRetrieval.run_steps`.
    """
    trace = RetrievalTrace(tracer, table.name, request)
    goal = request.goal
    if goal is OptimizationGoal.DEFAULT:
        goal = OptimizationGoal.TOTAL_TIME

    partitioner = table.partitioner
    candidates = partitioner.candidate_partitions(
        request.restriction, request.host_vars
    )

    span = trace.tracer.begin(
        "scatter",
        table=table.name,
        partitions=partitioner.partitions,
        candidates=len(candidates),
        goal=goal.value,
    )
    trace.note(
        DecisionKind.SCATTER,
        f"scatter[{len(candidates)}/{partitioner.partitions}]",
        partitions=partitioner.partitions,
        candidates=list(candidates),
        pruned=partitioner.partitions - len(candidates),
        method=partitioner.spec.method,
    )

    result = RetrievalResult(
        rows=[], rids=[], trace=trace, description="", goal=goal
    )
    info = ScatterInfo(
        table=table.name,
        partitions=partitioner.partitions,
        candidates=candidates,
        ordered_merge=bool(request.order_by),
    )
    result.scatter = info

    # every partition fetch is self-contained: untraced and uncached; the
    # coordinator owns all observability. Selectivity feedback and the
    # estimator are forwarded as frozen *views*: read-only snapshots of
    # the parent table's learned state in, buffered observations out,
    # replayed into the parent stores in partition order after the gather.
    feedback_views: dict[int, PartitionFeedbackView] = {}
    estimator_views: dict[int, PartitionEstimatorView] = {}
    if feedback is not None:
        ratios = feedback.snapshot_for(table.name)
        feedback_views = {
            index: PartitionFeedbackView(ratios) for index in candidates
        }
    if estimator is not None:
        frozen = estimator.histogram_snapshot(table.name)
        estimator_views = {
            index: PartitionEstimatorView(frozen) for index in candidates
        }

    def request_for(index: int) -> RetrievalRequest:
        return replace(
            request, host_vars=dict(request.host_vars),
            predicate_cache=None,
            feedback=feedback_views.get(index),
            estimator=estimator_views.get(index),
        )

    def fold_costs(outcome: RetrievalResult) -> None:
        result.estimation_cost += outcome.estimation_cost
        result.execution_cost += outcome.execution_cost
        result.execution_io += outcome.execution_io
        for counter in fields(outcome.trace.counters):
            setattr(
                result.trace.counters,
                counter.name,
                getattr(result.trace.counters, counter.name)
                + getattr(outcome.trace.counters, counter.name),
            )

    runs: list[tuple[list[tuple], list[Any]]] = []

    def gather_one(index: int, outcome: RetrievalResult) -> None:
        fold_costs(outcome)
        runs.append((outcome.rows, outcome.rids))
        if outcome.stopped_early:
            result.stopped_early = True
        info.fetches.append(
            PartitionFetch(
                partition=index,
                rows=len(outcome.rows),
                cost=outcome.total_cost,
                io=outcome.execution_io,
                description=outcome.description,
            )
        )
        fetch_span = trace.tracer.begin("partition-fetch", partition=index)
        trace.tracer.end(
            fetch_span,
            rows=len(outcome.rows),
            cost=round(outcome.total_cost, 3),
            io=outcome.execution_io,
            strategy=outcome.description,
        )

    # the scheduler thread steps each partition's engine in turn, yielding
    # once per quantum; a close can only arrive at that yield, so ``gen``
    # is the in-flight fetch and ``last`` its live partial result
    try:
        for index in candidates:
            child = table.partitions[index]
            gen = child.retrieval_engine().run_steps(request_for(index), None, None)
            while True:
                try:
                    last = next(gen)
                except StopIteration as stop:
                    gather_one(index, stop.value)
                    break
                yield result
    except GeneratorExit:
        gen.close()
        fold_costs(last)
        trace.tracer.end(span, cancelled=True)
        raise

    # replay buffered observations into the parent stores, in partition
    # order, under the parent table's name
    for index in candidates:
        view = feedback_views.get(index)
        if view is not None:
            for index_name, restriction, estimated, actual in view.buffered:
                feedback.record(table.name, index_name, restriction, estimated, actual)
        est_view = estimator_views.get(index)
        if est_view is not None:
            for index_name, restriction, estimated, actual, lo, hi in est_view.buffered:
                estimator.record(
                    table.name, index_name, restriction, estimated, actual,
                    lo=lo, hi=hi,
                )

    if request.order_by:
        positions = [table.schema.index_of(name) for name in request.order_by]
        rows, rids = merge_sorted_runs(runs, positions)
        merge_label = "merge"
    else:
        rows, rids = bag_union(runs)
        merge_label = "union"
    if request.limit is not None and len(rows) > request.limit:
        del rows[request.limit:]
        del rids[request.limit:]
        result.stopped_early = True
    result.rows.extend(rows)
    result.rids.extend(rids)
    info.merged_rows = len(result.rows)

    strategies: list[str] = []
    for fetch in info.fetches:
        if fetch.description not in strategies:
            strategies.append(fetch.description)
    result.description = (
        f"scatter[{len(candidates)}/{partitioner.partitions}]: "
        + (" | ".join(strategies) if strategies else "pruned to nothing")
        + f" -> {merge_label}"
    )

    trace.emit(
        EventKind.RETRIEVAL_COMPLETE,
        rows=len(result.rows),
        partitions=len(candidates),
    )
    stats = table.partition_stats
    if stats is not None:
        stats.record_scatter(
            fetch_rows=[fetch.rows for fetch in info.fetches],
            fetch_costs=[fetch.cost for fetch in info.fetches],
            merged_rows=info.merged_rows,
            pruned=info.pruned,
            ordered=info.ordered_merge,
        )
    trace.tracer.end(
        span,
        rows=len(result.rows),
        cost=round(result.total_cost, 3),
        io=result.execution_io,
        strategy=result.description,
    )
    return result
