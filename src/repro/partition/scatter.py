"""The scatter-gather coordinator: Figure 4 generalized to N workers.

One retrieval against a partitioned table becomes one independent
retrieval per (un-pruned) partition — each running the complete dynamic
engine of :mod:`repro.engine.retrieval`, with its own initial stage,
competition tactics, and two-stage switch rule over that partition's
private buffer pool — plus this coordinator, which fans the fetches out,
gathers their results, and merges.

The coordinator is itself a step generator, so it plugs into the
cooperative scheduler exactly like a single-table retrieval:

* ``partition_workers <= 1`` runs the partition fetches serially on the
  scheduler thread, yielding between engine quanta. No worker threads
  exist, every step is deterministic, and the decision sequence of every
  partition fetch is identical to what the parallel mode produces.
* ``partition_workers > 1`` submits each fetch to the database's shared
  :class:`~concurrent.futures.ThreadPoolExecutor` and polls, yielding to
  the scheduler between polls. Workers serialize per partition (one
  lock per partition), and every fetch runs untraced with predicate
  caching disabled, so shared mutable state never crosses threads; the
  coordinator applies traces, audit records, and metrics in partition
  order after the gather. Selectivity feedback and the estimator cross
  the thread boundary as :class:`PartitionFeedbackView` /
  :class:`PartitionEstimatorView`: frozen snapshots of the parent
  table's learned corrections in, buffered observations out, replayed
  into the parent stores post-gather.

Cancellation (the scheduler closing this generator → ``GeneratorExit``)
propagates to in-flight workers via an abort event checked once per
engine quantum; each worker closes its partition's generator, which
abandons its scans and releases its pins and temp structures — the same
``_on_abandon`` discipline joins use. Costs sunk in completed and
aborted fetches are folded into the live result before re-raising, so
cancelled scatters account the work they actually did.

Accounting invariant: the merged result's ``estimation_cost``,
``execution_cost``, and ``execution_io`` are exactly the sums of the
per-partition values — identical at every worker count, byte-for-byte
with the serial run.
"""

from __future__ import annotations

import threading
from concurrent import futures as _futures
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

#: how long one scheduler quantum of the coordinator blocks waiting for
#: worker futures before yielding back to the scheduler
_POLL_SECONDS = 0.002
#: bound on the cancellation drain: workers notice the abort event within
#: one engine quantum, so this only guards against a wedged worker
_CANCEL_WAIT_SECONDS = 5.0


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
    workers: int
    ordered_merge: bool = False
    merged_rows: int = 0
    fetches: list[PartitionFetch] = field(default_factory=list)

    @property
    def pruned(self) -> int:
        return self.partitions - len(self.candidates)

    @property
    def serial_cost(self) -> float:
        """Total fetch cost: the modeled time of a 1-worker run."""
        return sum(fetch.cost for fetch in self.fetches)

    @property
    def critical_path_cost(self) -> float:
        """Modeled parallel time: the heaviest worker's summed fetch cost
        under greedy longest-processing-time assignment."""
        return critical_path([fetch.cost for fetch in self.fetches], self.workers)


#: the gate verdict partition fetches always get: partition-level races
#: stay races (gating happens once, at the coordinator's level of the
#: learned state), and worker threads never read mutable parent stats
_NEVER_TRUST = ConfidenceVerdict(
    trust=False, score=0.0, count=0, mean_log_q=0.0, var_log_q=0.0, threshold=1.0
)


class PartitionFeedbackView:
    """Thread-confined selectivity feedback for one partition fetch.

    Carries a read-only snapshot of the *parent* table's learned
    correction ratios into the fetch — so a partition's initial estimates
    start from the parent signature's observed selectivity even on worker
    threads — and buffers the fetch's own observations. The coordinator
    replays every buffer into the parent store in partition order after
    the gather, keeping learned state byte-identical at every worker
    count.
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
    """Thread-confined estimator stand-in for one partition fetch.

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


def critical_path(costs: list[float], workers: int) -> float:
    """LPT makespan of ``costs`` over ``workers`` identical workers."""
    if not costs:
        return 0.0
    if workers <= 1:
        return sum(costs)
    loads = [0.0] * min(workers, len(costs))
    for cost in sorted(costs, reverse=True):
        slot = loads.index(min(loads))
        loads[slot] += cost
    return max(loads)


def _fetch_partition_job(child, request, lock, abort):
    """Run one partition's retrieval to completion on a worker thread.

    Returns ``(result, aborted)``; on abort the partition generator is
    closed (abandoning scans, releasing pins) and the live partial result
    comes back so its sunk cost can be accounted.
    """
    with lock:
        gen = child.retrieval_engine().run_steps(request, None, None)
        last = None
        try:
            while True:
                if abort.is_set():
                    gen.close()
                    return last, True
                try:
                    last = next(gen)
                except StopIteration as stop:
                    return stop.value, False
        except BaseException:
            gen.close()
            raise


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
    trace = RetrievalTrace(tracer)
    audit = trace.audit
    goal = request.goal
    if goal is OptimizationGoal.DEFAULT:
        goal = OptimizationGoal.TOTAL_TIME

    partitioner = table.partitioner
    candidates = partitioner.candidate_partitions(
        request.restriction, request.host_vars
    )
    configured_workers = max(1, table.config.partition_workers)
    parallel = configured_workers > 1 and len(candidates) > 1
    effective_workers = (
        min(configured_workers, len(candidates)) if parallel else 1
    )

    span = trace.tracer.begin(
        "scatter",
        table=table.name,
        partitions=partitioner.partitions,
        candidates=len(candidates),
        workers=effective_workers,
        goal=goal.value,
    )
    if audit.enabled:
        audit.begin_retrieval(table.name, request)
        audit.decision(
            DecisionKind.SCATTER,
            f"scatter[{len(candidates)}/{partitioner.partitions}]",
            partitions=partitioner.partitions,
            candidates=list(candidates),
            pruned=partitioner.partitions - len(candidates),
            workers=effective_workers,
            method=partitioner.spec.method,
        )

    result = RetrievalResult(
        rows=[], rids=[], trace=trace, description="", goal=goal
    )
    info = ScatterInfo(
        table=table.name,
        partitions=partitioner.partitions,
        candidates=candidates,
        workers=effective_workers,
        ordered_merge=bool(request.order_by),
    )
    result.scatter = info

    # every partition fetch is self-contained: untraced and uncached, so
    # nothing mutable is shared across worker threads; the coordinator
    # owns all observability. Selectivity feedback and the estimator are
    # forwarded as thread-confined *views*: read-only snapshots of the
    # parent table's learned state in, buffered observations out, replayed
    # into the parent stores in partition order after the gather.
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

    try:
        if not parallel:
            # serial scatter: the scheduler thread steps each partition's
            # engine directly, yielding once per quantum — with one
            # worker no threads exist at all, so no partition locks are
            # needed (and taking them across yields could deadlock two
            # interleaved sessions on the one scheduler thread)
            for index in candidates:
                child = table.partitions[index]
                gen = child.retrieval_engine().run_steps(request_for(index), None, None)
                last: RetrievalResult | None = None
                try:
                    while True:
                        try:
                            last = next(gen)
                        except StopIteration as stop:
                            gather_one(index, stop.value)
                            break
                        yield result
                except GeneratorExit:
                    gen.close()
                    if last is not None:
                        fold_costs(last)
                    raise
        else:
            abort = threading.Event()
            pool = table.worker_pool()
            pending = {
                pool.submit(
                    _fetch_partition_job,
                    table.partitions[index],
                    request_for(index),
                    table.partition_locks[index],
                    abort,
                ): index
                for index in candidates
            }
            try:
                while True:
                    done, not_done = _futures.wait(
                        pending, timeout=_POLL_SECONDS
                    )
                    if not not_done:
                        break
                    yield result
            except GeneratorExit:
                abort.set()
                for future in pending:
                    future.cancel()
                done, _ = _futures.wait(
                    pending, timeout=_CANCEL_WAIT_SECONDS
                )
                for future in done:
                    if future.cancelled():
                        continue
                    if future.exception() is not None:
                        continue
                    outcome, _aborted = future.result()
                    if outcome is not None:
                        fold_costs(outcome)
                raise
            # gather in partition order regardless of completion order
            by_index = {index: future for future, index in pending.items()}
            for index in candidates:
                outcome, aborted = by_index[index].result()
                if aborted or outcome is None:
                    raise RuntimeError(
                        f"partition {index} fetch aborted without cancellation"
                    )
                gather_one(index, outcome)
    except GeneratorExit:
        trace.tracer.end(span, cancelled=True)
        raise

    # replay buffered observations into the parent stores, in partition
    # order, under the parent table's name: learned state ends up
    # byte-identical regardless of worker count or completion order
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
        f"scatter[{len(candidates)}/{partitioner.partitions}, "
        f"w={effective_workers}]: "
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
            workers=effective_workers,
            critical_path_cost=info.critical_path_cost,
            ordered=info.ordered_merge,
        )
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
