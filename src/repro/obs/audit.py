"""Decision audit: every optimizer choice, read off what each retrieval records.

The tracer (:mod:`repro.obs.trace`) records *what the engine did*; this
module says *what the engine decided and why*. Every choice point of the
dynamic optimizer — goal inference, index ordering, the Section-5
shortcuts, tactic selection, Jscan's two-stage scan abandonment, strategy
switches, selectivity-feedback application, join orders, scatter fan-outs
— reads as a :class:`DecisionRecord` carrying the inputs that drove it
(estimates, guaranteed costs, the candidate set) and the alternatives it
rejected.

There is no second recording channel, and no switch: every retrieval's
:class:`~repro.engine.metrics.RetrievalTrace` is its one record — its
events, the ``Decision`` that ``SingleTableRetrieval.decide`` returned
(with the numbers it was made on), one plain tuple for each decision whose
inputs appear in no event (``trace.notes``: a Jscan abandonment's
projection, a join order, a scatter fan-out), and its completed scans'
estimated-vs-observed pairs. ``trace.decisions()`` reads one trace's
decisions in the order they were made; :meth:`AuditLog.of` builds a
statement's log from its retrievals only when something reads it (EXPLAIN
ANALYZE / COMPETE, ``Connection.audit()``, the flight recorder), and
:meth:`DecisionMetrics.absorb` counts every retired statement's decisions
without building it.

Two consumers build on the records:

* :mod:`repro.obs.regret` replays the rejected alternatives against a
  shadow buffer pool to turn each :class:`DecisionRecord` into realized
  regret (``EXPLAIN COMPETE`` / ``Connection.audit()``);
* :class:`DecisionMetrics` aggregates every retired statement server-wide
  — decision counts, per-tactic win rates, regret and estimate-error-ratio
  histograms, and the per-retrieval cost histogram that reproduces the
  paper's Figure 2.1/2.2 L-shapes from live traffic (``\\decisions`` in
  the shell, the Prometheus writer).

This module must not import :mod:`repro.obs.trace` nor anything from
:mod:`repro.engine` (the engine imports :class:`DecisionKind` from here).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.obs.hist import LogHistogram


class DecisionKind(str, enum.Enum):
    """Kinds of optimizer decisions the audit records (a member equals its
    value, so counts keyed by member read back by name)."""

    #: which optimization goal the executor inferred for a retrieval
    GOAL_INFERENCE = "goal-inference"
    #: the initial stage's ascending-RID arrangement of Jscan candidates
    INDEX_ORDERING = "index-ordering"
    #: a Section-5 shortcut fired (provably empty / very short range)
    SHORTCUT = "shortcut"
    #: which competition tactic the dispatcher committed to
    TACTIC_SELECTION = "tactic-selection"
    #: Jscan's two-stage competition ended an index scan (or recommended
    #: Tscan) based on projected cost vs the guaranteed best
    STAGE_TRANSITION = "stage-transition"
    #: a mid-flight strategy switch (jscan-won, tscan fallback, filter
    #: installation, foreground termination, ...)
    STRATEGY_SWITCH = "strategy-switch"
    #: a selectivity-feedback correction replaced a raw descent estimate
    FEEDBACK_APPLICATION = "feedback-application"
    #: which left-deep join order the join competition committed to (or
    #: switched to mid-flight when a pilot overtook the estimated best)
    JOIN_ORDER = "join-order"
    #: how a partitioned retrieval was fanned out: candidate partitions
    #: after pruning, partitioning method
    SCATTER = "scatter"
    #: the join competition trusted the estimated-best order's edge
    #: estimates and ran it alone, skipping the pilot race; inputs carry
    #: the confidence score, observation count, and log-q moments (a
    #: single-table skip is its ``TACTIC_SELECTION``, ``basis="trusted"``)
    COMPETITION_SKIPPED = "competition-skipped"


# bound once: every lookup of an enum member on its class is a descriptor
# call, and these are read per retired statement
_GOAL_INFERENCE = DecisionKind.GOAL_INFERENCE
_TACTIC_SELECTION = DecisionKind.TACTIC_SELECTION
_JOIN_ORDER = DecisionKind.JOIN_ORDER


@dataclass(slots=True)
class DecisionRecord:
    """One optimizer decision: what was chosen, over what, and why.

    ``inputs`` holds the numbers the decision was computed from (estimated
    RIDs, scan costs, guaranteed best cost, ...). ``alternatives`` names the
    rejected options in the replayable strategy vocabulary of
    :attr:`repro.engine.retrieval.RetrievalRequest.force_strategy`; after a
    counterfactual replay, ``counterfactuals`` maps each replayed strategy
    to its realized cost and ``regret`` is ``max(0, chosen − best
    alternative)`` in page-I/O cost units.
    """

    kind: DecisionKind
    chosen: str
    alternatives: tuple[str, ...] = ()
    inputs: dict[str, Any] = field(default_factory=dict)
    #: which retrieval of the statement made this decision (-1 = the
    #: statement level: goal inference before the retrieval starts)
    retrieval_index: int = -1
    #: realized regret in cost units, set by counterfactual replay
    regret: float | None = None
    #: replayed strategy -> realized cost, set by counterfactual replay
    counterfactuals: dict[str, float] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (flight recorder, EXPLAIN COMPETE)."""
        out: dict[str, Any] = {
            "kind": self.kind.value,
            "chosen": self.chosen,
            "retrieval": self.retrieval_index,
        }
        if self.alternatives:
            out["alternatives"] = list(self.alternatives)
        if self.inputs:
            out["inputs"] = {
                key: value
                if isinstance(value, (str, int, float, bool, type(None), list, tuple, dict))
                else str(value)
                for key, value in self.inputs.items()
            }
        if self.regret is not None:
            out["regret"] = round(self.regret, 3)
        if self.counterfactuals is not None:
            out["counterfactuals"] = {
                strategy: round(cost, 3)
                for strategy, cost in self.counterfactuals.items()
            }
        return out

    def __str__(self) -> str:
        parts = f"{self.kind.value}: {self.chosen}"
        if self.alternatives:
            parts += f" (over {', '.join(self.alternatives)})"
        if self.regret is not None:
            parts += f" regret={self.regret:.1f}"
        return parts


@dataclass
class RetrievalAudit:
    """The decisions and outcome of one retrieval execution.

    Keeps the original :class:`~repro.engine.retrieval.RetrievalRequest` so
    :mod:`repro.obs.regret` can re-execute the retrieval with a forced
    strategy against a shadow buffer pool.
    """

    index: int
    table: str
    request: Any = None
    decisions: list[DecisionRecord] = field(default_factory=list)
    #: (index name, estimated RIDs, observed RIDs) per completed scan
    estimates: list[tuple[str, float, int]] = field(default_factory=list)
    #: whether the retrieval ran to completion (not cancelled or failed)
    complete: bool = False
    cost: float = 0.0
    io: int = 0
    rows: int = 0
    description: str = ""

    @classmethod
    def of(cls, index: int, result: Any) -> "RetrievalAudit":
        """The audit of one retrieval, read off its result's trace."""
        trace = result.trace
        events = trace.events
        audit = cls(
            index=index,
            table=trace.table,
            request=trace.request,
            decisions=[
                DecisionRecord(kind, chosen, alternatives, inputs, index)
                for kind, chosen, alternatives, inputs in trace.decisions()
            ],
            estimates=list(trace.estimates),
        )
        if events and events[-1].kind.value == "retrieval-complete":
            audit.complete = True
            audit.cost = float(result.total_cost)
            audit.io = int(result.execution_io)
            audit.rows = len(result.rows)
            audit.description = result.description
        return audit

    def tactic_selection(self) -> DecisionRecord | None:
        """The tactic-selection decision (the replayable choice point)."""
        for record in self.decisions:
            if record.kind is DecisionKind.TACTIC_SELECTION:
                return record
        return None

    def join_order_selection(self) -> DecisionRecord | None:
        """The initial join-order decision (carries every candidate as an
        alternative — the join-level replayable choice point)."""
        for record in self.decisions:
            if record.kind is DecisionKind.JOIN_ORDER:
                return record
        return None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "retrieval": self.index,
            "table": self.table,
            "complete": self.complete,
            "cost": round(self.cost, 3),
            "io": self.io,
            "rows": self.rows,
            "strategy": self.description,
            "decisions": [record.to_dict() for record in self.decisions],
        }
        if self.estimates:
            out["estimates"] = [
                {"index": name, "estimated": round(estimated, 1), "actual": actual}
                for name, estimated, actual in self.estimates
            ]
        return out


def _goal_inference(info: Any) -> DecisionRecord:
    """The statement-level decision the executor made before starting one
    retrieval: the optimization goal it runs under, and (single-table)
    whether ORDER BY and LIMIT were pushed into it."""
    request = info.result.trace.request
    inputs: dict[str, Any] = {"table": info.table}
    if getattr(request, "is_join", False):
        inputs["tables"] = len(request.plan.sources)
    elif request is not None:
        inputs["order_by"] = bool(request.order_by)
        inputs["pushed_limit"] = request.limit
    return DecisionRecord(DecisionKind.GOAL_INFERENCE, info.goal.value, inputs=inputs)


class AuditLog:
    """One statement's decision log, built from its retrievals on demand.

    :meth:`of` takes the statement's
    :class:`~repro.sql.executor.RetrievalInfo` list (each one adds the
    executor's goal inference) or bare
    :class:`~repro.engine.retrieval.RetrievalResult` objects.
    """

    def __init__(self) -> None:
        #: statement-level decisions (goal inference happens before the
        #: retrieval exists)
        self.query_decisions: list[DecisionRecord] = []
        self.retrievals: list[RetrievalAudit] = []

    @classmethod
    def of(cls, retrievals: Iterable[Any]) -> "AuditLog":
        """Read a statement's decision log off its retrievals."""
        log = cls()
        for index, retrieval in enumerate(retrievals):
            result = getattr(retrieval, "result", retrieval)
            if result is not retrieval:
                log.query_decisions.append(_goal_inference(retrieval))
            log.retrievals.append(RetrievalAudit.of(index, result))
        return log

    def records(self) -> Iterator[DecisionRecord]:
        """Every decision, statement-level first, then per retrieval."""
        yield from self.query_decisions
        for retrieval in self.retrievals:
            yield from retrieval.decisions

    def max_regret(self) -> float:
        """The largest replay-computed regret (0.0 when nothing replayed)."""
        return max(
            (record.regret for record in self.records() if record.regret is not None),
            default=0.0,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (flight recorder lines)."""
        return {
            "query_decisions": [record.to_dict() for record in self.query_decisions],
            "retrievals": [retrieval.to_dict() for retrieval in self.retrievals],
        }

    def format(self) -> str:
        """Multi-line human-readable decision log (EXPLAIN COMPETE)."""
        lines = []
        for record in self.query_decisions:
            lines.append(f"  {record}")
        for retrieval in self.retrievals:
            lines.append(
                f"  retrieval #{retrieval.index} {retrieval.table}"
                + (
                    f": {retrieval.description} "
                    f"(cost {retrieval.cost:.1f}, {retrieval.rows} rows)"
                    if retrieval.complete
                    else ": (incomplete)"
                )
            )
            for record in retrieval.decisions:
                lines.append(f"    {record}")
        return "\n".join(lines)


class DecisionMetrics:
    """Server-wide aggregation of decision quality.

    Lives on the :class:`~repro.server.MetricsRegistry`; the scheduler
    absorbs every retired statement's decisions and every EXPLAIN COMPETE
    report, and records every retired retrieval's cost — the
    :attr:`retrieval_cost_hist` is the live reproduction of the paper's
    Figure 2.1/2.2 L-shaped cost distributions from production traffic.
    """

    def __init__(self) -> None:
        #: decisions recorded, by :class:`DecisionKind`
        self.decisions: dict[DecisionKind, int] = {}
        #: tactic-selection counts by chosen strategy
        self.tactic_selected: dict[str, int] = {}
        #: replay outcomes: chosen strategy beat (or tied) an alternative
        self.tactic_wins: dict[str, int] = {}
        #: replay outcomes: an alternative beat the chosen strategy
        self.tactic_losses: dict[str, int] = {}
        #: counterfactual replays executed / truncated by the step budget
        self.replays = 0
        self.replay_truncated = 0
        #: summed replayed cost of the chosen strategies vs the best
        #: rejected alternatives (the paper's ~2x claim: ratio <= ~0.6)
        self.competition_cost = 0.0
        self.rejected_cost = 0.0
        #: realized regret per replayed decision, cost units
        self.regret_hist = LogHistogram("decision_regret_cost")
        #: observed/estimated cardinality ratio per completed scan
        self.estimate_error_hist = LogHistogram("estimate_error_ratio")
        #: symmetric q-error (max(est/actual, actual/est)) per completed
        #: scan — the estimation-quality program's headline metric
        self.qerror_hist = LogHistogram("estimate_qerror")
        #: execution cost per retired retrieval (the live L-shape)
        self.retrieval_cost_hist = LogHistogram("retrieval_cost")
        #: tables per join-order decision (2–4 with the current planner)
        self.join_depth_hist = LogHistogram("join_depth_tables")
        #: join-order switches observed mid-flight (pilot overtook the
        #: estimated best)
        self.join_order_switches = 0

    # -- recording ----------------------------------------------------------

    def observe_cost(self, cost: float) -> None:
        """Record one retired retrieval's execution cost (all queries)."""
        self.retrieval_cost_hist.record(cost)

    def absorb(self, retrievals: Sequence[Any]) -> None:
        """Fold one retired statement's decisions into the aggregates, read
        straight off its :class:`~repro.sql.executor.RetrievalInfo` list
        without building the log: a count needs no order, so each
        retrieval's goal inference, tactic selection, notes and event
        decisions are counted apart."""
        if not retrievals:
            return
        decisions = self.decisions
        decisions[_GOAL_INFERENCE] = decisions.get(_GOAL_INFERENCE, 0) + len(retrievals)
        for info in retrievals:
            trace = info.result.trace
            decision = trace.decision
            if decision is not None:
                decisions[_TACTIC_SELECTION] = decisions.get(_TACTIC_SELECTION, 0) + 1
                strategy = decision.strategy
                self.tactic_selected[strategy] = self.tactic_selected.get(strategy, 0) + 1
            for _, kind, _, _, inputs in trace.notes:
                decisions[kind] = decisions.get(kind, 0) + 1
                if kind is _JOIN_ORDER:  # the join's initial order
                    self.join_depth_hist.record(float(inputs["tables"]))
            for _, kind, _, _, _ in trace.event_decisions(inputs=False):
                decisions[kind] = decisions.get(kind, 0) + 1
                if kind is _JOIN_ORDER:  # a mid-flight switch
                    self.join_order_switches += 1
            for _, estimated, actual in trace.estimates:
                if estimated > 0:
                    self.estimate_error_hist.record(actual / estimated)
                    # the same pairs feed the q-error histogram, so its
                    # count reconciles exactly with the completed scans'
                    # estimate pairs (tested identity)
                    est = max(float(estimated), 1.0)
                    act = max(float(actual), 1.0)
                    self.qerror_hist.record(est / act if est >= act else act / est)

    def absorb_compete(self, report: Any) -> None:
        """Fold one :class:`~repro.obs.regret.CompeteReport` in: the
        replayed decisions' regret, win/loss counters per tactic and the
        competition-vs-rejected cost sums."""
        if report.audit is not None:
            for record in report.audit.records():
                if record.regret is not None:
                    self.regret_hist.record(record.regret)
        self.replays += report.replays
        self.replay_truncated += report.truncated
        for compete in report.retrievals:
            chosen = compete.chosen_outcome
            if chosen is None or chosen.failed is not None:
                continue
            for alternative in compete.alternatives:
                if alternative.failed is not None:
                    continue
                # a truncated alternative already cost more than its partial
                # total when the chosen run completed within budget
                won = chosen.cost <= alternative.cost or (
                    alternative.truncated and not chosen.truncated
                )
                bucket = self.tactic_wins if won else self.tactic_losses
                bucket[chosen.strategy] = bucket.get(chosen.strategy, 0) + 1
            best = compete.best_alternative
            if best is not None:
                self.competition_cost += chosen.cost
                self.rejected_cost += best.cost

    # -- querying -----------------------------------------------------------

    @property
    def competition_ratio(self) -> float:
        """Chosen-strategy replay cost over best-rejected replay cost
        (the paper's claim: well below 1, ~0.5 for the 2x win)."""
        if self.rejected_cost <= 0:
            return 0.0
        return self.competition_cost / self.rejected_cost

    def win_rate(self, tactic: str) -> float:
        """Fraction of replayed comparisons the tactic won (0 when never
        replayed)."""
        wins = self.tactic_wins.get(tactic, 0)
        losses = self.tactic_losses.get(tactic, 0)
        total = wins + losses
        return wins / total if total else 0.0

    def merge(self, other: "DecisionMetrics") -> None:
        """Fold another aggregate in (element-wise, like the histograms)."""
        for source, target in (
            (other.decisions, self.decisions),
            (other.tactic_selected, self.tactic_selected),
            (other.tactic_wins, self.tactic_wins),
            (other.tactic_losses, self.tactic_losses),
        ):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
        self.replays += other.replays
        self.replay_truncated += other.replay_truncated
        self.competition_cost += other.competition_cost
        self.rejected_cost += other.rejected_cost
        self.regret_hist.merge(other.regret_hist)
        self.estimate_error_hist.merge(other.estimate_error_hist)
        self.qerror_hist.merge(other.qerror_hist)
        self.retrieval_cost_hist.merge(other.retrieval_cost_hist)
        self.join_depth_hist.merge(other.join_depth_hist)
        self.join_order_switches += other.join_order_switches

    def format(self) -> str:
        """Multi-line human-readable rendering (shell ``\\decisions``)."""
        lines = ["decision metrics:"]
        if self.decisions:
            ordered = ", ".join(
                f"{kind.value}={count}" for kind, count in sorted(self.decisions.items())
            )
            lines.append(f"  decisions: {ordered}")
        else:
            lines.append("  decisions: (none recorded yet)")
        for tactic in sorted(
            set(self.tactic_selected) | set(self.tactic_wins) | set(self.tactic_losses)
        ):
            wins = self.tactic_wins.get(tactic, 0)
            losses = self.tactic_losses.get(tactic, 0)
            line = f"  tactic {tactic}: selected {self.tactic_selected.get(tactic, 0)}"
            if wins or losses:
                line += (
                    f", replay record {wins}W-{losses}L "
                    f"(win rate {self.win_rate(tactic):.0%})"
                )
            lines.append(line)
        if self.replays:
            lines.append(
                f"  replays: {self.replays} ({self.replay_truncated} truncated), "
                f"competition cost {self.competition_cost:.1f} vs rejected "
                f"{self.rejected_cost:.1f} ({self.competition_ratio:.2f}x)"
            )
        if self.regret_hist.count:
            lines.append(
                f"  regret: n={self.regret_hist.count} "
                f"mean={self.regret_hist.mean:.2f} p95={self.regret_hist.p95:.2f} "
                f"max={self.regret_hist.max:.2f}"
            )
        if self.estimate_error_hist.count:
            lines.append(
                f"  estimate error (actual/estimated): "
                f"n={self.estimate_error_hist.count} "
                f"p50={self.estimate_error_hist.p50:.2f} "
                f"p95={self.estimate_error_hist.p95:.2f}"
            )
        if self.qerror_hist.count:
            lines.append(
                f"  q-error: n={self.qerror_hist.count} "
                f"p50={self.qerror_hist.p50:.2f} "
                f"p95={self.qerror_hist.p95:.2f} "
                f"max={self.qerror_hist.max:.2f}"
            )
        if self.retrieval_cost_hist.count:
            lines.append(
                f"  retrieval cost (L-shape): n={self.retrieval_cost_hist.count} "
                f"p50={self.retrieval_cost_hist.p50:.1f} "
                f"p95={self.retrieval_cost_hist.p95:.1f} "
                f"p99={self.retrieval_cost_hist.p99:.1f} "
                f"max={self.retrieval_cost_hist.max:.1f}"
            )
        if self.join_depth_hist.count:
            lines.append(
                f"  joins: n={self.join_depth_hist.count} "
                f"depth p50={self.join_depth_hist.p50:.0f} "
                f"max={self.join_depth_hist.max:.0f}, "
                f"{self.join_order_switches} mid-flight order switch(es)"
            )
        return "\n".join(lines)
