"""Counterfactual replay and regret accounting.

The audit log (:mod:`repro.obs.audit`) knows which strategy the optimizer
chose and which alternatives it rejected; this module re-executes both
against the *same snapshot* to turn each tactic-selection decision into
realized regret — the post-hoc decision-quality metric of Chu/Halpern/
Seshadri's least-expected-cost framing, measured instead of modelled.

Replays are isolated and budget-capped so they can never perturb or stall
production queries:

* **Shadow buffer pool** — each replay runs over shallow copies of the
  table's heap and B-trees whose ``buffer_pool`` points at a fresh
  :class:`~repro.storage.buffer_pool.BufferPool` on the same pager. The
  page images are shared read-only; the production pool's cache contents,
  LRU order, and hit/miss statistics are untouched. Jscan spills allocate
  (and on discard free) temp pages through the shared pager exactly as a
  cancelled production query would.
* **Cold-for-cold fairness** — the chosen strategy and every alternative
  replay on *identical fresh pools*, so the comparison is between plans,
  not between one plan's warm cache and another's cold one. Regret is
  therefore ``max(0, chosen_replay − best_alternative_replay)``.
* **Step budget** — ``config.replay_budget_steps`` caps each replay; a
  hopeless alternative (say, a Tscan of a huge table losing to an index
  nobody doubted) is truncated, its partial cost standing as a lower bound
  of its true cost.

The entry point is :func:`run_compete`, called by ``EXPLAIN COMPETE`` after
the statement finishes — off the scheduler's hot path, on the
caller's time.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import Any

from repro.obs.audit import AuditLog, RetrievalAudit


@dataclass
class ReplayOutcome:
    """One forced-strategy replay: realized cost on a fresh shadow pool."""

    strategy: str
    cost: float = 0.0
    io: int = 0
    rows: int = 0
    #: the replay hit the step budget; ``cost`` is a lower bound
    truncated: bool = False
    #: the strategy could not run against this arrangement (error message)
    failed: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "strategy": self.strategy,
            "cost": round(self.cost, 3),
            "io": self.io,
            "rows": self.rows,
        }
        if self.truncated:
            out["truncated"] = True
        if self.failed is not None:
            out["failed"] = self.failed
        return out

    def __str__(self) -> str:
        if self.failed is not None:
            return f"{self.strategy}: failed ({self.failed})"
        suffix = ", truncated at budget" if self.truncated else ""
        return f"{self.strategy}: cost {self.cost:.1f} ({self.io} io{suffix})"


@dataclass
class RetrievalCompete:
    """The competition verdict for one retrieval's tactic selection."""

    index: int
    table: str
    chosen: str
    chosen_outcome: ReplayOutcome | None = None
    alternatives: list[ReplayOutcome] = field(default_factory=list)
    #: the production run's realized cost (for reference; regret compares
    #: replay against replay, cold-for-cold)
    production_cost: float = 0.0

    @property
    def best_alternative(self) -> ReplayOutcome | None:
        """The cheapest successfully replayed alternative."""
        valid = [out for out in self.alternatives if out.failed is None]
        if not valid:
            return None
        return min(valid, key=lambda out: out.cost)

    @property
    def regret(self) -> float:
        """Realized regret: chosen replay cost above the best alternative
        (0.0 when the choice was right, or nothing could be compared)."""
        best = self.best_alternative
        if best is None or self.chosen_outcome is None:
            return 0.0
        if self.chosen_outcome.failed is not None:
            return 0.0
        return max(0.0, self.chosen_outcome.cost - best.cost)

    @property
    def advantage(self) -> float | None:
        """Chosen cost over best-alternative cost (< 1 means the optimizer
        won; None when nothing could be compared)."""
        best = self.best_alternative
        if best is None or self.chosen_outcome is None:
            return None
        if self.chosen_outcome.failed is not None or best.cost <= 0:
            return None
        return self.chosen_outcome.cost / best.cost

    def to_dict(self) -> dict[str, Any]:
        return {
            "retrieval": self.index,
            "table": self.table,
            "chosen": self.chosen,
            "production_cost": round(self.production_cost, 3),
            "chosen_replay": (
                self.chosen_outcome.to_dict() if self.chosen_outcome else None
            ),
            "alternatives": [out.to_dict() for out in self.alternatives],
            "regret": round(self.regret, 3),
        }


@dataclass
class CompeteReport:
    """Everything ``EXPLAIN COMPETE`` learned about one statement."""

    retrievals: list[RetrievalCompete] = field(default_factory=list)
    replays: int = 0
    truncated: int = 0
    #: the statement's decision log (per-decision regret included)
    audit: AuditLog | None = None

    @property
    def total_regret(self) -> float:
        """Summed realized regret across the statement's retrievals."""
        return sum(compete.regret for compete in self.retrievals)

    @property
    def competition_cost(self) -> float:
        """Summed chosen-strategy replay cost (compared retrievals only)."""
        return sum(
            compete.chosen_outcome.cost
            for compete in self.retrievals
            if compete.chosen_outcome is not None
            and compete.chosen_outcome.failed is None
            and compete.best_alternative is not None
        )

    @property
    def rejected_cost(self) -> float:
        """Summed best-rejected-alternative replay cost."""
        return sum(
            compete.best_alternative.cost
            for compete in self.retrievals
            if compete.chosen_outcome is not None
            and compete.chosen_outcome.failed is None
            and compete.best_alternative is not None
        )

    @property
    def advantage(self) -> float | None:
        """Aggregate chosen/rejected cost ratio (the paper's ~2x claim
        shows up as a ratio well below 1)."""
        rejected = self.rejected_cost
        if rejected <= 0:
            return None
        return self.competition_cost / rejected

    def to_dict(self) -> dict[str, Any]:
        return {
            "retrievals": [compete.to_dict() for compete in self.retrievals],
            "replays": self.replays,
            "truncated": self.truncated,
            "total_regret": round(self.total_regret, 3),
            "decisions": self.audit.to_dict() if self.audit is not None else None,
        }

    def format(self) -> str:
        """The COMPETE section of the EXPLAIN output."""
        lines = [
            f"Competition: {len(self.retrievals)} retrieval(s), "
            f"{self.replays} counterfactual replay(s)"
            + (f" ({self.truncated} truncated)" if self.truncated else "")
        ]
        for compete in self.retrievals:
            lines.append(
                f"  retrieval #{compete.index} {compete.table}: "
                f"chose {compete.chosen} "
                f"(production cost {compete.production_cost:.1f})"
            )
            if compete.chosen_outcome is not None:
                lines.append(f"    replayed {compete.chosen_outcome}")
            for out in compete.alternatives:
                lines.append(f"    rejected {out}")
            advantage = compete.advantage
            if advantage is not None:
                lines.append(
                    f"    regret {compete.regret:.1f}, "
                    f"chosen/rejected = {advantage:.2f}x"
                )
        advantage = self.advantage
        if advantage is not None:
            lines.append(
                f"  total: competition cost {self.competition_cost:.1f} vs "
                f"rejected {self.rejected_cost:.1f} ({advantage:.2f}x), "
                f"total regret {self.total_regret:.1f}"
            )
        if self.audit is not None:
            lines.append("Decisions:")
            lines.append(self.audit.format())
        return "\n".join(lines)

    def to_text(self) -> str:
        """Renderer-protocol alias of :meth:`format`
        (see :class:`repro.obs.explain.Renderable`)."""
        return self.format()

    def __str__(self) -> str:
        return self.format()


# -- shadow execution --------------------------------------------------------


def _shadow_engine(db: Any, table: Any) -> Any:
    """A retrieval engine over shadow copies of the table's structures.

    The heap and each index B-tree are shallow-copied with their
    ``buffer_pool`` repointed at a fresh pool on the shared pager: page
    *images* are shared (read-only during replay), cache *state* is not.
    """
    from repro.engine.retrieval import SingleTableRetrieval
    from repro.storage.buffer_pool import BufferPool

    pool = BufferPool(
        db.pager,
        capacity=db.buffer_pool.capacity,
        read_ahead_window=db.buffer_pool.read_ahead_window,
    )
    heap = copy.copy(table.heap)
    heap.buffer_pool = pool
    indexes = []
    for info in table.indexes.values():
        btree = copy.copy(info.btree)
        btree.buffer_pool = pool
        indexes.append(dataclass_replace(info, btree=btree))
    return SingleTableRetrieval(heap, table.schema, indexes, pool, db.config)


def replay_strategy(
    db: Any, table: Any, request: Any, strategy: str, budget_steps: int
) -> ReplayOutcome:
    """Re-execute one retrieval with a forced strategy on a fresh shadow
    pool, capped at ``budget_steps`` engine steps."""
    engine = _shadow_engine(db, table)
    replay_request = dataclass_replace(
        request,
        force_strategy=strategy,
        # replays measure the plan, not the adaptive machinery: no feedback
        # recording, and predicates compile locally (the plan's predicate
        # cache belongs to the production execution)
        feedback=None,
        predicate_cache=None,
    )
    outcome = ReplayOutcome(strategy=strategy)
    batch = max(1, db.config.batch_size)
    budget_quanta = max(1, math.ceil(budget_steps / batch)) if budget_steps > 0 else None
    generator = engine.run_steps(replay_request)
    result = None
    quanta = 0
    try:
        while True:
            try:
                result = next(generator)
            except StopIteration as stop:
                result = stop.value
                break
            quanta += 1
            if budget_quanta is not None and quanta >= budget_quanta:
                # closing the generator abandons the replay's scans —
                # spilled temp pages are freed — and folds the partial
                # process costs into the live result
                outcome.truncated = True
                generator.close()
                break
    except Exception as error:  # noqa: BLE001 - a failed replay is a data point
        outcome.failed = f"{type(error).__name__}: {error}"
        return outcome
    if result is not None:
        outcome.cost = result.total_cost
        outcome.io = result.execution_io
        outcome.rows = len(result.rows)
    return outcome


def _shadow_join_handles(db: Any, plan: Any) -> dict[str, Any]:
    """Join-table handles over shadow copies sharing ONE fresh buffer pool.

    A join's tables compete for the same cache in production, so the replay
    shares a single shadow pool across all of them — same capacity, same
    pager, cold state.
    """
    from repro.engine.join import JoinTableHandle
    from repro.storage.buffer_pool import BufferPool

    pool = BufferPool(
        db.pager,
        capacity=db.buffer_pool.capacity,
        read_ahead_window=db.buffer_pool.read_ahead_window,
    )
    handles: dict[str, Any] = {}
    for source in plan.sources:
        table = db.table(source.table)
        heap = copy.copy(table.heap)
        heap.buffer_pool = pool
        indexes = {}
        for info in table.indexes.values():
            btree = copy.copy(info.btree)
            btree.buffer_pool = pool
            indexes[info.name] = dataclass_replace(info, btree=btree)
        handles[source.alias] = JoinTableHandle(
            name=table.name,
            heap=heap,
            schema=table.schema,
            indexes=indexes,
            buffer_pool=pool,
            stats=table.stats,
        )
    return handles


def replay_join_order(
    db: Any, request: Any, order_key: str, budget_steps: int
) -> ReplayOutcome:
    """Re-execute one join with a forced order on a fresh shadow pool."""
    from repro.engine.join import run_join_steps

    outcome = ReplayOutcome(strategy=order_key)
    handles = _shadow_join_handles(db, request.plan)
    batch = max(1, db.config.batch_size)
    budget_quanta = max(1, math.ceil(budget_steps / batch)) if budget_steps > 0 else None
    generator = run_join_steps(
        request.plan,
        handles,
        request.host_vars,
        request.goal,
        db.config,
        force_order=order_key,
    )
    result = None
    quanta = 0
    try:
        while True:
            try:
                result = next(generator)
            except StopIteration as stop:
                result = stop.value
                break
            quanta += 1
            if budget_quanta is not None and quanta >= budget_quanta:
                outcome.truncated = True
                generator.close()
                break
    except Exception as error:  # noqa: BLE001 - a failed replay is a data point
        outcome.failed = f"{type(error).__name__}: {error}"
        return outcome
    if result is not None:
        outcome.cost = result.total_cost
        outcome.io = result.execution_io
        outcome.rows = len(result.rows)
    return outcome


def run_compete(
    db: Any, audit: AuditLog, budget_steps: int | None = None
) -> CompeteReport:
    """Replay every rejected alternative in a statement's decision log.

    For each retrieval whose tactic selection recorded alternatives, the
    chosen strategy and each alternative are replayed cold-for-cold; the
    decision records are annotated in place (``regret``,
    ``counterfactuals``) and the aggregate report is returned. Join
    retrievals replay at the join-order level: the committed order and
    every rejected candidate order run on shadow tables sharing one fresh
    pool, yielding per-order realized regret.
    """
    if budget_steps is None:
        budget_steps = db.config.replay_budget_steps
    report = CompeteReport(audit=audit)
    for retrieval in audit.retrievals:
        if getattr(retrieval.request, "is_join", False):
            report.retrievals.append(
                _compete_join(db, retrieval, budget_steps, report)
            )
        else:
            report.retrievals.append(
                _compete_retrieval(db, retrieval, budget_steps, report)
            )
    return report


def _compete_join(
    db: Any, retrieval: RetrievalAudit, budget_steps: int, report: CompeteReport
) -> RetrievalCompete:
    """Join-order counterfactuals: replay the committed order and every
    rejected candidate order, cold-for-cold."""
    selection = retrieval.join_order_selection()
    request = retrieval.request
    chosen = request.chosen_order or (
        selection.chosen if selection is not None else ""
    )
    compete = RetrievalCompete(
        index=retrieval.index,
        table=retrieval.table,
        chosen=chosen,
        production_cost=retrieval.cost,
    )
    if selection is None or not chosen:
        return compete
    alternatives = [key for key in request.candidate_orders if key != chosen]
    if not alternatives:
        return compete
    compete.chosen_outcome = replay_join_order(db, request, chosen, budget_steps)
    report.replays += 1
    report.truncated += int(compete.chosen_outcome.truncated)
    for alternative in alternatives:
        outcome = replay_join_order(db, request, alternative, budget_steps)
        compete.alternatives.append(outcome)
        report.replays += 1
        report.truncated += int(outcome.truncated)
    selection.counterfactuals = {
        out.strategy: out.cost
        for out in [compete.chosen_outcome, *compete.alternatives]
        if out.failed is None
    }
    selection.regret = compete.regret
    return compete


def _compete_retrieval(
    db: Any, retrieval: RetrievalAudit, budget_steps: int, report: CompeteReport
) -> RetrievalCompete:
    selection = retrieval.tactic_selection()
    chosen = selection.chosen if selection is not None else retrieval.description
    compete = RetrievalCompete(
        index=retrieval.index,
        table=retrieval.table,
        chosen=chosen,
        production_cost=retrieval.cost,
    )
    if selection is None or retrieval.request is None:
        return compete
    alternatives = [alt for alt in selection.alternatives if alt != selection.chosen]
    if not alternatives:
        return compete
    table = db.table(retrieval.table)
    compete.chosen_outcome = replay_strategy(
        db, table, retrieval.request, selection.chosen, budget_steps
    )
    report.replays += 1
    report.truncated += int(compete.chosen_outcome.truncated)
    for alternative in alternatives:
        outcome = replay_strategy(
            db, table, retrieval.request, alternative, budget_steps
        )
        compete.alternatives.append(outcome)
        report.replays += 1
        report.truncated += int(outcome.truncated)
    selection.counterfactuals = {
        out.strategy: out.cost
        for out in [compete.chosen_outcome, *compete.alternatives]
        if out.failed is None
    }
    selection.regret = compete.regret
    return compete
