"""Join-order competition: race candidate orders, switch mid-flight.

The paper's two-stage competition picks an *index* at runtime. This module
lifts the identical machinery one level: the candidates are left-deep join
orders (:mod:`repro.engine.join.order`), each one a resumable
:class:`~repro.engine.join.process.JoinOrderProcess`, and the Section 6
switch rule (:class:`~repro.competition.two_stage.SwitchCriterion`) decides
*between orders*. The top estimated candidates run bounded pilot stages in
round-robin; a trailing order is abandoned the moment its projected
remaining cost approaches the leader's whole projected total ("we terminate
the scan a bit before the costs are equalized"); the surviving order simply
keeps extending its own buffered prefix — rows are canonical regardless of
order, so nothing re-executes after a switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Mapping

from repro.competition.two_stage import SwitchCriterion, SwitchDecision
from repro.config import EngineConfig
from repro.engine.goals import OptimizationGoal
from repro.engine.join.order import (
    JoinOrder,
    JoinSchema,
    JoinTableHandle,
    edge_fanout,
    edge_signature,
    enumerate_orders,
)
from repro.engine.join.process import JoinOrderProcess
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.engine.retrieval import RetrievalResult
from repro.errors import RetrievalError
from repro.expr.ast import ALWAYS_TRUE
from repro.obs.audit import DecisionKind
from repro.obs.trace import Tracer
from repro.sql.plan import JoinPlan
from repro.storage.buffer_pool import CostMeter


#: how many of the best-estimated orders enter the pilot race
JOIN_PILOT_CANDIDATES = 3
#: a trailing order is abandoned when its projected total cost reaches this
#: fraction of the leader's projected total (the join-order analogue of
#: ``switch_threshold``)
JOIN_SWITCH_THRESHOLD = 0.95


@dataclass
class JoinReplayRequest:
    """The replayable record of one join retrieval.

    Kept as the ``request`` of the join's trace (and so of its audit) so
    counterfactual replay (:mod:`repro.obs.regret`) can recognize a join
    retrieval and re-run any rejected order on shadow tables via
    ``force_order``.
    """

    plan: JoinPlan
    host_vars: dict[str, Any] = field(default_factory=dict)
    goal: OptimizationGoal = OptimizationGoal.TOTAL_TIME
    #: order key the competition committed to
    chosen_order: str = ""
    #: every enumerated candidate key, best-estimate first
    candidate_orders: tuple[str, ...] = ()
    #: marks this request as a join for duck-typed detection
    is_join: bool = True


def join_display_name(plan: JoinPlan) -> str:
    """The "table" name a join retrieval audits/traces under."""
    return "⋈(" + "+".join(source.alias for source in plan.sources) + ")"


def run_join_steps(
    plan: JoinPlan,
    handles: Mapping[str, JoinTableHandle],
    host_vars: Mapping[str, Any],
    goal: OptimizationGoal,
    config: EngineConfig,
    tracer: "Tracer | None" = None,
    feedback: Any | None = None,
    estimator: Any | None = None,
    force_order: str | None = None,
) -> Generator[RetrievalResult, None, RetrievalResult]:
    """Execute a 2–4 table join as a step generator.

    Yields the live :class:`RetrievalResult` once per scheduling quantum,
    exactly like ``SingleTableRetrieval.run_steps``; closing the generator
    abandons every racing order (sunk costs stay on the result). The result
    rows are combined tuples in the plan's canonical source order with
    qualified ``alias.column`` names (see :class:`JoinSchema`).
    """
    if goal is OptimizationGoal.DEFAULT:
        goal = OptimizationGoal.TOTAL_TIME
    display = join_display_name(plan)
    request = JoinReplayRequest(plan=plan, host_vars=dict(host_vars), goal=goal)
    trace = RetrievalTrace(tracer, display, request)
    span = trace.tracer.begin(
        "retrieval",
        table=display,
        goal=goal.value,
        tables=len(plan.sources),
    )

    orders = enumerate_orders(plan, handles, host_vars, feedback)
    if not orders:
        raise RetrievalError("no connected left-deep join order exists")
    request.candidate_orders = tuple(order.key for order in orders)

    verdict = None
    if force_order is not None:
        candidates = [order for order in orders if order.key == force_order]
        if not candidates:
            raise RetrievalError(f"unknown join order {force_order!r}")
    else:
        pilot = JOIN_PILOT_CANDIDATES
        if estimator is not None and config.competition_gate:
            # the variance gate, join-order edition: the race shrinks as
            # edge-signature confidence rises — full trust runs only the
            # estimated-best order, partial confidence drops the tail
            pairs = _edge_pairs(orders[0], plan, handles)
            if pairs:
                verdict = estimator.combined_verdict(pairs)
                if verdict.trust:
                    pilot = 1
                elif verdict.score > 0.0:
                    pilot = max(1, round(pilot * (1.0 - verdict.score)))
        candidates = orders[:pilot]
        if verdict is not None:
            if verdict.trust and len(orders) > 1:
                estimator.trusted += 1
                trace.note(
                    DecisionKind.COMPETITION_SKIPPED,
                    candidates[0].key,
                    tuple(o.key for o in orders[1:]),
                    scope="join-order",
                    **verdict.inputs(),
                )
            else:
                estimator.competed += 1

    trace.note(
        DecisionKind.JOIN_ORDER,
        candidates[0].key,
        tuple(o.key for o in orders if o.key != candidates[0].key),
        tables=len(plan.sources),
        racing=len(candidates),
        estimates={o.key: round(o.estimated_cost, 3) for o in orders},
    )

    schema = JoinSchema(plan, handles)
    processes = [
        JoinOrderProcess(order, plan, handles, host_vars, config, schema)
        for order in candidates
    ]
    for process in processes:
        process.span = trace.tracer.begin(
            "join-order", order=process.order.key,
            estimated=round(process.order.estimated_cost, 3),
        )
        trace.emit(
            EventKind.SCAN_START,
            strategy=f"join-order:{process.order.key}",
            estimated_cost=round(process.order.estimated_cost, 3),
        )
        trace.counters.scans_started += 1

    criterion = SwitchCriterion(
        threshold=JOIN_SWITCH_THRESHOLD,
        scan_cost_limit_fraction=config.scan_cost_limit_fraction,
    ).with_confidence(verdict.score if verdict is not None else None)
    quantum = max(1, min(config.batch_size, config.join_pilot_steps))
    current_choice = candidates[0].key

    result = RetrievalResult(
        rows=[], rids=[], trace=trace, description="", goal=goal,
    )

    def sunk_totals() -> tuple[float, int]:
        sunk = CostMeter.merged(p.meter for p in processes)
        return sunk.total, sunk.io_total

    try:
        winner: JoinOrderProcess | None = None
        while winner is None:
            active = [p for p in processes if p.active]
            if not active:
                raise RetrievalError("all join orders abandoned")  # pragma: no cover
            for process in active:
                if not process.active:
                    continue
                _, done = process.run_batch(quantum)
                if done:
                    winner = process
                    break
            yield result
            if winner is not None:
                break
            current_choice = _apply_switch_rule(
                processes, criterion, config, trace, current_choice
            )

        # the race is over: every other still-active order is abandoned and
        # its cost stays sunk on the statement, as in the paper's model
        for process in processes:
            if process.active:
                _abandon(process, trace, reason="lost-competition")
        if winner.order.key != current_choice:
            _record_switch(
                trace, current_choice, winner.order.key, "finished-first",
                projected=None, guaranteed=winner.meter.total,
            )
    except GeneratorExit:
        for process in processes:
            if process.active:
                _abandon(process, trace, reason="consumer-stopped")
        trace.emit(EventKind.CONSUMER_STOPPED, scope="join")
        result.execution_cost, result.execution_io = sunk_totals()
        trace.tracer.end(span, cancelled=True)
        raise

    result.rows.extend(winner.rows)
    result.description = "join-competition: " + winner.order.key if (
        force_order is None and len(candidates) > 1
    ) else "join-order: " + winner.order.key
    result.execution_cost, result.execution_io = sunk_totals()
    request.chosen_order = winner.order.key

    _record_feedback(winner, plan, handles, feedback, trace, estimator)

    trace.emit(EventKind.RETRIEVAL_COMPLETE, rows=len(result.rows))
    trace.tracer.end(span, rows=len(result.rows), order=winner.order.key)
    return result


def _apply_switch_rule(
    processes: list[JoinOrderProcess],
    criterion: SwitchCriterion,
    config: EngineConfig,
    trace: RetrievalTrace,
    current_choice: str,
) -> str:
    """Abandon trailing orders; returns the (possibly new) front-runner key.

    The guaranteed best is the leader's projected total; a trailing order is
    abandoned when its projected *remaining* work alone approaches that
    total, or when its sunk cost already exceeds the direct-competition
    fraction of it — the join-order reading of the Section 6 criteria.
    """
    active = [p for p in processes if p.active]
    if len(active) < 2:
        return _front_runner_key(processes, current_choice, trace)
    pilots_done = all(p.steps_taken >= config.join_pilot_steps for p in active)
    projections = {p.order.key: p.projected_total() for p in active}
    ranked = sorted(
        (p for p in active if projections[p.order.key] is not None),
        key=lambda p: projections[p.order.key],
    )
    if not ranked:
        return current_choice
    leader = ranked[0]
    guaranteed = projections[leader.order.key]
    for process in ranked[1:]:
        if not pilots_done and process.steps_taken < config.join_pilot_steps:
            continue
        projected = projections[process.order.key]
        remaining = max(0.0, projected - process.meter.total)
        decision = criterion.evaluate(remaining, process.meter.total, guaranteed)
        if decision is SwitchDecision.CONTINUE:
            continue
        _abandon(process, trace, reason=decision.value, projected=round(projected, 3),
                 guaranteed=round(guaranteed, 3))
    return _front_runner_key(
        processes, current_choice, trace,
        projected=projections.get(current_choice), guaranteed=guaranteed,
    )


def _front_runner_key(
    processes: list[JoinOrderProcess],
    current_choice: str,
    trace: RetrievalTrace,
    projected: float | None = None,
    guaranteed: float | None = None,
) -> str:
    """If the current choice got abandoned, switch to the best survivor."""
    by_key = {p.order.key: p for p in processes}
    chosen = by_key.get(current_choice)
    if chosen is not None and chosen.active or (chosen is not None and chosen.finished):
        return current_choice
    survivors = [p for p in processes if p.active or p.finished]
    if not survivors:
        return current_choice
    best = min(
        survivors,
        key=lambda p: p.projected_total() if p.projected_total() is not None
        else p.order.estimated_cost,
    )
    _record_switch(
        trace, current_choice, best.order.key, "order-overtaken",
        projected=projected, guaranteed=guaranteed,
    )
    return best.order.key


def _record_switch(
    trace: RetrievalTrace,
    old: str,
    new: str,
    reason: str,
    projected: float | None,
    guaranteed: float | None,
) -> None:
    """One mid-flight join-order switch: a ``STRATEGY_SWITCH`` event, which
    the decision log also reads as the join's new ``JOIN_ORDER``."""
    detail: dict[str, Any] = {"from": old, "to": new, "scope": "join-order",
                              "reason": reason}
    if projected is not None:
        detail["projected"] = round(projected, 3)
    if guaranteed is not None:
        detail["guaranteed"] = round(guaranteed, 3)
    trace.emit(EventKind.STRATEGY_SWITCH, **detail)
    trace.counters.strategy_switches += 1


def _abandon(process: JoinOrderProcess, trace: RetrievalTrace, **detail: Any) -> None:
    process.abandon()
    trace.emit(
        EventKind.SCAN_ABANDONED,
        strategy=f"join-order:{process.order.key}",
        cost=round(process.meter.total, 3),
        **detail,
    )
    trace.counters.scans_abandoned += 1


def _edge_pairs(
    order: JoinOrder,
    plan: JoinPlan,
    handles: Mapping[str, JoinTableHandle],
) -> list[tuple[str, str, Any]]:
    """The estimator keys of one order's edges — the same
    (table, edge-signature, restriction) triples ``_record_feedback``
    records under, so gate consultations hit the learned entries."""
    pairs: list[tuple[str, str, Any]] = []
    for step in order.steps:
        if not step.conditions:
            continue
        condition = step.conditions[0]
        handle = handles[step.alias]
        prefix_handle = handles[condition.prefix_alias]
        signature = edge_signature(
            prefix_handle.name, condition.prefix_column,
            handle.name, condition.probe_column,
        )
        pairs.append(
            (handle.name, signature, plan.restriction_for(step.alias) or ALWAYS_TRUE)
        )
    return pairs


def _record_feedback(
    winner: JoinOrderProcess,
    plan: JoinPlan,
    handles: Mapping[str, JoinTableHandle],
    feedback: Any | None,
    trace: RetrievalTrace,
    estimator: Any | None = None,
) -> None:
    """Record realized per-edge fanouts so the next execution's estimates
    (and PREPARE/EXECUTE re-runs) start from observed cardinalities."""
    if feedback is None and estimator is None:
        return
    for position, step in enumerate(winner.order.steps):
        probes = winner.edge_probes[position]
        if probes <= 0 or not step.conditions:
            continue
        matches = winner.edge_matches[position]
        handle = handles[step.alias]
        condition = step.conditions[0]
        prefix_handle = handles[condition.prefix_alias]
        signature = edge_signature(
            prefix_handle.name, condition.prefix_column,
            handle.name, condition.probe_column,
        )
        estimated_fanout = edge_fanout(
            handle, tuple(c.probe_column for c in step.conditions)
        )
        restriction = plan.restriction_for(step.alias) or ALWAYS_TRUE
        estimated = max(1, round(estimated_fanout * probes))
        if feedback is not None:
            feedback.record(handle.name, signature, restriction, estimated, matches)
        if estimator is not None:
            # the estimator scores the *effective* per-edge projection the
            # order was ranked on (feedback-corrected step output), since
            # that is the number the shrink gate trusts
            outputs = winner.order.step_outputs
            effective = (
                outputs[position] if position < len(outputs) else float(estimated)
            )
            estimator.record(handle.name, signature, restriction, effective, matches)
        trace.estimates.append((signature, estimated, matches))


def candidate_orders(
    plan: JoinPlan,
    handles: Mapping[str, JoinTableHandle],
    host_vars: Mapping[str, Any],
    feedback: Any | None = None,
) -> list[JoinOrder]:
    """The enumerated candidates, best-estimate first (EXPLAIN rendering)."""
    return enumerate_orders(plan, handles, host_vars, feedback)
