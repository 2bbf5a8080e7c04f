"""EXPLAIN ANALYZE rendering.

Executes-then-renders: the statement ran with a live
:class:`~repro.obs.trace.Tracer`, and this module lays the recorded
timeline next to the static plan so estimate-vs-actual drift is visible
per node — estimated RIDs from the initial stage's B-tree descents against
actually delivered rows, per-strategy spans with wall time, engine steps
and cost-meter totals, strategy switches, and abandoned scans.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, runtime_checkable

from repro.engine.metrics import EventKind
from repro.obs.audit import DecisionKind
from repro.obs.trace import Span, Tracer
from repro.sql.plan import PlanNode, format_plan


@runtime_checkable
class Renderable(Protocol):
    """The one rendering protocol every explain-family report speaks.

    :class:`~repro.result.Result` (rows, DDL, plain EXPLAIN / ANALYZE /
    COMPETE), :class:`~repro.obs.regret.CompeteReport`, and the join EXPLAIN output
    all expose the same two methods: ``to_text()`` for the shell and
    ``to_dict()`` for machine consumers (JSONL sinks, tests, tooling), so
    callers can render any of them without type-switching.
    """

    def to_text(self) -> str: ...

    def to_dict(self) -> dict[str, Any]: ...


def plan_to_dict(node: PlanNode, goals: dict[int, Any] | None = None) -> dict[str, Any]:
    """Machine-readable plan tree (the structural half of ``to_dict``).

    Mirrors :func:`~repro.sql.plan.format_plan`: one dict per node with its
    ``describe()`` line, inferred goal where one applies (retrieve and join
    nodes), and recursively rendered children.
    """
    out: dict[str, Any] = {
        "node": node.node_type,
        "describe": node.describe(),
    }
    if goals is not None and node.node_type in ("retrieve", "join"):
        goal = goals.get(id(node))
        if goal is not None:
            out["goal"] = goal.value
    children = [plan_to_dict(child, goals) for child in node.children]
    if children:
        out["children"] = children
    return out


def _fmt_estimates(trace) -> str:
    """Per-index estimated RIDs from the initial stage, compactly."""
    parts = [
        f"{event.detail['index']}≈{event.detail['rids']}"
        for event in trace.of_kind(EventKind.INITIAL_ESTIMATE)
    ]
    return ", ".join(parts) if parts else "(no index estimates)"


def _fmt_decision(trace) -> str | None:
    """The retrieval's choice, read from its decision log: the strategy
    (or a join's first order), its basis and the rejected alternatives."""
    for kind, chosen, alternatives, inputs in trace.decisions():
        if kind is DecisionKind.TACTIC_SELECTION or kind is DecisionKind.JOIN_ORDER:
            basis = inputs.get("basis")
            text = chosen + (f" ({basis})" if basis else "")
            if alternatives:
                text += f" over {', '.join(alternatives)}"
            return text
    return None


def _retrieval_line(index: int, info) -> list[str]:
    """The decision and estimate-vs-actual block for one executed
    retrieval."""
    result = info.result
    counters = result.trace.counters
    lines = [
        f"retrieval #{index + 1} on {info.table} "
        f"[goal: {info.goal.value}]: {result.description}",
    ]
    decision = _fmt_decision(result.trace)
    if decision is not None:
        lines.append(f"  decision : {decision}")
    lines += [
        f"  estimated: {_fmt_estimates(result.trace)}",
        f"  actual   : {len(result.rows)} rows delivered, "
        f"{counters.records_fetched} records fetched, "
        f"{counters.fetches_rejected} fetches rejected, "
        f"{counters.index_entries_scanned} index entries scanned",
        f"  dynamics : {counters.scans_started} scans started, "
        f"{counters.scans_abandoned} abandoned, "
        f"{counters.strategy_switches} strategy switches",
        f"  cost     : {result.total_cost:.1f} "
        f"({result.estimation_cost:.1f} estimation + "
        f"{result.execution_cost:.1f} execution; "
        f"{result.execution_io} physical I/O)",
    ]
    return lines


def render_span_tree(span: Span) -> str:
    """The timeline tree with per-span timing/steps/cost annotations.

    Per-quantum scheduling spans and the admission-wait span are collapsed
    into one summary line — hundreds of identical quantum lines would bury
    the strategy timeline the report exists to show.
    """
    tree = span.format(exclude=("quantum", "admission-wait"))
    quanta = [child for child in span.children if child.name == "quantum"]
    if quanta:
        hits = sum(child.attrs.get("hits", 0) for child in quanta)
        misses = sum(child.attrs.get("misses", 0) for child in quanta)
        tree += (
            f"\n  (scheduling: {len(quanta)} quanta, "
            f"{hits} cache hits / {misses} misses attributed)"
        )
    return tree


def render_analyze(
    plan: PlanNode,
    goals: dict[int, Any],
    retrievals: Sequence[Any],
    tracer: Tracer,
    rows_returned: int,
) -> str:
    """Compose the full EXPLAIN ANALYZE report.

    ``retrievals`` is the executed statement's
    :class:`~repro.sql.executor.RetrievalInfo` list; ``tracer`` is the
    (now finished) tracer whose root holds the complete timeline.
    """
    lines: list[str] = ["-- plan ------------------------------------------------"]
    lines.append(format_plan(plan, goals))
    lines.append("")
    lines.append("-- execution -------------------------------------------")
    lines.append(f"rows returned: {rows_returned}")
    for index, info in enumerate(retrievals):
        lines.extend(_retrieval_line(index, info))
    lines.append("")
    lines.append("-- timeline --------------------------------------------")
    lines.append(render_span_tree(tracer.root))
    return "\n".join(lines)
