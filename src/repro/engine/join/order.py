"""Join-order enumeration and cost estimation.

The competition model of the paper optimizes one decision — index choice —
at runtime. This module prepares the inputs for lifting that model one
level up: every *left-deep* order of a 2–4 table inner equi-join becomes a
candidate, each probe edge annotated with a tactic (index nested loop when
a usable index exists, build-side hash join otherwise or when cheaper), and
each candidate carries a cost estimate built from page counts, NDV-based
fanouts, and histogram selectivities. The estimates only have to *rank*
candidates — the pilot race and switch rule correct them at runtime, and
recorded per-edge feedback (:mod:`repro.cache.feedback`) sharpens the next
execution's estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Any, Mapping

from repro.db.catalog import IndexInfo, TableSchema, TableStats
from repro.expr import ast
from repro.expr.ast import ALWAYS_TRUE, Expr
from repro.sql.plan import JoinEdge, JoinPlan
from repro.storage.buffer_pool import ENTRY_CPU_COST, RECORD_CPU_COST, BufferPool
from repro.storage.heap import HeapFile

#: upper bound on enumerated left-deep join orders per query; orders are
#: ranked by estimated cost and the tail is dropped
JOIN_MAX_ORDERS = 8

#: default selectivity guess for a local restriction on an unanalyzed table
DEFAULT_LOCAL_SELECTIVITY = 0.3
#: B-tree descent I/O charged per index-nested-loop probe (estimate only)
PROBE_DESCENT_IO = 2.0
#: fraction of fanout fetches expected to miss the cache (estimate only)
PROBE_FETCH_MISS = 0.8


@dataclass
class JoinTableHandle:
    """Everything the join engine needs from one table (or its shadow).

    Decoupled from :class:`repro.db.table.Table` so counterfactual replay
    can rebuild handles over shadow buffer pools without touching the
    catalog.
    """

    name: str
    heap: HeapFile
    schema: TableSchema
    indexes: dict[str, IndexInfo]
    buffer_pool: BufferPool
    stats: TableStats | None = None

    @property
    def row_count(self) -> int:
        return self.heap.row_count

    @property
    def page_count(self) -> int:
        return self.heap.page_count


class JoinSchema:
    """The combined-row schema of a join: qualified ``alias.column`` names.

    Rows are concatenations of the source tables' rows **in the plan's
    source order** regardless of which join order produced them — the
    canonical layout that makes every candidate order return literally
    comparable rows.
    """

    def __init__(self, plan: JoinPlan, handles: Mapping[str, JoinTableHandle]) -> None:
        names: list[str] = []
        self.offsets: dict[str, int] = {}
        for source in plan.sources:
            schema = handles[source.alias].schema
            self.offsets[source.alias] = len(names)
            names.extend(f"{source.alias}.{column}" for column in schema.names)
        self.names: tuple[str, ...] = tuple(names)
        self.position: dict[str, int] = {name: i for i, name in enumerate(names)}

    def __contains__(self, name: str) -> bool:
        return name in self.position

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        from repro.errors import CatalogError

        try:
            return self.position[name]
        except KeyError:
            raise CatalogError(f"unknown column {name!r}") from None


@dataclass(frozen=True)
class ProbeCondition:
    """One equi-join condition binding a prefix column to a probe column."""

    prefix_alias: str
    prefix_column: str
    probe_column: str


@dataclass(frozen=True)
class JoinStep:
    """One probe step of a left-deep order: join ``alias`` to the prefix."""

    alias: str
    table: str
    conditions: tuple[ProbeCondition, ...]
    tactic: str  # "index" | "hash"
    index_name: str | None = None
    #: leading index columns served by equi-join conditions (index tactic)
    index_prefix_len: int = 0

    def describe(self) -> str:
        via = f"ix:{self.index_name}" if self.tactic == "index" else "hash"
        return f"{self.alias}[{via}]"


@dataclass
class JoinOrder:
    """One candidate execution order (driving table first)."""

    key: str
    aliases: tuple[str, ...]
    steps: tuple[JoinStep, ...]
    estimated_cost: float = 0.0
    estimated_rows: float = 0.0
    #: per-step estimated output cardinalities (drives feedback recording)
    step_outputs: tuple[float, ...] = ()

    def describe(self) -> str:
        return self.key


def edge_signature(left_table: str, left_column: str, right_table: str, right_column: str) -> str:
    """Feedback key for one join edge, symmetric in its two sides and
    independent of aliases, so every query joining the same columns shares
    learned fanouts."""
    sides = sorted([(left_table, left_column), (right_table, right_column)])
    return "join:" + "=".join(f"{t}.{c}" for t, c in sides)


def literal_value(term: object, host_vars: Mapping[str, Any]) -> Any | None:
    if isinstance(term, ast.Literal):
        return term.value
    if isinstance(term, ast.HostVar):
        return host_vars.get(term.name)
    return None


def local_selectivity(
    handle: JoinTableHandle, expr: Expr | None, host_vars: Mapping[str, Any]
) -> float:
    """Estimated fraction of ``handle``'s rows passing ``expr``.

    Histogram/NDV-based when the table was analyzed; a flat default guess
    otherwise — deliberately coarse, because the race corrects it.
    """
    if expr is None or expr is ALWAYS_TRUE:
        return 1.0
    stats = handle.stats
    if isinstance(expr, ast.And):
        sel = 1.0
        for child in expr.children:
            sel *= local_selectivity(handle, child, host_vars)
        return sel
    if stats is not None:
        if (
            isinstance(expr, ast.Comparison)
            and expr.op == "="
            and isinstance(expr.left, ast.ColumnRef)
        ):
            column = stats.columns.get(expr.left.name)
            if column is not None:
                return column.eq_selectivity
        if isinstance(expr, ast.Between):
            column = stats.columns.get(expr.column.name)
            lo = literal_value(expr.lo, host_vars)
            hi = literal_value(expr.hi, host_vars)
            if column is not None and lo is not None and hi is not None:
                return column.histogram.selectivity_range(lo, hi)
        if (
            isinstance(expr, ast.Comparison)
            and expr.op in ("<", "<=", ">", ">=")
            and isinstance(expr.left, ast.ColumnRef)
        ):
            column = stats.columns.get(expr.left.name)
            bound = literal_value(expr.right, host_vars)
            if column is not None and bound is not None:
                if expr.op in ("<", "<="):
                    return column.histogram.selectivity_range(None, bound)
                return column.histogram.selectivity_range(bound, None)
    return DEFAULT_LOCAL_SELECTIVITY


def edge_fanout(handle: JoinTableHandle, probe_columns: tuple[str, ...]) -> float:
    """Expected matches in ``handle`` per probe key (NDV-based)."""
    rows = max(1, handle.row_count)
    distinct = 1.0
    if handle.stats is not None:
        for column in probe_columns:
            stats = handle.stats.columns.get(column)
            if stats is not None and stats.distinct:
                distinct *= stats.distinct
        distinct = min(distinct, rows)
        return rows / max(distinct, 1.0)
    # unanalyzed: assume a key-ish join (the race corrects bad guesses)
    return 1.0


def _conditions_for(
    prefix: tuple[str, ...], alias: str, edges: tuple[JoinEdge, ...]
) -> tuple[ProbeCondition, ...]:
    conditions = []
    for edge in edges:
        if edge.right_alias == alias and edge.left_alias in prefix:
            conditions.append(
                ProbeCondition(edge.left_alias, edge.left_column, edge.right_column)
            )
        elif edge.left_alias == alias and edge.right_alias in prefix:
            conditions.append(
                ProbeCondition(edge.right_alias, edge.right_column, edge.left_column)
            )
    return tuple(conditions)


def _pick_index(
    handle: JoinTableHandle, probe_columns: tuple[str, ...]
) -> tuple[str | None, int]:
    """Best index for probing on ``probe_columns``: the one whose leading
    columns cover the most equi-join conditions. Returns (name, prefix_len)."""
    best_name, best_len = None, 0
    wanted = set(probe_columns)
    for info in handle.indexes.values():
        length = 0
        for column in info.columns:
            if column in wanted:
                length += 1
            else:
                break
        if length > best_len:
            best_name, best_len = info.name, length
    return best_name, best_len


def _step_for(
    handle: JoinTableHandle,
    alias: str,
    conditions: tuple[ProbeCondition, ...],
    tactic: str,
) -> JoinStep:
    probe_columns = tuple(c.probe_column for c in conditions)
    if tactic == "index":
        index_name, prefix_len = _pick_index(handle, probe_columns)
        return JoinStep(
            alias=alias,
            table=handle.name,
            conditions=conditions,
            tactic="index",
            index_name=index_name,
            index_prefix_len=prefix_len,
        )
    return JoinStep(alias=alias, table=handle.name, conditions=conditions, tactic="hash")


def estimate_order(
    order: JoinOrder,
    plan: JoinPlan,
    handles: Mapping[str, JoinTableHandle],
    host_vars: Mapping[str, Any],
    feedback: Any | None = None,
) -> JoinOrder:
    """Fill in ``estimated_cost`` / ``estimated_rows`` for one candidate."""
    driving = handles[order.aliases[0]]
    cost = float(driving.page_count)
    cost += driving.row_count * RECORD_CPU_COST
    flowing = driving.row_count * local_selectivity(
        driving, plan.restriction_for(order.aliases[0]), host_vars
    )
    outputs: list[float] = []
    for step in order.steps:
        handle = handles[step.alias]
        restriction = plan.restriction_for(step.alias)
        sel = local_selectivity(handle, restriction, host_vars)
        fanout = edge_fanout(handle, tuple(c.probe_column for c in step.conditions))
        if step.tactic == "hash":
            # build: one full scan of the probe side, then O(1) probes
            cost += handle.page_count + handle.row_count * RECORD_CPU_COST
            cost += flowing * RECORD_CPU_COST
        else:
            # index nested loop: a descent plus fanout fetches per probe
            cost += flowing * (
                PROBE_DESCENT_IO + fanout * PROBE_FETCH_MISS + ENTRY_CPU_COST
            )
        output = flowing * fanout * sel
        if feedback is not None and step.conditions:
            condition = step.conditions[0]
            prefix_handle = handles[condition.prefix_alias]
            signature = edge_signature(
                prefix_handle.name, condition.prefix_column,
                handle.name, condition.probe_column,
            )
            adjusted = feedback.adjust(
                handle.name, signature, restriction or ALWAYS_TRUE,
                max(1, round(output)),
            )
            if adjusted is not None:
                output = float(adjusted)
        outputs.append(output)
        cost += output * RECORD_CPU_COST
        flowing = output
    order.estimated_cost = cost
    order.estimated_rows = flowing
    order.step_outputs = tuple(outputs)
    return order


def enumerate_orders(
    plan: JoinPlan,
    handles: Mapping[str, JoinTableHandle],
    host_vars: Mapping[str, Any],
    feedback: Any | None = None,
) -> list[JoinOrder]:
    """All connected left-deep orders (≤ ``JOIN_MAX_ORDERS``, best first).

    For every left-deep permutation whose each next table connects to the
    prefix through at least one edge, two tactic variants are considered:
    index-where-available and all-hash. Candidates are ranked by estimated
    cost; the tail beyond ``JOIN_MAX_ORDERS`` is dropped (they can never
    enter the pilot race anyway).
    """
    aliases = tuple(source.alias for source in plan.sources)
    candidates: dict[str, JoinOrder] = {}
    for perm in permutations(aliases):
        steps_variants: list[list[JoinStep]] = [[], []]  # [greedy-index, all-hash]
        connected = True
        for position in range(1, len(perm)):
            prefix = perm[:position]
            alias = perm[position]
            conditions = _conditions_for(prefix, alias, plan.edges)
            if not conditions:
                connected = False
                break
            handle = handles[alias]
            index_step = _step_for(handle, alias, conditions, "index")
            if index_step.index_name is None:
                index_step = _step_for(handle, alias, conditions, "hash")
            steps_variants[0].append(index_step)
            steps_variants[1].append(_step_for(handle, alias, conditions, "hash"))
        if not connected:
            continue
        for steps in steps_variants:
            key = "→".join([perm[0]] + [step.describe() for step in steps])
            if key in candidates:
                continue
            order = JoinOrder(key=key, aliases=perm, steps=tuple(steps))
            estimate_order(order, plan, handles, host_vars, feedback)
            candidates[key] = order
    ranked = sorted(candidates.values(), key=lambda order: order.estimated_cost)
    return ranked[:JOIN_MAX_ORDERS]
