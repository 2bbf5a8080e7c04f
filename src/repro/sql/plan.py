"""Logical plan nodes.

Node types are the vocabulary of the Section 4 goal-inference rules:
``exists`` and ``limit`` request fast-first for the retrievals they
control; ``sort``, ``distinct``, and ``aggregate`` request total-time. The
tree satisfies :class:`repro.engine.goals.PlanNodeLike`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.expr.ast import ColumnRef, Expr


@dataclass
class PlanNode:
    """Base class: a typed node with ordered children."""

    node_type: str = field(init=False, default="plan")
    children: tuple["PlanNode", ...] = ()

    def describe(self) -> str:
        """One-line description used by EXPLAIN output."""
        return self.node_type


@dataclass
class Retrieve(PlanNode):
    """A single-table retrieval (the unit the dynamic optimizer optimizes)."""

    table: str = ""
    restriction: Expr | None = None
    #: column names the query reads from this table (None = all)
    output_columns: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.node_type = "retrieve"

    def describe(self) -> str:
        return f"retrieve {self.table}"


@dataclass
class Sort(PlanNode):
    """ORDER BY."""

    keys: tuple[str, ...] = ()
    descending: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        self.node_type = "sort"

    def describe(self) -> str:
        rendered = ", ".join(
            f"{key}{' desc' if desc else ''}"
            for key, desc in zip(self.keys, self.descending)
        )
        return f"sort by {rendered}"


@dataclass
class Distinct(PlanNode):
    """SELECT DISTINCT (implemented by sorting — hence a total-time controller)."""

    def __post_init__(self) -> None:
        self.node_type = "distinct"


@dataclass
class Limit(PlanNode):
    """LIMIT TO n ROWS."""

    count: int = 0

    def __post_init__(self) -> None:
        self.node_type = "limit"

    def describe(self) -> str:
        return f"limit to {self.count} rows"


@dataclass
class Exists(PlanNode):
    """EXISTS (subquery) — wraps the subquery plan in the tree so the
    fast-first rule sees it controlling the subquery's retrievals."""

    def __post_init__(self) -> None:
        self.node_type = "exists"


@dataclass
class AggregateItem:
    """One aggregate in the select list."""

    function: str  # count | sum | avg | min | max
    argument: str | None  # column name; None for count(*)
    alias: str


@dataclass
class Aggregate(PlanNode):
    """Aggregation over the child's rows."""

    items: tuple[AggregateItem, ...] = ()

    def __post_init__(self) -> None:
        self.node_type = "aggregate"

    def describe(self) -> str:
        rendered = ", ".join(
            f"{item.function}({item.argument or '*'})" for item in self.items
        )
        return f"aggregate {rendered}"


@dataclass
class Project(PlanNode):
    """Final projection to the select-list columns."""

    columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.node_type = "project"

    def describe(self) -> str:
        return f"project {', '.join(self.columns) or '*'}"


@dataclass(frozen=True)
class JoinSource:
    """One table (with alias) participating in a join."""

    table: str
    alias: str


@dataclass(frozen=True)
class JoinEdge:
    """An inner equi-join edge ``left.column = right.column``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def touches(self, alias: str) -> bool:
        return alias in (self.left_alias, self.right_alias)

    def describe(self) -> str:
        return (
            f"{self.left_alias}.{self.left_column}"
            f" = {self.right_alias}.{self.right_column}"
        )


@dataclass
class JoinPlan(PlanNode):
    """A 2–4 table inner equi-join.

    The join replaces :class:`Retrieve` at the bottom of the plan chain.
    The join *order* is deliberately absent: order selection is a runtime
    decision made by the join competition (paper Figure 4 lifted one level
    up, from index choice to join order).

    ``restrictions`` carries the single-alias WHERE conjuncts, rewritten to
    bare column names so the single-table engine machinery can consume them
    unchanged; ``edges`` carries the cross-alias equality conjuncts (both
    ON and WHERE contribute).
    """

    sources: tuple[JoinSource, ...] = ()
    edges: tuple[JoinEdge, ...] = ()
    #: per-alias local restrictions: (alias, expr with bare column names)
    restrictions: tuple[tuple[str, Expr], ...] = ()
    #: qualified "alias.column" names the query reads (None = all)
    output_columns: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.node_type = "join"

    def restriction_for(self, alias: str) -> Expr | None:
        for name, expr in self.restrictions:
            if name == alias:
                return expr
        return None

    def describe(self) -> str:
        tables = ", ".join(
            source.table if source.table == source.alias else f"{source.table} {source.alias}"
            for source in self.sources
        )
        edges = " and ".join(edge.describe() for edge in self.edges)
        return f"join [{tables}] on {edges}"


# -- subquery placeholders inside WHERE expressions ----------------------------


@dataclass(frozen=True)
class InSubquery(Expr):
    """``column IN (subquery)`` — resolved by the executor before retrieval."""

    column: ColumnRef
    plan: PlanNode


@dataclass(frozen=True)
class ExistsSubquery(Expr):
    """``EXISTS (subquery)`` — resolved to TRUE/FALSE by the executor."""

    plan: PlanNode


def walk(node: PlanNode):
    """Depth-first iteration over a plan tree."""
    yield node
    for child in node.children:
        yield from walk(child)


def format_plan(node: PlanNode, goals: dict[int, Any] | None = None, indent: int = 0) -> str:
    """Pretty-print a plan tree, annotating retrieves with inferred goals."""
    line = "  " * indent + node.describe()
    if goals is not None and node.node_type in ("retrieve", "join"):
        goal = goals.get(id(node))
        if goal is not None:
            line += f"   [goal: {goal.value}]"
    lines = [line]
    for child in node.children:
        lines.append(format_plan(child, goals, indent + 1))
    return "\n".join(lines)
