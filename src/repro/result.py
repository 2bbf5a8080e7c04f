"""The statement result: one shape for every call path.

``Connection.execute``/``submit().wait()``/``explain``, session and
prepared-statement executions, ``QueryHandle.result`` and the SQL
executor's step generators all hand back the same :class:`Result` —
``rows``, ``columns``, ``rowcount``, ``plan``, ``metrics`` and
``retrievals`` uniformly, with ``kind`` distinguishing the statement
family for callers that still care.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class ResultMetrics:
    """Execution figures, populated uniformly across statement kinds.

    For DDL/DML only ``rows_affected`` is meaningful; for EXPLAIN without
    ANALYZE everything is zero (nothing executed).
    """

    total_io: int = 0
    total_cost: float = 0.0
    retrieval_count: int = 0
    rows_affected: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_io": self.total_io,
            "total_cost": self.total_cost,
            "retrieval_count": self.retrieval_count,
            "rows_affected": self.rows_affected,
        }


class Result:
    """What every statement returns.

    Uniform surface::

        result.rows        # list[tuple] — empty for DDL / plain EXPLAIN
        result.columns     # tuple[str, ...]
        result.rowcount    # len(rows), or rows_affected for DDL/DML
        result.plan        # PlanNode | None (bound logical plan)
        result.metrics     # ResultMetrics (io / cost / retrievals)
        result.retrievals  # list[RetrievalInfo], one per executed retrieval
        result.goals       # inferred goals keyed by plan node id

    plus ``kind`` (``"rows"`` | ``"ddl"`` | ``"explain"``), ``text`` (the
    rendered report for EXPLAIN, the status message for DDL) and
    ``compete`` (the :class:`~repro.obs.regret.CompeteReport` for EXPLAIN
    COMPETE).

    ``retrievals`` is the very list the scheduler's ``QueryHandle`` fills
    while the statement runs. ``metrics`` is summed from it on first read.

    ``Result`` is iterable over its rows and speaks the
    :class:`~repro.obs.explain.Renderable` protocol (``to_text`` /
    ``to_dict``) like every other report in the system.
    """

    __slots__ = ("kind", "columns", "rows", "plan", "text", "compete",
                 "retrievals", "goals", "rows_affected", "_metrics")

    def __init__(
        self,
        kind: str,
        columns: tuple[str, ...] = (),
        rows: list[tuple] | None = None,
        plan: Any | None = None,
        text: str = "",
        compete: Any | None = None,
        retrievals: list | None = None,
        goals: dict | None = None,
        rows_affected: int = 0,
    ) -> None:
        if kind not in ("rows", "ddl", "explain"):
            raise ValueError(f"unknown result kind {kind!r}")
        self.kind = kind
        self.columns = tuple(columns)
        self.rows = rows if rows is not None else []
        self.plan = plan
        self.text = text
        self.compete = compete
        self.retrievals = retrievals if retrievals is not None else []
        self.goals = goals if goals is not None else {}
        self.rows_affected = rows_affected
        self._metrics: ResultMetrics | None = None

    # -- the uniform surface -------------------------------------------------

    @property
    def metrics(self) -> ResultMetrics:
        """Execution figures, summed over ``retrievals`` on first read."""
        metrics = self._metrics
        if metrics is None:
            metrics = self._metrics = ResultMetrics(
                total_io=sum(info.result.execution_io for info in self.retrievals),
                total_cost=sum(info.result.total_cost for info in self.retrievals),
                retrieval_count=len(self.retrievals),
                rows_affected=self.rows_affected,
            )
        return metrics

    @property
    def total_io(self) -> int:
        """Physical I/O across all retrievals of the statement."""
        return self.metrics.total_io

    @property
    def total_cost(self) -> float:
        """Total cost (I/O + CPU fractions) across all retrievals."""
        return self.metrics.total_cost

    @property
    def rowcount(self) -> int:
        """Rows delivered, or rows affected for DDL/DML."""
        if self.kind == "ddl":
            return self.rows_affected
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self.rowcount

    def __bool__(self) -> bool:  # len()==0 must not read as failure
        return True

    def __repr__(self) -> str:
        return (
            f"Result(kind={self.kind!r}, rowcount={self.rowcount}, "
            f"io={self.metrics.total_io}, cost={self.metrics.total_cost:.1f})"
        )

    def __str__(self) -> str:
        return self.text if self.text else repr(self)

    # -- the obs.explain.Renderable protocol --------------------------------

    def to_text(self) -> str:
        """Human-readable rendering: the report text for EXPLAIN/DDL, a
        simple aligned table for rows."""
        if self.text:
            return self.text
        if not self.columns:
            return repr(self)
        widths = [
            max(len(str(column)),
                *(len(str(row[i])) for row in self.rows)) if self.rows
            else len(str(column))
            for i, column in enumerate(self.columns)
        ]
        header = "  ".join(
            str(column).ljust(widths[i]) for i, column in enumerate(self.columns)
        )
        rule = "  ".join("-" * width for width in widths)
        body = [
            "  ".join(str(value).ljust(widths[i]) for i, value in enumerate(row))
            for row in self.rows
        ]
        return "\n".join([header, rule, *body, f"({self.rowcount} rows)"])

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable rendering: kind, rows, metrics, plan tree."""
        out: dict[str, Any] = {
            "kind": self.kind,
            "columns": list(self.columns),
            "rowcount": self.rowcount,
            "metrics": self.metrics.to_dict(),
        }
        if self.rows:
            out["rows"] = [list(row) for row in self.rows]
        if self.text:
            out["text"] = self.text
        if self.plan is not None:
            from repro.obs.explain import plan_to_dict

            out["plan"] = plan_to_dict(self.plan, self.goals or None)
        if self.compete is not None and hasattr(self.compete, "to_dict"):
            out["compete"] = self.compete.to_dict()
        return out
