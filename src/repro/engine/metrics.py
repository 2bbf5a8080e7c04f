"""Dynamic execution metrics.

The paper notes that "the basic concepts, operational structures, and
dynamic execution metrics have been available to the user community since
version 4.0". This module is that observability surface: every retrieval
produces a :class:`RetrievalTrace` of strategy starts, estimates,
abandonments, switches, spills, and deliveries, plus aggregate counters.
Benchmarks and tests assert on the trace; examples print it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.audit import NULL_AUDIT
from repro.obs.trace import NULL_TRACER, Tracer


class EventKind(enum.Enum):
    """Kinds of trace events emitted by the engine."""

    INITIAL_ESTIMATE = "initial-estimate"
    SHORTCUT_EMPTY = "shortcut-empty"
    SHORTCUT_SMALL_RANGE = "shortcut-small-range"
    INDEXES_ORDERED = "indexes-ordered"
    TACTIC_SELECTED = "tactic-selected"
    COMPETITION_SKIPPED = "competition-skipped"
    SCAN_START = "scan-start"
    SCAN_COMPLETE = "scan-complete"
    SCAN_ABANDONED = "scan-abandoned"
    FILTER_BUILT = "filter-built"
    SIMULTANEOUS_PAIR = "simultaneous-pair"
    REORDERED = "reordered"
    SPILL = "spill"
    TSCAN_RECOMMENDED = "tscan-recommended"
    RID_LIST_COMPLETE = "rid-list-complete"
    STRATEGY_SWITCH = "strategy-switch"
    FOREGROUND_TERMINATED = "foreground-terminated"
    FOREGROUND_BUFFER_OVERFLOW = "foreground-buffer-overflow"
    FINAL_STAGE_START = "final-stage-start"
    CONSUMER_STOPPED = "consumer-stopped"
    RETRIEVAL_COMPLETE = "retrieval-complete"


@dataclass(frozen=True)
class TraceEvent:
    """One engine event with free-form structured details."""

    kind: EventKind
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{key}={value}" for key, value in self.detail.items())
        return f"{self.kind.value}({parts})"

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable rendering (span export, JSONL sinks).

        Detail values are JSON-safe by construction for every kind the
        engine emits (strings, numbers, bools, lists of strings); anything
        exotic degrades to ``str`` rather than failing the export.
        """
        detail = {
            key: value
            if isinstance(value, (str, int, float, bool, type(None), list, tuple))
            else str(value)
            for key, value in self.detail.items()
        }
        return {"kind": self.kind.value, **detail}


@dataclass
class RetrievalCounters:
    """Aggregate per-retrieval counters."""

    records_delivered: int = 0
    records_fetched: int = 0
    fetches_rejected: int = 0
    index_entries_scanned: int = 0
    rids_filtered_out: int = 0
    scans_started: int = 0
    scans_abandoned: int = 0
    strategy_switches: int = 0


class RetrievalTrace:
    """Ordered event log plus counters for one retrieval execution.

    When a :class:`~repro.obs.trace.Tracer` is attached, every emitted
    event also lands on the tracer's current span, so the flat event log
    and the span timeline stay two views of one stream. Untraced
    retrievals share :data:`~repro.obs.trace.NULL_TRACER` (no-op spans).
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.events: list[TraceEvent] = []
        self.counters = RetrievalCounters()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: the query's decision audit, mirrored off the tracer so the
        #: engine's decision sites reach it in one attribute hop
        #: (:data:`~repro.obs.audit.NULL_AUDIT` when auditing is off)
        self.audit = self.tracer.audit

    def emit(self, kind: EventKind, **detail: Any) -> None:
        """Record one event (and attach it to the current span)."""
        event = TraceEvent(kind, detail)
        self.events.append(event)
        if self.tracer is not NULL_TRACER:
            self.tracer.event(event)
        if self.audit is not NULL_AUDIT:
            self.audit.observe_event(event)
        if kind is EventKind.STRATEGY_SWITCH:
            # a switch is a span boundary in the timeline, not just a log
            # line: EXPLAIN ANALYZE renders it between the strategies it
            # separates
            self.tracer.mark("strategy-switch", **detail)

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        """All events of one kind, in order."""
        return [event for event in self.events if event.kind is kind]

    def has(self, kind: EventKind) -> bool:
        """True when at least one event of the kind was emitted."""
        return any(event.kind is kind for event in self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def format(self) -> str:
        """Multi-line human-readable rendering (used by examples)."""
        return "\n".join(f"  {index:3d}. {event}" for index, event in enumerate(self.events))
