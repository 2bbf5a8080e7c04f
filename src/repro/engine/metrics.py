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

from repro.obs.audit import DecisionKind
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

    # members are singletons, so identity hashing is exact — and C-speed,
    # where Enum's own ``__hash__`` is a Python call: the decision log looks
    # up every retired event's kind
    __hash__ = object.__hash__


# bound once: every lookup of an enum member on its class is a descriptor
# call, and these are read per event
_ESTIMATE = EventKind.INITIAL_ESTIMATE
_ORDERED = EventKind.INDEXES_ORDERED
_SMALL_RANGE = EventKind.SHORTCUT_SMALL_RANGE
_EMPTY = EventKind.SHORTCUT_EMPTY
_SWITCH = EventKind.STRATEGY_SWITCH
_TERMINATED = EventKind.FOREGROUND_TERMINATED
_RECOMMENDED = EventKind.TSCAN_RECOMMENDED
_SHORTCUT = DecisionKind.SHORTCUT
_TACTIC_SELECTION = DecisionKind.TACTIC_SELECTION
#: the events :meth:`RetrievalTrace.event_decisions` reads; all others skip
_DECIDING = frozenset(
    (_ESTIMATE, _ORDERED, _SMALL_RANGE, _EMPTY, _SWITCH, _TERMINATED, _RECOMMENDED)
)


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
    """Ordered event log plus counters for one retrieval execution — and,
    read by :meth:`decisions`, its decision log.

    When a :class:`~repro.obs.trace.Tracer` is attached, every emitted
    event also lands on the tracer's current span, so the flat event log
    and the span timeline stay two views of one stream. Untraced
    retrievals share :data:`~repro.obs.trace.NULL_TRACER` (no-op spans).
    """

    def __init__(
        self, tracer: Tracer | None = None, table: str = "", request: Any = None
    ) -> None:
        self.events: list[TraceEvent] = []
        self.counters = RetrievalCounters()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: what ran, and the request to replay it with a forced strategy
        self.table = table
        self.request = request
        #: the ``Decision`` ``SingleTableRetrieval.decide`` returned (None:
        #: forced, provably empty, a join or a scatter) ...
        self.decision: Any = None
        #: ... and what it was decided on: (event position, goal, Tscan
        #: pages, the initial stage's ``InitialArrangement``)
        self.decided_on: tuple = ()
        #: decisions no event carries: (event position, DecisionKind,
        #: chosen, alternatives, inputs), see :meth:`note`
        self.notes: list[tuple] = []
        #: (index, estimated RIDs, observed RIDs) per completed scan
        self.estimates: list[tuple[str, float, int]] = []

    def emit(self, kind: EventKind, **detail: Any) -> None:
        """Record one event (and attach it to the current span)."""
        event = TraceEvent(kind, detail)
        self.events.append(event)
        if self.tracer is not NULL_TRACER:
            self.tracer.event(event)
        if kind is _SWITCH:
            # a switch is a span boundary in the timeline, not just a log
            # line: EXPLAIN ANALYZE renders it between the strategies it
            # separates
            self.tracer.mark("strategy-switch", **detail)

    def note(
        self, kind: Any, chosen: str, alternatives: tuple[str, ...] = (), **inputs: Any
    ) -> None:
        """Record a decision whose inputs appear in no event (a Jscan
        abandonment's projection, a join order, a scatter fan-out) at its
        place in the event stream."""
        self.notes.append((len(self.events), kind, chosen, alternatives, inputs))

    def decisions(self) -> Iterator[tuple]:
        """Every decision this retrieval made, in order: ``(DecisionKind,
        chosen, alternatives, inputs)``.

        The tactic selection is :attr:`decision`, with the numbers it was
        made on from :attr:`decided_on`; the :attr:`notes` hold the
        decisions no event carries; the rest are
        :meth:`event_decisions`. Each is placed at its event position.
        """
        noted = self.notes
        decision = self.decision
        if decision is not None:
            position, goal, pages, arrangement = self.decided_on
            candidates = arrangement.jscan_candidates
            best = arrangement.best_sscan
            inputs = {
                "goal": goal.value,
                "basis": decision.basis,
                "tscan_pages": pages,
                "jscan_candidates": len(candidates),
                "best_jscan_rids": candidates[0].estimated_rids if candidates else None,
                "best_sscan_rids": best.estimated_rids if best is not None else None,
            }
            if arrangement.direct is not None:
                inputs["index"] = arrangement.direct.index.name
            if decision.inputs:
                inputs.update(decision.inputs)
            # decided before any note: notes come from the race it starts
            noted = [(
                position, _TACTIC_SELECTION, decision.strategy,
                decision.alternatives, inputs,
            ), *noted]
        at, pending = 0, len(noted)
        for decided in self.event_decisions():
            while at < pending and noted[at][0] <= decided[0]:
                yield noted[at][1:]
                at += 1
            yield decided[1:]
        while at < pending:
            yield noted[at][1:]
            at += 1

    def event_decisions(self, inputs: bool = True) -> Iterator[tuple]:
        """The events that are decisions: ``(event position, DecisionKind,
        chosen, alternatives, inputs)``.

        The shortcuts, strategy switches (a join-order switch is also that
        join's new ``JOIN_ORDER``), the Tscan recommendation,
        feedback-adjusted estimates, and the initial stage's index ordering
        with the effective estimates its ``INITIAL_ESTIMATE`` events carry.
        ``inputs=False`` (the server's per-retirement count) skips building
        the inputs, except a strategy switch's.
        """
        estimates: dict[str, float] = {}
        shortcut = False
        for position, event in enumerate(self.events):
            kind = event.kind
            if kind not in _DECIDING:
                continue
            if kind is _ESTIMATE:
                detail = event.detail
                if inputs:
                    adjusted = detail.get("feedback_rids", detail.get("learned_rids"))
                    estimates[detail["index"]] = (
                        detail["rids"] if adjusted is None else adjusted
                    )
                if "feedback_rids" in detail:
                    yield (
                        position, DecisionKind.FEEDBACK_APPLICATION,
                        "adjusted-estimate", (), dict(detail) if inputs else None,
                    )
            elif kind is _ORDERED:
                order = event.detail["order"]
                if order:
                    yield position, DecisionKind.INDEX_ORDERING, order[0], tuple(
                        order[1:]
                    ), {
                        "estimates": {name: estimates.get(name) for name in order},
                        "shortcut": shortcut,
                    } if inputs else None
            elif kind is _SMALL_RANGE:
                shortcut = True
                yield position, _SHORTCUT, "small-range", (), (
                    dict(event.detail) if inputs else None
                )
            elif kind is _EMPTY:
                yield position, _SHORTCUT, "empty", (), (
                    dict(event.detail) if inputs else None
                )
            elif kind is _SWITCH:
                detail = event.detail
                to = str(detail.get("to", "?"))
                rest = {key: value for key, value in detail.items() if key != "to"}
                yield position, DecisionKind.STRATEGY_SWITCH, to, (), rest
                if detail.get("scope") == "join-order":
                    old = detail["from"]
                    yield position, DecisionKind.JOIN_ORDER, to, (old,), {
                        **{key: value for key, value in rest.items() if key != "from"},
                        "switched_from": old,
                    }
            elif kind is _TERMINATED:
                yield (
                    position, DecisionKind.STRATEGY_SWITCH, "terminate-foreground",
                    (), dict(event.detail) if inputs else None,
                )
            else:  # _RECOMMENDED
                yield (
                    position, DecisionKind.STAGE_TRANSITION, "tscan-recommended",
                    (), dict(event.detail) if inputs else None,
                )

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
