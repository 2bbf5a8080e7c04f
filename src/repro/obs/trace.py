"""Span-based execution tracing.

The paper shipped its "dynamic execution metrics" to the user community as
part of the product; this module is the timeline half of that surface. A
:class:`Tracer` records a tree of :class:`Span` objects — query →
retrieval → tactic → scan / final-stage / strategy-switch — each carrying
wall time, engine-step counts, and cost-meter totals, plus every
:class:`~repro.engine.metrics.TraceEvent` emitted while the span was
current. A finished query therefore yields a complete timeline tree that
EXPLAIN ANALYZE renders next to the static plan and ``to_json`` exports to
a JSONL sink.

Two attachment disciplines coexist:

* **Stack spans** (:meth:`Tracer.begin` / :meth:`Tracer.end`) for strictly
  nested scopes — the retrieval, its tactic, its final-stage phase. These
  live in generator frames, so ``end`` runs in ``finally`` blocks and the
  stack unwinds in LIFO order even under mid-flight cancellation.
* **Open spans** (:meth:`Tracer.open`) for work that overlaps — the
  engine's concurrently-stepped processes (a foreground scan and a
  background Jscan are both *running* inside one tactic) and the
  scheduler's per-quantum and admission-wait spans. They attach as
  children of the current stack top (or an explicit parent) without
  joining the stack, and the owner calls :meth:`Span.finish`.

Tracing must cost nothing when off: :data:`NULL_TRACER` is a no-op
implementation shared by every untraced retrieval, so the instrumented
code paths pay one dynamic dispatch per span site (per scan, not per row).
``benchmarks/bench_trace_overhead.py`` holds the disabled path to a <2%
throughput budget.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Iterator, TextIO



class Span:
    """One timed node of the execution timeline tree."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "events",
        "start_time",
        "end_time",
        "_clock",
    )

    def __init__(
        self, name: str, attrs: dict[str, Any], clock: Callable[[], float]
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list["Span"] = []
        self.events: list[Any] = []
        self._clock = clock
        self.start_time = clock()
        self.end_time: float | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` ran."""
        return self.end_time is not None

    def finish(self, clock: Callable[[], float] | None = None, **attrs: Any) -> "Span":
        """Close the span, folding ``attrs`` (steps, cost, …) in. Idempotent:
        a second finish keeps the first end time but still merges attrs.
        Ends on the clock the span started on unless one is passed."""
        if self.end_time is None:
            self.end_time = (clock or self._clock)()
        if attrs:
            self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        """Wall-clock seconds from start to finish (0.0 while open)."""
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    # -- querying ----------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with the given name."""
        return [span for span in self.walk() if span.name == name]

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering of the subtree."""
        events = [
            event.to_dict() if hasattr(event, "to_dict") else str(event)
            for event in self.events
        ]
        out: dict[str, Any] = {
            "name": self.name,
            "duration_s": round(self.duration, 9),
            "attrs": dict(self.attrs),
        }
        if events:
            out["events"] = events
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def format(self, indent: int = 0, exclude: tuple[str, ...] = ()) -> str:
        """Multi-line human-readable tree (EXPLAIN ANALYZE's right column).

        ``exclude`` prunes whole subtrees by span name — e.g. the
        per-quantum scheduling spans, which would swamp a rendered timeline
        (they stay in the exported JSON).
        """
        attrs = " ".join(f"{key}={value}" for key, value in self.attrs.items())
        line = "  " * indent + self.name
        if attrs:
            line += f" [{attrs}]"
        line += f" ({self.duration * 1e3:.2f}ms)"
        lines = [line]
        for event in self.events:
            lines.append("  " * (indent + 1) + f"* {event}")
        for child in self.children:
            if child.name in exclude:
                continue
            lines.append(child.format(indent + 1, exclude))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "open"
        return f"<Span {self.name!r} {state} children={len(self.children)}>"


class Tracer:
    """Records one query's span tree.

    Created per traced query (by the scheduler's sampling decision, or
    forced by EXPLAIN ANALYZE) and threaded down to every
    :class:`~repro.engine.metrics.RetrievalTrace` the query produces, so
    event emission and span creation share one tree.
    """

    enabled = True

    def __init__(
        self,
        name: str = "query",
        clock: Callable[[], float] = time.perf_counter,
        **attrs: Any,
    ) -> None:
        self._clock = clock
        self.root = Span(name, attrs, clock)
        self._stack: list[Span] = [self.root]

    # -- the span stack ----------------------------------------------------

    @property
    def current(self) -> Span:
        """The innermost open stack span (the attachment point)."""
        return self._stack[-1]

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a nested span and make it current. Pair with :meth:`end`
        in a ``finally`` block (generator unwinding keeps LIFO order)."""
        span = Span(name, attrs, self._clock)
        self.current.children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Finish a stack span. Defensive: any deeper spans still open
        (e.g. skipped by an exception) are finished and popped too."""
        while len(self._stack) > 1:
            top = self._stack.pop()
            top.finish(self._clock)
            if top is span:
                break
        return span.finish(self._clock, **attrs)

    # -- overlapping work --------------------------------------------------

    def open(self, name: str, parent: Span | None = None, **attrs: Any) -> Span:
        """Attach a span under ``parent`` (default: the current stack span)
        *without* pushing it on the stack. Used for concurrently-stepped
        processes and scheduler quanta, whose lifetimes overlap; the owner
        calls :meth:`Span.finish`."""
        span = Span(name, attrs, self._clock)
        (parent or self.current).children.append(span)
        return span

    def mark(self, name: str, **attrs: Any) -> Span:
        """A zero-duration boundary span (e.g. a strategy switch)."""
        return self.open(name, **attrs).finish(self._clock)

    # -- events ------------------------------------------------------------

    def event(self, event: Any) -> None:
        """Attach an emitted trace event to the current span."""
        self.current.events.append(event)

    # -- lifecycle & export ------------------------------------------------

    def finish(self, **attrs: Any) -> Span:
        """Close the root (and any spans still open above it)."""
        return self.end(self.root, **attrs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering of the whole tree."""
        return self.root.to_dict()

    def to_json(self, indent: int | None = None) -> str:
        """The whole tree as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, default=str)


class _NullSpan(Span):
    """The shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("<null>", {}, lambda: 0.0)

    def finish(self, clock=None, **attrs: Any) -> "Span":
        return self

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "duration_s": 0.0, "attrs": {}}


class NullTracer(Tracer):
    """A tracer that records nothing.

    Shared by every untraced query so the instrumented call sites stay
    unconditional — the per-site cost is one no-op method call.
    """

    enabled = False

    def __init__(self) -> None:
        self._null = _NullSpan()
        self.root = self._null
        self._stack = [self._null]
        self._clock = lambda: 0.0

    def begin(self, name: str, **attrs: Any) -> Span:
        return self._null

    def end(self, span: Span, **attrs: Any) -> Span:
        return self._null

    def open(self, name: str, parent: Span | None = None, **attrs: Any) -> Span:
        return self._null

    def mark(self, name: str, **attrs: Any) -> Span:
        return self._null

    def event(self, event: Any) -> None:
        pass

    def finish(self, **attrs: Any) -> Span:
        return self._null


#: Tracer used when tracing is off. All methods are no-ops; sharing one
#: instance (and one null span) is safe.
NULL_TRACER = NullTracer()


def should_sample(sequence: int, rate: float) -> bool:
    """Deterministic sampling decision for the ``sequence``-th query.

    ``rate`` is the server's ``trace_sample_rate`` in [0, 1] (set by
    ``repro.connect(trace_sample_rate=...)``). The rule
    admits exactly ``floor(n * rate)`` of the first ``n`` queries — evenly
    spread, no RNG, reproducible across runs (``rate=1`` traces everything,
    ``rate=0`` nothing).
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return int(sequence * rate) != int((sequence - 1) * rate)


class JsonlSink:
    """Writes finished span trees (or any JSON-able records) as JSON Lines.

    Accepts a path (opened lazily, append mode) or any writable text
    stream. The scheduler calls :meth:`write` once per retired traced
    query (and the flight recorder once per captured slow/regretted
    query); each line is one complete record.

    Records are never truncated mid-line: the JSON document is fully
    serialized *before* anything touches the stream, every line is flushed
    as soon as it is written, and the sink is a context manager whose
    ``__exit__``/:meth:`close` flushes on the way out — including when the
    owner unwinds through an in-flight exception or scheduler shutdown.

    Path-backed sinks support size-capped rotation so always-on flight /
    trace / incident sinks can't grow unbounded: when ``max_bytes > 0``
    and a written line pushes the file past the cap, the file is renamed
    to ``<path>.1`` (existing ``.1`` → ``.2``, …, dropping ``.<keep>``)
    and a fresh file is started. Rotation happens on line boundaries only
    — a record is never split across files. Stream-backed sinks ignore
    the cap (the caller owns the stream).
    """

    def __init__(self, target: str | TextIO, max_bytes: int = 0, keep: int = 3) -> None:
        self._path = target if isinstance(target, str) else None
        self._stream: TextIO | None = None if isinstance(target, str) else target
        self.max_bytes = max_bytes if self._path is not None else 0
        self.keep = max(1, keep)
        self.written = 0
        self.rotations = 0
        self.closed = False
        self._bytes = 0

    def _open(self) -> TextIO:
        assert self._path is not None
        stream = open(self._path, "a")
        # append mode: pick up the existing file's size so a reopened
        # sink keeps honouring the cap
        self._bytes = stream.tell()
        return stream

    def _rotate(self) -> None:
        """Shift ``path.{n}`` → ``path.{n+1}`` (dropping the oldest) and
        restart the live file. Called with the live stream closed."""
        assert self._path is not None
        for index in range(self.keep - 1, 0, -1):
            older = f"{self._path}.{index}"
            if os.path.exists(older):
                os.replace(older, f"{self._path}.{index + 1}")
        os.replace(self._path, f"{self._path}.1")
        self.rotations += 1
        self._bytes = 0

    def write(self, tree: dict[str, Any]) -> None:
        """Append one record as a JSON line (serialize-then-write: a
        serialization error leaves the file without a partial line)."""
        if self.closed:
            raise ValueError("write to a closed JsonlSink")
        line = json.dumps(tree, default=str)
        if self._stream is None:
            assert self._path is not None
            self._stream = self._open()
        if (
            self.max_bytes > 0
            and self._bytes > 0
            and self._bytes + len(line) + 1 > self.max_bytes
        ):
            self._stream.close()
            self._rotate()
            self._stream = self._open()
        self._stream.write(line + "\n")
        self._stream.flush()
        self._bytes += len(line) + 1
        self.written += 1

    def flush(self) -> None:
        """Flush the underlying stream (idempotent; safe when unopened)."""
        if self._stream is not None and not self._stream.closed:
            self._stream.flush()

    def close(self) -> None:
        """Flush, then close the underlying file if this sink opened it
        (external streams are flushed but stay open — the caller owns
        them). Idempotent."""
        if self.closed:
            return
        self.closed = True
        if self._stream is None:
            return
        if not self._stream.closed:
            self._stream.flush()
            if self._path is not None:
                self._stream.close()
        if self._path is not None:
            self._stream = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
