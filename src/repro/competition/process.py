"""The step-wise process protocol.

Every retrieval strategy (Tscan, Sscan, Fscan, Jscan's per-index scans, the
final stage) is a :class:`Process`: a resumable unit of work advanced one
small step at a time. Stepping is what makes "running several local plans
simultaneously with proportional speed" (Section 2) executable: a scheduler
interleaves ``step()`` calls in the requested proportions, and controllers
can abandon a process between any two steps.
"""

from __future__ import annotations

from typing import Generator, TypeVar

from repro.storage.buffer_pool import CostMeter

_R = TypeVar("_R")


def drain(gen: Generator[object, None, _R]) -> _R:
    """Run a step generator to completion and return its result.

    The engine's retrieval path is written as generators that yield control
    after every :meth:`Process.step` so a server-level scheduler can
    interleave many retrievals over one buffer pool. Synchronous callers
    (``Table.select``, ``Database.execute``) drain the generator in place.
    """
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


def advance(process: "Process", quantum: int = 1) -> Generator[None, None, None]:
    """Run ``process`` to completion, yielding control between quanta.

    With ``quantum=1`` this is exact row-at-a-time stepping (one yield per
    :meth:`Process.step`). Larger quanta run up to ``quantum`` steps in one
    tight :meth:`Process.run_batch` call between yields — same work, same
    cost accounting, ~``quantum``× fewer generator suspensions.
    """
    if quantum <= 1:
        while process.active:
            done = process.step()
            yield
            if done:
                return
    else:
        while process.active:
            _, done = process.run_batch(quantum)
            yield
            if done:
                return


class Process:
    """A resumable, abandonable unit of work with attributed costs."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.meter = CostMeter(name=name)
        self.finished = False
        self.abandoned = False
        #: engine steps this process has executed (span instrumentation)
        self.steps_taken = 0
        #: timeline span opened by trace-carrying subclasses; closed here
        #: on completion/abandonment with steps and cost-meter totals
        self.span = None

    @property
    def active(self) -> bool:
        """Still runnable: neither finished nor abandoned."""
        return not (self.finished or self.abandoned)

    def step(self) -> bool:
        """Perform one unit of work; returns True when the process completed
        *on this step*. Calling ``step`` on an inactive process is an error
        in the caller."""
        if not self.active:
            raise RuntimeError(f"step() on inactive process {self.name!r}")
        done = self._do_step()
        self.steps_taken += 1
        if done:
            self.finished = True
            self._close_span()
        return done

    def run_batch(self, max_steps: int) -> tuple[int, bool]:
        """Perform up to ``max_steps`` units of work in one call.

        Returns ``(steps_taken, done)``. Equivalent to calling :meth:`step`
        ``steps_taken`` times — identical cost accounting and identical
        completion point — but without per-step dispatch overhead, and
        subclasses may override :meth:`_do_batch` to use bulk storage
        operations (page-run reads, RID-list prefetch) internally.
        """
        if not self.active:
            raise RuntimeError(f"run_batch() on inactive process {self.name!r}")
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        steps, done = self._do_batch(max_steps)
        self.steps_taken += steps
        if done:
            self.finished = True
            self._close_span()
        return steps, done

    def _do_step(self) -> bool:
        """Advance one unit; return True when complete.

        A step is a batch of one. A subclass implements its advance routine
        once, as this method or as :meth:`_do_batch`, and gets the other.
        """
        return self._do_batch(1)[1]

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        """Advance up to ``max_steps`` units; return ``(steps_taken, done)``.

        The default implementation loops :meth:`_do_step`, so every process
        is batchable; the scans implement this instead, to work a page or a
        leaf run at a time.
        """
        steps = 0
        while steps < max_steps:
            steps += 1
            if self._do_step():
                return steps, True
        return steps, False

    def abandon(self) -> None:
        """Terminate the process, keeping its meter as sunk cost."""
        if self.finished:
            return
        self.abandoned = True
        self._on_abandon()
        self._close_span(abandoned=True)

    def _on_abandon(self) -> None:
        """Hook for subclasses to release resources (buffers, temp tables)."""

    def _close_span(self, **attrs) -> None:
        """Finish the process's timeline span with its final accounting."""
        if self.span is not None:
            self.span.finish(
                steps=self.steps_taken,
                cost=round(self.meter.total, 3),
                io=self.meter.io_total,
                **attrs,
            )
            self.span = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "abandoned" if self.abandoned else "active"
        return f"<{type(self).__name__} {self.name!r} {state} cost={self.meter.total:.2f}>"

