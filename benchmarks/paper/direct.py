"""Direct competition between alternative plans (Section 3).

Two arrangements from the paper:

* :class:`TrialThenSwitch` — "run A2 till the cost reaches c2 and then
  switch to A1": the sequential arrangement whose expected cost is
  ``(m2 + c2 + M1) / 2``.
* :class:`DirectCompetition` — "run both plans simultaneously with some
  proportional speeds, and switch to plan A1 at some optimal point": the
  simultaneous arrangement, better still when both L-shapes are truncated
  hyperbolas.
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.scheduler import ProportionalScheduler
from repro.competition.process import Process
from repro.errors import CompetitionError


@dataclass
class CompetitionOutcome:
    """Result of one competition run."""

    #: the process that completed the goal
    winner: Process
    #: total cost charged across all participants (winner + sunk losers)
    total_cost: float
    #: processes abandoned along the way
    abandoned: tuple[Process, ...]


class TrialThenSwitch:
    """Run the trial plan up to a cost budget; switch to the safe plan.

    The budget is the paper's ``c2`` — the right edge of the trial plan's
    high-probability low-cost region.
    """

    def __init__(self, trial: Process, safe: Process, trial_budget: float) -> None:
        if trial_budget < 0:
            raise CompetitionError("trial budget must be >= 0")
        self.trial = trial
        self.safe = safe
        self.trial_budget = trial_budget

    def run(self, max_steps: int = 10_000_000) -> CompetitionOutcome:
        """Execute the arrangement to completion."""
        steps = 0
        while self.trial.active and self.trial.meter.total < self.trial_budget:
            if self.trial.step():
                return CompetitionOutcome(
                    winner=self.trial,
                    total_cost=self.trial.meter.total,
                    abandoned=(),
                )
            steps += 1
            if steps > max_steps:
                raise CompetitionError("trial run exceeded max_steps")
        self.trial.abandon()
        while self.safe.active:
            if self.safe.step():
                break
            steps += 1
            if steps > max_steps:
                raise CompetitionError("safe run exceeded max_steps")
        return CompetitionOutcome(
            winner=self.safe,
            total_cost=self.trial.meter.total + self.safe.meter.total,
            abandoned=(self.trial,),
        )


class DirectCompetition:
    """Simultaneous proportional run; first finisher wins.

    Optionally a ``switch_budget`` bounds the total cost the *challenger*
    processes may accumulate before being abandoned in favour of the safe
    plan (the paper's "switch to plan A1 at some optimal point").
    """

    def __init__(
        self,
        safe: Process,
        challengers: list[Process],
        safe_speed: float = 1.0,
        challenger_speed: float = 1.0,
        switch_budget: float | None = None,
    ) -> None:
        if not challengers:
            raise CompetitionError("direct competition needs challengers")
        self.safe = safe
        self.challengers = challengers
        self.scheduler = ProportionalScheduler(
            [safe, *challengers],
            [safe_speed] + [challenger_speed] * len(challengers),
        )
        self.switch_budget = switch_budget

    def _challenger_cost(self) -> float:
        return sum(process.meter.total for process in self.challengers)

    def _over_budget(self) -> bool:
        return (
            self.switch_budget is not None
            and any(process.active for process in self.challengers)
            and self._challenger_cost() >= self.switch_budget
        )

    def run(self) -> CompetitionOutcome:
        """Race to the first finisher (or to the challenger switch budget)."""
        while True:
            winner = self.scheduler.run(until=self._over_budget, stop_on_first_finish=True)
            if winner is not None:
                abandoned = tuple(
                    process
                    for process in [self.safe, *self.challengers]
                    if process is not winner and not process.finished
                )
                for process in abandoned:
                    process.abandon()
                return CompetitionOutcome(
                    winner=winner,
                    total_cost=self.scheduler.total_cost(),
                    abandoned=abandoned,
                )
            if self._over_budget():
                for challenger in self.challengers:
                    if challenger.active:
                        challenger.abandon()
                continue
            if not self.safe.active:
                raise CompetitionError("all processes ended without a winner")
