"""The two-stage competition as a standalone controller (Section 3).

The engine applies the Section 6 switch rule inline, inside Jscan's
advance loop (:class:`repro.competition.two_stage.SwitchCriterion`). This
controller drives one first-stage :class:`~repro.competition.process.Process`
under the same rule on its own, which is how the Section 3 experiments and
tests race synthetic processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.competition.process import Process
from repro.competition.two_stage import SwitchCriterion, SwitchDecision


@dataclass
class TwoStageOutcome:
    """Result of one two-stage competition run."""

    #: True when the first stage completed (its result should be committed)
    committed: bool
    #: the decision that ended the run
    decision: SwitchDecision
    #: cost sunk into the (possibly abandoned) first stage
    first_stage_cost: float
    #: last projection computed before the run ended
    last_projection: float | None


class TwoStageCompetition:
    """Drives one first-stage process under a :class:`SwitchCriterion`.

    ``projector`` maps the live process to the current projected
    second-stage cost (or None while no reliable projection exists);
    ``guaranteed_best`` supplies the cost the projection competes against
    and may change between steps — the dynamic readjustment that the
    statically-thresholded Jscan of [MoHa90] lacks.
    """

    def __init__(
        self,
        first_stage: Process,
        projector: Callable[[Process], float | None],
        guaranteed_best: Callable[[], float],
        criterion: SwitchCriterion = SwitchCriterion(),
    ) -> None:
        self.first_stage = first_stage
        self.projector = projector
        self.guaranteed_best = guaranteed_best
        self.criterion = criterion

    def run(self) -> TwoStageOutcome:
        """Step the first stage to completion or abandonment."""
        projection: float | None = None
        while self.first_stage.active:
            finished = self.first_stage.step()
            if finished:
                return TwoStageOutcome(
                    committed=True,
                    decision=SwitchDecision.CONTINUE,
                    first_stage_cost=self.first_stage.meter.total,
                    last_projection=projection,
                )
            projection = self.projector(self.first_stage)
            decision = self.criterion.evaluate(
                projection, self.first_stage.meter.total, self.guaranteed_best()
            )
            if decision is not SwitchDecision.CONTINUE:
                self.first_stage.abandon()
                return TwoStageOutcome(
                    committed=False,
                    decision=decision,
                    first_stage_cost=self.first_stage.meter.total,
                    last_projection=projection,
                )
        return TwoStageOutcome(
            committed=self.first_stage.finished,
            decision=SwitchDecision.CONTINUE,
            first_stage_cost=self.first_stage.meter.total,
            last_projection=projection,
        )
