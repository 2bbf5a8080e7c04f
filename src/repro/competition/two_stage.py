"""Two-stage competition (Section 3, applied in Section 6's Jscan).

A plan splits into a cheap first stage and an expensive second stage whose
cost becomes reliably estimable *during* the first stage. The controller
steps the first stage, recomputes the projection, and abandons when the
projection approaches the guaranteed best — "we terminate the scan a bit
before the costs are equalized".

Two criteria combine (both from Section 6):

* projection criterion: ``projected_second_stage >= threshold * guaranteed``
* direct criterion: ``first_stage_cost >= limit_fraction * guaranteed`` —
  protects against first stages that are themselves expensive relative to a
  small guaranteed best.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.competition.process import Process


#: scan at least this fraction of a range before trusting a projection
#: enough to abandon on it (avoids noise at scan start)
MIN_PROJECTION_FRACTION = 0.05


class SwitchDecision(enum.Enum):
    """What the criterion says to do after a step."""

    CONTINUE = "continue"
    ABANDON_PROJECTED = "abandon-projected"   # projection approached guaranteed best
    ABANDON_SCAN_COST = "abandon-scan-cost"   # the stage itself got too expensive


@dataclass(frozen=True)
class SwitchCriterion:
    """The Section 6 strategy-switch criterion, reusable outside Jscan."""

    threshold: float = 0.95
    scan_cost_limit_fraction: float = 0.5

    def evaluate(
        self,
        projected_second_stage: float | None,
        first_stage_cost: float,
        guaranteed_best: float,
    ) -> SwitchDecision:
        """Decide whether to continue the first stage."""
        if guaranteed_best <= 0:
            return SwitchDecision.ABANDON_PROJECTED
        if (
            projected_second_stage is not None
            and projected_second_stage >= self.threshold * guaranteed_best
        ):
            return SwitchDecision.ABANDON_PROJECTED
        if first_stage_cost >= self.scan_cost_limit_fraction * guaranteed_best:
            return SwitchDecision.ABANDON_SCAN_COST
        return SwitchDecision.CONTINUE

    def with_confidence(self, confidence: float | None) -> "SwitchCriterion":
        """A copy whose thresholds are tightened by estimate confidence.

        When the estimates behind the projections are demonstrably
        trustworthy (confidence near 1), hesitating costs more than it
        protects: laggards can be abandoned up to 20% earlier. ``None``
        or non-positive confidence returns ``self`` unchanged — the gate
        is inert wherever no estimator is attached.
        """
        if confidence is None or confidence <= 0.0:
            return self
        scale = 1.0 - 0.2 * min(1.0, confidence)
        return SwitchCriterion(
            threshold=self.threshold * scale,
            scan_cost_limit_fraction=self.scan_cost_limit_fraction * scale,
        )


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
