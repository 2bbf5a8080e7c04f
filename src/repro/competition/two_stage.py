"""Two-stage competition (Section 3, applied in Section 6's Jscan).

A plan splits into a cheap first stage and an expensive second stage whose
cost becomes reliably estimable *during* the first stage. The first stage
is abandoned when its projection approaches the guaranteed best — "we
terminate the scan a bit before the costs are equalized". Jscan, the union
scan and the join race evaluate :class:`SwitchCriterion` inside their own
advance loops.

Two criteria combine (both from Section 6):

* projection criterion: ``projected_second_stage >= threshold * guaranteed``
* direct criterion: ``first_stage_cost >= limit_fraction * guaranteed`` —
  protects against first stages that are themselves expensive relative to a
  small guaranteed best.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


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
