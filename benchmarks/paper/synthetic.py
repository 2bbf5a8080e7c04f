"""A process that races in the Section 3 benchmarks without the storage engine.

The competition arrangements (:mod:`paper.scheduler`, :mod:`paper.direct`,
:mod:`paper.two_stage`) compare processes by ``meter.total``. The engine's
processes count their work (pages, index entries, records); a synthetic
process instead does an arbitrary amount of float *work* per step, drawn
from the L-shaped cost distributions, so its meter holds that work beside
the counts and adds it to its total.
"""

from __future__ import annotations

from repro.competition.process import Process
from repro.storage.buffer_pool import CostMeter


class WorkMeter(CostMeter):
    """A cost meter that also holds float work, in page-I/O units."""

    __slots__ = ("work",)

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name)
        self.work = 0.0

    @property
    def total(self) -> float:
        """The counted cost plus the work."""
        return super().total + self.work


class SyntheticProcess(Process):
    """A process that completes after a predetermined amount of work.

    Each step executes ``step_cost`` units. Used by the Section 3 benchmarks
    to race plans whose total costs are drawn from L-shaped distributions,
    without involving the storage engine.
    """

    def __init__(self, name: str, total_cost: float, step_cost: float = 1.0) -> None:
        super().__init__(name)
        if total_cost < 0:
            raise ValueError("total_cost must be >= 0")
        self.meter = WorkMeter(name)
        self.total_cost = total_cost
        self.step_cost = step_cost

    def _do_step(self) -> bool:
        meter = self.meter
        meter.work += min(self.step_cost, self.total_cost - meter.work)
        return meter.work >= self.total_cost - 1e-12
