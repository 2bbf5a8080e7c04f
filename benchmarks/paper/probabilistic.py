"""A probabilistic switch criterion for two-stage competition.

Section 3: "At each point of A' we compare A1 and fresh A'' cost
distributions, and switch to A1 or continue based on some probabilistic
cost model" (the model itself lives in [Ant91B], which only the report
readers saw). This module supplies a concrete such model, decision-theoretic
rather than threshold-based:

The scan has examined ``scanned`` entries of an estimated ``total`` and
kept ``kept`` of them (survivors of the running filter). The keep rate
``p`` is uncertain; with a uniform prior it has a Beta(kept+1,
scanned-kept+1) posterior. The final RID-list size is ``p * total``, so the
final fetch cost ``F`` inherits a posterior through Yao's formula. Let
``G`` be the guaranteed best cost and ``R`` the expected remaining scan
investment. Abandoning now costs ``G``; continuing costs
``R + E[min(F, G)]`` (after completing the list we still get to pick the
cheaper of the list retrieval and the guaranteed best). Therefore:

    continue  iff  E[max(0, G - F)] > R

— keep scanning exactly while the expected savings of finishing exceed the
expected cost of finishing. Early in the scan the posterior is wide, the
savings expectation is large, and the scan survives noise; as evidence
accumulates the rule converges to the deterministic comparison.

:class:`BayesianJscan` is the per-entry Jscan judged by this rule, and
:func:`run_bayesian_jscan` races the product's Jscan candidates with it
(E15, ``bench_probabilistic_switch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Mapping

import numpy as np
from scipy import stats

from repro.competition.process import advance, drain
from repro.competition.two_stage import SwitchDecision
from repro.db.table import Table
from repro.engine.initial import run_initial_stage
from repro.engine.jscan import REASONS, _IndexScan
from repro.engine.metrics import RetrievalTrace
from repro.engine.scans import CollectingSink
from repro.engine.tactics import TacticContext, TacticOutcome, _finish_background
from repro.expr.ast import Expr
from repro.expr.eval import referenced_columns
from repro.storage.buffer_pool import CostMeter
from repro.storage.rid import RID, yao_pages_touched

from paper.per_entry_jscan import PerEntryJscan

#: grid resolution for posterior integration
_GRID = 64

#: the rule judges a scan every N scanned entries (posterior integration
#: is pricier than the threshold check)
CHECK_INTERVAL = 16


@dataclass(frozen=True)
class ScanEvidence:
    """What has been observed about one index scan so far."""

    scanned: int
    kept: int
    #: estimated total entries in the scanned range
    estimated_total: float
    #: scan cost paid so far (I/O units)
    scan_cost: float


@dataclass(frozen=True)
class BayesianSwitchCriterion:
    """Decision-theoretic scan-abandonment rule."""

    #: heap geometry for Yao's formula
    heap_pages: int
    rows_per_page: int
    #: direct criterion: never let the scan itself exceed this fraction of
    #: the guaranteed best (the paper keeps this guard in all variants)
    scan_cost_limit_fraction: float = 0.5
    #: evaluate only after this fraction of the range has been scanned
    min_fraction: float = 0.02

    def expected_savings(self, evidence: ScanEvidence, guaranteed: float) -> float:
        """E[max(0, G - F)] under the Beta posterior on the keep rate."""
        posterior = stats.beta(evidence.kept + 1, evidence.scanned - evidence.kept + 1)
        grid = (np.arange(_GRID) + 0.5) / _GRID
        keep_rates = posterior.ppf(grid)
        total = max(evidence.estimated_total, float(evidence.scanned))
        savings = 0.0
        for rate in keep_rates:
            final_size = rate * total
            fetch_cost = yao_pages_touched(
                self.heap_pages, self.rows_per_page, int(final_size)
            )
            savings += max(0.0, guaranteed - fetch_cost)
        return savings / _GRID

    def remaining_investment(self, evidence: ScanEvidence) -> float:
        """Expected cost of scanning the rest of the range."""
        if evidence.scanned == 0:
            return 0.0
        per_entry = evidence.scan_cost / evidence.scanned
        remaining_entries = max(0.0, evidence.estimated_total - evidence.scanned)
        return per_entry * remaining_entries

    def evaluate(self, evidence: ScanEvidence, guaranteed: float) -> SwitchDecision:
        """Continue, or abandon for the guaranteed best."""
        if guaranteed <= 0:
            return SwitchDecision.ABANDON_PROJECTED
        if evidence.scan_cost >= self.scan_cost_limit_fraction * guaranteed:
            return SwitchDecision.ABANDON_SCAN_COST
        if evidence.scanned == 0 or evidence.estimated_total <= 0:
            return SwitchDecision.CONTINUE
        fraction = evidence.scanned / max(evidence.estimated_total, evidence.scanned)
        if fraction < self.min_fraction:
            return SwitchDecision.CONTINUE
        savings = self.expected_savings(evidence, guaranteed)
        if savings > self.remaining_investment(evidence):
            return SwitchDecision.CONTINUE
        return SwitchDecision.ABANDON_PROJECTED


class BayesianJscan(PerEntryJscan):
    """Jscan judged by :class:`BayesianSwitchCriterion` every
    :data:`CHECK_INTERVAL` entries of a scan, in place of the paper's
    threshold."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rule = BayesianSwitchCriterion(
            heap_pages=self.heap.page_count,
            rows_per_page=self.heap.rows_per_page,
            scan_cost_limit_fraction=self.config.scan_cost_limit_fraction,
        )

    def _judge(self, scan: _IndexScan, guaranteed: float) -> None:
        if scan.scanned % CHECK_INTERVAL:
            return
        estimate = scan.candidate.estimated_rids
        evidence = ScanEvidence(
            scanned=scan.scanned,
            kept=scan.kept,
            estimated_total=estimate if estimate is not None else float(scan.scanned),
            scan_cost=scan.scan_cost,
        )
        decision = self.rule.evaluate(evidence, guaranteed)
        if decision is not SwitchDecision.CONTINUE:
            self._switch_away(scan, REASONS[decision], guaranteed, self._projection(scan))


@dataclass
class BayesianExecution:
    """Outcome of one retrieval by the Bayesian Jscan."""

    rows: list[tuple]
    rids: list[RID]
    #: the initial stage's cost plus every process's
    cost: float
    trace: RetrievalTrace
    description: str


def run_bayesian_jscan(
    table: Table, restriction: Expr, host_vars: Mapping[str, Any] | None = None
) -> BayesianExecution:
    """The product's background-only retrieval with the Bayesian rule in
    Jscan: the product's initial stage estimates and orders the candidates,
    :class:`BayesianJscan` scans them, and the product's final stage (or
    Tscan, when the Jscan recommends it) fetches."""
    host_vars = dict(host_vars or {})
    config = table.config
    trace = RetrievalTrace()
    estimation = CostMeter(name="initial-stage")
    arrangement = run_initial_stage(
        list(table.indexes.values()), restriction, host_vars,
        frozenset(table.schema.names) | referenced_columns(restriction), (),
        estimation, trace, config,
    )
    rows: list[tuple] = []
    rids: list[RID] = []
    ctx = TacticContext(
        heap=table.heap, schema=table.schema, restriction=restriction,
        host_vars=host_vars, buffer_pool=table.buffer_pool, arrangement=arrangement,
        sink=CollectingSink(rows, rids, None), trace=trace, config=config,
    )
    jscan = BayesianJscan(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, config
    )
    outcome = TacticOutcome(processes=[jscan], description="bayesian: jscan")
    drain(chain(
        advance(jscan, config.batch_size), _finish_background(ctx, jscan, outcome, skip=None)
    ))
    return BayesianExecution(
        rows=rows, rids=rids, cost=estimation.total + outcome.total_cost,
        trace=trace, description=outcome.description,
    )
