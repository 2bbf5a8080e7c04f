"""The initial retrieval stage (Section 5).

Runs at start-retrieval time, with host variables bound: classify the
available indexes (order-needed / self-sufficient / fetch-needed), derive
their key ranges, estimate range sizes by descent to split node, and arrange
the fetch-needed indexes in ascending estimated-RID order for Jscan.

Cost-containment techniques from the paper, all implemented here:

* indexes are prearranged in "the most probable ascending RID quantity
  order" — the previous execution's optimal order when the query is
  iterated (:class:`IterationContext`), a static heuristic otherwise;
* a very short range discovered early terminates estimation immediately
  (the OLTP shortcut);
* an empty range cancels all retrieval stages and delivers end-of-data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.btree.estimate import RangeEstimate, estimate_range
from repro.btree.tree import KeyRange
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import IndexInfo
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.expr.ast import Expr
from repro.expr.normalize import conjunction_terms
from repro.expr.ranges import column_terms, extract_index_restriction
from repro.storage.buffer_pool import CostMeter


@dataclass
class IterationContext:
    """Cross-execution memory for one (table, query-shape) pair.

    "The freshly (and optimally) reordered indexes are used for the next
    retrieval estimates as a starting point."
    """

    last_order: list[str] = field(default_factory=list)
    last_estimates: dict[str, float] = field(default_factory=dict)
    executions: int = 0

    def record(self, order: Sequence[str], estimates: Mapping[str, float]) -> None:
        """Store the order/estimates that this execution settled on."""
        self.last_order = list(order)
        self.last_estimates = dict(estimates)
        self.executions += 1


@dataclass
class JscanCandidate:
    """One fetch-needed index arranged for Jscan."""

    index: IndexInfo
    key_range: KeyRange
    #: descent-to-split estimate; None when estimation was shortcut
    estimate: RangeEstimate | None = None
    #: feedback-corrected RID count (None = no correction known); when set
    #: it overrides the raw estimate everywhere a tactic or Jscan projection
    #: reads :attr:`estimated_rids`
    adjusted_rids: float | None = None
    #: where the correction came from: "feedback" (signature-keyed store)
    #: or "histogram" (the estimator's self-tuning histogram)
    correction_source: str | None = None
    #: entries the executed scan actually found in this range (recorded
    #: back into the feedback store after the retrieval)
    observed: int | None = None

    @property
    def estimated_rids(self) -> float | None:
        """Effective RID count: feedback-adjusted when known, the raw
        descent estimate otherwise (None when not estimated)."""
        if self.adjusted_rids is not None:
            return self.adjusted_rids
        return self.estimate.rids if self.estimate is not None else None


@dataclass
class SscanCandidate:
    """One self-sufficient index with its scannable range."""

    index: IndexInfo
    key_range: KeyRange
    estimate: RangeEstimate | None = None
    #: feedback-corrected RID count (see :class:`JscanCandidate`)
    adjusted_rids: float | None = None
    #: correction provenance (see :class:`JscanCandidate`)
    correction_source: str | None = None
    #: entries the executed scan actually consumed (completed scans only)
    observed: int | None = None

    @property
    def estimated_rids(self) -> float | None:
        """Effective RID count (feedback-adjusted when known)."""
        if self.adjusted_rids is not None:
            return self.adjusted_rids
        return self.estimate.rids if self.estimate is not None else None


@dataclass
class InitialArrangement:
    """Everything the tactics need, decided at start-retrieval time."""

    #: True when an empty range proved the result empty (end of data)
    empty: bool = False
    #: fetch-needed indexes in scan order (ascending estimated RIDs)
    jscan_candidates: list[JscanCandidate] = field(default_factory=list)
    #: the cheapest self-sufficient index, if any
    best_sscan: SscanCandidate | None = None
    #: all self-sufficient candidates (cheapest first)
    sscan_candidates: list[SscanCandidate] = field(default_factory=list)
    #: index delivering the requested order, if one exists
    order_index: JscanCandidate | None = None
    #: cost charged for estimation descents
    estimation_cost: float = 0.0
    #: whether the small-range shortcut fired
    shortcut: bool = False
    #: the one fetch-needed candidate the retrieval may fetch directly:
    #: a unique index with every key column bound by equality (``unique``;
    #: probed, nothing estimated), or a range whose estimate bounded it to
    #: leaves one quantum can walk with nothing else to compete
    direct: JscanCandidate | None = None
    #: whether ``direct`` is the unique-key probe
    unique: bool = False
    #: indexes the probe spared from estimation
    skipped_estimates: int = 0
    #: the restriction's top-level disjuncts, each covered by an index
    #: range (Section 8), once the dispatch has looked (None = not yet)
    covered: list | None = None


def _static_preorder(candidates: list[JscanCandidate]) -> list[JscanCandidate]:
    """Heuristic prearrangement before any estimation has run.

    More equality-pinned leading columns and more closed bounds usually mean
    fewer RIDs; unique indexes with full equality come first.
    """

    def rank(candidate: JscanCandidate) -> tuple:
        key_range = candidate.key_range
        exact_unique = (
            key_range.lo is not None
            and key_range.lo == key_range.hi
            and candidate.index.unique
            and len(key_range.lo) == len(candidate.index.columns)
        )
        closed_bounds = (key_range.lo is not None) + (key_range.hi is not None)
        equality = key_range.lo == key_range.hi and key_range.lo is not None
        prefix_length = len(key_range.lo or key_range.hi or ())
        return (
            0 if exact_unique else 1,
            0 if equality else 1,
            -closed_bounds,
            -prefix_length,
            candidate.index.name,
        )

    return sorted(candidates, key=rank)


def _context_preorder(
    candidates: list[JscanCandidate], context: IterationContext
) -> list[JscanCandidate]:
    """Start from the order the previous execution settled on."""
    position = {name: i for i, name in enumerate(context.last_order)}
    return sorted(
        candidates,
        key=lambda candidate: position.get(candidate.index.name, len(position)),
    )


def _apply_feedback(
    candidate: JscanCandidate | SscanCandidate,
    feedback: Any,
    table_name: str,
    restriction: Expr,
    estimator: Any = None,
) -> None:
    """Sharpen one inexact estimate from previously observed cardinality.

    Exact estimates (descent reached the range on one split level) are
    already the truth and are never second-guessed; the raw estimate stays
    in ``candidate.estimate`` so the correction never compounds across
    executions. Signature-keyed feedback wins when present; otherwise the
    estimator's self-tuning histogram — refined from *every* observed scan
    of this index, not just this predicate shape — backs up cold
    signatures.
    """
    estimate = candidate.estimate
    if estimate is None or estimate.exact:
        return
    if feedback is not None:
        adjusted = feedback.adjust(
            table_name, candidate.index.name, restriction, estimate.rids
        )
        if adjusted is not None:
            candidate.adjusted_rids = float(adjusted)
            candidate.correction_source = "feedback"
            return
    if estimator is not None:
        key_range = candidate.key_range
        learned = estimator.estimate_range(
            table_name,
            candidate.index.name,
            key_range.lo[0] if key_range.lo else None,
            key_range.hi[0] if key_range.hi else None,
        )
        if learned is not None:
            candidate.adjusted_rids = float(learned)
            candidate.correction_source = "histogram"


_FULL_RANGE = KeyRange.all()

#: id(restriction) -> (restriction, its conjunction terms, index columns ->
#: :func:`column_terms`); the stored reference pins the id
_bindings_memo: dict[int, tuple[Expr, tuple[Expr, ...], dict]] = {}


def _bindings(restriction: Expr) -> tuple[tuple[Expr, ...], dict]:
    """Which terms may bind which index columns, once per restriction object.

    A cached plan hands every execution the same restriction instance (as
    :class:`~repro.cache.PredicateCache` relies on), so the structural
    matching runs once per plan and each execution only folds its host
    variables into bounds.
    """
    entry = _bindings_memo.get(id(restriction))
    if entry is None or entry[0] is not restriction:
        if len(_bindings_memo) >= 2048:
            _bindings_memo.clear()
        entry = (restriction, conjunction_terms(restriction), {})
        _bindings_memo[id(restriction)] = entry
    return entry[1], entry[2]


def _is_unique_point(index: IndexInfo, key_range: KeyRange) -> bool:
    """True when ``key_range`` pins every key column of a unique index."""
    return (
        index.unique
        and key_range.lo is not None
        and key_range.lo == key_range.hi
        and len(key_range.lo) == len(index.columns)
        and key_range.lo_inclusive
        and key_range.hi_inclusive
    )


def run_initial_stage(
    indexes: Sequence[IndexInfo],
    restriction: Expr,
    host_vars: Mapping[str, Any],
    needed_columns: frozenset[str],
    order_by: Sequence[str],
    meter: CostMeter,
    trace: RetrievalTrace,
    config: EngineConfig = DEFAULT_CONFIG,
    context: IterationContext | None = None,
    feedback: Any = None,
    table_name: str = "",
    estimator: Any = None,
    allow_probe: bool = True,
) -> InitialArrangement:
    """Classify, estimate, and arrange the available indexes.

    When a fetch-needed unique index has every key column bound by
    equality (and ``shortcut_rid_count`` admits one RID), the clearest
    Section 5 case needs no estimate at all: the arrangement names that
    index as :attr:`~InitialArrangement.direct` with ``unique`` set, and
    nothing is estimated, ordered or emitted here. ``allow_probe=False``
    (a forced strategy) always arranges in full.

    A "very short range" otherwise ends in :attr:`~InitialArrangement.direct`:
    with the small-range shortcut on, one fetch-needed candidate and nothing else to compete or to order by,
    whose Figure 5 descent counted it in a leaf or split at level 2 over
    leaves that hold at most ``batch_size`` entries.
    """
    terms, by_columns = _bindings(restriction)
    arrangement = InitialArrangement()
    fetch_needed: list[JscanCandidate] = []
    before = meter.total

    for index in indexes:
        candidates = by_columns.get(index.columns)
        if candidates is None:
            candidates = by_columns[index.columns] = column_terms(terms, index.columns)
        if candidates[0]:
            index_restriction = extract_index_restriction(
                terms, index.columns, host_vars, candidates
            )
            key_range = index_restriction.key_range
            matched = index_restriction.matched
        else:
            key_range, matched = _FULL_RANGE, False
        if index.provides_order(order_by) and arrangement.order_index is None:
            arrangement.order_index = JscanCandidate(index=index, key_range=key_range)
        if index.covers(needed_columns):
            arrangement.sscan_candidates.append(
                SscanCandidate(index=index, key_range=key_range)
            )
        elif matched:
            fetch_needed.append(JscanCandidate(index=index, key_range=key_range))

    if allow_probe and config.shortcut_rid_count >= 1:
        for candidate in fetch_needed:
            if _is_unique_point(candidate.index, candidate.key_range):
                arrangement.direct = candidate
                arrangement.unique = True
                arrangement.skipped_estimates = (
                    len(fetch_needed) + len(arrangement.sscan_candidates) - 1
                )
                return arrangement

    # prearrange: iteration context first, static heuristic otherwise
    if context is not None and context.last_order:
        fetch_needed = _context_preorder(fetch_needed, context)
    else:
        fetch_needed = _static_preorder(fetch_needed)

    # estimate in prearranged order, with shortcut and empty detection
    for position, candidate in enumerate(fetch_needed):
        candidate.estimate = estimate_range(
            candidate.index.btree, candidate.key_range, meter
        )
        _apply_feedback(candidate, feedback, table_name, restriction, estimator)
        detail: dict[str, Any] = dict(
            index=candidate.index.name,
            range=candidate.key_range.describe(),
            rids=round(candidate.estimate.rids, 1),
            exact=candidate.estimate.exact,
        )
        if candidate.adjusted_rids is not None:
            label = (
                "learned_rids"
                if candidate.correction_source == "histogram"
                else "feedback_rids"
            )
            detail[label] = round(candidate.adjusted_rids, 1)
        trace.emit(EventKind.INITIAL_ESTIMATE, **detail)
        if candidate.estimate.is_empty:
            trace.emit(EventKind.SHORTCUT_EMPTY, index=candidate.index.name)
            arrangement.empty = True
            arrangement.estimation_cost = meter.total - before
            return arrangement
        if candidate.estimated_rids <= config.shortcut_rid_count:
            trace.emit(
                EventKind.SHORTCUT_SMALL_RANGE,
                index=candidate.index.name,
                rids=round(candidate.estimated_rids, 1),
                skipped_estimates=len(fetch_needed) - position - 1,
            )
            arrangement.shortcut = True
            break

    # final order: estimated candidates ascending, unestimated after in
    # prearranged order
    estimated = [c for c in fetch_needed if c.estimate is not None]
    unestimated = [c for c in fetch_needed if c.estimate is None]
    estimated.sort(key=lambda candidate: candidate.estimated_rids)
    arrangement.jscan_candidates = estimated + unestimated
    trace.emit(
        EventKind.INDEXES_ORDERED,
        order=[candidate.index.name for candidate in arrangement.jscan_candidates],
    )

    # estimate self-sufficient candidates (scan cost ~ range size)
    for candidate in arrangement.sscan_candidates:
        candidate.estimate = estimate_range(
            candidate.index.btree, candidate.key_range, meter
        )
        _apply_feedback(candidate, feedback, table_name, restriction, estimator)
    arrangement.sscan_candidates.sort(key=lambda candidate: candidate.estimated_rids)
    if arrangement.sscan_candidates:
        arrangement.best_sscan = arrangement.sscan_candidates[0]
        best = arrangement.best_sscan
        if best.estimate.is_empty:
            # a provably empty range proves the whole conjunction empty
            # (an empty *full* range just means the table itself is empty)
            trace.emit(EventKind.SHORTCUT_EMPTY, index=best.index.name)
            arrangement.empty = True

    if (
        config.shortcut_rid_count >= 1
        and not order_by
        and not arrangement.sscan_candidates
        and len(arrangement.jscan_candidates) == 1
    ):
        candidate = arrangement.jscan_candidates[0]
        leaves = candidate.estimate.bounded_leaves() if candidate.estimate else None
        if leaves is not None and leaves * candidate.index.btree.order <= config.batch_size:
            arrangement.direct = candidate

    arrangement.estimation_cost = meter.total - before
    return arrangement
