"""Engine tuning constants.

The paper describes several knobs that control the dynamic optimizer; they are
collected here in a single dataclass so benchmarks can sweep them (e.g. the
95% switch threshold of Section 6) and tests can pin them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the dynamic single-table retrieval engine.

    Defaults follow the paper where it states a number, and otherwise use
    values that reproduce the qualitative behaviour the paper describes.
    """

    # --- Section 6: Jscan two-stage competition -------------------------
    #: Terminate an index scan when the projected final-retrieval cost
    #: reaches this fraction of the guaranteed best cost ("e.g. becomes 95%").
    switch_threshold: float = 0.95
    #: Direct-competition limit: an index scan is abandoned when its own scan
    #: cost exceeds this proportion of the guaranteed best cost.
    scan_cost_limit_fraction: float = 0.5
    #: Run limited simultaneous scans of adjacent index pairs to dynamically
    #: reorder them (Section 6, "partially change the order of index scans").
    simultaneous_adjacent_scans: bool = True

    # --- Section 6: hybrid RID list storage regions ---------------------
    #: "Lists up to 20 RIDs are stored in a small statically-allocated buffer."
    static_rid_buffer_size: int = 20
    #: Allocated in-memory buffer capacity (RIDs) before spilling to a
    #: temporary table + bitmap.
    allocated_rid_buffer_size: int = 4096
    #: Bitmap filter size in bits ("as small as necessary").
    bitmap_bits: int = 1 << 16
    #: RIDs per TEMP page when a list spills to a temporary table (small
    #: values make spills page out quickly — used by cancellation tests).
    temp_rids_per_page: int = 512

    # --- Section 5: initial stage ----------------------------------------
    #: A range estimate at or below this RID count is a "very short range":
    #: the initial stage stops estimating the remaining indexes immediately.
    shortcut_rid_count: int = 20

    # --- Section 7: tactics ----------------------------------------------
    #: Foreground RID buffer capacity for fast-first / index-only tactics.
    foreground_buffer_size: int = 4096

    # --- batched execution -------------------------------------------------
    #: Engine steps executed per scheduling quantum: step generators (tactics,
    #: retrieval, SQL executor) yield control to the multi-query scheduler
    #: once per ``batch_size`` steps instead of once per step, and solo scan
    #: phases run ``batch_size`` steps in one tight ``Process.run_batch``
    #: call. ``1`` restores exact row-at-a-time interleaving; cost accounting
    #: in I/O units is identical at every setting for retrievals that run to
    #: completion (see docs/performance.md).
    batch_size: int = 64

    # --- prepared statements / plan cache -----------------------------------
    #: Capacity (entries) of the server-wide LRU plan cache shared by every
    #: session of a :class:`~repro.db.session.Database`. A cached entry skips
    #: tokenize/parse/bind on re-execution and carries the statement's
    #: compiled-predicate cache. ``0`` disables plan caching *and* the
    #: adaptive selectivity feedback below, restoring plan-per-execution
    #: behaviour exactly.
    plan_cache_size: int = 64
    #: Record estimated-vs-actual cardinality per (table, index,
    #: predicate-signature) after each retrieval and use the learned
    #: correction to sharpen the next execution's initial estimates (tactic
    #: choice, shortcut tests, and Jscan stage-switch projections). Only
    #: inexact (descent-truncated) estimates are ever adjusted; exact counts
    #: are already ground truth. Ignored when ``plan_cache_size`` is 0.
    selectivity_feedback: bool = True

    # --- join competition ---------------------------------------------------
    #: Engine-step budget each pilot runs before the switch rule is applied
    #: between orders (scaled by the driving table's size when larger).
    join_pilot_steps: int = 256

    # --- estimation quality -------------------------------------------------
    #: Skip the pilot race when the competing candidates' estimates are
    #: demonstrably trustworthy (confidence at or above
    #: ``COMPETITION_CONFIDENCE`` with at least
    #: ``CONFIDENCE_MIN_OBSERVATIONS`` observations, both in
    #: :mod:`repro.estimate.qerror`); the skip is recorded as the
    #: retrieval's ``DecisionKind.TACTIC_SELECTION`` with
    #: ``basis="trusted"`` and its confidence inputs.
    #: False restores always-compete.
    competition_gate: bool = True

    def with_(self, **changes) -> "EngineConfig":
        """Return a copy of this config with ``changes`` applied."""
        return replace(self, **changes)


#: Shared default configuration.
DEFAULT_CONFIG = EngineConfig()
