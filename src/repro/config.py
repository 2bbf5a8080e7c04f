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
    #: Replace the deterministic 95% projection threshold with the
    #: decision-theoretic posterior rule of
    #: :mod:`repro.competition.probabilistic` ([Ant91B]'s "probabilistic
    #: cost model" direction).
    probabilistic_switch: bool = False

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

    # --- observability ------------------------------------------------------
    #: Fraction of queries traced with a full span timeline (0.0 = tracing
    #: off, 1.0 = every query). Sampling is deterministic by submission
    #: ticket (see :func:`repro.obs.should_sample`); EXPLAIN ANALYZE forces
    #: a trace regardless of the rate. The disabled path is held to a <2%
    #: throughput budget by ``benchmarks/bench_trace_overhead.py``.
    trace_sample_rate: float = 0.0
    #: Queries slower than this (wall milliseconds) are captured by the
    #: flight recorder: full span tree + decision log written to the
    #: server's ``flight_sink`` as one JSONL record. 0 disables.
    slow_query_ms: float = 0.0
    #: Statements whose realized regret (chosen replay cost above the
    #: best rejected alternative — only EXPLAIN COMPETE computes it) meets
    #: this threshold are captured by the flight recorder. 0 disables.
    regret_threshold: float = 0.0
    #: Engine-step budget for each counterfactual replay
    #: (:mod:`repro.obs.regret`); a replay hitting the cap is truncated and
    #: its partial cost stands as a lower bound. 0 = unbounded.
    replay_budget_steps: int = 250_000

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

    # --- continuous monitoring ---------------------------------------------
    #: Seconds between time-series samples (the registry snapshots the
    #: server's cumulative counters and derives per-interval rates:
    #: queries/sec, p50/p95 latency, hit rates, q-error, regret mass).
    #: 0 disables monitoring: the scheduler creates no time-series
    #: registry and pays nothing per quantum
    #: (``benchmarks/bench_monitor_overhead.py`` gates the *on* path).
    monitor_interval: float = 0.25
    #: Windows a drift detector observes before it may fire (baseline
    #: warm-up; transient start-of-run noise never pages anyone).
    drift_min_intervals: int = 3
    #: SLO: window p95 latency at or above this many wall milliseconds is
    #: a critical health finding. 0 disables the rule.
    slo_p95_latency_ms: float = 0.0
    #: SLO: window buffer-pool hit rate below this fraction is a critical
    #: health finding. 0 disables the rule.
    slo_min_hit_rate: float = 0.0
    #: SLO: window p95 admission queue wait (scheduling quanta) at or
    #: above this is a critical health finding. 0 disables the rule.
    slo_max_queue_wait_p95: float = 0.0
    #: SLO: realized regret mass (cost units) accumulated within one
    #: window at or above this is a critical health finding. 0 disables.
    slo_regret_mass: float = 0.0

    def with_(self, **changes) -> "EngineConfig":
        """Return a copy of this config with ``changes`` applied."""
        return replace(self, **changes)


#: Shared default configuration.
DEFAULT_CONFIG = EngineConfig()
