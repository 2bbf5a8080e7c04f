"""Jscan a leaf run at a time, the final stage a page run at a time.

Both advance routines take many steps per Python-level iteration. Every
scenario here runs the same process twice — chunked, and through the
per-entry (per-record) loop it replaced, kept as an oracle (see
``tests/advance_oracles.py``) — and requires everything it leaves behind to be ``==``: rows, RIDs,
events, notes, counters, every ``CostMeter`` field, pool and owner counts,
the step count and the pins.
"""

from __future__ import annotations

import copy
import math
import pickle
import sys
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.config import DEFAULT_CONFIG
from repro.db.session import Database
from repro.engine.final_stage import FinalStageProcess
from repro.engine.initial import run_initial_stage
from repro.engine.jscan import JscanProcess, _cost_reach
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.engine.scans import CollectingSink
from repro.errors import RecordNotFoundError
from repro.expr.ast import ALWAYS_TRUE, col
from repro.obs import SteppingClock
from repro.storage.buffer_pool import ENTRY_CPU_COST, CostMeter
from repro.storage.pager import DiskStats, PageKind
from repro.storage.rid import make_rid, rid_page, rid_slot, yao_pages_touched, yao_reach

from tests.advance_oracles import PerEntryJscan, RowAtATimeFinalStage
from tests.test_engine_batch import (
    BATCH_SIZES,
    TINY_BUFFERS,
    abandon_positions,
    build_jscan_db,
    build_scan_db,
    ranges,
)


# -- Jscan ---------------------------------------------------------------------


def observe_jscan(cls, expr, drive, config=DEFAULT_CONFIG, built=None, estimates=None,
                  **kwargs):
    """Everything one Jscan run leaves behind, from a cold pool; ``drive``
    is ``"step"`` or a ``run_batch`` size; ``estimates`` overrides the
    candidates' RID estimates. An ``on_keep`` tap is always installed."""
    db, table = build_jscan_db(config) if built is None else built
    db.cold_cache()
    pool = table.buffer_pool
    hits, misses = pool.hits, pool.misses
    tapped = []
    trace = RetrievalTrace()
    arrangement = run_initial_stage(
        list(table.indexes.values()), expr, {}, frozenset(table.schema.names),
        (), CostMeter(), trace, config,
    )
    if not arrangement.jscan_candidates:
        return None  # a shortcut: no index to scan
    for candidate, estimate in zip(arrangement.jscan_candidates, estimates or ()):
        candidate.adjusted_rids = estimate
    jscan = cls(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, config,
        on_keep=lambda rid, pos: tapped.append((rid, pos)), **kwargs,
    )
    if drive == "step":
        while jscan.active and not jscan.step():
            pass
    else:
        while jscan.active and not jscan.run_batch(drive)[1]:
            pass
    meter = jscan.meter
    return {
        "events": [(event.kind, event.detail) for event in trace.events],
        "notes": trace.notes,
        "meter": {**asdict(meter), "total": meter.total, "io_total": meter.io_total},
        "counters": asdict(trace.counters),
        "scans": (jscan.completed_scans, jscan.abandoned_scans, jscan.reorders),
        "outcome": (jscan.finished, jscan.tscan_recommended, jscan.empty),
        "steps": jscan.steps_taken,
        "rids": None if jscan.result_list is None else jscan.sorted_result(),
        "tapped": tapped,
        "pinned": dict(pool._pinned),
        "pool": (pool.hits - hits, pool.misses - misses, list(pool._cache)),
    }


PAUSING = DEFAULT_CONFIG.with_(
    allocated_rid_buffer_size=40, switch_threshold=5.0, scan_cost_limit_fraction=5.0
)
PROMOTING = DEFAULT_CONFIG.with_(static_rid_buffer_size=3)
SPILLING = DEFAULT_CONFIG.with_(**TINY_BUFFERS)
SINGLE = DEFAULT_CONFIG.with_(simultaneous_adjacent_scans=False)

#: name -> (restriction, config)
SCENARIOS = {
    "fire-on-leaf-first-entry": (ranges((0, 10), (4, 124)), DEFAULT_CONFIG),
    "fire-mid-leaf": (ranges((0, 10), (0, 280)), DEFAULT_CONFIG),
    "fire-on-leaf-last-entry": (ranges((0, 120), (10, 15)), DEFAULT_CONFIG),
    "fire-single-scan": (ranges((0, 10), (0, 280)), SINGLE),
    "pair-fires-on-partner-turn": (ranges((0, 30), (0, 120)), DEFAULT_CONFIG),
    "pair-partner-pauses": (ranges((0, 199), (0, 150)), PAUSING),
    "pair-reorders": (ranges((0, 3), (0, 5)), DEFAULT_CONFIG),
    "three-indexes": (ranges((0, 120), (40, 200), (10, 60)), DEFAULT_CONFIG),
    "static-to-allocated": (ranges((0, 60), (0, 150)), PROMOTING),
    "spill-mid-chunk": (ranges((0, 120), (40, 200), (10, 60)), SPILLING),
    "empty-intersection": (ranges((0, 5), (296, 299)), DEFAULT_CONFIG),
    "scan-cost": (ranges((0, 30), (0, 30)), DEFAULT_CONFIG.with_(
        scan_cost_limit_fraction=0.05)),
}


def reference(name):
    expr, config = SCENARIOS[name]
    return observe_jscan(PerEntryJscan, expr, "step", config)


def partner_paused(expr, config):
    """Whether, stepping one entry at a time, a pair's partner ever holds
    ``allocated_rid_buffer_size`` RIDs — and so stops taking its turns."""
    db, table = build_jscan_db(config)
    trace = RetrievalTrace()
    arrangement = run_initial_stage(
        list(table.indexes.values()), expr, {}, frozenset(table.schema.names),
        (), CostMeter(), trace, config,
    )
    jscan = PerEntryJscan(arrangement.jscan_candidates, table.heap, table.buffer_pool,
                          trace, config)
    paused = False
    while jscan.active and not jscan.step():
        partner = jscan._partner
        paused |= partner is not None and len(partner.rid_list) >= config.allocated_rid_buffer_size
    return paused


def reasons(observation):
    return [detail.get("reason") for kind, detail in observation["events"]
            if kind is EventKind.SCAN_ABANDONED]


class TestJscanChunks:
    def test_scenarios_are_what_their_names_say(self):
        for name, at in (("fire-on-leaf-first-entry", "first"),
                         ("fire-mid-leaf", "middle"),
                         ("fire-on-leaf-last-entry", "last")):
            expr = SCENARIOS[name][0]
            positions = abandon_positions(expr)
            assert any(
                {"first": pos == 0, "middle": 0 < pos < length - 1,
                 "last": pos == length - 1}[at]
                for pos, length in positions
            ), name
        seen = reference("pair-fires-on-partner-turn")
        pair = next(d for k, d in seen["events"] if k is EventKind.SIMULTANEOUS_PAIR)
        abandoned = [d["index"] for k, d in seen["events"] if k is EventKind.SCAN_ABANDONED]
        assert pair["partner"] in abandoned
        expr, config = SCENARIOS["pair-partner-pauses"]
        assert partner_paused(expr, config)
        assert EventKind.REORDERED in [k for k, _ in reference("pair-reorders")["events"]]
        seen = reference("static-to-allocated")
        assert max(d.get("kept", 0) for _, d in seen["events"]) > PROMOTING.static_rid_buffer_size
        seen = reference("spill-mid-chunk")
        assert EventKind.SPILL in [k for k, _ in seen["events"]]
        assert seen["meter"]["io_writes"] > 0
        assert reference("empty-intersection")["outcome"][2]
        assert "scan-cost" in reasons(reference("scan-cost"))
        assert all(reference(name)["tapped"] or name == "empty-intersection"
                   for name in SCENARIOS)

    @pytest.mark.parametrize("drive", ["step", *BATCH_SIZES])
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_chunks_match_the_per_entry_loop(self, name, drive):
        expr, config = SCENARIOS[name]
        expected = observe_jscan(PerEntryJscan, expr, drive, config)
        seen = observe_jscan(JscanProcess, expr, drive, config)
        assert seen == expected
        assert seen["pinned"] == {}


@pytest.mark.parametrize("drive", ["step", *BATCH_SIZES])
@pytest.mark.parametrize("estimates", [(0.0, 0.0), (3.0, 0.0), (0.0, 5000.0)])
def test_chunks_match_the_per_entry_loop_on_a_zero_estimate(estimates, drive):
    # a learned estimate of no RIDs for a range that holds some: every
    # fraction is 1, and the pair's second lane may take no step at all
    expr = ranges((0, 40), (0, 120))
    expected = observe_jscan(PerEntryJscan, expr, drive, estimates=estimates)
    seen = observe_jscan(JscanProcess, expr, drive, estimates=estimates)
    assert seen == expected


@st.composite
def jscan_cases(draw):
    rows = draw(st.integers(200, 900))
    spread = [draw(st.integers(3, 300)) for _ in range(3)]
    multipliers = [draw(st.sampled_from([1, 7, 37, 91, 113])) for _ in range(3)]
    bounds = []
    for column in range(draw(st.integers(2, 3))):
        lo = draw(st.integers(0, spread[column] - 1))
        hi = draw(st.integers(lo, spread[column] - 1))
        bounds.append((column, lo, hi))
    config = DEFAULT_CONFIG.with_(
        simultaneous_adjacent_scans=draw(st.booleans()),
        static_rid_buffer_size=draw(st.sampled_from([2, 20])),
        allocated_rid_buffer_size=draw(st.sampled_from([8, 60, 4096])),
        temp_rids_per_page=draw(st.sampled_from([4, 512])),
        switch_threshold=draw(st.sampled_from([0.5, 0.95, 2.0])),
        scan_cost_limit_fraction=draw(st.sampled_from([0.05, 0.5])),
    )
    drive = draw(st.sampled_from(["step", 1, 2, 3, 17, 64]))
    order = draw(st.sampled_from([4, 6, 32]))
    return rows, spread, multipliers, bounds, config, drive, order


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jscan_cases())
def test_chunks_match_the_per_entry_loop_on_random_data(case):
    rows, spread, multipliers, bounds, config, drive, order = case
    db = Database(buffer_capacity=32, config=config)
    table = db.create_table(
        "R", [("X", "int"), ("Y", "int"), ("Z", "int"), ("W", "int")],
        rows_per_page=8, index_order=order,
    )
    table.insert_many(
        tuple((i * multipliers[c] + c) % spread[c] for c in range(3)) + (i,)
        for i in range(rows)
    )
    for column in "XYZ":
        table.create_index(f"IX_{column}", [column])
    table.analyze()
    expr = ALWAYS_TRUE
    for column, lo, hi in bounds:
        term = col("XYZ"[column]).between(lo, hi)
        expr = term if expr is ALWAYS_TRUE else expr & term
    expected = observe_jscan(PerEntryJscan, expr, drive, config, (db, table))
    seen = observe_jscan(JscanProcess, expr, drive, config, (db, table))
    assert seen == expected


#: (heap pages, records per page) of every table the benchmarks scan with
#: Jscan: the e2e workloads' tables (32 rows a page; full and smoke sizes,
#: ``ingest_churn`` after its inserts), Section 6's PARTS, and this suite's
BENCHMARK_SHAPES = [
    (157, 32), (63, 32), (13, 32), (938, 32), (1023, 32), (250, 32), (16, 32),
    (5, 32), (50, 32), (25, 32), (200, 32), (188, 32), (150, 8), (1, 32),
]


@pytest.mark.parametrize("pages,per_page", BENCHMARK_SHAPES)
def test_integer_yao_verdict_equals_the_float_one(pages, per_page):
    """The one count ``yao_reach`` gives is where the projection starts to
    fire; with Yao never falling (``tests/test_storage_rid.py``), ``k >= K``
    is the float verdict ``yao_pages_touched(k) >= target`` for every k."""
    n = pages * per_page
    targets = {0.95 * pages, float(pages), pages + 1.0, 0.0}
    for k in (1, 20, 100, 999, 1000, 1001, 1002, 4096, n // 2, n - 1):
        if 0 < k <= n:
            value = yao_pages_touched(pages, per_page, k)
            targets |= {value, 0.95 * value, math.nextafter(value, math.inf)}
    for target in sorted(targets):
        reach = yao_reach(pages, per_page, target)
        if reach > n:
            assert reach == sys.maxsize and yao_pages_touched(pages, per_page, n) < target
            continue
        assert yao_pages_touched(pages, per_page, reach) >= target, target
        assert reach == 0 or yao_pages_touched(pages, per_page, reach - 1) < target, target


@given(st.integers(min_value=0, max_value=10**4),
       st.floats(min_value=-1.0, max_value=2e4, allow_nan=False),
       st.sampled_from([0.0, 1e-12, -1e-12]))
@settings(max_examples=500, deadline=None)
def test_cost_reach_is_the_first_count_at_the_limit(io, limit, nudge):
    """The closed form, confirmed: the fewest scanned entries at which the
    scan cost (as ``_IndexScan.scan_cost`` computes it) reaches the limit,
    also where the quotient rounds to the wrong side of a count."""
    limit = io + round(limit * 5000) * ENTRY_CPU_COST + nudge if limit > 0 else limit
    n = _cost_reach(io, limit)
    assert io + n * ENTRY_CPU_COST >= limit
    assert n == 0 or io + (n - 1) * ENTRY_CPU_COST < limit


def test_cost_reach_of_a_limit_that_is_not_finite():
    assert _cost_reach(3, math.inf) == math.inf
    assert _cost_reach(3, math.nan) == math.inf
    assert _cost_reach(3, -math.inf) == 0


# -- the final stage -----------------------------------------------------------


def observe_final(cls, expr, drive, rids=None, stop_after=None, skip=None):
    """Everything one final stage leaves behind, on ``build_scan_db``'s table
    (holes, a deleted page, and one record whose C is a string)."""
    db, table, _ = build_scan_db()
    db.cold_cache()
    pool = table.buffer_pool
    pool.current_owner = "session-1"
    if rids is None:
        rids = [rid for rid, _ in table.heap.scan()]
    sink = CollectingSink([], [], stop_after)
    trace = RetrievalTrace()
    final = cls(rids, table.heap, table.schema, expr, {}, sink, trace,
                table.config, skip_rids=skip)
    error = None
    try:
        if drive == "step" and cls is FinalStageProcess:
            while final.active and not final.step():
                pass
        elif drive == "step":
            # the row-at-a-time ``step()`` skipped the read-ahead that its
            # ``run_batch(1)`` made; a step is now a batch of one
            while final.active and not final.run_batch(1)[1]:
                pass
        else:
            while final.active and not final.run_batch(drive)[1]:
                pass
    except (TypeError, RecordNotFoundError) as raised:
        error = (type(raised), str(raised))
    return {
        "rows": sink.rows,
        "rids": sink.rids,
        "meter": asdict(final.meter),
        "counters": asdict(trace.counters),
        "process": (final.delivered, final.rejected, final.skipped, final._next,
                    final.stopped_by_consumer, final.finished),
        "steps": final.steps_taken if error is None else None,
        "error": error,
        "pool": (pool.hits, pool.misses, pool.prefetched, list(pool._cache)),
        "owner": pool.owner_stats.get("session-1"),
        "pinned": dict(pool._pinned),
    }


def _deleted_rid():
    _, table, _ = build_scan_db()
    live = {rid for rid, _ in table.heap.scan()}
    return next(make_rid(page, slot) for page in range(table.heap.page_count)
                for slot in range(8) if make_rid(page, slot) not in live)


def _every_slot():
    _, table, _ = build_scan_db()
    return [make_rid(page, slot) for page in range(table.heap.page_count) for slot in range(8)]


#: name -> (restriction, RIDs (None: every live record), consumer stop, skip)
FINAL_SCENARIOS = {
    "all": (ALWAYS_TRUE, None, None, None),
    "filter": (col("B") < 40, None, None, None),
    "stop-mid-page": (col("B") < 40, None, 5, None),
    "stop-on-first-row": (ALWAYS_TRUE, None, 1, None),
    "skip-rids": (col("B") < 60, None, 37, lambda rid: rid_slot(rid) % 3 == 0),
    "skip-rids-to-the-end": (ALWAYS_TRUE, None, None, lambda rid: rid_page(rid) % 2 == 0),
    "raises": (col("C") >= 0, None, None, None),
    "stop-before-raise": (col("C") >= 0, None, 100, None),
    "deleted-slot": (ALWAYS_TRUE, "deleted", None, None),
    "sparse": (col("A") < 20, "sparse", None, None),
    "empty": (ALWAYS_TRUE, "empty", None, None),
}


def final_rids(kind):
    if kind == "deleted":
        return sorted(_every_slot()[:90])
    if kind == "sparse":
        return [rid for rid in _every_slot() if rid_slot(rid) == 3 and rid_page(rid) != 5]
    if kind == "empty":
        return []
    return None


class TestFinalStagePageRuns:
    def test_scenarios_are_what_their_names_say(self):
        def seen(name):
            expr, kind, stop, skip = FINAL_SCENARIOS[name]
            return observe_final(RowAtATimeFinalStage, expr, "step", final_rids(kind), stop, skip)

        assert seen("raises")["error"][0] is TypeError and seen("raises")["rows"]
        assert seen("deleted-slot")["error"][0] is RecordNotFoundError
        assert _deleted_rid() in _every_slot()[:90]
        assert seen("stop-mid-page")["process"][4]
        last = seen("stop-mid-page")["rids"][-1]
        assert rid_slot(last) not in (0, 7)
        assert seen("skip-rids")["process"][2] > 0
        assert seen("stop-before-raise")["error"] is None
        assert seen("all")["meter"]["buffer_hits"] > 0 and seen("all")["owner"].hits > 0

    @pytest.mark.parametrize("drive", ["step", *BATCH_SIZES])
    @pytest.mark.parametrize("name", FINAL_SCENARIOS)
    def test_page_runs_match_row_at_a_time(self, name, drive):
        expr, kind, stop, skip = FINAL_SCENARIOS[name]
        rids = final_rids(kind)
        expected = observe_final(RowAtATimeFinalStage, expr, drive, rids, stop, skip)
        seen = observe_final(FinalStageProcess, expr, drive, rids, stop, skip)
        assert seen == expected
        assert seen["pinned"] == {}


# -- PageKind hashes by identity ------------------------------------------------


def test_page_kind_hashing_keeps_every_reads_by_kind_view():
    assert hash(PageKind.HEAP) == object.__hash__(PageKind.HEAP)
    meter = CostMeter(name="m")
    for kind in (PageKind.HEAP, PageKind.HEAP, PageKind.INDEX, PageKind.TEMP):
        meter.charge_read(kind)
    assert meter.reads_by_kind == {PageKind.HEAP: 2, PageKind.INDEX: 1, PageKind.TEMP: 1}
    assert list(meter.reads_by_kind) == list(PageKind)
    for clone in (copy.copy(meter), copy.deepcopy(meter), pickle.loads(pickle.dumps(meter)),
                  meter.snapshot()):
        assert clone == meter
        assert clone.reads_by_kind[PageKind.HEAP] == 2
    assert PageKind("heap") is PageKind.HEAP and PageKind["TEMP"] is PageKind.TEMP
    stats = DiskStats()
    stats.reads_by_kind[PageKind.INDEX] += 3
    snapshot = stats.snapshot()
    assert snapshot == stats and snapshot.reads_by_kind is not stats.reads_by_kind
    assert snapshot.reads_by_kind == {PageKind.HEAP: 0, PageKind.INDEX: 3, PageKind.TEMP: 0}


# -- reading health changes nothing ------------------------------------------------


def test_reading_health_twice_without_traffic_changes_nothing():
    clock = SteppingClock(auto=0.0005)
    conn = repro.connect(clock=clock, slo={"p95_latency_ms": 0.001})
    conn.execute("create table T (ID int, A int)")
    conn.table("T").insert_many((i, i % 7) for i in range(200))
    for value in range(5):
        conn.execute("select * from T where A = :V", {"V": value})
    monitor, health = conn.metrics.monitor, conn.metrics.health
    first = conn.health()
    state = (monitor.samples_taken, monitor.windows(), dict(health.breaches), health.incidents)
    second = conn.health()
    assert second.status == first.status
    assert (monitor.samples_taken, monitor.windows(), dict(health.breaches),
            health.incidents) == state
    # traffic in between: the next read samples again
    conn.execute("select * from T where A = 1")
    conn.health()
    assert monitor.samples_taken > state[0]
