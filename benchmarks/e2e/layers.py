"""Where the tracer cuts the program into layers, and the per-layer metrics.

Layers are the packages of ``src/repro``; a span's layer is the part of
its name before the first dot. :func:`wrap_plan` lists every boundary the
traced phase wraps; :func:`layer_metrics` turns the three sources — counter
deltas, span totals and leaf replays — into the named per-layer metrics of
``BENCHMARK.json``. The metric names here are cited verbatim by later
issues; the README glossary defines each one.
"""

from __future__ import annotations

import statistics
import time

from harness import buffer_pools
from trace import Tracer

perf_counter = time.perf_counter

LAYERS = ("api", "sql", "cache", "expr", "btree", "storage", "engine",
          "estimate", "partition", "server", "obs", "db")

ANALYTIC_CLASSES = ("tscan_filter", "sscan_range", "union_or_in", "sorted_limit",
                    "join_3table", "partitioned_range")

#: every per-layer metric: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "sql.parse_bind_us_per_stmt": ("us", "lower"),
    "sql.executor_self_ms_per_op": ("ms", "lower"),
    "cache.plan_hit_rate": ("ratio", "higher"),
    "cache.plan_lookup_us_per_op": ("us", "lower"),
    "cache.feedback_adjustments_per_op": ("count", "lower"),
    "cache.feedback_self_us_per_op": ("us", "lower"),
    "expr.compile_us_per_predicate": ("us", "lower"),
    "expr.eval_ns_per_row": ("ns", "lower"),
    "expr.eval_rows_per_op": ("count", "lower"),
    "btree.estimate_us_per_call": ("us", "lower"),
    "btree.pages_per_lookup": ("count", "lower"),
    "btree.range_entries_per_s": ("1/s", "higher"),
    "btree.insert_us": ("us", "lower"),
    "btree.delete_us": ("us", "lower"),
    "btree.splits_per_kinsert": ("count", "lower"),
    "storage.pool_hit_rate": ("ratio", "higher"),
    "storage.pool_evictions_per_op": ("count", "lower"),
    "storage.pool_get_ns": ("ns", "lower"),
    "storage.pool_gets_per_op": ("count", "lower"),
    "storage.heap_fetch_us": ("us", "lower"),
    "storage.pager_reads_per_op": ("count", "lower"),
    "storage.pager_writes_per_op": ("count", "lower"),
    "storage.yao_calls_per_op": ("count", "lower"),
    "storage.yao_us_per_call": ("us", "lower"),
    "storage.ridlist_spills_per_op": ("count", "lower"),
    "engine.initial_ms_per_op": ("ms", "lower"),
    "engine.jscan_self_ms_per_op": ("ms", "lower"),
    "engine.jscan_entries_per_s": ("1/s", "higher"),
    "engine.rid_fetch_cost_calls_per_op": ("count", "lower"),
    "engine.scan_rows_per_s.tscan": ("1/s", "higher"),
    "engine.scan_rows_per_s.sscan": ("1/s", "higher"),
    "engine.union_ms_per_op": ("ms", "lower"),
    "engine.final_fetch_ms_per_op": ("ms", "lower"),
    "engine.switches_per_op": ("count", "lower"),
    "engine.abandons_per_op": ("count", "lower"),
    "engine.competitions_run_share": ("ratio", "lower"),
    "engine.fetch_waste_ratio": ("ratio", "higher"),
    "engine.join_ms_per_op": ("ms", "lower"),
    "engine.join_order_switches_per_op": ("count", "lower"),
    **{f"engine.class_p50_ms.{cls}": ("ms", "lower") for cls in ANALYTIC_CLASSES},
    "estimate.record_us_per_op": ("us", "lower"),
    "estimate.gate_skip_ratio": ("ratio", "higher"),
    "estimate.qerror_p50": ("ratio", "lower"),
    "partition.scatter_ms_per_op": ("ms", "lower"),
    "partition.merge_rows_per_s": ("1/s", "higher"),
    "partition.pruned_ratio": ("ratio", "higher"),
    "server.step_self_us_per_quantum": ("us", "lower"),
    "server.quanta_per_op": ("count", "lower"),
    "server.submit_us": ("us", "lower"),
    "server.queue_wait_quanta_p95": ("count", "lower"),
    "server.metrics_self_us_per_op": ("us", "lower"),
    "obs.monitor_self_us_per_op": ("us", "lower"),
    "obs.telemetry_share_pct": ("%", "lower"),
    "db.insert_us_per_row": ("us", "lower"),
    "db.index_build_s": ("s", "lower"),
    "db.analyze_s": ("s", "lower"),
    "workloads.gen_s": ("s", "lower"),
    **{f"share.{layer}_pct": ("%", "lower") for layer in LAYERS},
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
}


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def wrap_plan(tracer: Tracer, step_counts: dict[str, int], multi_session: bool) -> None:
    """Wrap every layer boundary. ``step_counts`` receives engine steps
    per process label (a step is one index entry or one record). With
    several sessions in flight an op is identified by its statement's
    submission ticket instead of the client's op number."""
    from repro import api
    from repro.btree import estimate as btree_estimate
    from repro.btree.tree import BTree, RangeCursor
    from repro.cache.feedback import FeedbackStore
    from repro.cache.plan_cache import PlanCache
    from repro.cache.predicates import PredicateCache
    from repro.cache.prepared import PreparedStatement
    from repro.competition.process import Process
    from repro.db.partitioned import PartitionedTable
    from repro.db.table import Table
    from repro.engine import initial
    from repro.engine.final_stage import FinalStageProcess
    from repro.engine.join import competition as join_competition
    from repro.engine.join.process import JoinOrderProcess
    from repro.engine.jscan import JscanProcess
    from repro.engine.retrieval import SingleTableRetrieval
    from repro.engine.scans import (
        BatchingSinkMixin, FscanProcess, SscanProcess, TscanProcess)
    from repro.engine.tactics import BorrowingFetchProcess
    from repro.engine.union_scan import UnionScanProcess
    from repro.estimate.qerror import Estimator
    from repro.expr import disjunction, eval as expr_eval, ranges
    from repro.obs.audit import DecisionMetrics
    from repro.obs.timeseries import TimeSeriesRegistry
    from repro.partition import merge, scatter
    from repro.server.metrics import MetricsRegistry
    from repro.server.scheduler import QueryServer
    from repro.sql import binder, executor, parser
    from repro.storage import rid
    from repro.storage.buffer_pool import BufferPool
    from repro.storage.heap import HeapFile
    from repro.storage.hybrid_list import HybridRidList

    method, function = tracer.wrap_method, tracer.wrap_function

    # api / server / obs -------------------------------------------------
    method(api.Connection, "execute", "api.execute")
    method(PreparedStatement, "execute", "cache.prepared_execute")
    method(QueryServer, "submit", "server.submit")
    method(QueryServer, "wait", "server.wait")
    method(QueryServer, "step", "server.step")

    def handle_label(server, handle):
        if multi_session:
            tracer.op_id = handle.ticket
        return "server.step_handle"

    if multi_session:
        method(QueryServer, "_step_handle", handle_label)
    for name in ("record_trace", "record_cache", "record_outcome", "record_completion"):
        method(MetricsRegistry, name, "server.metrics")
    method(DecisionMetrics, "observe_cost", "obs.decisions")
    method(TimeSeriesRegistry, "tick", "obs.monitor")
    method(TimeSeriesRegistry, "note_query", "obs.monitor")

    # sql / cache ----------------------------------------------------------
    function(executor, "execute_sql_steps", "sql.execute_sql_steps")
    function(executor, "execute_prepared_steps", "sql.execute_prepared_steps")
    function(parser, "parse", "sql.parse")
    function(parser, "parse_any", "sql.parse")
    function(binder, "bind", "sql.bind")
    method(PlanCache, "entry_for", "cache.plan_entry_for")
    count_predicate = tracer.counted_callable("expr.eval")
    method(PredicateCache, "get", "cache.predicate_get", result=count_predicate)
    method(FeedbackStore, "record", "cache.feedback")
    method(FeedbackStore, "adjust", "cache.feedback")
    method(FeedbackStore, "snapshot_for", "cache.feedback")

    # expr -----------------------------------------------------------------
    function(expr_eval, "compile_predicate", "expr.compile_predicate",
             result=count_predicate)
    function(ranges, "extract_index_restriction", "expr.ranges")
    function(disjunction, "cover_disjuncts", "expr.disjunction")

    # btree ----------------------------------------------------------------
    function(btree_estimate, "estimate_range", "btree.estimate_range")
    method(BTree, "insert", "btree.insert")
    method(BTree, "delete", "btree.delete")
    # wrapped twice: the leaf samples (tree, key range) for the replay,
    # the span around it gives the descent's time to the btree layer
    method(RangeCursor, "__init__", "btree.range_cursor_args", leaf=True)
    method(RangeCursor, "__init__", "btree.range_cursor")
    method(RangeCursor, "next_entries", "btree.next_entries")

    # storage ----------------------------------------------------------------
    method(BufferPool, "get", "storage.pool_get", leaf=True)
    method(BufferPool, "get_many", "storage.pool_get_many")
    method(BufferPool, "prefetch", "storage.pool_prefetch")
    method(HeapFile, "fetch", "storage.heap_fetch")
    method(HeapFile, "fetch_sorted", "storage.heap_fetch_sorted")
    method(HeapFile, "scan_page_run", "storage.heap_scan_page_run")
    method(HeapFile, "insert", "storage.heap_insert")
    method(HeapFile, "delete", "storage.heap_delete")
    function(rid, "yao_pages_touched", "storage.yao", leaf=True)
    method(HybridRidList, "_spill", "storage.ridlist_spill", leaf=True)

    # engine -----------------------------------------------------------------
    labels = {
        JscanProcess: "engine.jscan", TscanProcess: "engine.tscan",
        SscanProcess: "engine.sscan", FscanProcess: "engine.fscan",
        FinalStageProcess: "engine.final_stage", UnionScanProcess: "engine.union_scan",
        BorrowingFetchProcess: "engine.borrow_fetch", JoinOrderProcess: "engine.join_order",
    }

    def process_label(process, *args):
        return labels.get(type(process), "engine.process")

    def count_step(label, outcome):
        step_counts[label] = step_counts.get(label, 0) + 1

    def count_batch(label, outcome):
        step_counts[label] = step_counts.get(label, 0) + outcome[0]

    method(Process, "step", process_label, on_result=count_step)
    method(Process, "run_batch", process_label, on_result=count_batch)
    method(Process, "abandon", process_label)
    method(BatchingSinkMixin, "next_batch", process_label)
    for cls in (JscanProcess, UnionScanProcess):
        method(cls, "next_batch", process_label)
        method(cls, "sorted_result", process_label)
    method(JscanProcess, "rid_fetch_cost", "engine.rid_fetch_cost", leaf=True)
    method(SingleTableRetrieval, "run_steps", "engine.retrieval")
    # the tactic generators run inside ``run_steps`` and belong to the
    # same layer, so they get no span of their own
    function(initial, "run_initial_stage", "engine.initial")
    function(join_competition, "run_join_steps", "engine.join")
    function(join_competition, "_record_switch", "engine.join_order_switch", leaf=True)

    # estimate / partition / db --------------------------------------------
    for name in ("record", "verdict", "combined_verdict", "estimate_range",
                 "histogram_snapshot", "flush"):
        method(Estimator, name, "estimate.estimator")
    function(scatter, "scatter_steps", "partition.scatter")
    function(merge, "merge_sorted_runs", "partition.merge")
    function(merge, "bag_union", "partition.merge")
    for cls in (Table, PartitionedTable):
        method(cls, "select_steps", "db.select_steps")
        method(cls, "insert", "db.insert")
        method(cls, "analyze", "db.analyze")
    method(Table, "delete_rid", "db.delete_rid")


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def snapshot(conn) -> dict[str, float]:
    """The program's public counters, flattened to name -> value."""
    db = conn.db
    out: dict[str, float] = {}
    for name, _kind, _help, labels, value in conn.metrics.scalar_samples():
        if labels is None:
            out[name] = value
        elif labels.get("session") == "<all>":
            suffix = labels.get("outcome")
            out[f"{name}.{suffix}" if suffix else name] = value
    pools = buffer_pools(db)
    out["pool_hits"] = sum(pool.hits for pool in pools)
    out["pool_misses"] = sum(pool.misses for pool in pools)
    out["pool_resident"] = sum(len(pool) for pool in pools)
    out["pager_reads"] = db.pager.stats.reads
    out["pager_writes"] = db.pager.stats.writes
    out["btree_pages"] = sum(
        1
        for table in db.tables.values()
        for part in getattr(table, "partitions", (table,))
        for info in part.indexes.values()
        for _ in db.pager.pages_of(info.btree.name))
    return out


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# replays (source c)
# ---------------------------------------------------------------------------


def replay_parse_bind(db, statements: list[str], min_seconds: float = 0.3) -> float:
    """us per statement of ``parser.parse`` + ``binder.bind`` on the
    workload's own statement texts (called directly, no plan cache)."""
    from repro.sql.binder import bind
    from repro.sql.parser import parse

    if not statements:
        return 0.0
    calls = 0
    elapsed = 0.0
    while elapsed < min_seconds:
        start = perf_counter()
        for sql in statements:
            bind(db, parse(sql).plan)
        elapsed += perf_counter() - start
        calls += len(statements)
    return elapsed / calls * 1e6


def replay_range_entries(tracer: Tracer, min_seconds: float = 0.5) -> float:
    """Entries per second of ``RangeCursor.next_entries`` over the key
    ranges the traced phase opened (fresh cursors, at most 2048 entries
    each, 64 per call as the batched scans ask)."""
    from repro.btree.tree import RangeCursor
    from repro.storage.buffer_pool import CostMeter

    leaf = tracer.leaves.get("btree.range_cursor_args")
    if leaf is None or not leaf.samples:
        return 0.0
    ranges = [(args[1], args[2]) for args in leaf.samples[:256]]
    entries = 0
    elapsed = 0.0
    while elapsed < min_seconds:
        for tree, key_range in ranges:
            cursor = RangeCursor(tree, key_range, CostMeter())
            taken = 0
            start = perf_counter()
            while taken < 2_048:
                batch = cursor.next_entries(64)
                if not batch:
                    break
                taken += len(batch)
            elapsed += perf_counter() - start
            entries += taken
        if entries == 0:
            return 0.0
    return entries / elapsed


def resident_gets(samples: list[tuple]) -> list[tuple]:
    """Keep the sampled ``BufferPool.get`` calls that would hit now."""
    from repro.storage.buffer_pool import NULL_METER

    return [(pool, page_id, NULL_METER) for pool, page_id, *_ in samples
            if page_id in pool]


# ---------------------------------------------------------------------------
# the metrics
# ---------------------------------------------------------------------------


def layer_metrics(
    tracer: Tracer,
    counters: dict[str, float],
    step_counts: dict[str, int],
    ops: int,
    op_wall: float,
    untraced_op_wall_ratio: float,
    class_p50_ms: dict[str, float],
    phases: dict[str, float],
    qerrors: list[float],
    queue_wait_p95: float,
    replays: dict[str, float],
) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER`, from one traced phase."""
    agg = tracer.aggregates
    leaves = tracer.leaves

    def total(*names: str) -> float:
        return sum(tracer.net_total(n) for n in names)

    def self_time(*names: str) -> float:
        return sum(tracer.net_self(n) for n in names)

    def count(*names: str) -> int:
        return sum(agg[n].count for n in names if n in agg)

    def calls(name: str) -> int:
        return leaves[name].calls if name in leaves else 0

    def per_op(value: float, scale: float = 1.0) -> float:
        return value * scale / ops if ops else 0.0

    # the wrappers' own cost is taken out of the wall the shares refer to
    op_wall -= sum(a.self_time - tracer.net_self(n) for n, a in agg.items())
    m: dict[str, float] = {}
    c = counters
    m["sql.parse_bind_us_per_stmt"] = replays["parse_bind_us"]
    m["sql.executor_self_ms_per_op"] = per_op(
        self_time("sql.execute_sql_steps", "sql.execute_prepared_steps"), 1e3)
    m["cache.plan_hit_rate"] = _ratio(
        c["plan_cache_hits_total"],
        c["plan_cache_hits_total"] + c["plan_cache_misses_total"])
    m["cache.plan_lookup_us_per_op"] = per_op(self_time("cache.plan_entry_for"), 1e6)
    m["cache.feedback_adjustments_per_op"] = per_op(c["feedback_adjustments_total"])
    m["cache.feedback_self_us_per_op"] = per_op(self_time("cache.feedback"), 1e6)
    m["expr.compile_us_per_predicate"] = _ratio(
        total("expr.compile_predicate") * 1e6, count("expr.compile_predicate"))
    m["expr.eval_ns_per_row"] = replays["eval_ns"]
    m["expr.eval_rows_per_op"] = per_op(calls("expr.eval"))
    m["btree.estimate_us_per_call"] = _ratio(
        total("btree.estimate_range") * 1e6, count("btree.estimate_range"))
    pool_get = leaves.get("storage.pool_get")
    m["btree.pages_per_lookup"] = _ratio(
        pool_get.by_parent.get("btree.estimate_range", 0) if pool_get else 0,
        count("btree.estimate_range"))
    m["btree.range_entries_per_s"] = replays["range_entries_per_s"]
    m["btree.insert_us"] = _ratio(total("btree.insert") * 1e6, count("btree.insert"))
    m["btree.delete_us"] = _ratio(total("btree.delete") * 1e6, count("btree.delete"))
    m["btree.splits_per_kinsert"] = _ratio(
        c["btree_pages"] * 1e3, count("btree.insert"))
    m["storage.pool_hit_rate"] = _ratio(
        c["pool_hits"], c["pool_hits"] + c["pool_misses"])
    m["storage.pool_evictions_per_op"] = per_op(
        max(0.0, c["pool_misses"] - c["pool_resident"]))
    m["storage.pool_get_ns"] = replays["pool_get_ns"]
    m["storage.pool_gets_per_op"] = per_op(calls("storage.pool_get"))
    m["storage.heap_fetch_us"] = _ratio(
        total("storage.heap_fetch") * 1e6, count("storage.heap_fetch"))
    m["storage.pager_reads_per_op"] = per_op(c["pager_reads"])
    m["storage.pager_writes_per_op"] = per_op(c["pager_writes"])
    m["storage.yao_calls_per_op"] = per_op(calls("storage.yao"))
    m["storage.yao_us_per_call"] = replays["yao_ns"] / 1e3
    m["storage.ridlist_spills_per_op"] = per_op(calls("storage.ridlist_spill"))
    m["engine.initial_ms_per_op"] = per_op(total("engine.initial"), 1e3)
    m["engine.jscan_self_ms_per_op"] = per_op(self_time("engine.jscan"), 1e3)
    m["engine.jscan_entries_per_s"] = _ratio(
        step_counts.get("engine.jscan", 0), self_time("engine.jscan"))
    m["engine.rid_fetch_cost_calls_per_op"] = per_op(calls("engine.rid_fetch_cost"))
    # a Tscan step is one heap page; the harness creates every table with
    # 32 rows per page
    m["engine.scan_rows_per_s.tscan"] = _ratio(
        step_counts.get("engine.tscan", 0) * 32, total("engine.tscan"))
    m["engine.scan_rows_per_s.sscan"] = _ratio(
        step_counts.get("engine.sscan", 0), total("engine.sscan"))
    m["engine.union_ms_per_op"] = per_op(total("engine.union_scan"), 1e3)
    m["engine.final_fetch_ms_per_op"] = per_op(total("engine.final_stage"), 1e3)
    m["engine.switches_per_op"] = per_op(c["engine_strategy_switches_total"])
    m["engine.abandons_per_op"] = per_op(c["engine_scans_abandoned_total"])
    gate = c["competitions_run_total"] + c["competitions_skipped_total"]
    m["engine.competitions_run_share"] = _ratio(c["competitions_run_total"], gate)
    m["engine.fetch_waste_ratio"] = _ratio(
        c["engine_records_delivered_total"], c["engine_records_fetched_total"])
    m["engine.join_ms_per_op"] = per_op(total("engine.join"), 1e3)
    m["engine.join_order_switches_per_op"] = per_op(calls("engine.join_order_switch"))
    for cls in ANALYTIC_CLASSES:
        m[f"engine.class_p50_ms.{cls}"] = class_p50_ms.get(cls, 0.0)
    m["estimate.record_us_per_op"] = per_op(total("estimate.estimator"), 1e6)
    m["estimate.gate_skip_ratio"] = _ratio(c["competitions_skipped_total"], gate)
    m["estimate.qerror_p50"] = statistics.median(qerrors) if qerrors else 0.0
    m["partition.scatter_ms_per_op"] = per_op(
        self_time("partition.scatter", "partition.merge"), 1e3)
    m["partition.merge_rows_per_s"] = _ratio(
        c["partition_merge_rows_total"], total("partition.merge"))
    m["partition.pruned_ratio"] = _ratio(
        c["partition_pruned_total"],
        c["partition_pruned_total"] + c["partition_fetches_total"])
    m["server.step_self_us_per_quantum"] = _ratio(
        self_time("server.step", "server.step_handle") * 1e6, count("server.step"))
    m["server.quanta_per_op"] = per_op(c["query_quanta_total"])
    m["server.submit_us"] = _ratio(total("server.submit") * 1e6, count("server.submit"))
    m["server.queue_wait_quanta_p95"] = queue_wait_p95
    metrics_self = self_time("server.metrics")
    obs_self = self_time("obs.monitor", "obs.decisions")
    m["server.metrics_self_us_per_op"] = per_op(metrics_self, 1e6)
    m["obs.monitor_self_us_per_op"] = per_op(obs_self, 1e6)
    m["obs.telemetry_share_pct"] = _ratio((metrics_self + obs_self) * 100, op_wall)
    rows = phases.get("rows", 0)
    m["db.insert_us_per_row"] = _ratio(phases.get("insert", 0.0) * 1e6, rows)
    m["db.index_build_s"] = phases.get("index", 0.0)
    m["db.analyze_s"] = phases.get("analyze", 0.0)
    m["workloads.gen_s"] = phases.get("gen", 0.0)

    # the layer table: self seconds per layer, with the estimated time of
    # the counted leaves (calls x replayed ns) moved from the layer that
    # called them to the leaf's own layer
    shares = tracer.layer_self_times()
    for leaf_name, ns in (("storage.yao", replays["yao_ns"]),
                          ("storage.pool_get", replays["pool_get_ns"]),
                          ("expr.eval", replays["eval_ns"])):
        leaf = leaves.get(leaf_name)
        if leaf is None:
            continue
        target = leaf_name.split(".", 1)[0]
        for parent, n in leaf.by_parent.items():
            source = parent.split(".", 1)[0] if parent else "harness"
            moved = min(n * ns * 1e-9, max(0.0, shares.get(source, 0.0)))
            shares[source] = shares.get(source, 0.0) - moved
            shares[target] = shares.get(target, 0.0) + moved
    for layer in LAYERS:
        m[f"share.{layer}_pct"] = _ratio(shares.get(layer, 0.0) * 100, op_wall)
    m["trace.overhead_pct"] = (untraced_op_wall_ratio - 1.0) * 100
    m["trace.unattributed_pct"] = _ratio(
        (op_wall - sum(shares.get(layer, 0.0) for layer in LAYERS)) * 100, op_wall)
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return m
