"""Join-order competition: differential correctness, switching, pins.

The differential suite is the join engine's ground truth: every candidate
order (forced one at a time) must produce exactly the same bag of combined
rows as a naive nested-loop reference, on skewed workload data, at batch
sizes 1 and 64, and mid-join cancellation must release every resource.
"""

import random

import numpy as np
import pytest

import repro
from repro.config import DEFAULT_CONFIG
from repro.engine.goals import OptimizationGoal
from repro.btree.tree import RangeCursor
from repro.engine.join import (
    JoinOrderProcess,
    JoinTableHandle,
    candidate_orders,
    reference_nested_loop,
    run_join_steps,
)
from repro.obs.audit import DecisionKind
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.sql.plan import JoinPlan, walk
from repro.workloads.generators import uniform_ints, zipf_ints

SQL3 = (
    "select * from ORDERS as o "
    "join CUSTOMERS as c on o.CUST = c.CID "
    "join ITEMS as i on o.ITEM = i.IID "
    "where c.REGION = 1 and i.KIND <= 3"
)
SQL2 = (
    "select o.OID, c.REGION from ORDERS as o "
    "join CUSTOMERS as c on o.CUST = c.CID where c.REGION = 2"
)


def build_star(db, orders=600, customers=80, items=40, seed=7):
    """A skewed 3-table star: ORDERS references CUSTOMERS and ITEMS."""
    rng = np.random.default_rng(seed)
    customers_t = db.create_table("CUSTOMERS", [("CID", "int"), ("REGION", "int")])
    customers_t.insert_many((i, i % 5) for i in range(customers))
    customers_t.create_index("IX_CID", ["CID"], unique=True)
    items_t = db.create_table("ITEMS", [("IID", "int"), ("KIND", "int")])
    items_t.insert_many((i, i % 10) for i in range(items))
    items_t.create_index("IX_IID", ["IID"], unique=True)
    orders_t = db.create_table(
        "ORDERS", [("OID", "int"), ("CUST", "int"), ("ITEM", "int")]
    )
    custs = zipf_ints(rng, orders, customers)  # zipf-skewed fan-in
    its = uniform_ints(rng, orders, 0, items - 1)
    orders_t.insert_many((i, custs[i], its[i]) for i in range(orders))
    orders_t.create_index("IX_CUST", ["CUST"])
    for table in (customers_t, items_t, orders_t):
        table.analyze()
    return db


def join_node(db, sql):
    parsed = parse(sql)
    bind(db, parsed.plan)
    for node in walk(parsed.plan):
        if isinstance(node, JoinPlan):
            return node
    raise AssertionError("no join node in plan")


def handles_for(db, node):
    out = {}
    for source in node.sources:
        table = db.table(source.table)
        out[source.alias] = JoinTableHandle(
            name=table.name,
            heap=table.heap,
            schema=table.schema,
            indexes=dict(table.indexes),
            buffer_pool=table.buffer_pool,
            stats=table.stats,
        )
    return out


def drain(gen):
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


@pytest.fixture
def db():
    return build_star(repro.Database(buffer_capacity=96))


class TestDifferential:
    """Every candidate order == the nested-loop reference, as a bag."""

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_every_order_matches_reference_three_tables(self, db, batch_size):
        config = DEFAULT_CONFIG.with_(batch_size=batch_size)
        node = join_node(db, SQL3)
        handles = handles_for(db, node)
        expected = sorted(reference_nested_loop(node, handles, {}))
        assert expected, "test workload must produce join matches"
        orders = candidate_orders(node, handles, {})
        assert len(orders) >= 4
        for order in orders:
            db.cold_cache()
            result = drain(
                run_join_steps(
                    node, handles, {}, OptimizationGoal.TOTAL_TIME, config,
                    force_order=order.key,
                )
            )
            assert sorted(result.rows) == expected, f"order {order.key} diverged"

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_two_table_join_matches_reference(self, db, batch_size):
        config = DEFAULT_CONFIG.with_(batch_size=batch_size)
        node = join_node(db, SQL2)
        handles = handles_for(db, node)
        expected = sorted(reference_nested_loop(node, handles, {}))
        for order in candidate_orders(node, handles, {}):
            result = drain(
                run_join_steps(
                    node, handles, {}, OptimizationGoal.TOTAL_TIME, config,
                    force_order=order.key,
                )
            )
            assert sorted(result.rows) == expected, f"order {order.key} diverged"

    def test_competition_itself_matches_reference(self, db):
        node = join_node(db, SQL3)
        handles = handles_for(db, node)
        expected = sorted(reference_nested_loop(node, handles, {}))
        result = drain(
            run_join_steps(
                node, handles, {}, OptimizationGoal.TOTAL_TIME, DEFAULT_CONFIG
            )
        )
        assert sorted(result.rows) == expected

    def test_null_join_keys_never_match(self):
        db = repro.Database(buffer_capacity=32)
        left = db.create_table("L", [("ID", "int"), ("K", "int")])
        right = db.create_table("R", [("ID", "int"), ("K", "int")])
        left.insert_many([(0, 1), (1, None), (2, 2)])
        right.insert_many([(0, 1), (1, None), (2, 3)])
        left.analyze(), right.analyze()
        node = join_node(db, "select * from L as a join R as b on a.K = b.K")
        handles = handles_for(db, node)
        expected = sorted(reference_nested_loop(node, handles, {}))
        assert expected == [(0, 1, 0, 1)]  # NULLs on both sides match nothing
        for order in candidate_orders(node, handles, {}):
            result = drain(
                run_join_steps(
                    node, handles, {}, OptimizationGoal.TOTAL_TIME,
                    DEFAULT_CONFIG, force_order=order.key,
                )
            )
            assert sorted(result.rows) == expected


def test_an_index_probe_charges_each_entry_once(db, monkeypatch):
    """An index-nested-loop probe's meter counts exactly the entries its
    cursors returned: ``next_entry`` charges each one, and nothing else may."""
    returned = []
    next_entry = RangeCursor.next_entry

    def counting(cursor):
        entry = next_entry(cursor)
        returned.append(entry is not None)
        return entry

    node = join_node(db, SQL2)
    handles = handles_for(db, node)
    order = next(
        order for order in candidate_orders(node, handles, {})
        if [step.tactic for step in order.steps] == ["index"]
    )
    process = JoinOrderProcess(order, node, handles, {}, DEFAULT_CONFIG)
    monkeypatch.setattr(RangeCursor, "next_entry", counting)
    while process.active and not process.run_batch(64)[1]:
        pass
    assert sum(returned) > 0
    assert process.edge_meters[0].entries == sum(returned)


class TestCancellation:
    def test_mid_join_close_releases_pins_and_stays_usable(self, db):
        config = DEFAULT_CONFIG.with_(batch_size=4)
        node = join_node(db, SQL3)
        handles = handles_for(db, node)
        gen = run_join_steps(
            node, handles, {}, OptimizationGoal.TOTAL_TIME, config
        )
        next(gen)
        next(gen)  # a couple of quanta in: hash builds hold pinned runs
        gen.close()
        assert not db.buffer_pool._pinned  # every build pin released
        # the same handles still serve a fresh, complete run
        result = drain(
            run_join_steps(
                node, handles, {}, OptimizationGoal.TOTAL_TIME, config
            )
        )
        assert sorted(result.rows) == sorted(reference_nested_loop(node, handles, {}))

    def test_close_before_first_step_is_clean(self, db):
        node = join_node(db, SQL3)
        handles = handles_for(db, node)
        gen = run_join_steps(
            node, handles, {}, OptimizationGoal.TOTAL_TIME, DEFAULT_CONFIG
        )
        gen.close()  # never started: must not raise or leak
        assert not db.buffer_pool._pinned


class TestPinsUnderInterference:
    def test_join_correct_with_full_interference_each_quantum(self, db):
        # evict_random(1.0) between quanta drops every unpinned page; the
        # hash build's pinned run must survive and the join must still be
        # exactly right — the join-level face of the evict_random/pin fix.
        config = DEFAULT_CONFIG.with_(batch_size=8)
        node = join_node(db, SQL3)
        handles = handles_for(db, node)
        expected = sorted(reference_nested_loop(node, handles, {}))
        gen = run_join_steps(
            node, handles, {}, OptimizationGoal.TOTAL_TIME, config
        )
        rng = random.Random(13)
        result = None
        try:
            quanta = 0
            while True:
                next(gen)
                quanta += 1
                for page_id in list(db.buffer_pool._pinned):
                    assert page_id in db.buffer_pool  # pinned stays cached
                db.buffer_pool.evict_random(1.0, rng)
        except StopIteration as stop:
            result = stop.value
        assert quanta > 1  # interference actually interleaved the race
        assert sorted(result.rows) == expected


class TestSwitching:
    def connect(self, **overrides):
        config = DEFAULT_CONFIG.with_(
            batch_size=8, join_pilot_steps=4, **overrides
        )
        conn = repro.connect(buffer_capacity=96, config=config)
        build_star(conn.db)
        return conn

    def join_records(self, report):
        return [
            record
            for retrieval in report.audit.retrievals
            for record in retrieval.decisions
            if record.kind is DecisionKind.JOIN_ORDER
        ]

    def test_mid_flight_order_switch_is_recorded(self):
        conn = self.connect()
        report = conn.audit(SQL3)
        records = self.join_records(report)
        assert records, "join must log JOIN_ORDER decisions"
        initial = records[0]
        assert initial.alternatives  # the race had rivals
        switches = [r for r in records[1:] if r.inputs.get("switched_from")]
        assert switches, "tiny pilot budget must force a mid-flight switch"
        assert switches[-1].inputs["switched_from"] != switches[-1].chosen

    def test_switch_counter_absorbed_into_server_metrics(self):
        conn = self.connect()
        conn.audit(SQL3)
        decisions = conn.metrics.decisions
        assert decisions.join_depth_hist.count >= 1
        assert decisions.join_order_switches >= 1

    def test_compete_replays_rejected_orders_with_regret(self):
        conn = self.connect()
        report = conn.audit(SQL3)
        selection = None
        for retrieval in report.audit.retrievals:
            selection = selection or retrieval.join_order_selection()
        assert selection is not None
        assert selection.counterfactuals, "rejected orders must be replayed"
        assert selection.regret is not None and selection.regret >= 0
        text = report.to_text()
        assert "join" in text.lower()


class TestJoinThroughConnection:
    def test_sql_join_returns_unified_result(self):
        conn = repro.connect(buffer_capacity=96)
        build_star(conn.db)
        conn.db.cold_cache()
        result = conn.execute(SQL2)
        assert isinstance(result, repro.Result) and result.kind == "rows"
        assert result.columns == ("o.OID", "c.REGION")
        assert result.rowcount == len(result.rows) > 0
        assert all(region == 2 for _, region in result.rows)
        assert result.metrics.total_io > 0

    def test_explain_join_annotates_goal(self):
        conn = repro.connect(buffer_capacity=96)
        build_star(conn.db)
        text = conn.explain(SQL3).text
        assert "join" in text
        assert "ORDERS" in text and "CUSTOMERS" in text and "ITEMS" in text
