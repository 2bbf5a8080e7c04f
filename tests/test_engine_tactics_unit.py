"""Unit tests for tactic building blocks (ForegroundBuffer, borrowing)."""

from collections import deque

import pytest

from repro.engine.metrics import RetrievalTrace
from repro.engine.tactics import BorrowingFetchProcess, ForegroundBuffer, TacticOutcome
from repro.competition.process import Process
from repro.expr.ast import ALWAYS_TRUE, col
from repro.storage.buffer_pool import ENTRY_CPU_COST, RECORD_CPU_COST
from repro.storage.pager import PageKind
from repro.storage.rid import make_rid


def test_foreground_buffer_records_until_capacity():
    buffer = ForegroundBuffer(capacity=2)
    assert buffer.add(make_rid(0, 0))
    assert buffer.add(make_rid(0, 1))
    assert not buffer.add(make_rid(0, 2))  # overflow
    assert len(buffer) == 2
    assert make_rid(0, 0) in buffer and make_rid(0, 2) not in buffer


def test_foreground_buffer_deduplicates():
    buffer = ForegroundBuffer(capacity=10)
    buffer.add(make_rid(1, 1))
    buffer.add(make_rid(1, 1))
    assert len(buffer) == 1


def test_tactic_outcome_cost_sums_processes():
    a, b = Process("a"), Process("b")
    for _ in range(3):
        a.meter.charge_read(PageKind.HEAP)
    a.meter.charge_records(7)
    b.meter.charge_write()
    b.meter.charge_entries(11)
    b.meter.charge_records(5)
    outcome = TacticOutcome(processes=[a, b])
    # the processes' counts are added, then priced once
    assert outcome.total_cost == 4 + (11 * ENTRY_CPU_COST + 12 * RECORD_CPU_COST)
    assert outcome.total_io == 4


@pytest.fixture
def borrow_env(people):
    queue = deque(rid for rid, _ in people.heap.scan())
    delivered = []

    def sink(rid, row):
        delivered.append(row)
        return True

    buffer = ForegroundBuffer(capacity=1000)
    process = BorrowingFetchProcess(
        queue, people.heap, people.schema, ALWAYS_TRUE, {}, sink, buffer,
        RetrievalTrace(),
    )
    return queue, delivered, buffer, process


def test_borrowing_fetches_from_queue(borrow_env):
    queue, delivered, buffer, process = borrow_env
    initial = len(queue)
    process.step()
    assert len(queue) == initial - 1
    assert len(delivered) == 1
    assert len(buffer) == 1


def test_borrowing_idle_step_on_empty_queue(people):
    queue = deque()
    buffer = ForegroundBuffer(10)
    process = BorrowingFetchProcess(
        queue, people.heap, people.schema, ALWAYS_TRUE, {}, lambda r, w: True,
        buffer, RetrievalTrace(),
    )
    assert not process.has_work
    assert not process.step()  # idle, not finished


def test_borrowing_rejects_nonmatching(people):
    queue = deque(rid for rid, _ in people.heap.scan())
    buffer = ForegroundBuffer(1000)
    delivered = []
    process = BorrowingFetchProcess(
        queue, people.heap, people.schema, col("AGE") < 10, {},
        lambda r, w: delivered.append(w) or True, buffer, RetrievalTrace(),
    )
    while process.has_work and not process.step():
        pass
    assert process.rejected > 0
    assert all(row[1] < 10 for row in delivered)
    # only delivered rows enter the foreground buffer
    assert len(buffer) == len(delivered)


def test_borrowing_overflow_terminates(people):
    queue = deque(rid for rid, _ in people.heap.scan())
    buffer = ForegroundBuffer(capacity=3)
    process = BorrowingFetchProcess(
        queue, people.heap, people.schema, ALWAYS_TRUE, {}, lambda r, w: True,
        buffer, RetrievalTrace(),
    )
    finished = False
    while process.has_work and not finished:
        finished = process.step()
    assert process.buffer_overflow
    assert finished


def test_borrowing_consumer_stop(people):
    queue = deque(rid for rid, _ in people.heap.scan())
    buffer = ForegroundBuffer(1000)
    process = BorrowingFetchProcess(
        queue, people.heap, people.schema, ALWAYS_TRUE, {}, lambda r, w: False,
        buffer, RetrievalTrace(),
    )
    assert process.step()
    assert process.stopped_by_consumer
