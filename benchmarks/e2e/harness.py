"""The run protocol: closed-loop clients, latency samples, checks, invariants.

A :class:`Runner` drives one loaded workload through the system's public
surface only. Every op's wall time is taken around the call alone; the
reference check (and, for writes, the shadow update) happens after the
clock has stopped, so checking never counts as system time. With several
sessions the clock is *virtual* — wall time minus time spent checking — so
the statements still in flight are not charged for the check either.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from reference import check_bag, check_limit, check_ordered_limit
from workloads import Loaded, Op, Workload

perf_counter = time.perf_counter


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def supported_percentile(count: int) -> int:
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if count * (100 - q) / 100 >= 10:
            return q
    return 50


def buffer_pools(db) -> list:
    """The shared pool and every partition's private pool."""
    pools = [db.buffer_pool]
    for table in db.tables.values():
        pools.extend(child.buffer_pool for child in getattr(table, "partitions", ()))
    return pools


class Samples:
    """Latency samples of one phase, overall and per op class."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.classes: list[str] = []
        #: when each op returned, in seconds of op time since the phase began
        self.finished: list[float] = []
        self.wall = 0.0
        #: simulated physical page reads the ops caused (pager delta)
        self.reads = 0

    def add(self, cls: str, seconds: float, finished: float) -> None:
        self.latencies.append(seconds)
        self.classes.append(cls)
        self.finished.append(finished)

    def __len__(self) -> int:
        return len(self.latencies)

    def by_class(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for cls, seconds in zip(self.classes, self.latencies):
            out.setdefault(cls, []).append(seconds)
        return out


class Runner:
    """Executes ops against one loaded database and checks every answer."""

    def __init__(self, workload: Workload, loaded: Loaded) -> None:
        self.workload = workload
        self.loaded = loaded
        self.conn = loaded.conn
        self.shadows = loaded.shadows
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: rows delivered by statements over partitioned tables
        self.partitioned_rows = 0
        self.round_no = 0
        self._prepared: dict[str, Any] = {}
        self._sessions = [
            self.conn.session(f"client{i}") for i in range(workload.sessions)
        ] if workload.sessions > 1 else []
        #: set for the traced phase: every single-client op gets a root span
        self.tracer = None
        self._op_seq = 0
        #: statements the set-up itself ran through the scheduler (DDL)
        self._setup_statements = self.conn.metrics.totals().queries_completed
        workload.prepare(loaded)

    # -- one op -------------------------------------------------------------

    def _call(self, op: Op):
        """Run one op synchronously; returns rows (reads) or a RID/None."""
        kind = op.kind
        if kind == "execute":
            return self.conn.execute(op.sql, op.params).rows
        if kind == "prepared":
            stmt = self._prepared.get(op.sql)
            if stmt is None:
                stmt = self._prepared[op.sql] = self.conn.prepare(op.sql)
            return stmt.execute(op.params).rows
        table = self.conn.table(op.table)
        if kind == "insert":
            return table.insert(op.params)
        if kind == "delete":
            return table.delete_rid(self.loaded.rids[op.params])
        if kind == "analyze":
            return table.analyze()
        raise ValueError(f"unknown op kind {kind!r}")

    def _fail(self, op: Op, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.cls}: {reason} [{op.sql or op.kind} {op.params!r}]")

    def _check(self, op: Op, outcome: Any, error: BaseException | None) -> None:
        """Compare against the reference and apply writes to the shadow."""
        self.attempted += 1
        if error is not None:
            self._fail(op, f"raised {type(error).__name__}: {error}")
            return
        if op.kind == "insert":
            self.shadows[op.table].insert(op.params)
            self.loaded.rids[op.params[0]] = outcome
            return
        if op.kind == "delete":
            self.shadows[op.table].delete(op.params)
            del self.loaded.rids[op.params]
            return
        if op.expect is None:
            return
        if op.partitioned:
            self.partitioned_rows += len(outcome)
        expect = op.expect
        expected = expect.rows(self.shadows)
        if expect.mode == "bag":
            reason = check_bag(outcome, expected)
        elif expect.mode == "limit":
            reason = check_limit(outcome, expected, expect.limit)
        else:
            reason = check_ordered_limit(
                outcome, expected, expect.key_positions, expect.limit)
        if reason is not None:
            self._fail(op, reason)

    # -- closed loops ---------------------------------------------------------

    def run_round(self) -> Samples:
        """Run the next round's ops once, in order, and return its samples.
        Rounds are the unit everything is measured in: a timed phase is a
        whole number of them, so its rounds can be compared one to one."""
        samples = Samples()
        session_ops = self.workload.round_ops(self.round_no, self.loaded)
        self.round_no += 1
        if self.workload.cold_rounds:
            self.conn.db.cold_cache()
        disk = self.conn.db.pager.stats
        reads_before = disk.reads
        if self.workload.sessions > 1:
            self._run_multi(session_ops, samples)
        else:
            self._run_single(session_ops[0], samples)
        samples.reads = disk.reads - reads_before
        return samples

    def run_rounds(self, seconds: float) -> list[Samples]:
        """Whole rounds until ``seconds`` of measured op time have passed
        (the last round started before the limit is finished)."""
        rounds: list[Samples] = []
        while sum(r.wall for r in rounds) < seconds:
            rounds.append(self.run_round())
        return rounds

    def _run_single(self, ops: list[Op], samples: Samples) -> None:
        tracer = self.tracer
        for op in ops:
            error = None
            outcome = None
            self._op_seq += 1
            frame = tracer.begin_op(self._op_seq) if tracer is not None else None
            start = perf_counter()
            try:
                outcome = self._call(op)
            except Exception as exc:  # noqa: BLE001 - an op failure is a result
                error = exc
            elapsed = perf_counter() - start
            if frame is not None:
                tracer.end_op(frame)
            samples.wall += elapsed
            samples.add(op.cls, elapsed, samples.wall)
            self._check(op, outcome, error)

    def _run_multi(self, session_ops: list[list[Op]], samples: Samples) -> None:
        """Keep one statement in flight per session until every session
        has run its list; the driver is the only thread and calls
        ``server.step()`` itself."""
        server = self.conn.server
        cursors = [0] * len(self._sessions)
        in_flight: list[tuple[Op, Any, float] | None] = [None] * len(self._sessions)
        paused = 0.0
        origin = perf_counter()
        while True:
            for i, session in enumerate(self._sessions):
                if in_flight[i] is None and cursors[i] < len(session_ops[i]):
                    op = session_ops[i][cursors[i]]
                    cursors[i] += 1
                    submitted = perf_counter() - paused
                    in_flight[i] = (op, session.submit(op.sql, op.params), submitted)
            if not any(in_flight):
                break
            server.step()
            for i, entry in enumerate(in_flight):
                if entry is None or not entry[1].done:
                    continue
                op, handle, submitted = entry
                now = perf_counter()
                samples.add(op.cls, now - paused - submitted, now - paused - origin)
                in_flight[i] = None
                outcome = error = None
                try:
                    outcome = handle.result.rows
                except Exception as exc:  # noqa: BLE001 - an op failure is a result
                    error = exc
                self._check(op, outcome, error)
                paused += perf_counter() - now
        samples.wall += perf_counter() - paused - origin

    # -- invariants ----------------------------------------------------------

    def check_invariants(self, statements: int) -> list[str]:
        """Zero pinned pages, every statement retired as done, none failed
        or cancelled, partition merge rows equal to the rows delivered, the
        server idle. Returns the violated invariants."""
        problems: list[str] = []
        pinned = sum(len(pool._pinned) for pool in buffer_pools(self.conn.db))
        if pinned:
            problems.append(f"{pinned} pages left pinned")
        totals = self.conn.metrics.totals()
        if totals.queries_failed or totals.queries_cancelled:
            problems.append(
                f"failed={totals.queries_failed} cancelled={totals.queries_cancelled}")
        done = totals.queries_completed - self._setup_statements
        if done != statements:
            problems.append(f"queries done {done} != statements {statements}")
        merged = self.conn.db.partition_stats.merge_rows
        if merged != self.partitioned_rows:
            problems.append(
                f"partition merge_rows {merged} != delivered rows {self.partitioned_rows}")
        if not self.conn.server.idle:
            problems.append("server not idle after the run")
        return problems


#: stretches a round is cut into (see ``quietest``)
STRETCHES = 8


def quietest(rounds: list[Samples], stretches: int = STRETCHES) -> tuple[list[float], float]:
    """The latencies and the wall of one round, every stretch of it taken
    from the round that ran that stretch fastest.

    The rounds run one op sequence (``ingest_churn``: one sequence of op
    kinds), and on a shared machine disturbance only ever slows an op down,
    in bursts of a tenth of a second to minutes with quiet windows of about
    a second in between. A round takes one to two seconds and is seldom
    quiet from end to end; an eighth of it often is. A stretch is the ops
    that return ``count * i / 8``-th to ``count * (i + 1) / 8``-th; its wall
    runs from the return before its first to the return of its last. Taking
    each stretch from its least disturbed run is the usual min-of-N timer
    applied at the grain the machine allows. (With four sessions a
    statement's latency began stretches before the one it returns in, and
    two rounds may return a few statements in another order: the cut is
    blunter there, not wrong.)"""
    count = len(rounds[0])
    if any(len(r) != count for r in rounds):
        raise ValueError("rounds of different lengths cannot be compared stretch by stretch")
    bounds = [count * i // stretches for i in range(stretches + 1)]
    latencies: list[float] = []
    wall = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        def span(r: Samples) -> float:
            return r.finished[hi - 1] - (r.finished[lo - 1] if lo else 0.0)

        best = min(rounds, key=span)
        latencies += best.latencies[lo:hi]
        wall += span(best)
    return latencies, wall


def best_of_rounds(rounds: list[Samples]) -> dict[str, float]:
    """Throughput and latency percentiles of the least disturbed execution
    of a round (:func:`quietest`); reads per op of the first round (a
    count: it repeats, but on ``ingest_churn`` it grows from round to
    round, and how many rounds a run gets hangs on the machine's speed)."""
    latencies, wall = quietest(rounds)
    return {
        "throughput_qps": len(latencies) / wall,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "io_per_op": rounds[0].reads / len(rounds[0]),
    }
