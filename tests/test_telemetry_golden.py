"""Every telemetry surface of the shell, pinned on a fixed session script.

One deterministic session — DDL, points and ranges with host variables,
an OR, a join, a partitioned scatter, EXPLAIN ANALYZE and COMPETE, a
failing statement, a deadline cancellation, a queued cancellation and a
second session competing for the two admission slots — runs on a
:class:`repro.obs.SteppingClock` that advances on every consultation, so
latencies, monitor windows and their percentiles are a function of the
program alone. After each phase the transcript captures ``\\metrics``,
``\\metrics prom``, ``\\decisions``, ``\\estimates``, ``\\top`` and
``\\health``.

The pins live in ``tests/golden/telemetry.txt``; ``python
tests/test_telemetry_golden.py`` re-records it, which only a change that
*means* to move a telemetry figure may do. A change that only moves where
the figures are recorded must leave it byte-identical — the number of
clock consultations included.
"""

from __future__ import annotations

import io
import os
import tempfile

import repro
from repro.errors import QueryCancelledError
from repro.obs import JsonlSink, SteppingClock
from repro.partition import PartitionSpec
from repro.shell import Shell

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "telemetry.txt")

SURFACES = ("\\metrics", "\\metrics prom", "\\decisions", "\\estimates",
            "\\top", "\\health")


def _build(conn) -> None:
    parts = conn.create_table(
        "P", [("ID", "int"), ("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=8, index_order=8,
    )
    parts.insert_many(
        (2 * i, (i * 7) % 100, (i * 37) % 50, i % 13) for i in range(600)
    )
    parts.create_index("IX_ID", ["ID"], unique=True)
    parts.create_index("IX_A", ["A"])
    parts.create_index("IX_B", ["B"])
    parts.create_index("IX_AB", ["A", "B"])
    owners = conn.create_table(
        "O", [("OID", "int"), ("PID", "int"), ("Q", "int")],
        rows_per_page=8, index_order=8,
    )
    owners.insert_many((i, 2 * ((i * 11) % 600), i % 9) for i in range(300))
    owners.create_index("IX_PID", ["PID"])
    events = conn.create_table(
        "E", [("ID", "int"), ("V", "int")],
        partition_by=PartitionSpec(column="ID", method="hash", partitions=3),
        rows_per_page=8, index_order=8,
    )
    events.insert_many((i, i % 40) for i in range(240))
    events.create_index("IX_V", ["V"])


def _capture(shell: Shell, out: io.StringIO, phase: str) -> str:
    out.seek(0)
    out.truncate()
    for command in SURFACES:
        out.write(f"--- {phase}: {command}\n")
        shell.feed(command)
    return out.getvalue()


def transcript() -> str:
    """Run the session script; return every captured surface, in order."""
    clock = SteppingClock(auto=0.0005)
    with tempfile.TemporaryDirectory() as tmp:
        trace_sink = JsonlSink(os.path.join(tmp, "trace.jsonl"))
        flight_sink = JsonlSink(os.path.join(tmp, "flight.jsonl"))
        conn = repro.connect(
            buffer_capacity=48, max_concurrency=2, clock=clock,
            trace_sink=trace_sink, flight_sink=flight_sink,
        )
        out = io.StringIO()
        shell = Shell(conn, out=out)
        pages = []

        _build(conn)
        shell.feed("analyze P;")
        shell.feed("analyze O;")
        pages.append(_capture(shell, out, "built"))

        # phase 1: the single-table shapes, twice (plan cache, feedback)
        for _ in range(2):
            for value in (4, 40, 400):
                shell.feed(f"\\set ID {value}")
                shell.feed("select * from P where ID = :ID;")
            for low in (10, 60, 95):
                shell.feed(f"\\set LO {low}")
                shell.feed("select ID, A from P where A >= :LO and B <= 20;")
            shell.feed("select * from P where A = 3 or B = 7;")
            shell.feed("select ID from P where C = 5;")
            shell.feed("select * from P where ID >= 100 and ID < 140;")
            shell.feed("select * from P where A >= 90 limit to 5 rows"
                       " optimize for fast first;")
            clock.advance(0.3)
        pages.append(_capture(shell, out, "single-table"))

        # phase 2: joins, partitions, EXPLAIN ANALYZE / COMPETE
        shell.feed("select p.ID, o.Q from P p join O o on p.ID = o.PID"
                   " where o.Q = 4;")
        shell.feed("select * from E where V = 7;")
        shell.feed("select * from E where ID >= 20 and ID < 60;")
        shell.feed("explain analyze select * from P where A >= 50;")
        shell.feed("explain compete select * from P where A >= 0;")
        shell.feed("explain compete select ID from P where A = 3 and B = 21;")
        clock.advance(0.3)
        pages.append(_capture(shell, out, "competed"))

        # phase 3: failures, cancellations and a second session
        shell.feed("select * from NOPE;")
        try:
            conn.execute("select * from P where C >= 0", deadline=1)
        except QueryCancelledError:
            pass
        other = conn.session("other")
        running = [
            other.submit("select * from P where B >= 10"),
            conn.submit("select * from P where A >= 20"),
        ]
        queued = other.submit("select * from O where Q = 1")
        queued.cancel()
        late = conn.submit("select * from O where PID >= 600")
        conn.server.run_until_idle()
        assert all(handle.done for handle in running + [queued, late])
        for _ in range(3):
            clock.advance(0.3)
            for value in (12, 14):
                other.execute("select * from P where ID = :ID", {"ID": value})
        pages.append(_capture(shell, out, "contended"))
        conn.close()
    return "".join(pages)


def test_telemetry_surfaces_match_the_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read()
    got = transcript()
    assert got.splitlines() == golden.splitlines()
    assert got == golden


def test_the_script_reaches_every_surface():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read()
    for command in SURFACES:
        assert f": {command}\n" in golden
    assert 'outcome="cancelled"} 2' in golden
    assert 'outcome="failed"} 1' in golden
    assert "repro_replays_total" in golden
    assert "partition_scatters_total" in golden
    assert "slowest recent queries:" in golden
    assert 'session="other"' in golden


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(transcript())
    print(f"recorded {GOLDEN}")
