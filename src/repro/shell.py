"""An interactive SQL shell over the dynamic optimizer.

Run with ``python -m repro`` (optionally ``--demo`` to preload the
benchmark scenarios). Statements end with ``;``. Meta commands:

* ``\\d`` — list tables; ``\\d NAME`` — describe one table
* ``\\explain <select ...>`` — show the logical plan with inferred goals
* ``\\trace on|off`` — print the dynamic execution trace after each SELECT
* ``\\cold`` — drop the buffer cache (cold-start the next statement)
* ``\\set NAME VALUE`` — bind a host variable (``:NAME`` in queries)
* ``\\metrics`` — server-wide and per-session scheduler metrics;
  ``\\metrics prom`` — the same registry in Prometheus text format
* ``\\decisions`` — server-wide decision audit metrics (per-tactic win
  rates, regret, estimate error, the live retrieval-cost L-shape)
* ``\\estimates`` — per-signature estimation quality (q-error p95/max,
  observation counts, confidence verdicts: trust vs compete)
* ``\\top`` — the live operator dashboard (per-interval throughput,
  latency, hit rates, q-error, regret sparklines + health verdict)
* ``\\health`` — the health monitor's current findings (SLO breaches,
  drift detections)
* ``\\q`` — quit

``EXPLAIN <select ...>``, ``EXPLAIN ANALYZE <select ...>``, and
``EXPLAIN COMPETE <select ...>`` are regular statements: the first prints
the static plan, the second executes the query and prints the plan
annotated with the recorded span timeline, and the third additionally
audits every optimizer decision and counterfactually replays the rejected
strategies, reporting realized regret.

The shell exists so a downstream user can poke at strategy switching
interactively — run the same parameterized query with different bindings
and watch the trace change tactics.
"""

from __future__ import annotations

import sys
from typing import Iterable, TextIO

from repro.api import Connection, connect
from repro.db.session import Database
from repro.errors import ReproError


class Shell:
    """Line-oriented REPL state.

    Statements run through the connection API (:func:`repro.connect`),
    i.e. the multi-query scheduler. Accepts an existing :class:`Connection`
    or a bare :class:`Database` (which gets a connection of its own).
    """

    def __init__(
        self,
        db: Connection | Database | None = None,
        out: TextIO = sys.stdout,
    ) -> None:
        if db is None:
            self.conn = connect(buffer_capacity=128)
        elif isinstance(db, Database):
            self.conn = connect(db=db)
        else:
            self.conn = db
        self.db = self.conn.db
        self.out = out
        self.host_vars: dict[str, object] = {}
        self.show_trace = False
        self._pending: list[str] = []
        self.done = False

    # -- output ------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def _print_rows(self, columns, rows, limit: int = 50) -> None:
        if not rows:
            self._print("(no rows)")
            return
        header = list(columns)
        shown = rows[:limit]
        widths = [
            max(len(str(header[i])), *(len(str(row[i])) for row in shown))
            for i in range(len(header))
        ]
        fmt = "  ".join("{:>" + str(width) + "}" for width in widths)
        self._print(fmt.format(*header))
        self._print(fmt.format(*["-" * width for width in widths]))
        for row in shown:
            self._print(fmt.format(*[str(value) for value in row]))
        if len(rows) > limit:
            self._print(f"... ({len(rows) - limit} more rows)")

    # -- command handling ----------------------------------------------------

    def feed(self, line: str) -> None:
        """Feed one input line; executes when a statement completes."""
        stripped = line.strip()
        if not self._pending and stripped.startswith("\\"):
            self._meta(stripped)
            return
        if not stripped and not self._pending:
            return
        self._pending.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._pending).strip().rstrip(";")
            self._pending.clear()
            if statement:
                self._execute(statement)

    def run(self, lines: Iterable[str]) -> None:
        """Drive the shell from an iterable of input lines."""
        for line in lines:
            if self.done:
                return
            self.feed(line)

    def _meta(self, command: str) -> None:
        parts = command.split()
        head = parts[0]
        if head in ("\\q", "\\quit"):
            self.done = True
        elif head == "\\d":
            if len(parts) == 1:
                self._list_tables()
            else:
                self._describe(parts[1])
        elif head == "\\trace":
            self.show_trace = len(parts) > 1 and parts[1].lower() == "on"
            self._print(f"trace {'on' if self.show_trace else 'off'}")
        elif head == "\\cold":
            self.db.cold_cache()
            self._print("buffer cache dropped")
        elif head == "\\set":
            if len(parts) < 3:
                self._print("usage: \\set NAME VALUE")
                return
            name, raw = parts[1], " ".join(parts[2:])
            try:
                value: object = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw.strip("'\"")
            self.host_vars[name] = value
            self._print(f":{name} = {value!r}")
        elif head == "\\metrics":
            if len(parts) > 1 and parts[1].lower() == "prom":
                self._print(self.conn.metrics.expose_text())
            else:
                self._print(self.conn.metrics.format())
        elif head == "\\decisions":
            self._print(self.conn.metrics.decisions.format())
        elif head == "\\estimates":
            self._print(self.db.estimator.format())
        elif head == "\\top":
            monitor = self.conn.server.monitor
            if monitor is None:
                self._print("monitoring disabled (monitor_interval=0)")
            else:
                # force a sample so the dashboard reflects right now
                self._print(monitor.format_top(self.conn.health()))
        elif head == "\\health":
            self._print(self.conn.health().format())
        elif head == "\\explain":
            sql = command[len("\\explain"):].strip().rstrip(";")
            try:
                self._print(self.conn.explain(sql).text)
            except ReproError as error:
                self._print(f"error: {error}")
        else:
            self._print(f"unknown meta command {head!r} (try \\d, \\trace, \\cold, "
                        "\\set, \\metrics, \\decisions, \\estimates, \\top, "
                        "\\health, \\explain, \\q)")

    def _list_tables(self) -> None:
        if not self.db.tables:
            self._print("(no tables)")
            return
        for name, table in sorted(self.db.tables.items()):
            partitioned = (
                f", partitioned {table.spec.describe()}"
                if getattr(table, "is_partitioned", False)
                else ""
            )
            self._print(
                f"{name}: {table.row_count} rows, {table.page_count} pages, "
                f"indexes: {', '.join(table.indexes) or '(none)'}"
                + partitioned
            )

    def _describe(self, name: str) -> None:
        try:
            table = self.db.table(name)
        except ReproError as error:
            self._print(f"error: {error}")
            return
        for column in table.schema.columns:
            self._print(f"  {column.name} {column.type}")
        for index in table.indexes.values():
            flags = " unique" if index.unique else ""
            self._print(f"  index {index.name} on ({', '.join(index.columns)}){flags}")

    def _execute(self, sql: str) -> None:
        try:
            result = self.conn.execute(sql, self.host_vars)
        except ReproError as error:
            self._print(f"error: {error}")
            return
        if result.kind in ("ddl", "explain"):
            self._print(result.text)
            return
        self._print_rows(result.columns, result.rows)
        for info in result.retrievals:
            self._print(
                f"-- {info.table}: goal={info.goal.value}, "
                f"cost={info.result.total_cost:.1f}, {info.result.description}"
            )
            if self.show_trace:
                self._print(info.result.trace.format())


def load_demo(db: Database) -> None:
    """Preload the benchmark scenarios for interactive exploration."""
    from repro.workloads.scenarios import (
        build_families_table,
        build_multi_index_orders,
        build_parts_table,
    )

    build_families_table(db, rows=4000)
    build_parts_table(db, rows=6000)
    build_multi_index_orders(db, rows=8000)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    argv = argv if argv is not None else sys.argv[1:]
    shell = Shell(connect(buffer_capacity=128))
    if "--demo" in argv:
        load_demo(shell.db)
        print("demo tables loaded: FAMILIES, PARTS, ORDERS (try \\d)")
    print("repro shell — statements end with ';', \\q quits, \\d lists tables")
    try:
        while not shell.done:
            prompt = "repro> " if not shell._pending else "  ...> "
            try:
                line = input(prompt)
            except EOFError:
                break
            shell.feed(line)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
