"""The statically-controlled Jscan baseline [MoHa90].

Section 6: "A similar Jscan strategy with statically set thresholds
controlling unproductive scan elimination was independently discovered and
described in [MoHa90]. The statically-controlled Jscan, however, misses an
opportunity to readjust to new, reliably determined, guaranteed best
retrieval cost, nor can it reorder the scan sequence dynamically."

This baseline therefore:

* orders indexes by *compile-time* histogram selectivity (not live descents);
* abandons a scan only when its RID list grows past a fixed threshold
  (a fraction of the table's row count), with no dynamic readjustment;
* never runs simultaneous adjacent scans.

:class:`StaticThresholdJscan` is the per-entry Jscan with that rule as its
verdict; :func:`run_static_jscan` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.db.table import Table
from repro.engine.final_stage import FinalStageProcess
from repro.engine.initial import JscanCandidate
from repro.engine.jscan import _IndexScan
from repro.engine.metrics import RetrievalTrace
from repro.engine.scans import TscanProcess
from repro.engine.static_optimizer import StaticOptimizer
from repro.expr.ast import Expr
from repro.expr.eval import referenced_columns
from repro.expr.normalize import conjunction_terms
from repro.expr.ranges import extract_index_restriction
from repro.storage.rid import RID

from paper.per_entry_jscan import PerEntryJscan


class StaticThresholdJscan(PerEntryJscan):
    """Jscan under [MoHa90]-style static control: a scan is abandoned when
    its list holds more than ``rid_threshold`` RIDs, and neither the
    guaranteed best nor a projection is consulted."""

    def __init__(self, *args, rid_threshold: float, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rid_threshold = rid_threshold

    def _judge(self, scan: _IndexScan, guaranteed: float) -> None:
        if scan.kept > self.rid_threshold:
            self._abandon_scan(scan, "static-threshold")


def _run(process, batch_size: int) -> None:
    """Drive a process to completion in ``batch_size``-step batches.

    The baseline has no interleaving, so each process runs solo; batched
    stepping changes only dispatch overhead, never its decisions (the
    static threshold is judged after every entry).
    """
    while process.active:
        _, done = process.run_batch(max(1, batch_size))
        if done:
            return


@dataclass
class MohanExecution:
    """Outcome of one statically-thresholded Jscan retrieval."""

    rows: list[tuple]
    rids: list[RID]
    cost: float
    io: int
    trace: RetrievalTrace
    description: str


def run_static_jscan(
    table: Table,
    restriction: Expr,
    host_vars: Mapping[str, Any] | None = None,
    threshold_fraction: float = 0.10,
    limit: int | None = None,
) -> MohanExecution:
    """Execute a retrieval with the [MoHa90]-style static Jscan."""
    host_vars = dict(host_vars or {})
    trace = RetrievalTrace()
    optimizer = StaticOptimizer(table)
    terms = conjunction_terms(restriction)
    needed = frozenset(table.schema.names) | referenced_columns(restriction)

    candidates: list[tuple[float, JscanCandidate]] = []
    for index in table.indexes.values():
        if index.covers(needed):
            continue  # [MoHa90] targets fetch-needed multi-index access
        index_restriction = extract_index_restriction(terms, index.columns, host_vars)
        if not index_restriction.matched:
            continue
        selectivity = optimizer._index_selectivity(index, restriction)
        candidates.append(
            (selectivity, JscanCandidate(index=index, key_range=index_restriction.key_range))
        )
    candidates.sort(key=lambda pair: pair[0])

    rows: list[tuple] = []
    rids: list[RID] = []

    def sink(rid: RID, row: tuple) -> bool:
        rows.append(row)
        rids.append(rid)
        return limit is None or len(rows) < limit

    processes = []
    description = "static-jscan"
    if candidates:
        jscan = StaticThresholdJscan(
            [candidate for _, candidate in candidates],
            table.heap,
            table.buffer_pool,
            trace,
            table.config.with_(simultaneous_adjacent_scans=False),
            rid_threshold=threshold_fraction * max(1, table.row_count),
            name="static-jscan",
        )
        _run(jscan, table.config.batch_size)
        processes.append(jscan)
        if jscan.empty:
            description += " -> empty"
        elif jscan.tscan_recommended:
            description += " -> tscan"
            tscan = TscanProcess(
                table.heap, table.schema, restriction, host_vars, sink, trace, table.config
            )
            _run(tscan, table.config.batch_size)
            processes.append(tscan)
        else:
            final = FinalStageProcess(
                jscan.sorted_result(), table.heap, table.schema, restriction,
                host_vars, sink, trace, table.config,
            )
            _run(final, table.config.batch_size)
            processes.append(final)
            description += f" -> final({len(final.rids)})"
    else:
        tscan = TscanProcess(
            table.heap, table.schema, restriction, host_vars, sink, trace, table.config
        )
        _run(tscan, table.config.batch_size)
        processes.append(tscan)
        description += " -> tscan(no-candidates)"

    return MohanExecution(
        rows=rows,
        rids=rids,
        cost=sum(process.meter.total for process in processes),
        io=sum(process.meter.io_total for process in processes),
        trace=trace,
        description=description,
    )
