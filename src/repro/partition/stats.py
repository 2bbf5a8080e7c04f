"""Server-wide scatter-gather observability aggregates.

One :class:`PartitionStats` lives on each :class:`~repro.db.session
.Database` and is wired onto the server's
:class:`~repro.server.metrics.MetricsRegistry` (``\\metrics`` and the
Prometheus exporter). The coordinator records one observation per
scatter, after the gather.

``merge_rows`` reconciles exactly with retrieval row counts: it is
incremented by the number of rows the merge *delivered* (post global
LIMIT), i.e. ``len(result.rows)`` of every partitioned retrieval.
"""

from __future__ import annotations

from repro.obs.hist import LogHistogram


class PartitionStats:
    """Counters and histograms for partitioned retrievals."""

    def __init__(self) -> None:
        #: scatter-gather retrievals executed
        self.scatters = 0
        #: rows delivered by gather merges (== sum of partitioned
        #: retrievals' row counts, the reconciliation invariant)
        self.merge_rows = 0
        #: per-partition fetches executed / pruned away before running
        self.partitions_fetched = 0
        self.partitions_pruned = 0
        #: ordered k-way merges vs bag unions
        self.ordered_merges = 0
        #: rows delivered per partition fetch
        self.fetch_rows_hist = LogHistogram("partition_fetch_rows")
        #: cost (page-I/O units) per partition fetch
        self.fetch_cost_hist = LogHistogram("partition_fetch_cost")

    def record_scatter(
        self,
        fetch_rows: list[int],
        fetch_costs: list[float],
        merged_rows: int,
        pruned: int,
        ordered: bool,
    ) -> None:
        """Fold one completed scatter-gather retrieval in."""
        self.scatters += 1
        self.merge_rows += merged_rows
        self.partitions_fetched += len(fetch_rows)
        self.partitions_pruned += pruned
        if ordered:
            self.ordered_merges += 1
        for rows in fetch_rows:
            self.fetch_rows_hist.record(float(rows))
        for cost in fetch_costs:
            self.fetch_cost_hist.record(cost)

    def format(self) -> str:
        """One ``\\metrics`` line."""
        return (
            f"partitions: {self.scatters} scatters, "
            f"{self.partitions_fetched} fetched / {self.partitions_pruned} pruned, "
            f"{self.merge_rows} merged rows ({self.ordered_merges} ordered)"
        )
