"""Partitioned tables: N child tables behind one table surface.

A :class:`PartitionedTable` stores its rows in ``k`` ordinary
:class:`~repro.db.table.Table` children (reserved names ``T#p0`` ...
``T#p{k-1}``), each with its own heap file, B-tree indexes, and — the
point of the exercise — its own private :class:`~repro.storage
.buffer_pool.BufferPool` over the database's one shared pager, so each
partition's reads are metered against its own cache.

The class mirrors the :class:`~repro.db.table.Table` surface the SQL
layer, binder, and shell use (``schema``, ``select``/``select_steps``,
``insert``, ``create_index``, ``analyze``, ``row_count``...), so a
partitioned table drops into every existing retrieval path; ``select``
routes through :func:`repro.partition.scatter.scatter_steps` instead of
a single retrieval engine. Joins and counterfactual replay degrade
explicitly (no ``heap`` attribute → the executor raises a clear error /
the replayer skips), rather than silently scanning one partition.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Mapping, Sequence

from repro.competition.process import drain
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import (
    Column,
    IndexInfo,
    TableSchema,
    TableStats,
)
from repro.db.table import Table
from repro.engine.goals import OptimizationGoal
from repro.engine.retrieval import RetrievalRequest, RetrievalResult
from repro.errors import CatalogError
from repro.expr.ast import ALWAYS_TRUE, Expr
from repro.obs.trace import Tracer
from repro.partition.partitioner import (
    PartitionSpec,
    make_partitioner,
    partition_name,
)
from repro.partition.scatter import scatter_steps
from repro.storage.buffer_pool import BufferPool, CostMeter, NULL_METER
from repro.storage.rid import RID


class PartitionedTable:
    """A named table whose rows live in hash/range partitions."""

    #: lets callers distinguish without isinstance round-trips
    is_partitioned = True

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        spec: PartitionSpec,
        database: Any,
        rows_per_page: int = 32,
        index_order: int = 32,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> None:
        self.name = name
        self.schema = TableSchema(columns)
        if spec.column not in self.schema:
            raise CatalogError(
                f"partition column {spec.column!r} is not a column of {name!r}"
            )
        self.spec = spec
        self.config = config
        self.database = database
        self.partitioner = make_partitioner(
            spec, self.schema.index_of(spec.column)
        )
        # each partition's private pool gets an even share of the database's
        # buffer capacity, mirroring how contention would split one pool
        pages = max(8, database.buffer_pool.capacity // spec.partitions)
        self.partitions: list[Table] = []
        for index in range(spec.partitions):
            pool = BufferPool(database.pager, pages)
            self.partitions.append(
                Table(
                    partition_name(name, index),
                    list(columns),
                    pool,
                    rows_per_page=rows_per_page,
                    index_order=index_order,
                    config=config,
                )
            )
        self.stats: TableStats | None = None
        #: DDL notification hook, set by the owning Database (same
        #: contract as :class:`Table`)
        self.on_schema_change: Any | None = None

    # -- surface shared with Table -------------------------------------------

    @property
    def indexes(self) -> dict[str, IndexInfo]:
        """Index catalog (partition 0's view — every partition carries the
        same index set; per-partition B-trees live on the children)."""
        return self.partitions[0].indexes

    @property
    def row_count(self) -> int:
        return sum(child.row_count for child in self.partitions)

    @property
    def page_count(self) -> int:
        """Heap pages summed over partitions (shell catalog listing)."""
        return sum(child.heap.page_count for child in self.partitions)

    @property
    def partition_stats(self):
        """The database-wide :class:`~repro.partition.stats
        .PartitionStats` scatters report into (None when detached)."""
        return getattr(self.database, "partition_stats", None)

    # -- DDL -----------------------------------------------------------------

    def create_index(
        self,
        name: str,
        columns: Sequence[str],
        unique: bool = False,
        order: int | None = None,
    ) -> IndexInfo:
        """Create the index on every partition (each child backfills its
        own B-tree); returns partition 0's :class:`IndexInfo`."""
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists")
        infos = [
            child.create_index(name, columns, unique=unique, order=order)
            for child in self.partitions
        ]
        if self.on_schema_change is not None:
            self.on_schema_change()
        return infos[0]

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"unknown index {name!r}")
        for child in self.partitions:
            child.drop_index(name)
        if self.on_schema_change is not None:
            self.on_schema_change()

    # -- DML -----------------------------------------------------------------

    def insert(
        self,
        values: Mapping[str, Any] | Sequence[Any],
        meter: CostMeter = NULL_METER,
    ) -> RID:
        """Route one row to its partition by the partitioning column."""
        if isinstance(values, Mapping):
            row = self.schema.row_from_mapping(values)
        else:
            row = self.schema.validate_row(tuple(values))
        index = self.partitioner.partition_of_row(row)
        return self.partitions[index].insert(row, meter)

    def insert_many(
        self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> int:
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    # -- statistics ----------------------------------------------------------

    def analyze(self, histogram_buckets: int = 10) -> TableStats:
        """Collect table-level statistics across every partition (children
        also keep their own per-partition stats for their local engines)."""
        for child in self.partitions:
            child.analyze(histogram_buckets)
        stats = TableStats.collect(
            self.schema.names, [child.heap for child in self.partitions], histogram_buckets
        )
        self.stats = stats
        return stats

    # -- retrieval -----------------------------------------------------------

    def select(
        self,
        where: Expr = ALWAYS_TRUE,
        host_vars: Mapping[str, Any] | None = None,
        columns: Sequence[str] | None = None,
        order_by: Sequence[str] = (),
        limit: int | None = None,
        optimize_for: OptimizationGoal = OptimizationGoal.DEFAULT,
        context_key: Any = None,
        tracer: Tracer | None = None,
    ) -> RetrievalResult:
        """Run one scatter-gather retrieval to completion."""
        return drain(
            self.select_steps(
                where=where,
                host_vars=host_vars,
                columns=columns,
                order_by=order_by,
                limit=limit,
                optimize_for=optimize_for,
                context_key=context_key,
                tracer=tracer,
            )
        )

    def select_steps(
        self,
        where: Expr = ALWAYS_TRUE,
        host_vars: Mapping[str, Any] | None = None,
        columns: Sequence[str] | None = None,
        order_by: Sequence[str] = (),
        limit: int | None = None,
        optimize_for: OptimizationGoal = OptimizationGoal.DEFAULT,
        context_key: Any = None,
        tracer: Tracer | None = None,
        predicate_cache: Any | None = None,
        feedback: Any | None = None,
        estimator: Any | None = None,
    ) -> Generator[RetrievalResult, None, RetrievalResult]:
        """:meth:`select` as a step generator (scheduler entry point).

        ``context_key`` iteration-context reuse and the
        ``predicate_cache`` hook are accepted for surface compatibility
        but not forwarded into partition fetches: each fetch is
        self-contained. ``feedback`` and ``estimator`` *are* forwarded —
        as frozen snapshot views whose observations the coordinator
        replays post-gather (see :mod:`repro.partition.scatter`).
        """
        request = RetrievalRequest(
            restriction=where,
            host_vars=dict(host_vars or {}),
            output_columns=tuple(columns) if columns is not None else None,
            order_by=tuple(order_by),
            limit=limit,
            goal=optimize_for,
        )
        return scatter_steps(
            self, request, tracer, feedback=feedback, estimator=estimator
        )
