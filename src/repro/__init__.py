"""repro — a reproduction of "Dynamic Query Optimization in Rdb/VMS"
(Gennady Antoshenkov, ICDE 1993).

The package implements the paper's dynamic single-table optimizer —
competition-based strategy selection over Tscan / Sscan / Fscan / Jscan —
together with every substrate it needs: a simulated storage engine with
physical-I/O accounting, B+-tree indexes with descent-to-split estimation,
the Section 3 competition framework, an SQL front end with the Rdb/VMS
extensions, and the static-optimizer baseline the paper argues against.
The models and comparators only the paper's experiments run (the Section 2
selectivity-distribution toolkit, B+-tree sampling, the [MoHa90]
static-threshold Jscan and the Bayesian switch rule) live in
``benchmarks/paper/``, outside the package.

Statements are served by a multi-query scheduler: open a connection with
:func:`repro.connect`, then execute SQL on it — or open several sessions
and watch their queries interleave over one shared buffer pool.

Quick start::

    import repro

    conn = repro.connect()
    conn.execute("create table FAMILIES (ID int, AGE int)")
    conn.execute("create index IX_AGE on FAMILIES (AGE)")
    for i, age in enumerate([5, 30, 70, 95]):
        conn.execute(f"insert into FAMILIES values ({i}, {age})")

    result = conn.execute("select * from FAMILIES where AGE >= :A1 "
                          "optimize for fast first", {"A1": 60})
    print(result.rows)
"""

from repro.api import Connection, connect
from repro.cache import FeedbackStore, PlanCache, PreparedStatement
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import Column
from repro.db.partitioned import PartitionedTable
from repro.db.session import Database
from repro.db.table import Table
from repro.partition import PartitionSpec, PartitionStats
from repro.engine.goals import OptimizationGoal, infer_goals
from repro.engine.retrieval import RetrievalRequest, RetrievalResult
from repro.errors import QueryCancelledError, ReproError, ServerError
from repro.expr.ast import col, lit, var
from repro.result import Result, ResultMetrics
from repro.obs import (
    JsonlSink,
    LogHistogram,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    should_sample,
)
from repro.server import (
    MetricsRegistry,
    QueryHandle,
    QueryServer,
    QueryState,
    ServerSession,
    SessionMetrics,
)

__version__ = "2.0.0"

__all__ = [
    "Column",
    "Connection",
    "Database",
    "DEFAULT_CONFIG",
    "EngineConfig",
    "FeedbackStore",
    "JsonlSink",
    "LogHistogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OptimizationGoal",
    "PartitionSpec",
    "PartitionStats",
    "PartitionedTable",
    "PlanCache",
    "PreparedStatement",
    "QueryCancelledError",
    "QueryHandle",
    "QueryServer",
    "QueryState",
    "Result",
    "ResultMetrics",
    "RetrievalRequest",
    "RetrievalResult",
    "ReproError",
    "ServerError",
    "ServerSession",
    "SessionMetrics",
    "Span",
    "Table",
    "Tracer",
    "col",
    "connect",
    "infer_goals",
    "lit",
    "should_sample",
    "var",
    "__version__",
]
