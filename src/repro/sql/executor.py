"""Plan execution over the dynamic retrieval engine.

The parser emits a fixed chain per query block —
``Project [Limit] [Distinct] [Sort] [Aggregate] Retrieve`` — which the
executor unwraps, resolving subqueries first (each subquery is itself a
chain), inferring per-retrieval goals (Section 4), and pushing ORDER BY /
LIMIT into the retrieval when legal so the engine's fast-first machinery
actually sees the early-termination opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Generator, Mapping

from repro.db.session import Database
from repro.engine.goals import OptimizationGoal, infer_goals
from repro.engine.retrieval import RetrievalResult
from repro.errors import BindingError, RetrievalError, SqlSyntaxError
from repro.expr.ast import (
    ALWAYS_FALSE,
    ALWAYS_TRUE,
    And,
    Expr,
    InList,
    Literal,
    Not,
    Or,
)
from repro.obs.trace import Tracer
from repro.result import Result
from repro.sql.binder import bind
from repro.sql.plan import (
    Aggregate,
    Distinct,
    Exists,
    ExistsSubquery,
    InSubquery,
    JoinPlan,
    Limit,
    PlanNode,
    Project,
    Retrieve,
    Sort,
    format_plan,
)


@dataclass
class RetrievalInfo:
    """One executed retrieval: which table, which goal, and its result."""

    table: str
    goal: OptimizationGoal
    result: RetrievalResult


def explain_kind(sql: str) -> str | None:
    """``"analyze"`` / ``"compete"`` for an executing EXPLAIN variant,
    None otherwise (including plain ``EXPLAIN``, which never runs).

    Used by the server to force a tracer for the statement before parsing it in earnest — the sampling decision
    happens at submission time. The prefix check keeps the common case —
    every non-EXPLAIN submission — free of a full tokenize.
    """
    if not sql.lstrip()[:7].lower().startswith("explain"):
        return None
    from repro.sql.tokenizer import tokenize

    try:
        tokens = tokenize(sql)
    except Exception:
        return None
    if len(tokens) < 2 or not tokens[0].is_keyword("explain"):
        return None
    if tokens[1].is_keyword("analyze"):
        return "analyze"
    if tokens[1].is_keyword("compete"):
        return "compete"
    return None


def _is_select(sql: str) -> bool:
    """Cheap prefix test routing SELECTs through the plan cache."""
    return sql.lstrip()[:6].lower() == "select"


def execute_sql_steps(
    db: Database,
    sql: str,
    host_vars: Mapping[str, Any] | None = None,
    goal: OptimizationGoal = OptimizationGoal.DEFAULT,
    retrievals: list[RetrievalInfo] | None = None,
    tracer: Tracer | None = None,
) -> Generator[RetrievalResult, None, Result]:
    """Parse, bind, infer goals and execute one statement as a step
    generator (one yield per scheduling quantum — up to
    ``config.batch_size`` engine steps), returning its :class:`Result`.

    The multi-query scheduler drives whole statements through this
    generator, interleaving their quanta over the shared buffer pool. The
    caller may pass its own ``retrievals`` list: each retrieval's
    :class:`RetrievalInfo` is appended there as soon as the retrieval takes
    its first step, so a cancelled statement still exposes the partial
    traces of whatever it ran. DDL statements execute in a single step.
    A ``tracer`` threads every retrieval of the statement (subqueries
    included) onto one query-level span timeline.

    SELECT statements route through the server-wide plan cache when it is
    enabled: a hit skips tokenize/parse/bind entirely and reuses the cached
    plan's compiled predicates; a miss parses once and populates the cache.
    """
    from repro.sql.ddl import execute_ddl
    from repro.sql.parser import (
        DeallocateStatement,
        ExecuteStatement,
        ExplainQuery,
        ParsedQuery,
        PrepareStatement,
        parse_any,
    )

    cache = db.plan_cache
    if cache.enabled and _is_select(sql):
        entry, hit = cache.entry_for(db, sql)
        if tracer is not None and tracer.enabled:
            tracer.mark("plan-cache", hit=hit, size=cache.size)
        return (
            yield from execute_prepared_steps(
                db, entry, host_vars, goal, retrievals=retrievals, tracer=tracer
            )
        )
    parsed = parse_any(sql)
    if isinstance(parsed, ExplainQuery):
        return (
            yield from _execute_explain(db, parsed, host_vars, goal, retrievals, tracer)
        )
    if isinstance(parsed, PrepareStatement):
        entry, _ = cache.entry_for(db, parsed.sql)
        db.prepared[parsed.name] = entry
        return Result("ddl", text=f"statement {parsed.name} prepared")
    if isinstance(parsed, ExecuteStatement):
        entry = db.prepared.get(parsed.name)
        if entry is None:
            raise BindingError(f"unknown prepared statement {parsed.name!r}")
        entry = cache.revalidate(db, entry)
        db.prepared[parsed.name] = entry
        if len(parsed.params) != entry.param_count:
            raise BindingError(
                f"prepared statement {parsed.name!r} expects "
                f"{entry.param_count} parameter(s), got {len(parsed.params)}"
            )
        bound = dict(host_vars or {})
        bound.update(zip(entry.param_names, parsed.params))
        return (
            yield from execute_prepared_steps(
                db, entry, bound, goal, retrievals=retrievals, tracer=tracer
            )
        )
    if isinstance(parsed, DeallocateStatement):
        if db.prepared.pop(parsed.name, None) is None:
            raise BindingError(f"unknown prepared statement {parsed.name!r}")
        return Result("ddl", text=f"statement {parsed.name} deallocated")
    if not isinstance(parsed, ParsedQuery):
        return execute_ddl(db, parsed)
    requested = parsed.goal if parsed.goal is not OptimizationGoal.DEFAULT else goal
    bind(db, parsed.plan)
    goals = infer_goals(parsed.plan, requested)
    if retrievals is None:
        retrievals = []
    columns, rows = yield from _execute_block(
        db, parsed.plan, dict(host_vars or {}), goals, retrievals, tracer=tracer
    )
    return Result(
        "rows", columns, rows, plan=parsed.plan, goals=goals, retrievals=retrievals
    )


def execute_prepared_steps(
    db: Database,
    plan: Any,
    host_vars: Mapping[str, Any] | None = None,
    goal: OptimizationGoal = OptimizationGoal.DEFAULT,
    retrievals: list[RetrievalInfo] | None = None,
    tracer: Tracer | None = None,
) -> Generator[RetrievalResult, None, Result]:
    """Execute a :class:`~repro.cache.plan_cache.CachedPlan` — no tokenize,
    parse, or bind on this path.

    The plan is revalidated against the current schema version first; a
    stale plan is transparently rebuilt (or fails safe with a binding error
    when its table is gone). The cached plan's predicate cache and the
    database's feedback store are threaded into every retrieval.
    """
    plan = db.plan_cache.revalidate(db, plan)
    parsed = plan.parsed
    requested = parsed.goal if parsed.goal is not OptimizationGoal.DEFAULT else goal
    goals = plan.goals_for(requested)
    if retrievals is None:
        retrievals = []
    plan.executions += 1
    columns, rows = yield from _execute_block(
        db, parsed.plan, dict(host_vars or {}), goals, retrievals,
        tracer=tracer, prepared=plan,
    )
    return Result(
        "rows", columns, rows, plan=parsed.plan, goals=goals, retrievals=retrievals
    )


def _execute_explain(
    db: Database,
    parsed: "ExplainQuery",
    host_vars: Mapping[str, Any] | None,
    goal: OptimizationGoal,
    retrievals: list[RetrievalInfo] | None,
    tracer: Tracer | None,
) -> Generator[RetrievalResult, None, Result]:
    """Render a plan (``EXPLAIN``), run-and-render it (``EXPLAIN
    ANALYZE``), or run, audit, and counterfactually replay it
    (``EXPLAIN COMPETE``).

    The inner SELECT routes through the shared plan cache under the same
    normalized key an ad-hoc execution of that text would use, so the
    report describes the *cached* plan — spans and estimate-vs-actual
    figures attach to the same tree production hits execute.

    ANALYZE and COMPETE always execute under a live tracer — one is
    created on the spot when the caller did not force one — so the
    rendered report can lay the span timeline next to the static plan;
    COMPETE then replays the decision log its retrievals recorded.
    """
    from repro.obs.explain import render_analyze

    query = parsed.query
    requested = query.goal if query.goal is not OptimizationGoal.DEFAULT else goal
    cache = db.plan_cache
    entry = None
    if cache.enabled and parsed.sql and _is_select(parsed.sql):
        entry, hit = cache.entry_for(db, parsed.sql)
        if tracer is not None and tracer.enabled:
            tracer.mark("plan-cache", hit=hit, size=cache.size)
        plan_root = entry.parsed.plan
        goals = entry.goals_for(requested)
    else:
        bind(db, query.plan)
        plan_root = query.plan
        goals = infer_goals(query.plan, requested)
    if not parsed.analyze and not parsed.compete:
        return Result("explain", plan=plan_root, goals=goals,
                      text=format_plan(plan_root, goals))
    if tracer is None or not tracer.enabled:
        tracer = Tracer("explain-compete" if parsed.compete else "explain-analyze")
    if retrievals is None:
        retrievals = []
    if entry is not None:
        entry.executions += 1
    columns, rows = yield from _execute_block(
        db, plan_root, dict(host_vars or {}), goals, retrievals,
        tracer=tracer, prepared=entry,
    )
    tracer.finish(rows=len(rows))
    text = render_analyze(plan_root, goals, retrievals, tracer, len(rows))
    compete_report = None
    if parsed.compete:
        from repro.obs.audit import AuditLog
        from repro.obs.regret import run_compete

        compete_report = run_compete(db, AuditLog.of(retrievals))
        text += "\n\n" + compete_report.format()
    return Result(
        "explain", columns, rows, plan=plan_root, text=text,
        compete=compete_report, goals=goals, retrievals=retrievals,
    )


# -- chain unwrapping -----------------------------------------------------------


@dataclass
class _Chain:
    project: Project
    limit: Limit | None
    distinct: Distinct | None
    sort: Sort | None
    aggregate: Aggregate | None
    retrieve: "Retrieve | JoinPlan"


def _unwrap(root: PlanNode) -> _Chain:
    if not isinstance(root, Project):
        raise SqlSyntaxError(f"expected a Project root, found {root.node_type}")
    project = root
    node = project.children[0]
    limit = distinct = sort = aggregate = None
    if isinstance(node, Limit):
        limit, node = node, node.children[0]
    if isinstance(node, Distinct):
        distinct, node = node, node.children[0]
    if isinstance(node, Sort):
        sort, node = node, node.children[0]
    if isinstance(node, Aggregate):
        aggregate, node = node, node.children[0]
    if not isinstance(node, (Retrieve, JoinPlan)):
        raise SqlSyntaxError(f"malformed plan chain: found {node.node_type}")
    return _Chain(project, limit, distinct, sort, aggregate, node)


def _tracked(
    gen: Generator[RetrievalResult, None, RetrievalResult],
    retrievals: list[RetrievalInfo],
    table_name: str,
    goal: OptimizationGoal,
) -> Generator[RetrievalResult, None, RetrievalResult]:
    """Drive one retrieval's step generator, registering it as in-flight.

    The engine yields (and finally returns) the *same* live
    :class:`~repro.engine.retrieval.RetrievalResult` object, so appending
    the :class:`RetrievalInfo` at the first step makes partial traces of a
    later-cancelled retrieval visible to the server's metrics. The
    ``finally`` close propagates cancellation into the engine, which
    abandons its scans and releases temp structures.
    """
    registered = False
    try:
        while True:
            try:
                partial = next(gen)
            except StopIteration as stop:
                if not registered:
                    retrievals.append(RetrievalInfo(table_name, goal, stop.value))
                return stop.value
            if not registered:
                retrievals.append(RetrievalInfo(table_name, goal, partial))
                registered = True
            yield partial
    finally:
        gen.close()


def _execute_block(
    db: Database,
    root: PlanNode,
    host_vars: dict[str, Any],
    goals: dict[int, OptimizationGoal],
    retrievals: list[RetrievalInfo],
    forced_limit: int | None = None,
    tracer: Tracer | None = None,
    prepared: Any = None,
) -> Generator[RetrievalResult, None, tuple[tuple[str, ...], list[tuple]]]:
    chain = _unwrap(root)
    if isinstance(chain.retrieve, JoinPlan):
        schema, rows = yield from _execute_join_retrieve(
            db, chain.retrieve, host_vars, goals, retrievals, tracer
        )
        # a join delivers in driving-order; every requested sort runs here
        if chain.sort is not None:
            rows = _sort_rows(rows, schema, chain.sort)
    else:
        table = db.table(chain.retrieve.table)
        schema = table.schema
        restriction = yield from _resolve_subqueries(
            db, chain.retrieve.restriction or ALWAYS_TRUE, host_vars, goals, retrievals,
            tracer, prepared=prepared,
        )

        goal = goals.get(id(chain.retrieve), OptimizationGoal.DEFAULT)
        order_keys = chain.sort.keys if chain.sort is not None else ()
        ascending_only = chain.sort is None or not any(chain.sort.descending)

        # LIMIT pushes into the retrieval only when no operation between them
        # needs the full row set
        push_limit: int | None = None
        if chain.limit is not None and chain.distinct is None and chain.aggregate is None:
            if ascending_only:
                push_limit = chain.limit.count
        if forced_limit is not None and chain.limit is None and (
            chain.distinct is None and chain.aggregate is None and chain.sort is None
        ):
            push_limit = forced_limit

        result = yield from _tracked(
            table.select_steps(
                where=restriction,
                host_vars=host_vars,
                columns=chain.retrieve.output_columns,
                order_by=order_keys if ascending_only else (),
                limit=push_limit,
                optimize_for=goal,
                tracer=tracer,
                predicate_cache=prepared.predicates if prepared is not None else None,
                feedback=db.feedback if db.feedback.enabled else None,
                estimator=db.estimator,
            ),
            retrievals,
            chain.retrieve.table,
            goal,
        )
        rows = list(result.rows)

        if chain.sort is not None and not ascending_only:
            rows = _sort_rows(rows, schema, chain.sort)

    if chain.aggregate is not None:
        columns, rows = _aggregate(rows, schema, chain.aggregate)
    else:
        columns, rows = _project(rows, schema, chain.project)

    if chain.distinct is not None:
        seen: set[tuple] = set()
        unique: list[tuple] = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        rows = unique

    limit_count = chain.limit.count if chain.limit is not None else forced_limit
    if limit_count is not None and len(rows) > limit_count:
        rows = rows[:limit_count]
    return columns, rows


def _execute_join_retrieve(
    db: Database,
    node: JoinPlan,
    host_vars: dict[str, Any],
    goals: dict[int, OptimizationGoal],
    retrievals: list[RetrievalInfo],
    tracer: Tracer | None,
) -> Generator[RetrievalResult, None, tuple[Any, list[tuple]]]:
    """Run one 2–4 table join through the join-order competition.

    Returns the combined-row :class:`~repro.engine.join.JoinSchema` (the
    schema-like the shared sort/aggregate/project tail consumes) and the
    joined rows in canonical source order.
    """
    from repro.engine.join import (
        JoinSchema,
        JoinTableHandle,
        join_display_name,
        run_join_steps,
    )

    handles = {}
    for source in node.sources:
        table = db.table(source.table)
        if not hasattr(table, "heap"):
            # partitioned tables have no single heap/pool to race join
            # orders over; scatter-aware joins are a follow-on
            raise RetrievalError(
                f"table {table.name!r} is partitioned; joins over "
                f"partitioned tables are not supported yet"
            )
        handles[source.alias] = JoinTableHandle(
            name=table.name,
            heap=table.heap,
            schema=table.schema,
            indexes=dict(table.indexes),
            buffer_pool=table.buffer_pool,
            stats=table.stats,
        )
    goal = goals.get(id(node), OptimizationGoal.DEFAULT)
    if goal is OptimizationGoal.DEFAULT:
        goal = OptimizationGoal.TOTAL_TIME
    display = join_display_name(node)

    result = yield from _tracked(
        run_join_steps(
            node,
            handles,
            host_vars,
            goal,
            db.config,
            tracer=tracer,
            feedback=db.feedback if db.feedback.enabled else None,
            estimator=db.estimator,
        ),
        retrievals,
        display,
        goal,
    )
    return JoinSchema(node, handles), list(result.rows)


def _sort_rows(rows: list[tuple], schema: Any, sort: Sort) -> list[tuple]:
    positions = [schema.index_of(key) for key in sort.keys]
    # stable multi-key sort with mixed directions: sort by keys right-to-left
    for position, descending in reversed(list(zip(positions, sort.descending))):
        rows = sorted(rows, key=lambda row: row[position], reverse=descending)
    return rows


def _project(
    rows: list[tuple], schema: Any, project: Project
) -> tuple[tuple[str, ...], list[tuple]]:
    if not project.columns:
        return schema.names, rows
    positions = [schema.index_of(name) for name in project.columns]
    if len(positions) == 1:  # itemgetter would hand back bare values
        (position,) = positions
        projected = [(row[position],) for row in rows]
    else:
        projected = list(map(itemgetter(*positions), rows))
    return tuple(project.columns), projected


def _aggregate(
    rows: list[tuple], schema: Any, aggregate: Aggregate
) -> tuple[tuple[str, ...], list[tuple]]:
    values: list[Any] = []
    names: list[str] = []
    for item in aggregate.items:
        names.append(item.alias)
        if item.function == "count" and item.argument is None:
            values.append(len(rows))
            continue
        position = schema.index_of(item.argument or "")
        column = [row[position] for row in rows if row[position] is not None]
        if item.function == "count":
            values.append(len(column))
        elif not column:
            values.append(None)
        elif item.function == "sum":
            values.append(sum(column))
        elif item.function == "avg":
            values.append(sum(column) / len(column))
        elif item.function == "min":
            values.append(min(column))
        elif item.function == "max":
            values.append(max(column))
    return tuple(names), [tuple(values)]


# -- subquery resolution ------------------------------------------------------------


def _resolve_subqueries(
    db: Database,
    expr: Expr,
    host_vars: dict[str, Any],
    goals: dict[int, OptimizationGoal],
    retrievals: list[RetrievalInfo],
    tracer: Tracer | None = None,
    prepared: Any = None,
) -> Generator[RetrievalResult, None, Expr]:
    if isinstance(expr, InSubquery):
        _, rows = yield from _execute_block(
            db, expr.plan, host_vars, goals, retrievals, tracer=tracer,
            prepared=prepared,
        )
        values = sorted({row[0] for row in rows if row and row[0] is not None})
        if not values:
            return ALWAYS_FALSE
        return InList(expr.column, tuple(Literal(value) for value in values))
    if isinstance(expr, ExistsSubquery):
        subquery_root = expr.plan.children[0] if isinstance(expr.plan, Exists) else expr.plan
        _, rows = yield from _execute_block(
            db, subquery_root, host_vars, goals, retrievals, forced_limit=1,
            tracer=tracer, prepared=prepared,
        )
        return ALWAYS_TRUE if rows else ALWAYS_FALSE
    # rebuild composites only when a child actually resolved to something
    # new: keeping the original object preserves expression identity, which
    # the per-plan predicate/normalization memos key on across executions
    if isinstance(expr, And):
        children = []
        for child in expr.children:
            children.append(
                (yield from _resolve_subqueries(
                    db, child, host_vars, goals, retrievals, tracer, prepared
                ))
            )
        if all(new is old for new, old in zip(children, expr.children)):
            return expr
        return And(tuple(children))
    if isinstance(expr, Or):
        children = []
        for child in expr.children:
            children.append(
                (yield from _resolve_subqueries(
                    db, child, host_vars, goals, retrievals, tracer, prepared
                ))
            )
        if all(new is old for new, old in zip(children, expr.children)):
            return expr
        return Or(tuple(children))
    if isinstance(expr, Not):
        child = yield from _resolve_subqueries(
            db, expr.child, host_vars, goals, retrievals, tracer, prepared
        )
        return expr if child is expr.child else Not(child)
    return expr
