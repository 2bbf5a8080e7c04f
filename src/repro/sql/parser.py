"""Recursive-descent SQL parser producing logical plans.

Supports the single-table subset the paper works in, plus nested
subqueries via ``IN (select ...)`` and ``EXISTS (select ...)``, and the
Rdb/VMS extensions ``LIMIT TO n ROWS`` and ``OPTIMIZE FOR FAST FIRST /
TOTAL TIME``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.goals import OptimizationGoal
from repro.errors import SqlSyntaxError
from repro.expr.ast import (
    ALWAYS_TRUE,
    And,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    HostVar,
    InList,
    Like,
    Literal,
    Not,
    Or,
    ValueTerm,
)
from repro.expr.eval import referenced_columns, rewrite_columns
from repro.sql.plan import (
    Aggregate,
    AggregateItem,
    Distinct,
    Exists,
    ExistsSubquery,
    InSubquery,
    JoinEdge,
    JoinPlan,
    JoinSource,
    Limit,
    PlanNode,
    Project,
    Retrieve,
    Sort,
)
from repro.sql.tokenizer import Token, tokenize

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass
class ParsedQuery:
    """A parsed statement: the plan tree plus the statement-level goal."""

    plan: PlanNode
    goal: OptimizationGoal


@dataclass
class ExplainQuery:
    """``EXPLAIN [ANALYZE | COMPETE] <select>``: render (and optionally run)
    a plan. COMPETE additionally audits the run's optimizer decisions and
    counterfactually replays the rejected strategies
    (:mod:`repro.obs.regret`). ``sql`` is the inner SELECT's source text,
    so the executor can route the execution through the shared plan cache
    under the same key ad-hoc runs of that text would use."""

    query: ParsedQuery
    analyze: bool
    compete: bool = False
    sql: str = ""


@dataclass
class PrepareStatement:
    """``PREPARE name AS <select>``: register a named prepared statement.

    ``sql`` is the inner SELECT's source text (sliced from the original
    statement), so the executor can route it through the shared plan cache
    under the same normalized key ad-hoc executions of that text would use.
    ``query`` is the already-validated parse of that text.
    """

    name: str
    sql: str
    query: ParsedQuery


@dataclass
class ExecuteStatement:
    """``EXECUTE name [(literal, ...)]``: run a prepared statement, binding
    the literals positionally to its ``?`` placeholders."""

    name: str
    params: tuple


@dataclass
class DeallocateStatement:
    """``DEALLOCATE [PREPARE] name``: drop a prepared statement."""

    name: str


def parse(sql: str, tokens: list[Token] | None = None) -> ParsedQuery:
    """Parse one SELECT statement (``tokens``: ``tokenize(sql)``, when the
    caller already has it)."""
    parser = _Parser(tokens if tokens is not None else tokenize(sql))
    query = parser.select_statement()
    parser.expect_end()
    return query


def parse_any(sql: str):
    """Parse any supported statement: a SELECT (returns
    :class:`ParsedQuery`), ``EXPLAIN [ANALYZE] <select>`` (returns
    :class:`ExplainQuery`), or a DDL/DML statement (returns a
    :mod:`repro.sql.ddl` statement object)."""
    parser = _Parser(tokenize(sql))
    if parser.current.is_keyword("explain"):
        parser.advance()
        analyze = parser.accept_keyword("analyze")
        compete = False if analyze else parser.accept_keyword("compete")
        start = parser.current.position
        query = parser.select_statement()
        parser.expect_end()
        return ExplainQuery(
            query=query,
            analyze=analyze,
            compete=compete,
            sql=sql[start:].strip(),
        )
    if parser.current.is_keyword("select"):
        query = parser.select_statement()
        parser.expect_end()
        return query
    if parser.current.is_keyword("prepare"):
        parser.advance()
        name = parser.expect_name()
        parser.expect_keyword("as")
        start = parser.current.position
        query = parser.select_statement()
        parser.expect_end()
        return PrepareStatement(name=name, sql=sql[start:].strip(), query=query)
    if parser.current.is_keyword("execute"):
        parser.advance()
        name = parser.expect_name()
        params: list = []
        if parser.accept_op("("):
            if not parser.accept_op(")"):
                while True:
                    params.append(parser.literal_value())
                    if not parser.accept_op(","):
                        break
                parser.expect_op(")")
        parser.expect_end()
        return ExecuteStatement(name=name, params=tuple(params))
    if parser.current.is_keyword("deallocate"):
        parser.advance()
        parser.accept_keyword("prepare")
        name = parser.expect_name()
        parser.expect_end()
        return DeallocateStatement(name=name)
    from repro.sql.ddl import parse_ddl

    statement = parse_ddl(parser)
    parser.expect_end()
    return statement


MAX_JOIN_TABLES = 4


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0
        #: alias -> table map while parsing a join query's WHERE/ORDER BY;
        #: None in single-table context (saved/restored across subqueries)
        self._join_aliases: dict[str, str] | None = None

    # -- token plumbing ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "end":
            self.index += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise SqlSyntaxError(
                f"expected {word.upper()}, found {self.current.value!r}",
                self.current.position,
            )

    def accept_op(self, op: str) -> bool:
        if self.current.kind == "op" and self.current.value == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise SqlSyntaxError(
                f"expected {op!r}, found {self.current.value!r}", self.current.position
            )

    def expect_name(self) -> str:
        if self.current.kind != "name":
            raise SqlSyntaxError(
                f"expected a name, found {self.current.value!r}", self.current.position
            )
        return self.advance().value

    def expect_end(self) -> None:
        if self.current.kind != "end":
            raise SqlSyntaxError(
                f"unexpected trailing input {self.current.value!r}", self.current.position
            )

    def literal_value(self):
        """A bare literal (number, string, or NULL) as a Python value."""
        token = self.current
        if token.kind == "number":
            self.advance()
            return float(token.value) if "." in token.value else int(token.value)
        if token.kind == "string":
            self.advance()
            return token.value
        if token.is_keyword("null"):
            self.advance()
            return None
        raise SqlSyntaxError(
            f"expected a literal value, found {token.value!r}", token.position
        )

    # -- grammar ------------------------------------------------------------------

    def select_statement(self) -> ParsedQuery:
        saved_aliases = self._join_aliases
        try:
            return self._select_statement()
        finally:
            self._join_aliases = saved_aliases

    def _select_statement(self) -> ParsedQuery:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        star, columns, aggregates = self.select_list()
        if aggregates and columns:
            raise SqlSyntaxError(
                "mixing plain columns with aggregates requires GROUP BY, "
                "which this subset does not support"
            )
        self.expect_keyword("from")
        sources, on_edges = self.from_clause()
        join_mode = len(sources) > 1
        table = sources[0].table
        if join_mode:
            self._join_aliases = {source.alias: source.table for source in sources}
            qualifier = None
        else:
            self._join_aliases = None
            # the allowed column qualifier: the alias when given, else the
            # table name itself
            qualifier = sources[0].alias
        columns = [self._resolve_select_name(name, sources) for name in columns]
        aggregates = [
            AggregateItem(
                item.function,
                None
                if item.argument is None
                else self._resolve_select_name(item.argument, sources),
                item.alias,
            )
            for item in aggregates
        ]
        restriction: Expr = ALWAYS_TRUE
        subplans: list[PlanNode] = []
        if self.accept_keyword("where"):
            restriction = self.or_expr(qualifier, subplans)
        order_keys: list[str] = []
        order_desc: list[bool] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            while True:
                order_keys.append(self.column_name(qualifier))
                if self.accept_keyword("desc"):
                    order_desc.append(True)
                else:
                    self.accept_keyword("asc")
                    order_desc.append(False)
                if not self.accept_op(","):
                    break
        limit: int | None = None
        if self.accept_keyword("limit"):
            self.expect_keyword("to")
            if self.current.kind != "number":
                raise SqlSyntaxError("LIMIT TO expects a number", self.current.position)
            limit = int(self.advance().value)
            self.expect_keyword("rows")
        goal = OptimizationGoal.DEFAULT
        if self.accept_keyword("optimize"):
            self.expect_keyword("for")
            if self.accept_keyword("fast"):
                self.expect_keyword("first")
                goal = OptimizationGoal.FAST_FIRST
            else:
                self.expect_keyword("total")
                self.expect_keyword("time")
                goal = OptimizationGoal.TOTAL_TIME

        output: tuple[str, ...] | None
        if star:
            output = None
        else:
            needed = list(columns)
            for item in aggregates:
                if item.argument is not None and item.argument not in needed:
                    needed.append(item.argument)
            for key in order_keys:
                if key not in needed:
                    needed.append(key)
            output = tuple(needed)

        node: PlanNode
        if join_mode:
            if subplans:
                raise SqlSyntaxError("subqueries are not supported in join queries")
            locals_, where_edges = self._split_join_where(restriction, sources)
            node = JoinPlan(
                sources=tuple(sources),
                edges=tuple(on_edges) + tuple(where_edges),
                restrictions=locals_,
                output_columns=output,
            )
        else:
            node = Retrieve(
                children=tuple(subplans),
                table=table,
                restriction=restriction,
                output_columns=output,
            )
        if aggregates:
            node = Aggregate(children=(node,), items=tuple(aggregates))
        if order_keys:
            node = Sort(children=(node,), keys=tuple(order_keys), descending=tuple(order_desc))
        if distinct:
            node = Distinct(children=(node,))
        if limit is not None:
            node = Limit(children=(node,), count=limit)
        node = Project(children=(node,), columns=tuple(columns) if not star else ())
        return ParsedQuery(plan=node, goal=goal)

    # -- FROM clause / joins -------------------------------------------------

    def from_clause(self) -> tuple[list[JoinSource], list[JoinEdge]]:
        """``table [alias] ([INNER] JOIN table [alias] ON a.x = b.y [AND ...])*``"""
        sources = [self._join_source()]
        edges: list[JoinEdge] = []
        while True:
            if self.accept_keyword("inner"):
                self.expect_keyword("join")
            elif not self.accept_keyword("join"):
                break
            sources.append(self._join_source())
            self.expect_keyword("on")
            known = {source.alias for source in sources}
            while True:
                position = self.current.position
                left_alias, left_column = self._qualified_pair()
                self.expect_op("=")
                right_alias, right_column = self._qualified_pair()
                for alias in (left_alias, right_alias):
                    if alias not in known:
                        raise SqlSyntaxError(
                            f"unknown table alias {alias!r} in ON clause", position
                        )
                edges.append(
                    JoinEdge(left_alias, left_column, right_alias, right_column)
                )
                if not self.accept_keyword("and"):
                    break
        if len(sources) > MAX_JOIN_TABLES:
            raise SqlSyntaxError(
                f"at most {MAX_JOIN_TABLES} tables may be joined"
            )
        seen: set[str] = set()
        for source in sources:
            if source.alias in seen:
                raise SqlSyntaxError(f"duplicate table alias {source.alias!r}")
            seen.add(source.alias)
        return sources, edges

    #: a bare (AS-less) alias is consumed only when the token after it keeps
    #: the parse unambiguous — otherwise ``select * from T garbage`` would
    #: silently alias T instead of rejecting the trailing token
    _BARE_ALIAS_FOLLOWERS = (
        "join", "inner", "on", "where", "order", "limit", "optimize",
    )

    def _join_source(self) -> JoinSource:
        table = self.expect_name()
        if self.accept_keyword("as"):
            alias = self.expect_name()
        elif self.current.kind == "name" and any(
            self.tokens[self.index + 1].is_keyword(word)
            for word in self._BARE_ALIAS_FOLLOWERS
        ):
            alias = self.advance().value
        else:
            alias = table
        return JoinSource(table=table, alias=alias)

    def _qualified_pair(self) -> tuple[str, str]:
        first = self.expect_name()
        self.expect_op(".")
        return first, self.expect_name()

    def _resolve_select_name(self, name: str, sources: list[JoinSource]) -> str:
        """Validate a select-list/aggregate column name against the FROM
        sources: joins require alias-qualified names (kept qualified);
        single-table names are stripped to the bare column."""
        if len(sources) > 1:
            if "." not in name:
                raise SqlSyntaxError(
                    f"column {name!r} in a join query must be alias-qualified"
                )
            qualifier = name.split(".", 1)[0]
            if self._join_aliases is None or qualifier not in self._join_aliases:
                raise SqlSyntaxError(f"unknown table alias {qualifier!r}")
            return name
        if "." in name:
            qualifier, bare = name.split(".", 1)
            if qualifier != sources[0].alias:
                raise SqlSyntaxError(
                    f"qualifier {qualifier!r} does not match table "
                    f"{sources[0].alias!r}"
                )
            return bare
        return name

    def _split_join_where(
        self, restriction: Expr, sources: list[JoinSource]
    ) -> tuple[tuple[tuple[str, Expr], ...], list[JoinEdge]]:
        """Split a join query's WHERE into per-alias local restrictions
        (rewritten to bare column names) and extra equi-join edges. Any
        other cross-table term is outside the supported subset."""
        if restriction is ALWAYS_TRUE:
            return (), []
        terms = list(restriction.children) if isinstance(restriction, And) else [restriction]
        locals_: dict[str, list[Expr]] = {}
        edges: list[JoinEdge] = []
        for term in terms:
            aliases = sorted({name.split(".", 1)[0] for name in referenced_columns(term)})
            if len(aliases) <= 1:
                target = aliases[0] if aliases else sources[0].alias
                bare = rewrite_columns(term, lambda name: name.split(".", 1)[1])
                locals_.setdefault(target, []).append(bare)
            elif (
                len(aliases) == 2
                and isinstance(term, Comparison)
                and term.op == "="
                and isinstance(term.left, ColumnRef)
                and isinstance(term.right, ColumnRef)
            ):
                left_alias, left_column = term.left.name.split(".", 1)
                right_alias, right_column = term.right.name.split(".", 1)
                edges.append(JoinEdge(left_alias, left_column, right_alias, right_column))
            else:
                raise SqlSyntaxError(
                    "join WHERE clauses must be conjunctions of single-table "
                    "predicates and a.x = b.y join terms"
                )
        combined = tuple(
            (alias, exprs[0] if len(exprs) == 1 else And(tuple(exprs)))
            for alias, exprs in locals_.items()
        )
        return combined, edges

    def select_list(self) -> tuple[bool, list[str], list[AggregateItem]]:
        if self.accept_op("*"):
            return True, [], []
        columns: list[str] = []
        aggregates: list[AggregateItem] = []
        while True:
            token = self.current
            if token.kind == "keyword" and token.value in AGGREGATE_FUNCTIONS:
                self.advance()
                self.expect_op("(")
                argument: str | None
                if self.accept_op("*"):
                    if token.value != "count":
                        raise SqlSyntaxError(
                            f"{token.value}(*) is not valid", token.position
                        )
                    argument = None
                else:
                    argument = self.raw_column_name()
                self.expect_op(")")
                alias = f"{token.value}({argument or '*'})"
                if self.accept_keyword("as"):
                    alias = self.expect_name()
                aggregates.append(AggregateItem(token.value, argument, alias))
            else:
                columns.append(self.raw_column_name())
                if self.accept_keyword("as"):
                    self.expect_name()  # aliases accepted, projection keeps base name
            if not self.accept_op(","):
                return False, columns, aggregates

    def raw_column_name(self) -> str:
        """A possibly-qualified column name, qualifier preserved.

        The select list parses before FROM, so qualifiers cannot be checked
        yet; :meth:`_resolve_select_name` validates them afterwards.
        """
        first = self.expect_name()
        if self.accept_op("."):
            return f"{first}.{self.expect_name()}"
        return first

    def column_name(self, table: str | None) -> str:
        position = self.current.position
        first = self.expect_name()
        if self.accept_op("."):
            second = self.expect_name()
            if self._join_aliases is not None:
                if first not in self._join_aliases:
                    raise SqlSyntaxError(
                        f"unknown table alias {first!r}", position
                    )
                return f"{first}.{second}"
            if table is not None and first != table:
                raise SqlSyntaxError(
                    f"qualifier {first!r} does not match table {table!r}",
                    self.current.position,
                )
            return second
        if self._join_aliases is not None:
            raise SqlSyntaxError(
                f"column {first!r} in a join query must be alias-qualified",
                position,
            )
        return first

    # -- boolean expressions ------------------------------------------------------

    def or_expr(self, table: str, subplans: list[PlanNode]) -> Expr:
        terms = [self.and_expr(table, subplans)]
        while self.accept_keyword("or"):
            terms.append(self.and_expr(table, subplans))
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def and_expr(self, table: str, subplans: list[PlanNode]) -> Expr:
        terms = [self.not_expr(table, subplans)]
        while self.accept_keyword("and"):
            terms.append(self.not_expr(table, subplans))
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def not_expr(self, table: str, subplans: list[PlanNode]) -> Expr:
        if self.accept_keyword("not"):
            return Not(self.not_expr(table, subplans))
        return self.primary(table, subplans)

    def primary(self, table: str, subplans: list[PlanNode]) -> Expr:
        if self.current.is_keyword("exists"):
            self.advance()
            self.expect_op("(")
            subquery = self.select_statement()
            self.expect_op(")")
            exists_node = Exists(children=(subquery.plan,))
            subplans.append(exists_node)
            return ExistsSubquery(plan=exists_node)
        if self.accept_op("("):
            expr = self.or_expr(table, subplans)
            self.expect_op(")")
            return expr
        return self.predicate(table, subplans)

    def predicate(self, table: str, subplans: list[PlanNode]) -> Expr:
        left = self.operand(table)
        token = self.current
        if token.is_keyword("between"):
            self.advance()
            lo = self.operand(table)
            self.expect_keyword("and")
            hi = self.operand(table)
            column = self._require_column(left, token)
            return Between(column, lo, hi)
        if token.is_keyword("not"):
            # col NOT BETWEEN / NOT IN / NOT LIKE
            self.advance()
            inner = self.predicate_tail_after_not(table, subplans, left)
            return Not(inner)
        if token.is_keyword("in"):
            self.advance()
            return self.in_tail(table, subplans, left)
        if token.is_keyword("like"):
            self.advance()
            column = self._require_column(left, token)
            if self.current.kind != "string":
                raise SqlSyntaxError("LIKE expects a string pattern", self.current.position)
            return Like(column, self.advance().value)
        if token.kind == "op" and token.value in ("=", "<>", "<", "<=", ">", ">="):
            self.advance()
            right = self.operand(table)
            return Comparison(token.value, left, right)
        raise SqlSyntaxError(
            f"expected a predicate operator, found {token.value!r}", token.position
        )

    def predicate_tail_after_not(
        self, table: str, subplans: list[PlanNode], left: ValueTerm
    ) -> Expr:
        token = self.current
        if token.is_keyword("between"):
            self.advance()
            lo = self.operand(table)
            self.expect_keyword("and")
            hi = self.operand(table)
            return Between(self._require_column(left, token), lo, hi)
        if token.is_keyword("in"):
            self.advance()
            return self.in_tail(table, subplans, left)
        if token.is_keyword("like"):
            self.advance()
            if self.current.kind != "string":
                raise SqlSyntaxError("LIKE expects a string pattern", self.current.position)
            return Like(self._require_column(left, token), self.advance().value)
        raise SqlSyntaxError(
            f"expected BETWEEN, IN, or LIKE after NOT, found {token.value!r}",
            token.position,
        )

    def in_tail(self, table: str, subplans: list[PlanNode], left: ValueTerm) -> Expr:
        column = self._require_column(left, self.current)
        self.expect_op("(")
        if self.current.is_keyword("select"):
            subquery = self.select_statement()
            self.expect_op(")")
            subplans.append(subquery.plan)
            return InSubquery(column=column, plan=subquery.plan)
        values: list[ValueTerm] = [self.operand(table)]
        while self.accept_op(","):
            values.append(self.operand(table))
        self.expect_op(")")
        return InList(column, tuple(values))

    def operand(self, table: str | None) -> ValueTerm:
        token = self.current
        if token.kind == "number":
            self.advance()
            text = token.value
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            self.advance()
            return Literal(token.value)
        if token.kind == "hostvar":
            self.advance()
            return HostVar(token.value)
        if token.kind == "name":
            return ColumnRef(self.column_name(table))
        raise SqlSyntaxError(
            f"expected a value or column, found {token.value!r}", token.position
        )

    @staticmethod
    def _require_column(term: ValueTerm, token: Token) -> ColumnRef:
        if not isinstance(term, ColumnRef):
            raise SqlSyntaxError(
                "this predicate requires a column on the left-hand side", token.position
            )
        return term
