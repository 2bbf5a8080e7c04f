"""Server-wide LRU plan cache.

Statements are keyed by their *normalized* SQL — the token stream
re-rendered with canonical spacing and keyword case — so formatting
differences share an entry while literal values (which change the plan's
selectivity signature) do not. Host variables normalise to their names:
every binding of a parameterized statement hits the same entry.

Entries record the database schema version they were built under; any DDL
bumps the version, so a lookup after DDL misses (counted as an
invalidation) and the statement re-parses and re-binds against the new
catalog. A stale :class:`CachedPlan` held by a
:class:`~repro.cache.prepared.PreparedStatement` is revalidated the same
way — and fails safe with a binding error when its table is gone.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cache.predicates import PredicateCache
from repro.engine.goals import OptimizationGoal, infer_goals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.session import Database
    from repro.sql.parser import ParsedQuery
    from repro.sql.plan import PlanNode
    from repro.sql.tokenizer import Token


def normalize_sql(sql: str) -> tuple[str, int]:
    """Return the normalized cache key and the ``?`` placeholder count."""
    from repro.sql.tokenizer import tokenize

    return _normalize_tokens(tokenize(sql))


def _normalize_tokens(tokens: list["Token"]) -> tuple[str, int]:
    parts: list[str] = []
    placeholders = 0
    for token in tokens:
        if token.kind == "end":
            break
        if token.kind == "string":
            parts.append("'" + token.value.replace("'", "''") + "'")
        elif token.kind == "hostvar":
            if token.value.startswith("?"):
                placeholders += 1
            parts.append(":" + token.value)
        else:
            parts.append(token.value)
    return " ".join(parts), placeholders


def _tables_of(plan: "PlanNode") -> frozenset[str]:
    names: set[str] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        table = getattr(node, "table", None)
        if table is not None:
            names.add(table)
        stack.extend(node.children)
    return frozenset(names)


@dataclass
class CachedPlan:
    """One parsed-and-bound statement, reusable across executions.

    The plan tree is never mutated by execution (restrictions are rebuilt
    locally when subqueries resolve), so concurrent sessions can execute
    one entry simultaneously. Goal inference is memoised per requested
    goal — the goals dict is keyed by node identity, which stays valid
    precisely because the tree object is reused.
    """

    sql: str
    key: str
    parsed: "ParsedQuery"
    schema_version: int
    tables: frozenset[str]
    param_count: int
    predicates: PredicateCache = field(default_factory=PredicateCache)
    executions: int = 0
    _goals: dict = field(default_factory=dict)

    @property
    def param_names(self) -> tuple[str, ...]:
        """Positional placeholder names, in placeholder order."""
        return tuple(f"?{i + 1}" for i in range(self.param_count))

    def goals_for(self, requested: OptimizationGoal) -> dict:
        goals = self._goals.get(requested)
        if goals is None:
            goals = self._goals[requested] = infer_goals(self.parsed.plan, requested)
        return goals


class PlanCache:
    """Size-bounded LRU of :class:`CachedPlan` entries.

    Shared by every session of a database, like the buffer pool. With
    ``capacity == 0`` the cache is disabled: nothing is stored, lookups are
    never attempted, and execution plans statement-by-statement exactly as
    before.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        #: exact SQL text -> (normalized key, placeholder count), LRU and
        #: bounded by ``capacity``: a repeated text skips the tokenizer
        self._keys: OrderedDict[str, tuple[str, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    @property
    def size(self) -> int:
        return len(self._entries)

    def lookup(self, db: "Database", key: str) -> CachedPlan | None:
        """The live entry under ``key``, counting a hit or a miss.

        An entry built under an older schema version is dropped (counted
        as an invalidation) and reported as a miss.
        """
        entry = self._entries.get(key)
        if entry is not None and entry.schema_version != db.schema_version:
            del self._entries[key]
            self.invalidations += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(
        self,
        db: "Database",
        sql: str,
        key: str,
        parsed: "ParsedQuery",
        param_count: int,
    ) -> CachedPlan:
        """Wrap a bound parse in a :class:`CachedPlan`, caching it when
        enabled. The transient wrapper is returned either way so execution
        has a per-statement predicate cache even with caching off."""
        entry = CachedPlan(
            sql=sql,
            key=key,
            parsed=parsed,
            schema_version=db.schema_version,
            tables=_tables_of(parsed.plan),
            param_count=param_count,
        )
        if self.enabled:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def entry_for(self, db: "Database", sql: str) -> tuple[CachedPlan, bool]:
        """Get-or-build the entry for one SELECT; returns ``(entry, hit)``.

        Raises :class:`~repro.errors.SqlSyntaxError` for non-SELECT text and
        :class:`~repro.errors.BindingError` when the statement no longer
        binds against the catalog.
        """
        from repro.sql.binder import bind
        from repro.sql.parser import parse
        from repro.sql.tokenizer import tokenize

        tokens = None
        memo = self._keys.get(sql)
        if memo is None:
            tokens = tokenize(sql)
            memo = _normalize_tokens(tokens)
            if self.enabled:
                self._keys[sql] = memo
                if len(self._keys) > self.capacity:
                    self._keys.popitem(last=False)
        else:
            self._keys.move_to_end(sql)
        key, param_count = memo
        if self.enabled:
            entry = self.lookup(db, key)
            if entry is not None:
                return entry, True
        parsed = parse(sql, tokens)
        bind(db, parsed.plan)
        return self.store(db, sql, key, parsed, param_count), False

    def revalidate(self, db: "Database", entry: CachedPlan) -> CachedPlan:
        """Return a schema-current entry for ``entry``'s statement.

        A current entry is returned unchanged; a stale one is rebuilt from
        its SQL text (re-parse + re-bind), failing safe with a
        :class:`~repro.errors.BindingError` when the referenced table or
        columns no longer exist — a stale plan is never executed against
        freed pages.
        """
        if entry.schema_version == db.schema_version:
            return entry
        rebuilt, _ = self.entry_for(db, entry.sql)
        return rebuilt

    def invalidate_table(self, table: str) -> int:
        """Eagerly drop every cached plan that reads ``table``."""
        stale = [key for key, entry in self._entries.items() if table in entry.tables]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop everything (counted as invalidations)."""
        self.invalidations += len(self._entries)
        self._entries.clear()
