"""User-facing prepared statements.

:meth:`repro.api.Connection.prepare` parses and binds a SELECT once and
returns a :class:`PreparedStatement`; each :meth:`~PreparedStatement.execute`
re-submits the cached plan through the scheduler without touching the
tokenizer, parser, or binder. Parameters bind positionally to ``?``
placeholders (or by name for ``:name`` host variables), which is the
prepare-once / execute-many path the paper's run-time optimization
presumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.engine.goals import OptimizationGoal
from repro.errors import BindingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.plan_cache import CachedPlan
    from repro.result import Result
    from repro.server.scheduler import QueryHandle, ServerSession


class PreparedStatement:
    """A reusable compiled statement bound to one session.

    The underlying :class:`~repro.cache.plan_cache.CachedPlan` is shared
    with the server-wide plan cache (when enabled); after DDL the plan is
    revalidated against the new catalog before executing, raising
    :class:`~repro.errors.BindingError` when the statement no longer binds
    — a stale plan never runs against freed pages.
    """

    def __init__(self, session: "ServerSession", sql: str) -> None:
        self._session = session
        self.sql = sql
        db = session.server.db
        self._entry: "CachedPlan"
        self._entry, _ = db.plan_cache.entry_for(db, sql)

    @property
    def param_count(self) -> int:
        """Number of ``?`` placeholders in the statement."""
        return self._entry.param_count

    @property
    def param_names(self) -> tuple[str, ...]:
        """Positional placeholder names (``?1``, ``?2``, ...)."""
        return self._entry.param_names

    def _bind(self, params: Sequence | Mapping[str, Any] | None) -> dict[str, Any]:
        if params is None:
            params = ()
        if isinstance(params, Mapping):
            return dict(params)
        values = list(params)
        if len(values) != self.param_count:
            raise BindingError(
                f"prepared statement expects {self.param_count} parameter(s), "
                f"got {len(values)}"
            )
        return {f"?{i + 1}": value for i, value in enumerate(values)}

    def submit(
        self,
        params: Sequence | Mapping[str, Any] | None = None,
        goal: OptimizationGoal = OptimizationGoal.DEFAULT,
        deadline: int | None = None,
    ) -> "QueryHandle":
        """Queue one execution; returns its :class:`QueryHandle` immediately."""
        db = self._session.server.db
        self._entry = db.plan_cache.revalidate(db, self._entry)
        return self._session.submit(
            self.sql,
            self._bind(params),
            goal=goal,
            deadline=deadline,
            prepared=self._entry,
        )

    def execute(
        self,
        params: Sequence | Mapping[str, Any] | None = None,
        goal: OptimizationGoal = OptimizationGoal.DEFAULT,
        deadline: int | None = None,
    ) -> "Result":
        """Run one execution to completion and return its
        :class:`~repro.result.Result`."""
        return self.submit(params, goal=goal, deadline=deadline).wait()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PreparedStatement params={self.param_count} sql={self.sql[:40]!r}>"
