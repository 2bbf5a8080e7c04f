"""Step-wise execution of one candidate join order.

A :class:`JoinOrderProcess` is a :class:`~repro.competition.process.Process`
— the same resumable/abandonable unit the single-table competition races —
whose work is one left-deep join order. Each engine step processes one page
(a hash-build page, or a driving page probed through the full pipeline), so
the controller can compare orders mid-flight on identical footing and the
pilot budgets are denominated in pages touched.

Output rows are buffered on the process in the **canonical source order**
of the plan, so any two orders' outputs are literally comparable bags and a
winner chosen mid-flight simply keeps delivering from its own buffered
prefix — nothing re-executes.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Any, Iterable, Mapping

from repro.btree.tree import KeyRange
from repro.competition.process import Process
from repro.competition.two_stage import MIN_PROJECTION_FRACTION
from repro.config import EngineConfig
from repro.engine.join.order import JoinOrder, JoinSchema, JoinStep, JoinTableHandle
from repro.expr.ast import ALWAYS_TRUE
from repro.expr.eval import compile_page_kernel, compile_predicate
from repro.sql.plan import JoinPlan
from repro.storage.buffer_pool import CostMeter


class TeeMeter:
    """Duck-typed cost meter forwarding every charge to two real meters.

    Lets a probe edge charge its own attribution meter while the process
    total stays authoritative, without double-charging the buffer pool.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: CostMeter, second: CostMeter) -> None:
        self.first = first
        self.second = second

    def charge_read(self, kind) -> None:
        self.first.charge_read(kind)
        self.second.charge_read(kind)

    def charge_write(self) -> None:
        self.first.charge_write()
        self.second.charge_write()

    def charge_hit(self) -> None:
        self.first.charge_hit()
        self.second.charge_hit()

    def charge_entries(self, count: int) -> None:
        self.first.charge_entries(count)
        self.second.charge_entries(count)

    def charge_records(self, count: int) -> None:
        self.first.charge_records(count)
        self.second.charge_records(count)


class _HashBuild:
    """Build-side state of one hash-join step (pins pages across quanta).

    The build reads the probe side one page per engine step through the
    buffer pool, keeping every page of the *current* read run pinned until
    the next step replaces the run — so a scheduler quantum boundary (or an
    interference eviction) can never steal a page the build is mid-way
    through. The pins are released batch-by-batch, not page-by-page, which
    is exactly the window the ``evict_random`` pin regression test covers.
    """

    def __init__(
        self, handle: JoinTableHandle, key_columns: tuple[str, ...], kernel
    ) -> None:
        self.handle = handle
        #: the build side's restriction as a page kernel
        self.kernel = kernel
        #: one key column: the value itself is the bucket key; several: their
        #: tuple (``key_of`` and the probe side agree on this)
        self.single_key = len(key_columns) == 1
        self.key_of = itemgetter(*(handle.schema.index_of(c) for c in key_columns))
        self.buckets: defaultdict[Any, list[tuple]] = defaultdict(list)
        self.next_page = 0
        self.done = handle.page_count == 0
        self.pinned: list[int] = []
        self.rows_kept = 0

    def pin_run(self, page_ids: list[int]) -> None:
        self.release_pins()
        for page_id in page_ids:
            self.handle.buffer_pool.pin(page_id)
        self.pinned = list(page_ids)

    def release_pins(self) -> None:
        for page_id in self.pinned:
            self.handle.buffer_pool.unpin(page_id)
        self.pinned = []

    def add(self, rows: Iterable[tuple]) -> None:
        """File ``rows`` under their keys; a NULL key column joins nothing."""
        key_of, buckets, single = self.key_of, self.buckets, self.single_key
        for row in rows:
            key = key_of(row)
            if (key is None) if single else (None in key):
                continue
            buckets[key].append(row)
            self.rows_kept += 1


class JoinOrderProcess(Process):
    """Executes one left-deep join order page-step by page-step."""

    def __init__(
        self,
        order: JoinOrder,
        plan: JoinPlan,
        handles: Mapping[str, JoinTableHandle],
        host_vars: Mapping[str, Any],
        config: EngineConfig,
        schema: JoinSchema | None = None,
    ) -> None:
        super().__init__(f"join-order:{order.key}")
        self.order = order
        self.plan = plan
        self.handles = handles
        self.host_vars = dict(host_vars)
        self.config = config
        self.schema = schema if schema is not None else JoinSchema(plan, handles)
        #: combined output rows, canonical source order (the buffered prefix)
        self.rows: list[tuple] = []
        #: per-probe-step cost attribution (parallel to ``order.steps``)
        self.edge_meters = tuple(
            CostMeter(name=f"{self.name}:{step.alias}") for step in order.steps
        )
        #: per-step (probes, matches) counters for selectivity feedback
        self.edge_probes = [0] * len(order.steps)
        self.edge_matches = [0] * len(order.steps)

        driving_alias = order.aliases[0]
        driving = handles[driving_alias]
        self._driving = driving
        self._driving_alias = driving_alias
        self._driving_page = 0
        self._driving_pages = driving.page_count
        self._predicates = {
            alias: compile_predicate(
                expr, handles[alias].schema.position, self.host_vars
            )
            for alias, expr in plan.restrictions
        }

        def kernel(alias: str):
            """The alias's restriction a page at a time (the driving table
            and the hash builds are read by whole pages)."""
            return compile_page_kernel(
                plan.restriction_for(alias) or ALWAYS_TRUE,
                handles[alias].schema.position,
                self.host_vars,
            )

        self._driving_kernel = kernel(driving_alias)
        #: hash builds pending completion, in step order
        self._builds: dict[int, _HashBuild] = {}
        self._build_queue: list[int] = []
        for position, step in enumerate(order.steps):
            if step.tactic == "hash":
                build = _HashBuild(
                    handles[step.alias],
                    tuple(c.probe_column for c in step.conditions),
                    kernel(step.alias),
                )
                self._builds[position] = build
                if not build.done:
                    self._build_queue.append(position)
        self._total_build_pages = sum(
            self._builds[i].handle.page_count for i in self._builds
        )
        #: source-order template positions for canonical row assembly
        self._assembly = tuple(source.alias for source in plan.sources)

    # -- progress / projection ----------------------------------------------

    @property
    def total_pages(self) -> int:
        return max(1, self._total_build_pages + self._driving_pages)

    @property
    def pages_done(self) -> int:
        build_done = sum(
            build.next_page for build in self._builds.values()
        )
        return build_done + self._driving_page

    @property
    def progress(self) -> float:
        """Fraction of page-steps completed (0..1)."""
        return min(1.0, self.pages_done / self.total_pages)

    @property
    def cost(self) -> float:
        """Total attributed cost so far (process meter is authoritative)."""
        return self.meter.total

    def projected_total(self) -> float | None:
        """Projected total cost, linear in page progress; None too early."""
        progress = self.progress
        if progress < MIN_PROJECTION_FRACTION:
            return None
        return self.cost / progress

    # -- execution -----------------------------------------------------------

    def _do_step(self) -> bool:
        if self._build_queue:
            self._build_step(self._build_queue[0])
            return False
        return self._driving_step()

    def _build_step(self, position: int) -> None:
        build = self._builds[position]
        handle = build.handle
        meter = TeeMeter(self.meter, self.edge_meters[position])
        page_no = build.next_page
        # pin the page for the duration of the run so a quantum boundary
        # cannot evict it from under the build
        build.pin_run([handle.heap.page_id(page_no)])
        (slots,) = handle.heap.scan_page_run(page_no, 1, meter)
        meter.charge_records(len(slots) - slots.count(None))
        build.add(map(slots.__getitem__, build.kernel(slots)))
        build.next_page += 1
        if build.next_page >= handle.page_count:
            build.done = True
            build.release_pins()
            self._build_queue.pop(0)

    def _driving_step(self) -> bool:
        if self._driving_page >= self._driving_pages:
            return True
        meter = self.meter
        (slots,) = self._driving.heap.scan_page_run(self._driving_page, 1, meter)
        meter.charge_records(len(slots) - slots.count(None))
        for slot in self._driving_kernel(slots):
            self._probe({self._driving_alias: slots[slot]}, 0)
        self._driving_page += 1
        return self._driving_page >= self._driving_pages

    def _probe(self, partial: dict[str, tuple], position: int) -> None:
        if position >= len(self.order.steps):
            self.rows.append(self._assemble(partial))
            return
        step = self.order.steps[position]
        meter = TeeMeter(self.meter, self.edge_meters[position])
        self.edge_probes[position] += 1
        for row in self._matches(step, position, partial, meter):
            self.edge_matches[position] += 1
            partial[step.alias] = row
            self._probe(partial, position + 1)
        partial.pop(step.alias, None)

    def _matches(self, step: JoinStep, position: int, partial, meter):
        handle = self.handles[step.alias]
        values: list[Any] = []
        for condition in step.conditions:
            source = self.handles[condition.prefix_alias]
            value = partial[condition.prefix_alias][
                source.schema.index_of(condition.prefix_column)
            ]
            if value is None:
                return
            values.append(value)
        predicate = self._predicates.get(step.alias)
        if step.tactic == "hash":
            build = self._builds[position]
            key = values[0] if build.single_key else tuple(values)
            for row in build.buckets.get(key, ()):
                meter.charge_records(1)
                yield row
            return
        # index nested loop: descend on the leading equi-join columns, then
        # re-check the remaining conditions and the local restriction
        index = handle.indexes[step.index_name]
        by_column = dict(zip((c.probe_column for c in step.conditions), values))
        prefix_key = tuple(
            by_column[column] for column in index.columns[: step.index_prefix_len]
        )
        cursor = handle.indexes[step.index_name].btree.range_cursor(
            KeyRange.exact(prefix_key), meter
        )
        while True:
            entry = cursor.next_entry()
            if entry is None:
                break
            row = handle.heap.fetch(entry[1], meter)
            meter.charge_records(1)
            if any(
                row[handle.schema.index_of(column)] != value
                for column, value in by_column.items()
            ):
                continue
            if predicate is not None and not predicate(row):
                continue
            yield row

    def _assemble(self, partial: Mapping[str, tuple]) -> tuple:
        combined: list[Any] = []
        for alias in self._assembly:
            combined.extend(partial[alias])
        return tuple(combined)

    # -- teardown ------------------------------------------------------------

    def _on_abandon(self) -> None:
        for build in self._builds.values():
            build.release_pins()
            build.buckets.clear()


def reference_nested_loop(
    plan: JoinPlan,
    handles: Mapping[str, JoinTableHandle],
    host_vars: Mapping[str, Any],
) -> list[tuple]:
    """Naive nested-loop reference executor (differential-test oracle).

    Materializes every source, then evaluates all edges and restrictions on
    the full cross product in plan source order. Costs nothing to the buffer
    pool meters (NULL_METER); exists purely to define the correct bag.
    """
    source_rows = []
    for source in plan.sources:
        handle = handles[source.alias]
        rows = [row for _, row in handle.heap.scan()]
        expr = plan.restriction_for(source.alias) or ALWAYS_TRUE
        predicate = compile_predicate(expr, handle.schema.position, dict(host_vars))
        source_rows.append((source.alias, [r for r in rows if predicate(r)]))

    results: list[tuple] = []

    def recurse(position: int, partial: dict[str, tuple]) -> None:
        if position == len(source_rows):
            for edge in plan.edges:
                left = partial[edge.left_alias][
                    handles[edge.left_alias].schema.index_of(edge.left_column)
                ]
                right = partial[edge.right_alias][
                    handles[edge.right_alias].schema.index_of(edge.right_column)
                ]
                if left is None or right is None or left != right:
                    return
            results.append(
                tuple(
                    value
                    for source in plan.sources
                    for value in partial[source.alias]
                )
            )
            return
        alias, rows = source_rows[position]
        for row in rows:
            partial[alias] = row
            recurse(position + 1, partial)
        partial.pop(alias, None)

    recurse(0, {})
    return results
