"""Independent reference answers for the end-to-end benchmark.

Nothing here imports ``repro``: expected answers come from plain-Python
predicates over the rows the generator kept in memory, so an engine bug
cannot hide behind a shared evaluator. A :class:`ShadowTable` is the
harness's own copy of one table; ``select`` narrows candidates through an
optional *hint* (a dict/bisect lookup the shadow maintains itself) and then
filters every candidate with the full predicate, so a hint can only make
the reference faster, never change its answer.
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import Any, Callable, Iterable, Sequence

Row = tuple
Pred = Callable[[Row], bool]


class ShadowTable:
    """The harness's copy of one table, keyed by a unique integer column."""

    def __init__(self, columns: Sequence[str], rows: Iterable[Row], key: str) -> None:
        self.columns = tuple(columns)
        self.key_pos = self.columns.index(key)
        self.rows: dict[int, Row] = {row[self.key_pos]: row for row in rows}
        #: lazily built per-column lookups, maintained by insert/delete
        self._by_value: dict[int, dict[Any, set[int]]] = {}
        self._sorted: dict[int, list[tuple[Any, int]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def pos(self, column: str) -> int:
        return self.columns.index(column)

    # -- maintenance -------------------------------------------------------

    def insert(self, row: Row) -> None:
        key = row[self.key_pos]
        if key in self.rows:
            raise KeyError(f"duplicate shadow key {key}")
        self.rows[key] = row
        for position, lookup in self._by_value.items():
            lookup.setdefault(row[position], set()).add(key)
        for position, ordered in self._sorted.items():
            bisect.insort(ordered, (row[position], key))

    def delete(self, key: int) -> Row:
        row = self.rows.pop(key)
        for position, lookup in self._by_value.items():
            lookup[row[position]].discard(key)
        for position, ordered in self._sorted.items():
            del ordered[bisect.bisect_left(ordered, (row[position], key))]
        return row

    # -- lookups -----------------------------------------------------------

    def _lookup(self, position: int) -> dict[Any, set[int]]:
        lookup = self._by_value.get(position)
        if lookup is None:
            lookup = {}
            for key, row in self.rows.items():
                lookup.setdefault(row[position], set()).add(key)
            self._by_value[position] = lookup
        return lookup

    def _ordered(self, position: int) -> list[tuple[Any, int]]:
        ordered = self._sorted.get(position)
        if ordered is None:
            ordered = sorted((row[position], key) for key, row in self.rows.items())
            self._sorted[position] = ordered
        return ordered

    def _candidates(self, hint: tuple | None) -> Iterable[Row]:
        if hint is None:
            return self.rows.values()
        kind, column = hint[0], hint[1]
        position = self.pos(column)
        rows = self.rows
        if kind == "eq":
            return [rows[k] for k in self._lookup(position).get(hint[2], ())]
        if kind == "in":
            lookup = self._lookup(position)
            return [rows[k] for value in set(hint[2]) for k in lookup.get(value, ())]
        if kind == "range":
            ordered = self._ordered(position)
            lo = bisect.bisect_left(ordered, (hint[2], -1))
            hi = bisect.bisect_right(ordered, (hint[3], float("inf")))
            return [rows[k] for _, k in ordered[lo:hi]]
        raise ValueError(f"unknown hint kind {kind!r}")

    def select(
        self,
        pred: Pred,
        hint: tuple | None = None,
        columns: Sequence[str] | None = None,
    ) -> list[Row]:
        """Rows satisfying ``pred`` (projected to ``columns``), unordered."""
        matched = [row for row in self._candidates(hint) if pred(row)]
        if columns is None:
            return matched
        positions = [self.pos(name) for name in columns]
        return [tuple(row[p] for p in positions) for row in matched]


def hash_join(
    left: Iterable[Row], right: Iterable[Row], left_pos: int, right_pos: int
) -> list[Row]:
    """Inner equi-join by dict build over ``right``; rows concatenate."""
    build: dict[Any, list[Row]] = {}
    for row in right:
        build.setdefault(row[right_pos], []).append(row)
    return [l + r for l in left for r in build.get(l[left_pos], ())]


# -- checks: each returns None when the answer is right, else a reason -------


def check_bag(got: Sequence[Row], expected: Sequence[Row]) -> str | None:
    """Unordered results: the two row bags must be equal."""
    if len(got) != len(expected):
        return f"row count {len(got)} != expected {len(expected)}"
    if sorted(got) != sorted(expected):
        return "row bag differs from reference"
    return None


def check_limit(got: Sequence[Row], expected: Sequence[Row], limit: int) -> str | None:
    """Bare LIMIT: the right count, and every row a member of the reference
    bag (with multiplicity)."""
    want = min(limit, len(expected))
    if len(got) != want:
        return f"row count {len(got)} != expected {want}"
    missing = Counter(got) - Counter(expected)
    if missing:
        return "limited rows are not a sub-bag of the reference"
    return None


def check_ordered_limit(
    got: Sequence[Row],
    expected: Sequence[Row],
    key_positions: Sequence[int],
    limit: int | None,
) -> str | None:
    """ORDER BY [.. LIMIT]: keys ascending, the key multiset equal to the
    reference's first ``limit`` keys, every row a member of the reference."""
    def key(row: Row) -> tuple:
        return tuple(row[p] for p in key_positions)

    want = len(expected) if limit is None else min(limit, len(expected))
    if len(got) != want:
        return f"row count {len(got)} != expected {want}"
    got_keys = [key(row) for row in got]
    if any(a > b for a, b in zip(got_keys, got_keys[1:])):
        return "rows are not in key order"
    if got_keys != sorted(key(row) for row in expected)[:want]:
        return "key multiset differs from the reference prefix"
    if Counter(got) - Counter(expected):
        return "ordered rows are not a sub-bag of the reference"
    return None
