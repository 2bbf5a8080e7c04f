"""Sargable key-range extraction.

Given the conjunctive terms of a restriction, the current host-variable
bindings, and an index's column list, derive the tightest :class:`KeyRange`
the index can scan. This runs at *start retrieval time* — after host
variables are bound — which is precisely what lets the dynamic optimizer see
the difference between ``AGE >= 0`` and ``AGE >= 200`` (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.btree.tree import KeyRange
from repro.expr.ast import (
    Between,
    ColumnRef,
    Comparison,
    Expr,
    HostVar,
    InList,
    Like,
    Literal,
    ValueTerm,
)

#: Largest code point — used to close LIKE-prefix ranges over strings.
_STRING_TOP = "\U0010FFFF"


@dataclass
class _ColumnBounds:
    """Accumulated lower/upper bounds for one column."""

    lo: Any = None
    lo_inclusive: bool = True
    has_lo: bool = False
    hi: Any = None
    hi_inclusive: bool = True
    has_hi: bool = False

    def narrow_lo(self, value: Any, inclusive: bool) -> None:
        if not self.has_lo or value > self.lo or (value == self.lo and not inclusive):
            self.lo, self.lo_inclusive, self.has_lo = value, inclusive, True

    def narrow_hi(self, value: Any, inclusive: bool) -> None:
        if not self.has_hi or value < self.hi or (value == self.hi and not inclusive):
            self.hi, self.hi_inclusive, self.has_hi = value, inclusive, True

    @property
    def equality_value(self) -> Any | None:
        """The pinned value if bounds collapse to a single inclusive point."""
        if (
            self.has_lo
            and self.has_hi
            and self.lo == self.hi
            and self.lo_inclusive
            and self.hi_inclusive
        ):
            return self.lo
        return None


@dataclass(frozen=True)
class IndexRestriction:
    """The portion of a restriction one index can enforce by a range scan."""

    #: the index this restriction was derived for (column names)
    index_columns: tuple[str, ...]
    #: the scannable key range (``KeyRange.all()`` when nothing matched)
    key_range: KeyRange
    #: terms that contributed bounds to the range
    contributing_terms: tuple[Expr, ...] = ()
    #: number of leading index columns pinned by equality
    equality_prefix: int = 0

    @property
    def matched(self) -> bool:
        """True when the range constrains the scan at all."""
        return self.key_range.lo is not None or self.key_range.hi is not None


def _constant_of(term: ValueTerm, host_vars: Mapping[str, Any]) -> tuple[bool, Any]:
    """Resolve a term to a constant if it is one (literal or bound host var)."""
    if isinstance(term, Literal):
        return True, term.value
    if isinstance(term, HostVar):
        if term.name in host_vars:
            return True, host_vars[term.name]
        return False, None
    return False, None


def _column_comparison(
    term: Expr, column: str, host_vars: Mapping[str, Any]
) -> tuple[str, Any] | None:
    """If ``term`` is ``column op constant`` (either side), return (op, value)."""
    if not isinstance(term, Comparison):
        return None
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
    if isinstance(term.left, ColumnRef) and term.left.name == column:
        ok, value = _constant_of(term.right, host_vars)
        if ok:
            return term.op, value
    if isinstance(term.right, ColumnRef) and term.right.name == column:
        ok, value = _constant_of(term.left, host_vars)
        if ok:
            return flipped[term.op], value
    return None


def _like_prefix(pattern: str) -> str:
    prefix_chars: list[str] = []
    for char in pattern:
        if char in ("%", "_"):
            break
        prefix_chars.append(char)
    return "".join(prefix_chars)


def _apply_term_to_bounds(
    term: Expr, column: str, host_vars: Mapping[str, Any], bounds: _ColumnBounds
) -> bool:
    """Fold one conjunct into the bounds for ``column``; True if it helped."""
    comparison = _column_comparison(term, column, host_vars)
    if comparison is not None:
        op, value = comparison
        if value is None:
            return False
        if op == "=":
            bounds.narrow_lo(value, True)
            bounds.narrow_hi(value, True)
        elif op == ">":
            bounds.narrow_lo(value, False)
        elif op == ">=":
            bounds.narrow_lo(value, True)
        elif op == "<":
            bounds.narrow_hi(value, False)
        elif op == "<=":
            bounds.narrow_hi(value, True)
        else:  # <> is not sargable
            return False
        return True
    if isinstance(term, Between) and term.column.name == column:
        lo_ok, lo = _constant_of(term.lo, host_vars)
        hi_ok, hi = _constant_of(term.hi, host_vars)
        helped = False
        if lo_ok and lo is not None:
            bounds.narrow_lo(lo, True)
            helped = True
        if hi_ok and hi is not None:
            bounds.narrow_hi(hi, True)
            helped = True
        return helped
    if isinstance(term, InList) and term.column.name == column and len(term.values) == 1:
        ok, value = _constant_of(term.values[0], host_vars)
        if ok and value is not None:
            bounds.narrow_lo(value, True)
            bounds.narrow_hi(value, True)
            return True
        return False
    if isinstance(term, Like) and term.column.name == column:
        prefix = _like_prefix(term.pattern)
        if prefix:
            bounds.narrow_lo(prefix, True)
            bounds.narrow_hi(prefix + _STRING_TOP, True)
            return True
        return False
    return False


def _may_bind(term: Expr, column: str) -> bool:
    """True when ``term`` bounds ``column`` under *some* host-variable
    binding — the structural half of :func:`_apply_term_to_bounds`."""
    if isinstance(term, Comparison):
        constant = (Literal, HostVar)
        return (
            isinstance(term.left, ColumnRef)
            and term.left.name == column
            and isinstance(term.right, constant)
        ) or (
            isinstance(term.right, ColumnRef)
            and term.right.name == column
            and isinstance(term.left, constant)
        )
    if isinstance(term, (Between, Like)):
        return term.column.name == column
    if isinstance(term, InList):
        return term.column.name == column and len(term.values) == 1
    return False


def column_terms(
    terms: Sequence[Expr], index_columns: Sequence[str]
) -> tuple[tuple[Expr, ...], ...]:
    """Per index column, the terms that may bound it, in term order.

    Depends only on the restriction's structure, so a caller can compute
    it once per restriction object and hand it to every
    :func:`extract_index_restriction` call: each execution then folds only
    these terms' host-variable values into bounds.
    """
    return tuple(
        tuple(term for term in terms if _may_bind(term, column))
        for column in index_columns
    )


def extract_index_restriction(
    terms: Sequence[Expr],
    index_columns: Sequence[str],
    host_vars: Mapping[str, Any] = {},
    candidates: Sequence[Sequence[Expr]] | None = None,
) -> IndexRestriction:
    """Derive the scannable key range of an index from conjunctive terms.

    Leading columns pinned by equality extend the prefix; the first
    non-equality column contributes its (half-)open range and terminates
    extraction, matching standard composite-index sargability.
    ``candidates`` is :func:`column_terms` of ``terms`` (computed here when
    not given); the result is the same either way.
    """
    prefix: list[Any] = []
    contributing: list[Expr] = []
    columns = tuple(index_columns)
    if candidates is None:
        candidates = column_terms(terms, columns)
    for position, column in enumerate(columns):
        bounds = _ColumnBounds()
        used_terms = [
            term
            for term in candidates[position]
            if _apply_term_to_bounds(term, column, host_vars, bounds)
        ]
        if not used_terms:
            break
        contributing.extend(used_terms)
        equality = bounds.equality_value
        if equality is not None and position < len(columns) - 1:
            prefix.append(equality)
            continue
        # terminal column: build the range from prefix + this column's bounds
        lo = tuple(prefix) + ((bounds.lo,) if bounds.has_lo else ())
        hi = tuple(prefix) + ((bounds.hi,) if bounds.has_hi else ())
        key_range = KeyRange(
            lo=lo if bounds.has_lo else (tuple(prefix) if prefix else None),
            hi=hi if bounds.has_hi else (tuple(prefix) if prefix else None),
            lo_inclusive=bounds.lo_inclusive if bounds.has_lo else True,
            hi_inclusive=bounds.hi_inclusive if bounds.has_hi else True,
        )
        return IndexRestriction(
            index_columns=columns,
            key_range=key_range,
            contributing_terms=tuple(contributing),
            equality_prefix=len(prefix) + (1 if equality is not None else 0),
        )
    if prefix:
        # every examined column was an equality; range is the exact prefix
        key = tuple(prefix)
        return IndexRestriction(
            index_columns=columns,
            key_range=KeyRange(lo=key, hi=key),
            contributing_terms=tuple(contributing),
            equality_prefix=len(prefix),
        )
    return IndexRestriction(index_columns=columns, key_range=KeyRange.all())
