"""Row evaluation of predicate expressions."""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

from repro.errors import BindingError, ExpressionError
from repro.expr.ast import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    FalseExpr,
    HostVar,
    InList,
    Like,
    Literal,
    Not,
    Or,
    TrueExpr,
    ValueTerm,
)

#: maps a column name to its position in the row tuple
SchemaMap = Mapping[str, int]
#: host variable bindings for one execution
HostVars = Mapping[str, Any]


def resolve_term(
    term: ValueTerm, row: Sequence | None, schema: SchemaMap, host_vars: HostVars
) -> Any:
    """Resolve a value term against a row and host-variable bindings."""
    if isinstance(term, Literal):
        return term.value
    if isinstance(term, HostVar):
        try:
            return host_vars[term.name]
        except KeyError:
            raise BindingError(term.name, "host variable") from None
    if isinstance(term, ColumnRef):
        if row is None:
            raise ExpressionError(f"column {term.name!r} needs a row to evaluate")
        try:
            return row[schema[term.name]]
        except KeyError:
            raise BindingError(term.name, "column") from None
    raise ExpressionError(f"unknown value term {term!r}")


def _compare(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False  # SQL-ish: comparisons with NULL are not TRUE
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExpressionError(f"unknown comparison operator {op!r}")


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    regex = []
    for char in pattern:
        if char == "%":
            regex.append(".*")
        elif char == "_":
            regex.append(".")
        else:
            regex.append(re.escape(char))
    return re.compile("^" + "".join(regex) + "$", re.DOTALL)


def evaluate(
    expr: Expr, row: Sequence, schema: SchemaMap, host_vars: HostVars = {}
) -> bool:
    """Evaluate a predicate on one row. Three-valued logic is collapsed:
    anything not definitely TRUE is FALSE (sufficient for retrieval)."""
    if isinstance(expr, TrueExpr):
        return True
    if isinstance(expr, FalseExpr):
        return False
    if isinstance(expr, Comparison):
        left = resolve_term(expr.left, row, schema, host_vars)
        right = resolve_term(expr.right, row, schema, host_vars)
        return _compare(expr.op, left, right)
    if isinstance(expr, Between):
        value = resolve_term(expr.column, row, schema, host_vars)
        lo = resolve_term(expr.lo, row, schema, host_vars)
        hi = resolve_term(expr.hi, row, schema, host_vars)
        if value is None or lo is None or hi is None:
            return False
        return lo <= value <= hi
    if isinstance(expr, InList):
        value = resolve_term(expr.column, row, schema, host_vars)
        if value is None:
            return False
        return any(
            value == resolve_term(term, row, schema, host_vars) for term in expr.values
        )
    if isinstance(expr, Like):
        value = resolve_term(expr.column, row, schema, host_vars)
        if not isinstance(value, str):
            return False
        return _like_regex(expr.pattern).match(value) is not None
    if isinstance(expr, And):
        return all(evaluate(child, row, schema, host_vars) for child in expr.children)
    if isinstance(expr, Or):
        return any(evaluate(child, row, schema, host_vars) for child in expr.children)
    if isinstance(expr, Not):
        return not evaluate(expr.child, row, schema, host_vars)
    raise ExpressionError(f"cannot evaluate {expr!r}")


def compile_predicate(
    expr: Expr, schema: SchemaMap, host_vars: HostVars = {}
) -> "Callable[[Sequence], bool]":
    """Compile a predicate into a ``row -> bool`` function.

    For a fixed schema and host-variable binding the function returns exactly
    what :func:`evaluate` would, but it is *one* Python expression — e.g.
    ``(v1 := row[2]) is not None and h0 <= v1 <= h1 and ...`` — with column
    positions and dispatch resolved once instead of per row.

    The expression is generated once per restriction object (identity-keyed,
    like :func:`referenced_columns`) as a binder over its constants, so an
    execution of a cached plan pays one plain call to bind its host
    variables; restrictions of the same shape (``ID = 17`` and ``ID = 99``
    of two distinct-literal statements) share one code object.

    Falls back to an interpreted closure for whatever the generator does not
    specialise: unknown columns, terms or nodes and unbound host
    variables (which must keep failing lazily, only when short-circuit
    evaluation reaches them), and host variables bound to NULL.
    """
    _, _, bind, constants, names, _ = _generated(expr, schema)
    if bind is not None:
        try:
            bound = [host_vars[name] for name in names]
        except KeyError:
            bound = None
        if bound is not None:
            predicate = bind(*constants, *bound)
            if predicate is not None:
                return predicate
    return lambda row: evaluate(expr, row, schema, host_vars)


def compile_page_kernel(
    expr: Expr, schema: SchemaMap, host_vars: HostVars = {}
) -> "Callable[[Sequence], list[int]]":
    """Compile a predicate into a ``slots -> [slot, ...]`` page kernel.

    ``slots`` is a heap page's slot list (``None`` marks a deleted record) or
    any other list of rows; the kernel returns the positions of the rows the
    predicate accepts, in order. It is one list comprehension around the
    very expression :func:`compile_predicate` generates — same memo, same
    fallbacks to :func:`evaluate` — so a page costs one call instead of one
    per record. Rows are evaluated in slot order: when one raises, the
    kernel raises what the row predicate would have raised at that row (the
    scans then go over the page row by row, see ``_Scan._sift`` in
    :mod:`repro.engine.scans`).

    The kernel's code object is built on first use, so statements that never
    scan a page never pay for it.
    """
    _, _, _, constants, names, body = _generated(expr, schema)
    if body is not None and all(name in host_vars for name in names):
        try:
            bind = _binder(body, len(constants), len(names), _PAGE)
        except (SyntaxError, RecursionError):
            bind = None  # nested too deeply once the comprehension is around it
        kernel = bind and bind(*constants, *(host_vars[name] for name in names))
        if kernel is not None:
            return kernel
    return lambda slots: [
        slot
        for slot, row in enumerate(slots)
        if row is not None and evaluate(expr, row, schema, host_vars)
    ]


def _generated(expr: Expr, schema: SchemaMap) -> tuple:
    """The memoised plan of one restriction:
    ``(expr, schema, row binder | None, constants, host names, body | None)``."""
    key = (id(expr), id(schema))
    plan = _predicate_memo.get(key)
    if plan is None or plan[0] is not expr or plan[1] is not schema:
        plan = (expr, schema, *_generate(expr, schema))
        if len(_predicate_memo) >= 128:
            _predicate_memo.clear()
        _predicate_memo[key] = plan
    return plan


#: what the generated function wraps around the restriction's expression
_ROW = "lambda row: {}"
_PAGE = (
    "lambda slots: [slot for slot, row in enumerate(slots) "
    "if row is not None and ({})]"
)

#: (id(expr), id(schema)) -> the plan :func:`_generated` describes; the stored
#: strong references pin both ids
_predicate_memo: dict[tuple[int, int], tuple] = {}

_PYTHON_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _Unsupported(Exception):
    """The generator met a shape it leaves to the interpreter."""


def _generate(
    expr: Expr, schema: SchemaMap
) -> "tuple[Callable | None, tuple, tuple[str, ...], str | None]":
    """``(row binder, constants, host variable names, body)`` for one
    restriction.

    ``body`` is the source of one Python expression over ``row``, the
    constants ``c0..`` and the host values ``h0..``; ``binder(*constants,
    *host values)`` returns the predicate around it, or ``None`` when a host
    variable is bound to NULL (:func:`_binder`). Both are ``None`` when the
    restriction has a shape the generator does not handle.
    """
    constants: list[Any] = []
    names: list[str] = []
    reads = 0

    def constant(value: Any) -> str:
        constants.append(value)
        return f"c{len(constants) - 1}"

    def read(term: ValueTerm) -> str | None:
        """Source that reads one term; ``None`` for a literal NULL."""
        if isinstance(term, Literal):
            return None if term.value is None else constant(term.value)
        if isinstance(term, HostVar):
            if term.name not in names:
                names.append(term.name)
            return f"h{names.index(term.name)}"
        if isinstance(term, ColumnRef):
            if term.name not in schema:
                raise _Unsupported(term.name)
            return f"row[{schema[term.name]}]"
        raise _Unsupported(repr(term))

    def test(terms: Sequence[ValueTerm], template: str) -> str:
        """``template`` over ``terms``, never TRUE when one of them is NULL:
        each column is read once into a local behind a NULL guard."""
        nonlocal reads
        guards, uses = [], []
        for term in terms:
            text = read(term)
            if isinstance(term, ColumnRef):
                reads += 1
                guards.append(f"(v{reads} := {text}) is not None")
                text = f"v{reads}"
            uses.append(text)
        if None in uses:  # a literal NULL (every term was still resolved)
            return "False"
        return " and ".join(guards + [template.format(*uses)])

    def source(node: Expr) -> str:
        if isinstance(node, TrueExpr):
            return "True"
        if isinstance(node, FalseExpr):
            return "False"
        if isinstance(node, Comparison):
            return test((node.left, node.right), f"{{}} {_PYTHON_OPS[node.op]} {{}}")
        if isinstance(node, Between):
            return test((node.lo, node.column, node.hi), "{} <= {} <= {}")
        if isinstance(node, InList):
            # a NULL member equals nothing
            members = [text for text in map(read, node.values) if text is not None]
            return test(
                (node.column,),
                f"({' or '.join('{0} == ' + m for m in members) or 'False'})",
            )
        if isinstance(node, Like):
            match = constant(_like_regex(node.pattern).match)
            return test((node.column,), f"isinstance({{0}}, str) and {match}({{0}}) is not None")
        if isinstance(node, (And, Or)):
            word = " and " if isinstance(node, And) else " or "
            return word.join(f"({source(child)})" for child in node.children)
        if isinstance(node, Not):
            return f"not ({source(node.child)})"
        raise _Unsupported(repr(node))

    try:
        body = source(expr)
        binder = _binder(body, len(constants), len(names), _ROW)
    except (_Unsupported, SyntaxError, RecursionError):
        # the last two: a tree nested too deeply (about 200 levels) for the
        # Python compiler, or for this generator's own recursion
        return None, (), (), None
    return binder, tuple(constants), tuple(names), body


@lru_cache(maxsize=256)
def _binder(body: str, constant_count: int, host_var_count: int, form: str) -> Callable:
    """The binder function for one restriction shape (compiled once per
    form): ``bind(*constants, *host values)`` returns ``form`` around
    ``body``, or ``None`` when a host variable is bound to NULL."""
    params = [f"c{i}" for i in range(constant_count)]
    hosts = [f"h{i}" for i in range(host_var_count)]
    lines = [f"def bind({', '.join(params + hosts)}):"]
    if hosts:
        lines.append(f"    if {' or '.join(f'{h} is None' for h in hosts)}:")
        lines.append("        return None")
    lines.append(f"    return {form.format(body)}")
    namespace: dict[str, Any] = {}
    exec(compile("\n".join(lines), "<predicate>", "exec"), namespace)
    return namespace["bind"]


def referenced_columns(expr: Expr) -> frozenset[str]:
    """All column names the expression reads.

    Memoised per expression *object* (identity-keyed; the stored strong
    reference pins the id): cached plans walk the same restriction instance
    on every execution, and the column set is pure structure.
    """
    entry = _columns_memo.get(id(expr))
    if entry is not None and entry[0] is expr:
        return entry[1]
    result = _referenced_columns(expr)
    if len(_columns_memo) >= 2048:
        _columns_memo.clear()
    _columns_memo[id(expr)] = (expr, result)
    return result


_columns_memo: dict[int, tuple[Expr, frozenset[str]]] = {}


def _referenced_columns(expr: Expr) -> frozenset[str]:
    names: set[str] = set()
    _walk_columns(expr, names)
    return frozenset(names)


def _walk_columns(node: object, names: set[str]) -> None:
    if isinstance(node, ColumnRef):
        names.add(node.name)
    elif isinstance(node, Comparison):
        _walk_columns(node.left, names)
        _walk_columns(node.right, names)
    elif isinstance(node, Between):
        _walk_columns(node.column, names)
        _walk_columns(node.lo, names)
        _walk_columns(node.hi, names)
    elif isinstance(node, InList):
        _walk_columns(node.column, names)
        for term in node.values:
            _walk_columns(term, names)
    elif isinstance(node, Like):
        _walk_columns(node.column, names)
    elif isinstance(node, (And, Or)):
        for child in node.children:
            _walk_columns(child, names)
    elif isinstance(node, Not):
        _walk_columns(node.child, names)


def rewrite_columns(expr: Expr, mapper) -> Expr:
    """Structurally copy ``expr`` with every column name passed through
    ``mapper``. Used by the join planner to strip alias qualifiers off
    single-table conjuncts so the single-table engine can consume them."""
    return _rewrite(expr, mapper)


def _rewrite(node, mapper):
    if isinstance(node, ColumnRef):
        return ColumnRef(mapper(node.name))
    if isinstance(node, Comparison):
        return Comparison(node.op, _rewrite(node.left, mapper), _rewrite(node.right, mapper))
    if isinstance(node, Between):
        return Between(
            _rewrite(node.column, mapper),
            _rewrite(node.lo, mapper),
            _rewrite(node.hi, mapper),
        )
    if isinstance(node, InList):
        return InList(
            _rewrite(node.column, mapper),
            tuple(_rewrite(term, mapper) for term in node.values),
        )
    if isinstance(node, Like):
        return Like(_rewrite(node.column, mapper), node.pattern)
    if isinstance(node, And):
        return And(tuple(_rewrite(child, mapper) for child in node.children))
    if isinstance(node, Or):
        return Or(tuple(_rewrite(child, mapper) for child in node.children))
    if isinstance(node, Not):
        return Not(_rewrite(node.child, mapper))
    return node


def referenced_host_vars(expr: Expr) -> frozenset[str]:
    """All host-variable names the expression reads."""
    names: set[str] = set()
    _walk_vars(expr, names)
    return frozenset(names)


def _walk_vars(node: object, names: set[str]) -> None:
    if isinstance(node, HostVar):
        names.add(node.name)
    elif isinstance(node, Comparison):
        _walk_vars(node.left, names)
        _walk_vars(node.right, names)
    elif isinstance(node, Between):
        _walk_vars(node.lo, names)
        _walk_vars(node.hi, names)
    elif isinstance(node, InList):
        for term in node.values:
            _walk_vars(term, names)
    elif isinstance(node, (And, Or)):
        for child in node.children:
            _walk_vars(child, names)
    elif isinstance(node, Not):
        _walk_vars(node.child, names)
