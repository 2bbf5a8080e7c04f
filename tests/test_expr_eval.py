"""Tests for predicate evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BindingError, ExpressionError
from repro.expr.ast import (
    COMPARISON_OPS,
    ALWAYS_FALSE,
    ALWAYS_TRUE,
    And,
    Between,
    Comparison,
    InList,
    Like,
    Not,
    Or,
    col,
    lit,
    var,
)
from repro.expr import eval as eval_module
from repro.expr.eval import (
    _binder,
    compile_page_kernel,
    compile_predicate,
    evaluate,
    referenced_columns,
    referenced_host_vars,
)

SCHEMA = {"a": 0, "b": 1, "name": 2}
ROW = (10, 20, "hello")


def test_comparisons():
    assert evaluate(col("a") < 11, ROW, SCHEMA)
    assert not evaluate(col("a") < 10, ROW, SCHEMA)
    assert evaluate(col("a") <= 10, ROW, SCHEMA)
    assert evaluate(col("b") > 19, ROW, SCHEMA)
    assert evaluate(col("b") >= 20, ROW, SCHEMA)
    assert evaluate(col("a").eq(10), ROW, SCHEMA)
    assert evaluate(col("a").ne(11), ROW, SCHEMA)


def test_column_to_column_comparison():
    assert evaluate(col("a") < col("b"), ROW, SCHEMA)
    assert not evaluate(col("a").eq(col("b")), ROW, SCHEMA)


def test_host_variables():
    assert evaluate(col("a") >= var("x"), ROW, SCHEMA, {"x": 5})
    assert not evaluate(col("a") >= var("x"), ROW, SCHEMA, {"x": 50})


def test_unbound_host_variable_raises():
    with pytest.raises(BindingError):
        evaluate(col("a") >= var("missing"), ROW, SCHEMA, {})


def test_unknown_column_raises():
    with pytest.raises(BindingError):
        evaluate(col("zzz") < 1, ROW, SCHEMA)


def test_between():
    assert evaluate(col("a").between(5, 15), ROW, SCHEMA)
    assert evaluate(col("a").between(10, 10), ROW, SCHEMA)
    assert not evaluate(col("a").between(11, 15), ROW, SCHEMA)


def test_in_list():
    assert evaluate(col("a").in_([1, 10, 100]), ROW, SCHEMA)
    assert not evaluate(col("a").in_([1, 2]), ROW, SCHEMA)
    assert evaluate(col("a").in_([var("v")]), ROW, SCHEMA, {"v": 10})


def test_like_patterns():
    assert evaluate(col("name").like("hello"), ROW, SCHEMA)
    assert evaluate(col("name").like("he%"), ROW, SCHEMA)
    assert evaluate(col("name").like("%llo"), ROW, SCHEMA)
    assert evaluate(col("name").like("h_llo"), ROW, SCHEMA)
    assert not evaluate(col("name").like("h_"), ROW, SCHEMA)
    assert not evaluate(col("name").like("world%"), ROW, SCHEMA)


def test_like_on_non_string_is_false():
    assert not evaluate(col("a").like("1%"), ROW, SCHEMA)


def test_like_escapes_regex_metacharacters():
    schema = {"s": 0}
    assert evaluate(col("s").like("a.b%"), ("a.bcd",), schema)
    assert not evaluate(col("s").like("a.b%"), ("axbcd",), schema)


def test_boolean_connectives():
    expr = (col("a").eq(10)) & (col("b").eq(20))
    assert evaluate(expr, ROW, SCHEMA)
    expr = (col("a").eq(99)) | (col("b").eq(20))
    assert evaluate(expr, ROW, SCHEMA)
    assert not evaluate(~(col("a").eq(10)), ROW, SCHEMA)


def test_constants():
    assert evaluate(ALWAYS_TRUE, ROW, SCHEMA)
    assert not evaluate(ALWAYS_FALSE, ROW, SCHEMA)


def test_null_semantics_not_true():
    row = (None, 20, None)
    assert not evaluate(col("a") < 100, row, SCHEMA)
    assert not evaluate(col("a").eq(None), row, SCHEMA)
    assert not evaluate(col("a").between(0, 100), row, SCHEMA)
    assert not evaluate(col("a").in_([None, 1]), row, SCHEMA)
    # NOT of an unknown comparison collapses to TRUE in two-valued logic
    assert evaluate(~(col("a") < 100), row, SCHEMA)


def test_referenced_columns():
    expr = ((col("a") < 1) | col("b").between(var("x"), 9)) & ~col("name").like("z%")
    assert referenced_columns(expr) == {"a", "b", "name"}


def test_referenced_columns_includes_comparison_rhs():
    assert referenced_columns(col("a") < col("b")) == {"a", "b"}


def test_referenced_host_vars():
    expr = (col("a") >= var("lo")) & (col("a") <= var("hi")) & col("b").in_([var("v"), lit(3)])
    assert referenced_host_vars(expr) == {"lo", "hi", "v"}


def test_referenced_host_vars_empty():
    assert referenced_host_vars(col("a") < 5) == frozenset()


# -- compile_predicate: one generated expression, same answers as evaluate ---


def outcome(call, *args):
    """What a call did: its value, or the exception type it raised."""
    try:
        return "value", call(*args)
    except (BindingError, ExpressionError, TypeError) as error:
        return "raised", type(error)


def test_compiled_predicate_matches_evaluate_on_the_hot_shapes():
    expr = col("a").between(var("lo"), var("hi")) & (col("b").eq(20) | col("name").like("he%"))
    predicate = compile_predicate(expr, SCHEMA, {"lo": 5, "hi": 15})
    for row in (ROW, (4, 20, "hello"), (10, 21, "jello"), (None, 20, "hello"), (10, None, None)):
        assert predicate(row) is evaluate(expr, row, SCHEMA, {"lo": 5, "hi": 15})


def test_restrictions_of_one_shape_share_one_code_object():
    # two distinct-literal statements: the second must not pay compile()
    first = compile_predicate(col("a").eq(17), SCHEMA)
    compiled_shapes = _binder.cache_info().misses
    second = compile_predicate(col("a").eq(99), SCHEMA)
    assert _binder.cache_info().misses == compiled_shapes
    assert first.__code__ is second.__code__
    assert first((17, 0, "")) and not second((17, 0, ""))
    assert second((99, 0, "")) and not first((99, 0, ""))


def test_compiled_unbound_host_variable_fails_lazily():
    expr = (col("a") < 5) & (col("b") >= var("missing"))
    predicate = compile_predicate(expr, SCHEMA, {})
    assert predicate(ROW) is False  # short-circuit never reaches the variable
    with pytest.raises(BindingError):
        predicate((1, 20, "hello"))


def test_compiled_unknown_column_and_null_binding_fall_back():
    with pytest.raises(BindingError):
        compile_predicate(col("zzz") < 1, SCHEMA)(ROW)
    never = compile_predicate(col("a") <= var("x"), SCHEMA, {"x": None})
    assert never(ROW) is False
    assert compile_predicate(~(col("a") <= var("x")), SCHEMA, {"x": None})(ROW) is True


VALUES = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(["", "a", "ab", "b%"]))
TERMS = st.one_of(
    VALUES.map(lit),
    st.sampled_from(["X", "Y", "S", "N", "M"]).map(var),
    st.sampled_from(["a", "a", "b", "name", "zzz"]).map(col),
)
LEAVES = st.one_of(
    st.sampled_from([ALWAYS_TRUE, ALWAYS_FALSE]),
    st.builds(Comparison, st.sampled_from(COMPARISON_OPS), TERMS, TERMS),
    st.builds(Between, TERMS, TERMS, TERMS),
    st.builds(InList, TERMS, st.lists(TERMS, max_size=3).map(tuple)),
    st.builds(Like, TERMS, st.sampled_from(["a%", "_b", "%", "a", ""])),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(And),
        st.lists(children, min_size=2, max_size=3).map(Or),
        children.map(Not),
    ),
    max_leaves=8,
)
ROWS = st.tuples(
    st.one_of(st.none(), st.integers(-3, 3)),
    st.one_of(st.none(), st.integers(-3, 3)),
    st.one_of(st.none(), st.sampled_from(["", "a", "ab", "bb"])),
)
#: "N" is bound to NULL, "M" is never bound
BINDINGS = st.fixed_dictionaries({
    "X": st.integers(-3, 3),
    "Y": st.one_of(st.integers(-3, 3), st.sampled_from(["a", "ab"])),
    "S": st.sampled_from(["", "a", "ab"]),
    "N": st.none(),
})


@settings(max_examples=400, deadline=None)
@given(expr=TREES, rows=st.lists(ROWS, min_size=1, max_size=6),
       first=BINDINGS, second=BINDINGS)
def test_compiled_predicate_is_evaluate(expr, rows, first, second):
    # both bindings are compiled from the one (memoised) restriction before
    # either runs: they must not share constants
    compiled = [(compile_predicate(expr, SCHEMA, binding), binding)
                for binding in (first, second)]
    for predicate, binding in compiled:
        for row in rows:
            expected = outcome(evaluate, expr, row, SCHEMA, binding)
            assert outcome(predicate, row) == expected
            if expected[0] == "value":
                assert type(predicate(row)) is bool


def row_by_row(expr, slots, binding):
    """The page kernel's specification: :func:`evaluate` over the live rows
    in slot order, stopping at the first one that raises."""
    return [slot for slot, row in enumerate(slots)
            if row is not None and evaluate(expr, row, SCHEMA, binding)]


@settings(max_examples=400, deadline=None)
@given(expr=TREES, slots=st.lists(st.one_of(st.none(), ROWS), max_size=9),
       first=BINDINGS, second=BINDINGS)
def test_page_kernel_is_evaluate_row_by_row(expr, slots, first, second):
    # the generated kernels and the interpreter ones (unknown column, "N"
    # bound to NULL, "M" unbound): the same survivors, or the exception of
    # the first row that raises
    kernels = [(compile_page_kernel(expr, SCHEMA, binding), binding)
               for binding in (first, second)]
    for kernel, binding in kernels:
        expected = outcome(row_by_row, expr, slots, binding)
        assert outcome(kernel, slots) == expected
        assert outcome(kernel, tuple(slots)) == expected


def test_page_kernel_is_built_from_the_predicate_source_on_first_use():
    expr = col("a").between(var("lo"), 15) & col("name").like("he%")
    predicate = compile_predicate(expr, SCHEMA, {"lo": 5})
    compiled_shapes = _binder.cache_info().misses
    compile_predicate(expr, SCHEMA, {"lo": 6})
    assert _binder.cache_info().misses == compiled_shapes  # no kernel yet
    kernel = compile_page_kernel(expr, SCHEMA, {"lo": 5})
    assert _binder.cache_info().misses == compiled_shapes + 1
    page = [ROW, None, (4, 20, "hello"), (12, 0, "help"), (12, 0, "jelly")]
    assert kernel(page) == [0, 3] == [
        slot for slot, row in enumerate(page) if row is not None and predicate(row)]
    # same memo, one more code object per shape — not per binding or literal
    compile_page_kernel(expr, SCHEMA, {"lo": 6})
    assert _binder.cache_info().misses == compiled_shapes + 1


def test_too_deeply_nested_restriction_falls_back_to_the_interpreter():
    expr = col("a") < 11
    for _ in range(250):  # the Python compiler gives up at 200 parentheses
        expr = ~expr
    assert compile_predicate(expr, SCHEMA)(ROW) is evaluate(expr, ROW, SCHEMA) is True
    assert compile_page_kernel(expr, SCHEMA)([None, ROW]) == [1]


def test_page_kernel_falls_back_alone_when_only_its_wrapping_is_too_deep():
    # the row predicate still compiles at a depth where the comprehension
    # around the same source no longer does
    depth = 150
    while True:
        expr = col("a") < 11
        for _ in range(depth):
            expr = ~expr
        _, _, bind, constants, names, body = eval_module._generated(expr, SCHEMA)
        if bind is None:
            pytest.skip("no depth at which only the page form is refused")
        try:
            _binder(body, len(constants), len(names), eval_module._PAGE)
        except (SyntaxError, RecursionError):
            break
        depth += 1
    assert compile_predicate(expr, SCHEMA).__code__.co_filename == "<predicate>"
    kernel = compile_page_kernel(expr, SCHEMA)
    assert kernel([ROW, None, (11, 0, "")]) == row_by_row(expr, [ROW, None, (11, 0, "")], {})
