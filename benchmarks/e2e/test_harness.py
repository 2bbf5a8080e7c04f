"""Self-test of the benchmark harness (not of the program).

Run with ``python -m pytest benchmarks/e2e -q``; tier-1 ``testpaths`` does
not include this directory.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import layers  # noqa: E402
from harness import Samples, percentile, quietest, supported_percentile  # noqa: E402
from reference import (  # noqa: E402
    ShadowTable, check_bag, check_limit, check_ordered_limit, hash_join)
from trace import Tracer, self_times  # noqa: E402


# -- span arithmetic ----------------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    # root 0..10 with children 1..4 and 5..9; the second has a child 6..8
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 5.0, 9.0, 0, 1),
        ("c", 6.0, 8.0, 2, 1),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert sum(self_times(spans)) == 10.0  # self times add up to the root


def test_tracer_self_times_sum_to_the_root_and_generators_nest():
    tracer = Tracer()

    def leaf_work():
        return sum(range(200))

    def steps():
        for _ in range(3):
            inner()
            yield

    inner = tracer._span_wrapper(leaf_work, "layer_b.work")
    traced_steps = tracer._span_wrapper(steps, "layer_a.steps")
    frame = tracer.begin_op(7)
    for _ in traced_steps():
        pass
    tracer.end_op(frame)
    agg = tracer.aggregates
    # one span per generator resumption (3 yields + the final return)
    assert agg["layer_a.steps"].count == 4
    assert agg["layer_b.work"].count == 3
    total_self = sum(a.self_time for a in agg.values())
    assert total_self == pytest.approx(agg["harness.op"].total, rel=1e-9)
    recorded = list(tracer.spans())
    assert all(op_id == 7 for *_, op_id in recorded)
    assert sum(self_times(recorded)) == pytest.approx(agg["harness.op"].total, rel=1e-9)
    by_layer = tracer.layer_self_times()
    assert set(by_layer) == {"harness", "layer_a", "layer_b"}


def test_counted_leaf_samples_spread_and_replay():
    tracer = Tracer()
    calls = []

    def square(x):
        calls.append(x)
        return x * x

    counted = tracer._leaf_wrapper(square, "layer.square")
    frame = tracer._enter("layer.parent")
    for x in range(50_000):
        assert counted(x) == x * x
    tracer._exit(frame)
    leaf = tracer.leaves["layer.square"]
    assert leaf.calls == 50_000
    assert leaf.by_parent == {"layer.parent": 50_000}
    sampled = [args[0] for args in leaf.samples]
    assert len(sampled) < 2_048 and max(sampled) > 40_000  # not only the first calls
    assert tracer.aggregates["layer.parent"].leaf_calls == 50_000
    assert tracer.replay("layer.square", min_seconds=0.01) > 0.0
    assert tracer.replay("layer.never_called") == 0.0
    # keyword arguments pass through a counted leaf (only positionals are sampled)
    keyed = tracer._leaf_wrapper(lambda a, scale=1: a * scale, "layer.keyed")
    assert keyed(3, scale=5) == 15


# -- percentiles ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 95) == 95.0
    assert percentile(samples, 100) == 100.0
    assert percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert supported_percentile(1_000) == 99
    assert supported_percentile(240) == 95  # 12 beyond p95, 2.4 beyond p99
    assert supported_percentile(199) == 90
    assert supported_percentile(50) == 50


def _round(latencies):
    samples = Samples()
    for seconds in latencies:
        samples.wall += seconds
        samples.add("op", seconds, samples.wall)
    return samples


def test_quietest_takes_each_stretch_from_the_round_that_ran_it_fastest():
    # the first round is disturbed in its second half, the second in its first
    first = _round([1.0, 1.0, 5.0, 5.0])
    second = _round([3.0, 3.0, 2.0, 2.0])
    latencies, wall = quietest([first, second], stretches=2)
    assert latencies == [1.0, 1.0, 2.0, 2.0]
    assert wall == 6.0
    # one stretch: the faster round as a whole
    assert quietest([first, second], stretches=1) == ([3.0, 3.0, 2.0, 2.0], 10.0)
    # more stretches than ops: the empty ones are skipped
    assert quietest([first, second], stretches=8) == ([1.0, 1.0, 2.0, 2.0], 6.0)
    with pytest.raises(ValueError):
        quietest([first, _round([1.0])])


# -- the reference evaluator ------------------------------------------------------

COLUMNS = ("ID", "GROUP", "V")
TABLE = [(1, 1, 10), (2, 1, 20), (3, 2, 20), (4, 2, 40), (5, 3, 50)]


def test_reference_against_a_hand_written_table():
    shadow = ShadowTable(COLUMNS, TABLE, "ID")
    pred = lambda r: r[2] >= 20  # noqa: E731
    assert sorted(shadow.select(pred)) == [(2, 1, 20), (3, 2, 20), (4, 2, 40), (5, 3, 50)]
    # a hint narrows candidates but never changes the answer
    for hint in (None, ("range", "V", 20, 50), ("in", "GROUP", [1, 2, 3]), ("eq", "V", 20)):
        full = sorted(shadow.select(lambda r: r[2] == 20))
        assert sorted(shadow.select(lambda r: r[2] == 20, hint)) == full
    assert shadow.select(pred, None, ("V",)) == [(20,), (20,), (40,), (50,)]
    shadow.insert((6, 3, 20))
    shadow.delete(2)
    assert sorted(shadow.select(lambda r: r[2] == 20, ("eq", "V", 20))) == [(3, 2, 20), (6, 3, 20)]
    assert sorted(shadow.select(lambda r: True, ("range", "V", 15, 25))) == [(3, 2, 20), (6, 3, 20)]
    with pytest.raises(KeyError):
        shadow.insert((6, 0, 0))


def test_hash_join_matches_nested_loops():
    left = [(1, "a"), (2, "b"), (2, "c"), (3, "d")]
    right = [(2, "x"), (2, "y"), (3, "z"), (4, "w")]
    nested = [l + r for l in left for r in right if l[0] == r[0]]
    assert sorted(hash_join(left, right, 0, 0)) == sorted(nested)


def test_checks_accept_right_answers_and_name_wrong_ones():
    expected = [(1, 5), (2, 5), (3, 7)]
    assert check_bag([(3, 7), (1, 5), (2, 5)], expected) is None
    assert "count" in check_bag([(1, 5)], expected)
    assert "bag" in check_bag([(1, 5), (2, 5), (3, 8)], expected)
    assert check_limit([(2, 5), (3, 7)], expected, 2) is None
    assert check_limit(expected, expected, 10) is None
    assert "count" in check_limit([(2, 5)], expected, 2)
    assert "sub-bag" in check_limit([(2, 5), (2, 5)], expected, 2)
    # ties on the key may come back in either order
    assert check_ordered_limit([(2, 5), (1, 5)], expected, (1,), 2) is None
    assert "order" in check_ordered_limit([(3, 7), (1, 5)], expected, (1,), 2)
    assert "prefix" in check_ordered_limit([(1, 5), (3, 7)], expected, (1,), 2)
    assert check_ordered_limit([(1, 5), (2, 5), (3, 7)], expected, (1,), None) is None


# -- compare.py --------------------------------------------------------------------


def _doc(values: dict[str, float], runs: dict[str, list[float]] | None = None,
         failed: int = 0, smoke: bool = False) -> dict:
    cells = {name: {"value": value, "unit": "x", "runs": (runs or {}).get(name, [])}
             for name, value in values.items()}
    cells["error_rate"] = {"value": failed / 100, "unit": "fraction", "runs": []}
    return {"smoke": smoke, "seed": 1, "git_sha": "abc",
            "workloads": {"w": {"correct": failed == 0, "end_to_end": cells}}}


BOUNDS = {"throughput_qps": ("higher", 0.10), "latency_p50_ms": ("lower", 0.10)}


def _verdicts(a: dict, b: dict) -> dict[str, str]:
    return {row[0]: row[-1] for row in compare.compare(a, b, BOUNDS)}


def test_compare_verdicts():
    base = {"throughput_qps": 100.0, "latency_p50_ms": 10.0}
    assert _verdicts(_doc(base), _doc({"throughput_qps": 95.0, "latency_p50_ms": 10.5})) == {
        "throughput_qps": "ok", "latency_p50_ms": "ok", "error_rate": "ok"}
    worse = _verdicts(_doc(base), _doc({"throughput_qps": 85.0, "latency_p50_ms": 11.5}))
    assert worse["throughput_qps"] == "worse" and worse["latency_p50_ms"] == "worse"
    # better in the metric's own direction is never "worse"
    better = _verdicts(_doc(base), _doc({"throughput_qps": 150.0, "latency_p50_ms": 5.0}))
    assert better["throughput_qps"] == "ok" and better["latency_p50_ms"] == "ok"


def test_compare_unresolved_when_spread_exceeds_bound():
    noisy = {"latency_p50_ms": [8.0, 9.0, 10.0, 11.0, 12.0]}
    a = _doc({"throughput_qps": 100.0, "latency_p50_ms": 10.0}, noisy)
    b = _doc({"throughput_qps": 100.0, "latency_p50_ms": 10.2}, noisy)
    assert _verdicts(a, b)["latency_p50_ms"] == "unresolved"
    # ... unless every run of B beats every run of A
    fast = _doc({"throughput_qps": 100.0, "latency_p50_ms": 5.0},
                {"latency_p50_ms": [4.0, 5.0, 6.0, 7.0]})
    assert _verdicts(a, fast)["latency_p50_ms"] == "ok"
    steady = {"latency_p50_ms": [9.9, 10.0, 10.0, 10.1]}
    assert _verdicts(_doc({"throughput_qps": 100.0, "latency_p50_ms": 10.0}, steady),
                     _doc({"throughput_qps": 100.0, "latency_p50_ms": 10.2}, steady)
                     )["latency_p50_ms"] == "ok"


def test_compare_flags_any_error_rate_increase_and_refuses_smoke(tmp_path):
    base = {"throughput_qps": 100.0, "latency_p50_ms": 10.0}
    assert _verdicts(_doc(base), _doc(base, failed=1))["error_rate"] == "worse"
    import json

    good, smoke = tmp_path / "a.json", tmp_path / "s.json"
    good.write_text(json.dumps(_doc(base)))
    smoke.write_text(json.dumps(_doc(base, smoke=True)))
    with pytest.raises(SystemExit, match="smoke"):
        compare.main([str(good), str(smoke)])


# -- wrapping and unwrapping ------------------------------------------------------


def test_unwrapping_restores_every_patched_attribute():
    tracer = Tracer()
    tracer.install(lambda t: layers.wrap_plan(t, {}, multi_session=True))
    # what each attribute held before its first patch (one is wrapped twice)
    originals: dict[tuple[int, str], tuple] = {}
    for owner, attr, original in tracer._patches:
        originals.setdefault((id(owner), attr), (owner, attr, original))
    assert len(originals) > 60
    for owner, attr, original in originals.values():
        assert owner.__dict__[attr] is not original  # wrapped while installed
    tracer.uninstall()
    assert not tracer.active and not tracer._patches
    for owner, attr, original in originals.values():
        assert owner.__dict__[attr] is original, (owner, attr)  # the same object is back


def test_module_functions_are_patched_where_they_were_imported():
    import repro.engine.jscan as jscan
    import repro.storage.rid as rid

    original = rid.yao_pages_touched
    assert jscan.yao_pages_touched is original
    tracer = Tracer()
    tracer.install(lambda t: layers.wrap_plan(t, {}, multi_session=False))
    try:
        assert jscan.yao_pages_touched is rid.yao_pages_touched is not original
        assert jscan.yao_pages_touched(100, 32, 10) == original(100, 32, 10)
        assert tracer.leaves["storage.yao"].calls == 1
    finally:
        tracer.uninstall()
    assert jscan.yao_pages_touched is rid.yao_pages_touched is original


def test_a_failing_plan_leaves_nothing_patched():
    import repro.storage.rid as rid

    original = rid.yao_pages_touched

    def plan(tracer):
        tracer.wrap_function(rid, "yao_pages_touched", "storage.yao", leaf=True)
        raise RuntimeError("boom")

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        tracer.install(plan)
    assert rid.yao_pages_touched is original and not tracer.active


# -- the metric catalogue ---------------------------------------------------------


def test_benchmark_json_lists_exactly_the_metrics_the_harness_reports():
    import json

    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]
