"""E14 — Section 5: the OLTP shortcut techniques.

    "If a very short range is discovered (which typically happens right away
    because of preordering), the initial stage estimation terminates
    immediately to save on estimation cost. In addition, an empty range
    detection cancels all retrieval stages and delivers the 'end of data'
    condition at once. These techniques are instrumental in achieving high
    performance of short OLTP transactions."

Measured: per-query cost of unique-key point lookups and provably-empty
lookups with the shortcuts on vs off (ablation), and the effect of
iteration-context preordering on a parameterized query that repeats with a
skewed parameter. With every key column of a unique index bound by
equality the default path is the unique-key probe: nothing is estimated,
one descent and one fetch. Forcing ``background-only`` runs the same
lookups down the estimate-then-Jscan path the probe replaces.

Short ranges (``ACCT BETWEEN :a AND :a+k``, k < 20) are measured the same
way: a range the estimation descent bounds to one quantum of leaves is
walked on from where the descent stopped and fetched directly, at exactly
the cost of the Jscan and final stage it skips, in fewer pool gets.
"""

import numpy as np

from _util import Report, run_once

from repro.db.session import Database
from repro.engine.retrieval import RetrievalRequest
from repro.expr.ast import col, var

ROWS = 8000
LOOKUPS = 200


def build(config=None):
    db = Database(buffer_capacity=96)
    if config is not None:
        db.config = config
    table = db.create_table(
        "ACCOUNTS",
        [("ACCT", "int"), ("BRANCH", "int"), ("BALANCE", "int")],
        rows_per_page=8, index_order=32,
    )
    if config is not None:
        table.config = config
    rng = np.random.default_rng(31)
    for i in range(ROWS):
        table.insert((i, int(rng.integers(0, 100)), int(rng.integers(0, 10_000))))
    table.create_index("IX_ACCT", ["ACCT"], unique=True)
    table.create_index("IX_BRANCH", ["BRANCH"])
    table.create_index("IX_BALANCE", ["BALANCE"])
    return db, table


def _run_lookups(db, table, present: bool, force=None) -> tuple[float, float]:
    """Average (total, estimation) cost per cold-cache point lookup
    (``force``: a strategy name for ``RetrievalRequest.force_strategy``)."""
    rng = np.random.default_rng(7)
    total = estimation = 0.0
    query = (col("ACCT").eq(var("id"))) & (col("BRANCH") >= 0)
    for _ in range(LOOKUPS):
        account = int(rng.integers(0, ROWS)) if present else ROWS + int(rng.integers(0, ROWS))
        db.cold_cache()
        request = RetrievalRequest(
            restriction=query, host_vars={"id": account}, force_strategy=force
        )
        result = table.retrieval_engine().run(request)
        assert len(result.rows) == (1 if present else 0)
        total += result.total_cost
        estimation += result.estimation_cost
    return total / LOOKUPS, estimation / LOOKUPS


def _run_ranges(db, table, force=None) -> tuple[float, float, float]:
    """Average (total cost, pool gets, share fetched directly) per
    cold-cache range of 2..20 accounts."""
    rng = np.random.default_rng(11)
    query = col("ACCT").between(var("a"), var("b"))
    pool = db.buffer_pool
    total = gets = direct = 0.0
    for _ in range(LOOKUPS):
        low = int(rng.integers(0, ROWS - 20))
        high = low + int(rng.integers(1, 20))
        db.cold_cache()
        before = pool.hits + pool.misses
        request = RetrievalRequest(
            restriction=query, host_vars={"a": low, "b": high}, force_strategy=force
        )
        result = table.retrieval_engine().run(request)
        assert len(result.rows) == high - low + 1
        total += result.total_cost
        gets += pool.hits + pool.misses - before
        direct += result.description.startswith("short-range")
    return total / LOOKUPS, gets / LOOKUPS, direct / LOOKUPS


def experiment() -> dict:
    report = Report("oltp_shortcut", "Section 5 — OLTP shortcut techniques")
    report.line(f"\nACCOUNTS: {ROWS} rows, unique IX_ACCT + two secondary indexes")
    report.line(f"workload: {LOOKUPS} point lookups (ACCT = :id AND BRANCH >= 0)\n")

    rows = []
    stats = {}
    for label, config_change, force in (
        ("unique-key probe (default)", {}, None),
        ("estimate + Jscan (forced)", {}, "background-only"),
        ("small-range shortcut off", {"shortcut_rid_count": -1}, None),
    ):
        db, table = build()
        if config_change:
            table.config = table.config.with_(**config_change)
        hit_total, hit_est = _run_lookups(db, table, True, force)
        miss_total, miss_est = _run_lookups(db, table, False, force)
        stats[label] = (hit_total, hit_est, miss_total, miss_est)
        rows.append([
            label, f"{hit_total:.2f}", f"{hit_est:.2f}",
            f"{miss_total:.2f}", f"{miss_est:.2f}",
        ])
    report.table(
        ["configuration", "hit total", "hit estimation", "miss total", "miss est."],
        rows,
    )
    on_hit, on_est, on_miss, on_miss_est = stats["unique-key probe (default)"]
    jscan_hit, jscan_est, _, _ = stats["estimate + Jscan (forced)"]
    _, off_est, _, _ = stats["small-range shortcut off"]
    report.line(f"\nestimation I/O per hit: {on_est:.2f} probing, {jscan_est:.2f} when "
                f"the shortcut stops")
    report.line(f"estimation at the unique index, {off_est:.2f} when every index "
                f"is estimated")
    report.line(f"a hit costs {on_hit:.2f} in total against {jscan_hit:.2f}: the "
                f"BRANCH partner scan")
    report.line("is no longer started")
    report.line(f"misses cost {on_miss:.2f} total — the empty-range detection cancels")
    report.line("all stages; 'end of data' is delivered without touching the heap.")
    assert on_est < off_est
    assert on_miss < on_hit

    # short ranges: fetched directly vs the estimate-then-Jscan path
    report.line(f"\nworkload: {LOOKUPS} ranges (ACCT BETWEEN :a AND :a+k, k < 20), "
                f"cold cache\n")
    ranges = {}
    for label, force in (("short range (default)", None),
                         ("estimate + Jscan (forced)", "background-only")):
        db, table = build()
        ranges[label] = _run_ranges(db, table, force)
    report.table(
        ["configuration", "total cost", "pool gets", "fetched directly"],
        [[label, f"{cost:.2f}", f"{gets:.2f}", f"{share:.0%}"]
         for label, (cost, gets, share) in ranges.items()],
    )
    direct_cost, direct_gets, direct_share = ranges["short range (default)"]
    raced_cost, raced_gets, _ = ranges["estimate + Jscan (forced)"]
    report.line(f"\nthe same cost ({direct_cost:.2f} against {raced_cost:.2f}) in "
                f"{raced_gets - direct_gets:.2f} fewer pool gets a range: the")
    report.line("Jscan's own root-to-leaf descent over the estimate's path is gone")
    assert direct_share > 0.9
    assert direct_cost == raced_cost
    assert direct_gets < raced_gets

    # iteration-context preordering under a repeated parameterized query
    db, table = build()
    query = (col("BRANCH").eq(var("b"))) & (col("BALANCE") < var("lim"))
    rng = np.random.default_rng(13)
    costs_fresh, costs_context = [], []
    for i in range(30):
        bindings = {"b": int(rng.integers(0, 100)), "lim": 500}
        fresh = table.select(where=query, host_vars=bindings)
        costs_fresh.append(fresh.estimation_cost)
        repeated = table.select(where=query, host_vars=bindings, context_key="oltp")
        costs_context.append(repeated.estimation_cost)
    report.line(f"\nestimation cost per run: no context {np.mean(costs_fresh):.3f}, "
                f"with iteration context {np.mean(costs_context):.3f}")
    report.line("(the context seeds the prearrangement so the most selective index")
    report.line(" is estimated first and the shortcut fires sooner)")
    report.save()
    return {"hit": on_hit, "miss": on_miss, "est_on": on_est, "est_off": off_est,
            "range_cost": (direct_cost, raced_cost),
            "range_gets": (direct_gets, raced_gets)}


def check(results: dict) -> None:
    assert results["miss"] < results["hit"]
    assert results["est_on"] < results["est_off"]
    direct_cost, raced_cost = results["range_cost"]
    assert direct_cost == raced_cost
    direct_gets, raced_gets = results["range_gets"]
    assert direct_gets < raced_gets


def test_oltp_shortcuts(benchmark):
    check(run_once(benchmark, experiment))


if __name__ == "__main__":
    check(experiment())
