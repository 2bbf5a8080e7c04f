"""E4 — Section 3: the competition model.

Claims reproduced:

* the sequential arrangement (run A2 to c2, then switch to A1) has expected
  cost (m2 + c2 + M1)/2, "about twice smaller than the traditional M1";
* Monte-Carlo racing of step-wise processes matches the analytic value;
* running both plans simultaneously at proportional speeds does better
  still when both L-shapes are truncated hyperbolas (ablation: speed
  ratios and switch budgets).
"""

import numpy as np

from _util import Report, run_once

from paper.direct import DirectCompetition, TrialThenSwitch
from paper.synthetic import SyntheticProcess
from repro.competition.model import (
    LShapedCost,
    sequential_switch_expected_cost,
    simultaneous_expected_cost,
    traditional_expected_cost,
)

TRIALS = 1500


def _monte_carlo(plan_1, plan_2, runner):
    rng = np.random.default_rng(99)
    costs_1 = plan_1.sample(rng, TRIALS)
    costs_2 = plan_2.sample(rng, TRIALS)
    total = 0.0
    for a, b in zip(costs_1, costs_2):
        total += runner(a, b)
    return total / TRIALS


def experiment() -> dict:
    report = Report("sec3", "Section 3 — competition model arithmetic and racing")
    plan_1 = LShapedCost.from_c_and_mean(c=10, mean=100)   # the "best mean" plan
    plan_2 = LShapedCost.from_c_and_mean(c=8, mean=120)    # the trial plan
    m2 = plan_2.conditional_mean_below(plan_2.median())
    report.line(f"\nplan A1: c={plan_1.median():.1f}  M={plan_1.mean():.1f}")
    report.line(f"plan A2: c={plan_2.median():.1f}  M={plan_2.mean():.1f}  m2={m2:.2f}")

    traditional = traditional_expected_cost(plan_1.mean())
    sequential = sequential_switch_expected_cost(m2, plan_2.median(), plan_1.mean())
    simultaneous = simultaneous_expected_cost(plan_1, plan_2)

    mc_sequential = _monte_carlo(
        plan_1, plan_2,
        lambda a, b: TrialThenSwitch(
            SyntheticProcess("t", b), SyntheticProcess("s", a), plan_2.median()
        ).run().total_cost,
    )
    mc_simultaneous = _monte_carlo(
        plan_1, plan_2,
        lambda a, b: DirectCompetition(
            SyntheticProcess("s", a), [SyntheticProcess("t", b)]
        ).run().total_cost,
    )

    rows = [
        ["traditional (run A1)", "M1", f"{traditional:.1f}", "-"],
        ["sequential switch", "(m2+c2+M1)/2", f"{sequential:.1f}", f"{mc_sequential:.1f}"],
        ["simultaneous (optimal switch)", "numeric", f"{simultaneous:.1f}", f"{mc_simultaneous:.1f}"],
    ]
    report.line()
    report.table(["arrangement", "formula", "analytic", "Monte-Carlo"], rows)
    report.line("\npaper: sequential is 'about twice smaller than the traditional M1';")
    report.line("simultaneous runs are 'a still better approach'.")

    assert sequential < 0.62 * traditional
    assert abs(mc_sequential - sequential) / sequential < 0.15
    assert simultaneous < sequential
    report.line(f"\nratios: sequential/traditional = {sequential/traditional:.2f}, "
                f"simultaneous/traditional = {simultaneous/traditional:.2f}")

    # ablation: challenger speed in the simultaneous arrangement
    report.line("\nablation — challenger speed ratio (speed_b : speed_a):")
    rows = []
    for speed in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
        if speed == 0.0:
            cost = traditional
        else:
            cost = simultaneous_expected_cost(plan_1, plan_2, speed_a=1.0, speed_b=speed)
        rows.append([f"{speed:.2f}", f"{cost:.1f}"])
    report.table(["speed ratio", "expected cost"], rows)
    report.line("(the paper/[Ant91B]: 'proportional or equal' speeds are near-optimal)")

    # ablation: switch budget in work units of the trial plan
    report.line("\nablation — switch budget for the trial plan (c2 = 8):")
    rows = []
    for budget in (2, 4, 8, 16, 32, 64):
        cost = simultaneous_expected_cost(plan_1, plan_2, switch_point=float(budget))
        rows.append([budget, f"{cost:.1f}"])
    report.table(["budget", "expected cost"], rows)

    report.save()
    return {
        "traditional": traditional,
        "sequential": sequential,
        "simultaneous": simultaneous,
    }


def test_sec3_competition_model(benchmark):
    results = run_once(benchmark, experiment)
    assert results["sequential"] < 0.62 * results["traditional"]
    assert results["simultaneous"] < results["sequential"]
