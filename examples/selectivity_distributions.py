"""Tour of the Section 2 selectivity-distribution toolkit.

Renders (as ASCII sparklines) the transformations of Figures 2.1 and 2.2:
AND/OR chains applied to the uniform distribution under different
correlation assumptions, and the degradation of a precise bell estimate.
Also prints the truncated-hyperbola fit errors the paper quotes (1/4, 1/7,
1/23) and the Section 3 competition arithmetic they motivate.

Run:  python examples/selectivity_distributions.py
"""

import os
import sys

import numpy as np

# the Section 2 selectivity-distribution toolkit lives in benchmarks/paper/
# with the paper's other reproduced claims, not in the product package
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks")
)

from paper.distribution.density import SelectivityDistribution
from paper.distribution.hyperbola import fit_truncated_hyperbola
from paper.distribution.operators import and_c, apply_chain
from paper.distribution.shapes import classify_shape
from repro.competition.model import (
    LShapedCost,
    sequential_switch_expected_cost,
    simultaneous_expected_cost,
)

BARS = " .:-=+*#%@"


def sparkline(distribution, width=60) -> str:
    density = distribution.rebinned(width).density
    top = density.max() or 1.0
    return "".join(BARS[min(int(v / top * (len(BARS) - 1)), len(BARS) - 1)] for v in density)


def show(label: str, distribution) -> None:
    shape = classify_shape(distribution)
    print(f"{label:>12} |{sparkline(distribution)}| "
          f"median={distribution.median():.3f} {shape}")


def main() -> None:
    uniform = SelectivityDistribution.uniform(256)

    print("Figure 2.1 — transformations of the uniform distribution")
    print("(x axis: selectivity 0..1; density rendered as ASCII)\n")
    show("X", uniform)
    for chain in ("&", "&&", "&&&", "|", "||", "&|"):
        show(chain + "X", apply_chain(uniform, chain))
    print("\ncorrelation assumptions for a single AND:")
    for c in (1.0, 0.0, -0.9):
        show(f"&[c={c:+.1f}]X", and_c(uniform, uniform, c))

    print("\nFigure 2.2 — degradation of a precise estimate (bell m=0.2, e=0.005)")
    bell = SelectivityDistribution.bell(0.2, 0.005, 256)
    show("X", bell)
    for chain in ("&", "|", "||", "|||", "&&"):
        show(chain + "X", apply_chain(bell, chain, operand="self"))

    print("\nTruncated-hyperbola fit errors (paper: 1/4, 1/7, 1/23):")
    wide = SelectivityDistribution.uniform(400)
    for n in (1, 2, 3):
        fit = fit_truncated_hyperbola(apply_chain(wide, "&" * n))
        print(f"  {'&'*n}X: relative error {fit.relative_error:.4f} "
              f"(~1/{1/fit.relative_error:.1f}), b={fit.b:.4f}")

    print("\nSection 3 — why L-shapes make competition pay:")
    plan_a = LShapedCost.from_c_and_mean(c=10, mean=100)
    plan_b = LShapedCost.from_c_and_mean(c=8, mean=120)
    m2 = plan_b.conditional_mean_below(plan_b.median())
    print(f"  traditional single-plan expected cost : {plan_a.mean():8.1f}")
    sequential = sequential_switch_expected_cost(m2, plan_b.median(), plan_a.mean())
    print(f"  run-B-then-switch (m2+c2+M1)/2        : {sequential:8.1f}")
    simultaneous = simultaneous_expected_cost(plan_a, plan_b)
    print(f"  simultaneous proportional run (optimal): {simultaneous:8.1f}")

    rng = np.random.default_rng(0)
    samples = np.minimum(plan_a.sample(rng, 4000), plan_b.sample(rng, 4000) * 2 + plan_b.median())
    print(f"  (Monte-Carlo sanity: min-cost envelope mean {samples.mean():.1f})")


if __name__ == "__main__":
    main()
