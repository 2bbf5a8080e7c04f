"""E2 — Figure 2.2: degradation of certainty.

A precise estimate (bell with mean 0.2, error 0.005) is destroyed by
AND/OR chains under the unknown-correlation assumption. Reproduced
statements (Section 2):

(1) a single AND or OR inflates the spread to the order of the distance
    from the interval end;
(2) repeated ORing spreads the bell toward the center, roughly doubling
    the spread each time, until further operators produce an L-shape;
(3) AND/OR-disbalanced chains produce L-shapes of growing skewness.
"""

from _util import Report, run_once

from paper.distribution.density import SelectivityDistribution
from paper.distribution.operators import apply_chain
from paper.distribution.shapes import classify_shape

MEAN, ERROR, BINS = 0.2, 0.005, 256


def experiment() -> dict:
    report = Report("fig2_2", "Figure 2.2 — degradation of certainty (bell m=0.2, e=0.005)")
    bell = SelectivityDistribution.bell(MEAN, ERROR, BINS)

    rows = []
    tracked = {}
    chains = ("", "&", "|", "||", "|||", "||||", "&&", "&&&", "|||&")
    for chain in chains:
        dist = apply_chain(bell, chain, operand="self") if chain else bell
        tracked[chain] = dist
        rows.append([
            (chain + "X") if chain else "X",
            f"{dist.mean():.3f}",
            f"{dist.std():.4f}",
            f"{dist.mass_below(0.05):.3f}",
            f"{dist.mass_above(0.95):.3f}",
            classify_shape(dist),
        ])
    report.line("\nchains applied with operand='self' (recursive unary reading):")
    report.table(["chain", "mean", "std", "mass<=.05", "mass>=.95", "shape"], rows)

    # statement (1): one operator inflates spread to the order of the
    # distance from the end (0.2), i.e. by more than an order of magnitude
    inflation_and = tracked["&"].std() / ERROR
    inflation_or = tracked["|"].std() / ERROR
    report.line(f"\n(1) spread inflation by one operator: &X x{inflation_and:.0f}, "
                f"|X x{inflation_or:.0f} (start e=0.005, distance-to-end=0.2)")
    assert inflation_and > 5 and inflation_or > 5

    # statement (2): ORing repeatedly roughly doubles the spread until the
    # bell reaches the center
    doubling = tracked["||"].std() / tracked["|"].std()
    report.line(f"(2) second OR multiplies the spread by {doubling:.2f} (~2 expected)")
    assert 1.4 < doubling < 3.0

    # statement (3): repeated same-side operators give L-shapes of growing skew
    and_masses = [tracked["&&"].mass_below(0.05), tracked["&&&"].mass_below(0.05)]
    report.line(f"(3) &&X / &&&X mass near zero: {and_masses[0]:.3f} -> {and_masses[1]:.3f}")
    assert and_masses[1] > and_masses[0] > 0.5
    or_shape = classify_shape(tracked["||||"])
    report.line(f"    ||||X classifies as {or_shape} (paper: L-shape after the bell")
    report.line("    reaches the interval end)")

    report.line("\nassertions (1)-(3) hold")
    report.save()
    return {"inflation": inflation_and, "doubling": doubling}


def test_fig2_2_certainty_degradation(benchmark):
    results = run_once(benchmark, experiment)
    assert results["inflation"] > 5
