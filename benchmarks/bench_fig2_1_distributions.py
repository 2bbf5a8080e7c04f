"""E1 + E3 — Figure 2.1: AND/OR transformations of the uniform distribution.

Paper claims reproduced here:

* AND chains concentrate ~50% of the mass near zero; OR chains mirror this
  at one (claims (B)/(C) of Section 1).
* Skewness grows with chain length and with falling correlation.
* A balanced AND/OR mix restores a near-uniform shape.
* Truncated hyperbolas fit &X / &&X / &&&X with relative errors about
  1/4, 1/7, 1/23, improving with chain length (Section 2 text).
"""

from _util import Report, run_once

from paper.distribution.density import SelectivityDistribution
from paper.distribution.hyperbola import fit_truncated_hyperbola
from paper.distribution.operators import and_c, apply_chain
from paper.distribution.shapes import classify_shape, shape_metrics

BINS = 400


def _row(label, dist):
    metrics = shape_metrics(dist)
    return [
        label,
        f"{metrics.median:.3f}",
        f"{metrics.mass_near_zero:.3f}",
        f"{metrics.mass_near_one:.3f}",
        f"{metrics.std:.3f}",
        classify_shape(dist),
    ]


def experiment() -> dict:
    report = Report("fig2_1", "Figure 2.1 — transformations of the uniform distribution")
    uniform = SelectivityDistribution.uniform(BINS)

    rows = [_row("X (uniform)", uniform)]
    for chain in ("&", "&&", "&&&", "|", "||", "|||", "&|", "&&||"):
        rows.append(_row(chain + "X", apply_chain(uniform, chain)))
    report.line("\nAND/OR chains under the unknown-correlation assumption:")
    report.table(["chain", "median", "mass<=.05", "mass>=.95", "std", "shape"], rows)

    report.line("\nsingle AND under explicit correlation assumptions:")
    rows = [
        _row(f"&[c={c:+.1f}]X", and_c(uniform, uniform, c))
        for c in (1.0, 0.5, 0.0, -0.5, -0.9, -1.0)
    ]
    report.table(["corr", "median", "mass<=.05", "mass>=.95", "std", "shape"], rows)
    report.line("\npaper: skew increases 'upon correlation decrease, and upon")
    report.line("adding more operators of the same kind'; '&|' restores symmetry.")

    report.line("\nE3 — truncated-hyperbola fit errors (paper: 1/4, 1/7, 1/23):")
    fits = []
    checks = {}
    for n, paper in ((1, "1/4"), (2, "1/7"), (3, "1/23")):
        fit = fit_truncated_hyperbola(apply_chain(uniform, "&" * n))
        checks[n] = fit.relative_error
        fits.append([
            "&" * n + "X", paper,
            f"{fit.relative_error:.4f} (~1/{1/fit.relative_error:.1f})",
            f"{fit.b:.4f}",
        ])
    report.table(["chain", "paper error", "measured error", "fitted b"], fits)

    # headline assertions
    anded = apply_chain(uniform, "&&")
    assert anded.mass_below(0.1) >= 0.5, "claim (B): half mass near zero"
    orred = apply_chain(uniform, "||")
    assert orred.mass_above(0.9) >= 0.5, "claim (C): mirror concentration"
    assert checks[1] > checks[2] > checks[3], "fit error falls with chain length"
    mixed = apply_chain(uniform, "&|", operand="self")
    assert mixed.total_variation_distance(uniform) < 0.2, "balanced mix ~ uniform"

    report.line("\nassertions: (B) mass<=0.1 of &&X >= 0.5; (C) mirror for ||X;")
    report.line("fit error decreases with chain length; '&|' near-uniform  [all hold]")
    report.save()
    return checks


def test_fig2_1_distribution_shapes(benchmark):
    checks = run_once(benchmark, experiment)
    assert checks[1] > checks[2] > checks[3]
