"""E17 — Section 1's premise: estimation error explodes with join count.

    "Ioannidis and Christodoulakis [IoCh91] demonstrated that the
    cardinality error of n-way join grows exponentially with n even if we
    have good estimates of the number of records delivered by the table
    scans."

Reproduced at the distribution level with the Section 2 toolkit: start
from precise per-table estimates (tight bells), chain JOIN transformations
under the unknown-correlation assumption, and track how the relative
uncertainty of the result grows with n — and how quickly the distribution
degenerates to the L-shape family that motivates competition.
"""

from _util import Report, run_once

from paper.distribution.density import SelectivityDistribution
from paper.distribution.hyperbola import fit_truncated_hyperbola
from paper.distribution.operators import join_unknown
from paper.distribution.shapes import classify_shape


def experiment() -> dict:
    report = Report("error_propagation", "Section 1 — error growth with join count")
    base = SelectivityDistribution.bell(0.3, 0.01, 320)
    report.line("\nper-table estimate: bell mean 0.30, error 0.01 (a *good* estimate)")
    report.line("join chain under the unknown-correlation assumption:\n")

    rows = []
    spreads = []
    result = base
    for n in range(0, 6):
        if n > 0:
            result = join_unknown(result, base)
        mean = result.mean()
        std = result.std()
        relative = std / mean if mean > 0 else float("inf")
        fit = fit_truncated_hyperbola(result)
        spreads.append(relative)
        rows.append([
            n, f"{mean:.4f}", f"{std:.4f}", f"{relative:.2f}",
            classify_shape(result), f"{fit.relative_error:.3f}",
        ])
    report.table(
        ["joins", "mean", "std", "relative error", "shape", "hyperbola fit err"],
        rows,
    )

    growth = [spreads[i + 1] / max(spreads[i], 1e-9) for i in range(len(spreads) - 1)]
    report.line(f"\nrelative-error growth factors per join: "
                + ", ".join(f"{g:.1f}x" for g in growth))
    report.line("the first join alone multiplies the relative error by "
                f"{growth[0]:.0f}x; by n=3 the distribution is "
                f"{classify_shape(join_unknown(join_unknown(join_unknown(base, base), base), base))},")
    report.line("i.e. Zipf-like — 'the traditional compile-time optimizers are")
    report.line("largely indiscriminating in choosing an execution plan'.")

    assert spreads[1] > 5 * spreads[0]   # one join nukes the precision
    assert all(later >= earlier * 0.9 for earlier, later in zip(spreads, spreads[1:]))
    report.save()
    return {"spreads": spreads}


def test_error_propagation(benchmark):
    results = run_once(benchmark, experiment)
    assert results["spreads"][1] > 5 * results["spreads"][0]
