"""Shape metrics and classification of selectivity distributions.

Quantifies the paper's qualitative vocabulary: L-shapes ("50% of the
distribution in a small area around zero"), right-concentrated mirror
L-shapes, bells, and near-uniform shapes. The benchmarks use these metrics
to turn Figures 2.1/2.2 into checkable numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.distribution.density import SelectivityDistribution
from paper.distribution.hyperbola import fit_truncated_hyperbola


@dataclass(frozen=True)
class ShapeMetrics:
    """Summary statistics of a selectivity distribution."""

    mean: float
    std: float
    median: float
    skewness: float
    #: probability mass in [0, 0.05] — the "small area around zero"
    mass_near_zero: float
    #: probability mass in [0.95, 1]
    mass_near_one: float
    #: best truncated-hyperbola relative error (paper's fit metric)
    hyperbola_error: float
    #: fitted hyperbola offset b (small = sharply skewed)
    hyperbola_b: float
    #: True when the best hyperbola is right-concentrated
    hyperbola_mirrored: bool


#: thresholds used by :func:`classify_shape`
_NEAR_ZERO = 0.05
_L_SHAPE_MASS = 0.35
_UNIFORM_TV = 0.08
_BELL_STD = 0.12


def shape_metrics(p: SelectivityDistribution) -> ShapeMetrics:
    """Compute all shape metrics for ``p``."""
    fit = fit_truncated_hyperbola(p)
    return ShapeMetrics(
        mean=p.mean(),
        std=p.std(),
        median=p.median(),
        skewness=p.skewness(),
        mass_near_zero=p.mass_below(_NEAR_ZERO),
        mass_near_one=p.mass_above(1.0 - _NEAR_ZERO),
        hyperbola_error=fit.relative_error,
        hyperbola_b=fit.b,
        hyperbola_mirrored=fit.mirrored,
    )


def classify_shape(p: SelectivityDistribution) -> str:
    """Label a distribution: ``l-shape-left``, ``l-shape-right``, ``bell``,
    ``uniform``, or ``spread``.

    The labels mirror the paper's taxonomy; boundaries are necessarily
    conventional and documented by the module constants.
    """
    uniform = SelectivityDistribution.uniform(p.bins)
    if p.total_variation_distance(uniform) < _UNIFORM_TV:
        return "uniform"
    mass_zero = p.mass_below(_NEAR_ZERO)
    mass_one = p.mass_above(1.0 - _NEAR_ZERO)
    if mass_zero >= _L_SHAPE_MASS and mass_zero > 2 * mass_one:
        return "l-shape-left"
    if mass_one >= _L_SHAPE_MASS and mass_one > 2 * mass_zero:
        return "l-shape-right"
    if p.std() < _BELL_STD:
        return "bell"
    return "spread"


def half_mass_width(p: SelectivityDistribution, from_left: bool = True) -> float:
    """Width of the smallest interval anchored at an end holding 50% mass.

    For an L-shape at zero this is the ``c`` of the paper's Section 3 cost
    model: "50% probability concentrated in small cost regions [0, c]".
    """
    if from_left:
        return p.quantile(0.5)
    return 1.0 - p.quantile(0.5)
