"""Selectivity-distribution toolkit (Section 2 of the paper).

Knowledge about a predicate's selectivity is a probability density on
``[0, 1]``. This package models such densities on a discrete grid
(:mod:`paper.distribution.density`), transforms them through AND / OR / NOT
/ JOIN under arbitrary correlation assumptions including the "unknown
correlation" mixture (:mod:`paper.distribution.operators`), fits truncated
hyperbolas (:mod:`paper.distribution.hyperbola`), and measures/classifies
shapes — L-shape, bell, uniform (:mod:`paper.distribution.shapes`).
"""

from paper.distribution.density import DistributionError, SelectivityDistribution
from paper.distribution.hyperbola import HyperbolaFit, fit_truncated_hyperbola
from paper.distribution.operators import (
    and_c,
    and_unknown,
    apply_chain,
    join_c,
    join_unknown,
    negate,
    or_c,
    or_unknown,
)
from paper.distribution.shapes import ShapeMetrics, classify_shape, shape_metrics

__all__ = [
    "DistributionError",
    "SelectivityDistribution",
    "HyperbolaFit",
    "fit_truncated_hyperbola",
    "and_c",
    "and_unknown",
    "apply_chain",
    "join_c",
    "join_unknown",
    "negate",
    "or_c",
    "or_unknown",
    "ShapeMetrics",
    "classify_shape",
    "shape_metrics",
]
