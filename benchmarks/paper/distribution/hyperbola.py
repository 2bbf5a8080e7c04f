"""Truncated hyperbola model and fitting.

Section 2: "All asymmetrical transformations of uniform distribution are
well approximated (but not fully matched) by truncated hyperbolas. For
instance, truncated hyperbolas fit &X with relative error 1/4, &&X with
error 1/7, &&&X with error 1/23."

The model is the family ``h(s) = a / (s + b)`` on ``[0, 1]`` (optionally
mirrored for OR-dominant, right-concentrated shapes), with ``a`` fixed by
normalization and ``b > 0`` controlling skewness (small ``b`` = sharp
L-shape). The paper's relative error of a fit ``h`` to a density ``p`` is

    ``max_s |p(s) - h(s)| / (max_s p(s) - min_s p(s))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from paper.distribution.density import DistributionError, SelectivityDistribution


@dataclass(frozen=True)
class HyperbolaFit:
    """A fitted truncated hyperbola."""

    #: scale parameter (normalization constant)
    a: float
    #: offset parameter; skewness grows as b -> 0
    b: float
    #: True when the hyperbola is mirrored (mass concentrated near s = 1)
    mirrored: bool
    #: the paper's relative error of the fit
    relative_error: float

    def density(self, bins: int) -> np.ndarray:
        """Evaluate the fitted density on a grid of ``bins`` bin centers."""
        centers = (np.arange(bins) + 0.5) / bins
        s = 1.0 - centers if self.mirrored else centers
        return self.a / (s + self.b)

    def distribution(self, bins: int = 256) -> SelectivityDistribution:
        """The fitted hyperbola as a distribution object."""
        return SelectivityDistribution(self.density(bins))


def hyperbola_weights(b: float, bins: int, mirrored: bool = False) -> np.ndarray:
    """Normalized bin weights of the truncated hyperbola with offset ``b``."""
    if b <= 0:
        raise DistributionError("hyperbola offset b must be positive")
    edges = np.linspace(0.0, 1.0, bins + 1)
    # integral of 1/(s+b) over each bin, exactly
    mass = np.log((edges[1:] + b) / (edges[:-1] + b))
    weights = mass / np.log((1.0 + b) / b)
    if mirrored:
        weights = weights[::-1]
    return weights


def truncated_hyperbola(
    b: float, bins: int = 256, mirrored: bool = False
) -> SelectivityDistribution:
    """Construct the truncated-hyperbola distribution directly."""
    return SelectivityDistribution(hyperbola_weights(b, bins, mirrored), normalize=False)


def _relative_error(p_density: np.ndarray, h_density: np.ndarray) -> float:
    spread = p_density.max() - p_density.min()
    if spread <= 0:
        # a flat density: relative error is 0 iff the fit is flat too
        return float(np.max(np.abs(p_density - h_density)))
    return float(np.max(np.abs(p_density - h_density)) / spread)


def fit_truncated_hyperbola(
    p: SelectivityDistribution, mirrored: bool | None = None
) -> HyperbolaFit:
    """Fit ``a / (s + b)`` to a distribution, minimizing the paper's
    minimax relative error over ``b`` (and the mirror orientation when
    ``mirrored`` is None)."""
    orientations = [mirrored] if mirrored is not None else [False, True]
    best: HyperbolaFit | None = None
    p_density = p.density
    bins = p.bins
    for orient in orientations:

        def error_for(log_b: float, orient=orient) -> float:
            b = float(np.exp(log_b))
            # compare bin-averaged densities (exact hyperbola bin integrals),
            # which stays meaningful for spiky, near-singular L-shapes
            h_density = hyperbola_weights(b, bins, orient) * bins
            return _relative_error(p_density, h_density)

        result = optimize.minimize_scalar(
            error_for, bounds=(np.log(1e-6), np.log(1e3)), method="bounded",
            options={"xatol": 1e-4},
        )
        b = float(np.exp(result.x))
        a = 1.0 / np.log((1.0 + b) / b)
        fit = HyperbolaFit(
            a=a, b=b, mirrored=bool(orient),
            relative_error=error_for(result.x),
        )
        if best is None or fit.relative_error < best.relative_error:
            best = fit
    assert best is not None
    return best
