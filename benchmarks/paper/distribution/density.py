"""Discrete selectivity distributions on [0, 1].

A :class:`SelectivityDistribution` stores probability *weights* on ``n``
equal bins of ``[0, 1]`` (bin centers at ``(i + 0.5)/n``). Weights sum to 1;
the density at a bin is ``weight * n``. The paper's Section 2 experiments
are "all based on numeric computations" over exactly this kind of
point/weight representation.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import ReproError

DEFAULT_BINS = 256


class DistributionError(ReproError):
    """Errors in the selectivity-distribution toolkit (Section 2)."""


class SelectivityDistribution:
    """A probability distribution of selectivity ``s`` in ``[0, 1]``."""

    __slots__ = ("weights",)

    def __init__(self, weights: np.ndarray | Iterable[float], normalize: bool = True) -> None:
        array = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                           dtype=float)
        if array.ndim != 1 or array.size < 2:
            raise DistributionError("weights must be a 1-D array with >= 2 bins")
        if np.any(array < -1e-12):
            raise DistributionError("weights must be non-negative")
        array = np.clip(array, 0.0, None)
        total = array.sum()
        if normalize:
            if total <= 0:
                raise DistributionError("weights must not all be zero")
            array = array / total
        self.weights = array

    # -- constructors ---------------------------------------------------------

    @classmethod
    def uniform(cls, bins: int = DEFAULT_BINS) -> "SelectivityDistribution":
        """Total ignorance: uniform density on [0, 1]."""
        return cls(np.full(bins, 1.0 / bins), normalize=False)

    @classmethod
    def point(cls, s: float, bins: int = DEFAULT_BINS) -> "SelectivityDistribution":
        """A (near-)certain selectivity: all mass in the bin containing ``s``."""
        if not 0.0 <= s <= 1.0:
            raise DistributionError(f"selectivity {s} outside [0, 1]")
        weights = np.zeros(bins)
        index = min(bins - 1, int(s * bins))
        weights[index] = 1.0
        return cls(weights, normalize=False)

    @classmethod
    def bell(cls, mean: float, std: float, bins: int = DEFAULT_BINS) -> "SelectivityDistribution":
        """A truncated-normal "bell" around an estimate (mean m, error e)."""
        if std <= 0:
            return cls.point(mean, bins)
        centers = (np.arange(bins) + 0.5) / bins
        weights = np.exp(-0.5 * ((centers - mean) / std) ** 2)
        return cls(weights)

    @classmethod
    def from_function(
        cls, fn: Callable[[np.ndarray], np.ndarray], bins: int = DEFAULT_BINS
    ) -> "SelectivityDistribution":
        """Build from a (not necessarily normalized) density function."""
        centers = (np.arange(bins) + 0.5) / bins
        return cls(np.clip(fn(centers), 0.0, None))

    @classmethod
    def from_samples(
        cls, samples: Iterable[float], bins: int = DEFAULT_BINS
    ) -> "SelectivityDistribution":
        """Empirical distribution from observed selectivities."""
        array = np.clip(np.asarray(list(samples), dtype=float), 0.0, 1.0)
        if array.size == 0:
            raise DistributionError("no samples")
        histogram, _ = np.histogram(array, bins=bins, range=(0.0, 1.0))
        return cls(histogram.astype(float))

    # -- basic accessors -----------------------------------------------------

    @property
    def bins(self) -> int:
        """Number of grid bins."""
        return self.weights.size

    @property
    def centers(self) -> np.ndarray:
        """Bin center coordinates."""
        return (np.arange(self.bins) + 0.5) / self.bins

    @property
    def density(self) -> np.ndarray:
        """Probability density values at bin centers."""
        return self.weights * self.bins

    # -- moments & quantiles ---------------------------------------------------

    def mean(self) -> float:
        """Expected selectivity."""
        return float(np.dot(self.weights, self.centers))

    def variance(self) -> float:
        """Variance of selectivity."""
        mean = self.mean()
        return float(np.dot(self.weights, (self.centers - mean) ** 2))

    def std(self) -> float:
        """Standard deviation ("spread" in the paper's wording)."""
        return float(np.sqrt(self.variance()))

    def skewness(self) -> float:
        """Third standardized moment (0 for symmetric shapes)."""
        std = self.std()
        if std == 0:
            return 0.0
        mean = self.mean()
        third = float(np.dot(self.weights, (self.centers - mean) ** 3))
        return third / std**3

    def cdf(self) -> np.ndarray:
        """Cumulative weights at bin right edges."""
        return np.cumsum(self.weights)

    def mass_below(self, s: float) -> float:
        """P(selectivity <= s), linear within the boundary bin."""
        if s <= 0:
            return 0.0
        if s >= 1:
            return 1.0
        position = s * self.bins
        full = int(position)
        mass = float(self.weights[:full].sum())
        if full < self.bins:
            mass += float(self.weights[full]) * (position - full)
        return mass

    def mass_above(self, s: float) -> float:
        """P(selectivity > s)."""
        return 1.0 - self.mass_below(s)

    def quantile(self, q: float) -> float:
        """Smallest s with CDF(s) >= q."""
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level {q} outside [0, 1]")
        cdf = self.cdf()
        index = int(np.searchsorted(cdf, q, side="left"))
        index = min(index, self.bins - 1)
        return float((index + 0.5) / self.bins)

    def median(self) -> float:
        """The 50% point — central to the paper's "50% of the distribution
        is concentrated in a small area around zero" observation."""
        return self.quantile(0.5)

    # -- transforms -------------------------------------------------------------

    def mirrored(self) -> "SelectivityDistribution":
        """Mirror symmetry around s = 1/2 (the NOT transformation)."""
        return SelectivityDistribution(self.weights[::-1].copy(), normalize=False)

    def rebinned(self, bins: int) -> "SelectivityDistribution":
        """Resample onto a different grid size (mass-preserving)."""
        if bins == self.bins:
            return self
        edges = np.linspace(0.0, 1.0, bins + 1)
        cdf = np.concatenate(([0.0], self.cdf()))
        own_edges = np.linspace(0.0, 1.0, self.bins + 1)
        cdf_at = np.interp(edges, own_edges, cdf)
        return SelectivityDistribution(np.diff(cdf_at))

    # -- comparison ---------------------------------------------------------------

    def total_variation_distance(self, other: "SelectivityDistribution") -> float:
        """Half the L1 distance between the two weight vectors."""
        if other.bins != self.bins:
            other = other.rebinned(self.bins)
        return float(0.5 * np.abs(self.weights - other.weights).sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SelectivityDistribution(bins={self.bins}, mean={self.mean():.4f}, "
            f"std={self.std():.4f}, median={self.median():.4f})"
        )
