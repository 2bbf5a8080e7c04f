"""Tests for truncated hyperbola construction and fitting."""

import numpy as np
import pytest

from paper.distribution import DistributionError
from paper.distribution.density import SelectivityDistribution
from paper.distribution.hyperbola import (
    fit_truncated_hyperbola,
    hyperbola_weights,
    truncated_hyperbola,
)
from paper.distribution.operators import apply_chain


def test_hyperbola_weights_normalized():
    weights = hyperbola_weights(0.1, 128)
    assert weights.sum() == pytest.approx(1.0)
    assert np.all(weights >= 0)


def test_hyperbola_weights_decreasing():
    weights = hyperbola_weights(0.05, 64)
    assert np.all(np.diff(weights) < 0)


def test_mirrored_hyperbola_increasing():
    weights = hyperbola_weights(0.05, 64, mirrored=True)
    assert np.all(np.diff(weights) > 0)


def test_smaller_b_is_more_skewed():
    sharp = truncated_hyperbola(0.01, 128)
    flat = truncated_hyperbola(10.0, 128)
    assert sharp.mass_below(0.05) > flat.mass_below(0.05)
    assert flat.total_variation_distance(SelectivityDistribution.uniform(128)) < 0.05


def test_invalid_b_rejected():
    with pytest.raises(DistributionError):
        hyperbola_weights(0.0, 64)


def test_fit_recovers_exact_hyperbola():
    target = truncated_hyperbola(0.07, 256)
    fit = fit_truncated_hyperbola(target, mirrored=False)
    assert fit.relative_error < 0.01
    assert fit.b == pytest.approx(0.07, rel=0.2)


def test_fit_detects_mirror_orientation():
    target = truncated_hyperbola(0.07, 256, mirrored=True)
    fit = fit_truncated_hyperbola(target)
    assert fit.mirrored
    assert fit.relative_error < 0.01


def test_fit_distribution_roundtrip():
    target = truncated_hyperbola(0.2, 128)
    fit = fit_truncated_hyperbola(target)
    assert fit.distribution(128).total_variation_distance(target) < 0.05


def test_paper_fit_errors_decrease_with_chain_length():
    """Section 2: hyperbolas fit &X, &&X, &&&X with errors ~1/4, 1/7, 1/23 —
    the fit improves as ANDs accumulate."""
    uniform = SelectivityDistribution.uniform(400)
    errors = [
        fit_truncated_hyperbola(apply_chain(uniform, "&" * n)).relative_error
        for n in (1, 2, 3)
    ]
    assert errors[0] > errors[1] > errors[2]
    # &X error ~ 1/4 (paper's figure); allow generous tolerance
    assert errors[0] == pytest.approx(0.25, abs=0.10)
    assert errors[1] == pytest.approx(1 / 7, abs=0.08)


def test_fit_error_formula_definition():
    """Relative error uses max|p-h| / (max p - min p)."""
    target = truncated_hyperbola(0.15, 64)
    fit = fit_truncated_hyperbola(target, mirrored=False)
    h_density = hyperbola_weights(fit.b, 64) * 64
    p_density = target.density
    spread = p_density.max() - p_density.min()
    manual = np.max(np.abs(p_density - h_density)) / spread
    assert fit.relative_error == pytest.approx(manual, rel=1e-6)
