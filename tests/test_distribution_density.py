"""Tests for the selectivity-distribution grid representation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paper.distribution import DistributionError
from paper.distribution.density import SelectivityDistribution


def test_uniform_moments():
    uniform = SelectivityDistribution.uniform(256)
    assert uniform.mean() == pytest.approx(0.5, abs=1e-6)
    assert uniform.std() == pytest.approx(1 / np.sqrt(12), abs=0.01)
    assert uniform.median() == pytest.approx(0.5, abs=0.01)
    assert uniform.skewness() == pytest.approx(0.0, abs=1e-6)


def test_point_distribution():
    point = SelectivityDistribution.point(0.3, 100)
    assert point.mean() == pytest.approx(0.3, abs=0.01)
    assert point.std() == pytest.approx(0.0, abs=1e-9)


def test_point_outside_unit_interval_rejected():
    with pytest.raises(DistributionError):
        SelectivityDistribution.point(1.5)


def test_bell_centered_on_mean():
    bell = SelectivityDistribution.bell(0.2, 0.02, 256)
    assert bell.mean() == pytest.approx(0.2, abs=0.01)
    assert bell.std() == pytest.approx(0.02, abs=0.01)


def test_bell_with_zero_std_is_point():
    bell = SelectivityDistribution.bell(0.4, 0.0)
    assert bell.std() == pytest.approx(0.0, abs=1e-9)


def test_weights_normalized():
    dist = SelectivityDistribution([1.0, 2.0, 3.0, 4.0])
    assert dist.weights.sum() == pytest.approx(1.0)


def test_negative_weights_rejected():
    with pytest.raises(DistributionError):
        SelectivityDistribution([0.5, -0.5, 1.0])


def test_all_zero_weights_rejected():
    with pytest.raises(DistributionError):
        SelectivityDistribution([0.0, 0.0])


def test_from_samples():
    dist = SelectivityDistribution.from_samples([0.1] * 90 + [0.9] * 10, bins=10)
    assert dist.mass_below(0.2) == pytest.approx(0.9, abs=0.05)


def test_from_function():
    dist = SelectivityDistribution.from_function(lambda s: 2 * (1 - s), bins=200)
    assert dist.mean() == pytest.approx(1 / 3, abs=0.01)


def test_mass_below_edges():
    uniform = SelectivityDistribution.uniform(100)
    assert uniform.mass_below(0.0) == 0.0
    assert uniform.mass_below(1.0) == 1.0
    assert uniform.mass_below(0.25) == pytest.approx(0.25, abs=0.01)
    assert uniform.mass_above(0.25) == pytest.approx(0.75, abs=0.01)


def test_quantile_median_consistency():
    dist = SelectivityDistribution.bell(0.6, 0.05)
    assert dist.quantile(0.5) == pytest.approx(dist.median())
    assert dist.quantile(0.0) <= dist.quantile(1.0)


def test_quantile_out_of_range():
    with pytest.raises(DistributionError):
        SelectivityDistribution.uniform().quantile(1.5)


def test_mirrored_reverses_mean():
    bell = SelectivityDistribution.bell(0.2, 0.05)
    assert bell.mirrored().mean() == pytest.approx(0.8, abs=0.01)


def test_mirrored_is_involution():
    bell = SelectivityDistribution.bell(0.3, 0.07)
    assert np.allclose(bell.mirrored().mirrored().weights, bell.weights)


def test_rebinned_preserves_mass_and_mean():
    dist = SelectivityDistribution.bell(0.35, 0.1, 256)
    coarse = dist.rebinned(64)
    assert coarse.weights.sum() == pytest.approx(1.0)
    assert coarse.mean() == pytest.approx(dist.mean(), abs=0.01)


def test_rebinned_same_size_is_identity():
    dist = SelectivityDistribution.uniform(64)
    assert dist.rebinned(64) is dist


def test_total_variation_distance():
    uniform = SelectivityDistribution.uniform(128)
    assert uniform.total_variation_distance(uniform) == pytest.approx(0.0)
    point = SelectivityDistribution.point(0.1, 128)
    assert uniform.total_variation_distance(point) > 0.9


@given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.005, max_value=0.2))
@settings(max_examples=40)
def test_bell_mass_sums_to_one(mean, std):
    bell = SelectivityDistribution.bell(mean, std)
    assert bell.weights.sum() == pytest.approx(1.0)
    assert 0.0 <= bell.mean() <= 1.0
