"""Tests for shape metrics and classification."""

import pytest

from paper.distribution.density import SelectivityDistribution
from paper.distribution.hyperbola import truncated_hyperbola
from paper.distribution.operators import apply_chain
from paper.distribution.shapes import classify_shape, half_mass_width, shape_metrics


def test_uniform_classified_uniform():
    assert classify_shape(SelectivityDistribution.uniform(128)) == "uniform"


def test_bell_classified_bell():
    assert classify_shape(SelectivityDistribution.bell(0.5, 0.05, 128)) == "bell"


def test_sharp_hyperbola_is_l_shape_left():
    assert classify_shape(truncated_hyperbola(0.005, 128)) == "l-shape-left"


def test_mirrored_hyperbola_is_l_shape_right():
    assert classify_shape(truncated_hyperbola(0.005, 128, mirrored=True)) == "l-shape-right"


def test_and_chain_becomes_l_shape():
    uniform = SelectivityDistribution.uniform(128)
    assert classify_shape(apply_chain(uniform, "&&")) == "l-shape-left"


def test_or_chain_becomes_l_shape_right():
    uniform = SelectivityDistribution.uniform(128)
    assert classify_shape(apply_chain(uniform, "||")) == "l-shape-right"


def test_metrics_fields_consistent():
    dist = apply_chain(SelectivityDistribution.uniform(128), "&&")
    metrics = shape_metrics(dist)
    assert metrics.mass_near_zero == pytest.approx(dist.mass_below(0.05))
    assert metrics.median == pytest.approx(dist.median())
    assert 0 <= metrics.hyperbola_error <= 1
    assert not metrics.hyperbola_mirrored


def test_half_mass_width_of_l_shape():
    sharp = truncated_hyperbola(0.01, 256)
    width = half_mass_width(sharp)
    # half the mass sits well inside the left tenth
    assert width < 0.1
    assert half_mass_width(sharp.mirrored(), from_left=False) < 0.1


def test_half_mass_width_of_uniform():
    assert half_mass_width(SelectivityDistribution.uniform(128)) == pytest.approx(0.5, abs=0.01)
