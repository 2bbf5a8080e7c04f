"""Tests for AND/OR/NOT/JOIN distribution transformations (Section 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paper.distribution import DistributionError
from paper.distribution.density import SelectivityDistribution
from paper.distribution.operators import (
    and_c,
    and_unknown,
    apply_chain,
    join_unknown,
    negate,
    or_c,
    or_unknown,
)

U = SelectivityDistribution.uniform(128)


def test_negate_is_mirror():
    bell = SelectivityDistribution.bell(0.2, 0.05, 128)
    assert negate(bell).mean() == pytest.approx(0.8, abs=0.01)


def test_and_independent_of_points():
    px = SelectivityDistribution.point(0.5, 128)
    py = SelectivityDistribution.point(0.4, 128)
    result = and_c(px, py, 0.0)
    assert result.mean() == pytest.approx(0.2, abs=0.01)


def test_and_plus_one_correlation_is_min():
    px = SelectivityDistribution.point(0.5, 256)
    py = SelectivityDistribution.point(0.3, 256)
    assert and_c(px, py, +1.0).mean() == pytest.approx(0.3, abs=0.01)


def test_and_minus_one_correlation_is_max_overlap():
    px = SelectivityDistribution.point(0.7, 256)
    py = SelectivityDistribution.point(0.6, 256)
    # max(0, 0.7 + 0.6 - 1) = 0.3
    assert and_c(px, py, -1.0).mean() == pytest.approx(0.3, abs=0.01)


def test_and_minus_one_disjoint_when_small():
    px = SelectivityDistribution.point(0.2, 256)
    py = SelectivityDistribution.point(0.3, 256)
    assert and_c(px, py, -1.0).mean() == pytest.approx(0.0, abs=0.01)


def test_intermediate_correlation_interpolates():
    px = SelectivityDistribution.point(0.5, 256)
    py = SelectivityDistribution.point(0.5, 256)
    at_zero = and_c(px, py, 0.0).mean()
    at_half = and_c(px, py, 0.5).mean()
    at_one = and_c(px, py, 1.0).mean()
    assert at_zero < at_half < at_one


def test_or_of_points_independent():
    px = SelectivityDistribution.point(0.5, 128)
    py = SelectivityDistribution.point(0.4, 128)
    # 1 - (1-0.5)(1-0.4) = 0.7
    assert or_c(px, py, 0.0).mean() == pytest.approx(0.7, abs=0.01)


def test_or_is_de_morgan_dual_of_and():
    bell = SelectivityDistribution.bell(0.3, 0.08, 128)
    direct = or_c(bell, bell, 0.0)
    dual = negate(and_c(negate(bell), negate(bell), 0.0))
    assert direct.total_variation_distance(dual) < 1e-9


def test_unknown_correlation_is_mixture():
    bell = SelectivityDistribution.bell(0.4, 0.05, 128)
    unknown = and_unknown(bell, bell)
    low = and_c(bell, bell, -1.0)
    high = and_c(bell, bell, +1.0)
    assert low.mean() - 0.01 <= unknown.mean() <= high.mean() + 0.01
    # mixture is wider than any single-correlation result at the extremes
    assert unknown.std() >= and_c(bell, bell, 0.0).std() - 0.01


def test_join_unknown_aliases_and():
    bell = SelectivityDistribution.bell(0.4, 0.05, 128)
    assert join_unknown(bell, bell).total_variation_distance(and_unknown(bell, bell)) < 1e-12


def test_invalid_correlation_rejected():
    with pytest.raises(DistributionError):
        and_c(U, U, 1.5)


def test_result_is_normalized():
    result = and_unknown(U, U)
    assert result.weights.sum() == pytest.approx(1.0)


def test_anding_uniform_skews_left():
    result = apply_chain(U, "&")
    assert result.mean() < U.mean()
    assert result.median() < 0.25


def test_oring_uniform_skews_right():
    result = apply_chain(U, "|")
    assert result.mean() > U.mean()
    assert result.median() > 0.75


def test_and_or_mirror_symmetry_on_uniform():
    anded = apply_chain(U, "&")
    orred = apply_chain(U, "|")
    assert anded.total_variation_distance(orred.mirrored()) < 0.01


def test_more_ands_more_skew():
    masses = [apply_chain(U, "&" * n).mass_below(0.05) for n in (1, 2, 3)]
    assert masses[0] < masses[1] < masses[2]


def test_lower_correlation_increases_skew():
    skew_high = and_c(U, U, 0.9).mass_below(0.05)
    skew_zero = and_c(U, U, 0.0).mass_below(0.05)
    skew_low = and_c(U, U, -0.9).mass_below(0.05)
    assert skew_high <= skew_zero <= skew_low


def test_balanced_and_or_mix_restores_near_uniform():
    mixed = apply_chain(U, "&|", operand="self")
    assert mixed.total_variation_distance(U) < 0.2


def test_chain_self_mode_grows_faster():
    original = apply_chain(U, "&&", operand="original")
    self_mode = apply_chain(U, "&&", operand="self")
    assert self_mode.mass_below(0.05) > original.mass_below(0.05)


def test_chain_negation_operator():
    result = apply_chain(U, "&~")
    assert result.total_variation_distance(apply_chain(U, "&").mirrored()) < 1e-9


def test_chain_invalid_operator():
    with pytest.raises(DistributionError):
        apply_chain(U, "x")
    with pytest.raises(DistributionError):
        apply_chain(U, "&", operand="bogus")


def test_statement_1_single_and_nullifies_relative_precision():
    """Paper statement (1): one AND/OR makes the spread the same order as
    the distance from the interval end."""
    bell = SelectivityDistribution.bell(0.2, 0.005, 256)
    anded = apply_chain(bell, "&")
    assert anded.std() > 5 * bell.std()
    orred = apply_chain(bell, "|")
    assert orred.std() > 5 * bell.std()


def test_statement_3_disbalance_produces_l_shapes():
    """Paper statement (3): disbalanced chains give L-shapes whose skew
    grows with disbalance."""
    bell = SelectivityDistribution.bell(0.2, 0.01, 256)
    two = apply_chain(bell, "&&")
    four = apply_chain(bell, "&&&&")
    assert two.mass_below(0.05) > 0.4
    assert four.mass_below(0.05) > two.mass_below(0.05)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.01, max_value=0.2),
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
)
@settings(max_examples=30, deadline=None)
def test_and_mean_never_exceeds_operand_means(mean, std, correlation):
    bell = SelectivityDistribution.bell(mean, std, 64)
    result = and_c(bell, bell, correlation)
    assert result.mean() <= bell.mean() + 0.02
    assert result.weights.sum() == pytest.approx(1.0)


@given(st.sampled_from(["&", "|", "&|", "||", "&&"]))
@settings(max_examples=20, deadline=None)
def test_chains_always_normalized(chain):
    result = apply_chain(SelectivityDistribution.uniform(64), chain)
    assert result.weights.sum() == pytest.approx(1.0)
    assert float(result.weights.min()) >= 0.0
