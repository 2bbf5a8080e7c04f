"""Tests for B+-tree sampling (Olken acceptance/rejection and pseudo-ranked)."""

import random

import pytest

from paper.sampling import (
    acceptance_rejection_sample,
    pseudo_ranked_sample,
    selectivity_from_sample,
)
from repro.btree.tree import BTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.rid import make_rid


def make_tree(n, order=8):
    tree = BTree(BufferPool(Pager(), 512), "ix", order=order)
    for i in range(n):
        tree.insert(i, make_rid(i, 0))
    return tree


def test_empty_tree_samples_nothing():
    tree = make_tree(0)
    rng = random.Random(1)
    assert acceptance_rejection_sample(tree, 5, rng).entries == []
    assert pseudo_ranked_sample(tree, 5, rng).entries == []


def test_acceptance_rejection_yields_requested_size():
    tree = make_tree(500)
    result = acceptance_rejection_sample(tree, 30, random.Random(2))
    assert len(result.entries) == 30
    assert all(weight == 1.0 for weight in result.weights)
    assert result.walks >= 30


def test_acceptance_rejection_respects_walk_budget():
    tree = make_tree(500)
    result = acceptance_rejection_sample(tree, 1000, random.Random(3), max_walks=50)
    assert result.walks <= 50


def test_pseudo_ranked_never_rejects():
    tree = make_tree(500)
    result = pseudo_ranked_sample(tree, 40, random.Random(4))
    assert result.rejections == 0
    assert len(result.entries) == 40
    assert result.walks == 40  # every walk yields a sample on a packed tree


def test_pseudo_ranked_more_walk_efficient():
    tree = make_tree(800, order=16)
    rng_a, rng_b = random.Random(5), random.Random(5)
    olken = acceptance_rejection_sample(tree, 25, rng_a)
    ranked = pseudo_ranked_sample(tree, 25, rng_b)
    assert ranked.walks <= olken.walks
    assert ranked.acceptance_rate >= olken.acceptance_rate


def test_selectivity_estimate_uniform():
    tree = make_tree(1000)
    result = pseudo_ranked_sample(tree, 400, random.Random(6))
    # true selectivity of key < 300 is 0.3
    estimate = selectivity_from_sample(result, lambda key: key[0] < 300)
    assert estimate == pytest.approx(0.3, abs=0.12)


def test_selectivity_estimate_olken():
    tree = make_tree(1000)
    result = acceptance_rejection_sample(tree, 200, random.Random(7))
    estimate = selectivity_from_sample(result, lambda key: key[0] < 500)
    assert estimate == pytest.approx(0.5, abs=0.15)


def test_selectivity_handles_arbitrary_predicates():
    tree = make_tree(600)
    result = pseudo_ranked_sample(tree, 300, random.Random(8))
    # a predicate no range scan could express: key divisible by 3
    estimate = selectivity_from_sample(result, lambda key: key[0] % 3 == 0)
    assert estimate == pytest.approx(1 / 3, abs=0.12)


def test_selectivity_of_empty_sample():
    tree = make_tree(0)
    result = pseudo_ranked_sample(tree, 10, random.Random(9))
    assert selectivity_from_sample(result, lambda key: True) == 0.0


def test_samples_are_valid_entries():
    tree = make_tree(200)
    result = pseudo_ranked_sample(tree, 50, random.Random(10))
    valid = set(tree.entries())
    assert all(entry in valid for entry in result.entries)
