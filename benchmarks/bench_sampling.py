"""E11 — Section 5's sampling hook: pseudo-ranked vs acceptance/rejection.

The paper points past descent estimation toward B+-tree sampling and cites
[Ant92] as "significantly superseding" the Olken/Rotem acceptance/rejection
method [OlRo89]. Reproduced: on trees with uneven fanouts, the pseudo-ranked
sampler needs far fewer root-to-leaf walks per useful sample while keeping
estimates unbiased, including for predicates no range scan can express.
"""

import random

import numpy as np

from _util import Report, run_once

from paper.sampling import (
    acceptance_rejection_sample,
    pseudo_ranked_sample,
    selectivity_from_sample,
)
from repro.btree.tree import BTree
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.pager import Pager
from repro.storage.rid import make_rid

SAMPLE = 200


def build_tree(n=20_000, order=32) -> BTree:
    tree = BTree(BufferPool(Pager(), 8192), "ix", order=order)
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 1_000_000, size=n)
    for i, key in enumerate(keys):
        tree.insert(int(key), make_rid(i, 0))
    return tree


def experiment() -> dict:
    report = Report("sampling", "Section 5 — random sampling from B+-trees")
    tree = build_tree()
    report.line(f"\ntree: {tree.entry_count} entries, height {tree.height}, "
                f"order {tree.order}")

    rows = []
    stats = {}
    for label, sampler in (
        ("acceptance/rejection [OlRo89]", acceptance_rejection_sample),
        ("pseudo-ranked [Ant92]", pseudo_ranked_sample),
    ):
        rng = random.Random(23)
        tree.buffer_pool.clear()
        meter = CostMeter()
        result = sampler(tree, SAMPLE, rng, meter)
        # estimate a range selectivity and an arithmetic predicate
        range_est = selectivity_from_sample(result, lambda key: key[0] < 250_000)
        mod_est = selectivity_from_sample(result, lambda key: key[0] % 2 == 0)
        stats[label] = {
            "walks": result.walks,
            "range": range_est,
        }
        rows.append([
            label, len(result.entries), result.walks,
            f"{result.acceptance_rate:.2f}",
            f"{range_est:.3f}", f"{mod_est:.3f}",
        ])
    report.line()
    report.table(
        ["method", "samples", "walks", "accept rate", "P(k<250k) est (true .25)",
         "P(even) est (true .50)"],
        rows,
    )
    olken = stats["acceptance/rejection [OlRo89]"]
    ranked = stats["pseudo-ranked [Ant92]"]
    report.line(f"\nwalks per sample: Olken {olken['walks'] / SAMPLE:.1f}, "
                f"pseudo-ranked {ranked['walks'] / SAMPLE:.1f}")
    report.line("(every pseudo-ranked walk contributes — cheap enough for 'heavy")
    report.line(" usage within the dynamic optimization framework')")
    assert ranked["walks"] <= olken["walks"]
    assert abs(ranked["range"] - 0.25) < 0.1

    # repeatability across seeds: estimator stays near truth
    errors = []
    for seed in range(10):
        result = pseudo_ranked_sample(tree, SAMPLE, random.Random(seed))
        errors.append(abs(selectivity_from_sample(result, lambda k: k[0] < 250_000) - 0.25))
    report.line(f"\npseudo-ranked error over 10 seeds: mean {np.mean(errors):.3f}, "
                f"max {np.max(errors):.3f}")
    report.save()
    return {"olken_walks": olken["walks"], "ranked_walks": ranked["walks"]}


def test_sampling_methods(benchmark):
    results = run_once(benchmark, experiment)
    assert results["ranked_walks"] <= results["olken_walks"]
