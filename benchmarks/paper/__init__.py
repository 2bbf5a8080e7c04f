"""The paper's models and comparators — reproduced claims, not the product.

The engine in ``src/repro`` never imports this package. It holds what the
figure and section benchmarks (``benchmarks/bench_*.py``) and their tests
need to reproduce the paper's arguments:

* :mod:`paper.distribution` — the Section 2 selectivity-distribution toolkit
  (AND / OR / NOT / JOIN transformations, truncated-hyperbola fits, shape
  classification);
* :mod:`paper.synthetic` — the synthetic process those arrangements race,
  which completes after a drawn amount of float work;
* :mod:`paper.scheduler`, :mod:`paper.direct` and :mod:`paper.two_stage` —
  the Section 3 competition arrangements run over synthetic processes:
  proportional-speed scheduling, trial-then-switch and direct competition,
  and the standalone two-stage controller;
* :mod:`paper.sampling` — B+-tree random sampling, [OlRo89] and [Ant92]
  (Section 5);
* :mod:`paper.per_entry_jscan` — Jscan one index entry at a time, with its
  switch rule as a hook: the chunked Jscan's test oracle, and the base of
  the two comparators below;
* :mod:`paper.mohan_jscan` — the statically-thresholded Jscan of [MoHa90]
  that Section 6 argues against;
* :mod:`paper.probabilistic` — the Bayesian switch rule after [Ant91B]
  (E15), judged in place of the paper's threshold.

Tests and the ``bench_*`` scripts find it through ``pythonpath =
["benchmarks"]`` in ``pyproject.toml`` (or by running from ``benchmarks/``).
"""
