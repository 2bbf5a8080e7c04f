"""Competition framework (Section 3 of the paper).

Cost distributions of alternative plans are L-shaped; competition exploits
that by exhausting the high-probability low-cost regions of several plans
before committing to any single one. This package provides:

* :mod:`repro.competition.model` — analytic L-shaped cost distributions and
  the paper's expected-cost arithmetic for traditional choice, sequential
  try-then-switch, and simultaneous proportional runs;
* :mod:`repro.competition.process` — the step-wise ``Process`` protocol all
  competing strategies implement;
* :mod:`repro.competition.two_stage` — the two-stage switch criterion: a
  cheap stage continuously re-estimates an expensive stage and is abandoned
  when the projection approaches the guaranteed best.

The Section 3 arrangements that race synthetic processes — the synthetic
process itself, the proportional scheduler, direct competition and the
standalone two-stage controller — live in ``benchmarks/paper/``, outside
the package, as do the switch rules Jscan is measured against: the
[MoHa90] static threshold and the Bayesian rule after [Ant91B].
"""

from importlib import import_module

#: export -> defining submodule. Resolved on first use (PEP 562): the engine
#: needs only ``process`` and ``two_stage``, and importing ``model`` pulls in
#: ``scipy.optimize`` — most of what ``import repro`` used to cost.
_EXPORTS = {
    "LShapedCost": "model",
    "sequential_switch_expected_cost": "model",
    "simultaneous_expected_cost": "model",
    "traditional_expected_cost": "model",
    "Process": "process",
    "SwitchCriterion": "two_stage",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
