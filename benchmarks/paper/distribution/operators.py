"""AND / OR / NOT / JOIN transformations of selectivity distributions.

Implements the paper's Section 2 numeric procedure: split both operand
distributions into weighted point estimates, combine every point pair
through the correlation-parameterized selectivity formula, and re-bin the
resulting point/weight cloud into an approximate density.

Correlation semantics (for AND of selectivities ``sx``, ``sy``):

* ``c = +1``  ->  ``min(sx, sy)``          (largest possible intersection)
* ``c = 0``   ->  ``sx * sy``              (independence)
* ``c = -1``  ->  ``max(0, sx + sy - 1)``  (smallest possible intersection)
* other ``c`` -> linear interpolation between the adjacent anchors
* unknown     -> uniform mixture of ``c`` over ``[-1, +1]``

OR is the De Morgan mirror: ``p_{X|Y}`` is the mirror symmetry of
``p_{~X & ~Y}``. JOIN "behaves almost identically to the AND operator" on
key-domain selectivities, so :func:`join_c` delegates to AND with its own
name kept for call-site clarity.
"""

from __future__ import annotations

import numpy as np

from paper.distribution.density import DistributionError, SelectivityDistribution

#: number of correlation samples for the "unknown correlation" mixture
UNKNOWN_CORRELATION_SAMPLES = 21


def negate(px: SelectivityDistribution) -> SelectivityDistribution:
    """``p_{~X}(s) = p_X(1 - s)`` — mirror symmetry."""
    return px.mirrored()


def _and_points(sx: np.ndarray, sy: np.ndarray, c: float) -> np.ndarray:
    """Selectivity of X AND Y for point selectivities under correlation c."""
    independent = sx * sy
    if c >= 0:
        anchor = np.minimum(sx, sy)
        return (1.0 - c) * independent + c * anchor
    anchor = np.maximum(0.0, sx + sy - 1.0)
    return (1.0 + c) * independent + (-c) * anchor


def _combine(
    px: SelectivityDistribution,
    py: SelectivityDistribution,
    correlations: np.ndarray,
) -> SelectivityDistribution:
    """Weighted-point AND combination, averaged over the given correlations."""
    if py.bins != px.bins:
        py = py.rebinned(px.bins)
    bins = px.bins
    sx = px.centers[:, None]
    sy = py.centers[None, :]
    weight = (px.weights[:, None] * py.weights[None, :]).ravel()
    accumulated = np.zeros(bins)
    for c in correlations:
        s = _and_points(sx, sy, float(c)).ravel()
        index = np.minimum((s * bins).astype(int), bins - 1)
        accumulated += np.bincount(index, weights=weight, minlength=bins)
    return SelectivityDistribution(accumulated)


def and_c(
    px: SelectivityDistribution, py: SelectivityDistribution, c: float
) -> SelectivityDistribution:
    """``p_{X &_c Y}`` under an assumed correlation ``c`` in [-1, +1]."""
    if not -1.0 <= c <= 1.0:
        raise DistributionError(f"correlation {c} outside [-1, +1]")
    return _combine(px, py, np.array([c]))


def and_unknown(
    px: SelectivityDistribution,
    py: SelectivityDistribution,
    samples: int = UNKNOWN_CORRELATION_SAMPLES,
) -> SelectivityDistribution:
    """``p_{X & Y}`` under the unknown-correlation (uniform mixture) assumption."""
    return _combine(px, py, np.linspace(-1.0, 1.0, samples))


def or_c(
    px: SelectivityDistribution, py: SelectivityDistribution, c: float
) -> SelectivityDistribution:
    """``p_{X |_c Y}`` — De Morgan dual: mirror of AND of the mirrors."""
    return negate(and_c(negate(px), negate(py), c))


def or_unknown(
    px: SelectivityDistribution,
    py: SelectivityDistribution,
    samples: int = UNKNOWN_CORRELATION_SAMPLES,
) -> SelectivityDistribution:
    """``p_{X | Y}`` under the unknown-correlation assumption."""
    return negate(and_unknown(negate(px), negate(py), samples))


def join_c(
    px: SelectivityDistribution, py: SelectivityDistribution, c: float
) -> SelectivityDistribution:
    """JOIN on a shared unique key: AND over key-domain selectivities."""
    return and_c(px, py, c)


def join_unknown(
    px: SelectivityDistribution, py: SelectivityDistribution
) -> SelectivityDistribution:
    """JOIN under the unknown-correlation assumption."""
    return and_unknown(px, py)


def apply_chain(
    px: SelectivityDistribution,
    chain: str,
    correlation: float | None = None,
    operand: str = "original",
) -> SelectivityDistribution:
    """Apply a chain of ``&`` / ``|`` / ``~`` operators to ``px``.

    The paper's shorthand ``&X`` means ``X & Y`` with ``p_X == p_Y``. For a
    chain like ``&&X`` two readings exist and both are supported:

    * ``operand="original"`` (default): each operator combines the running
      result with a fresh predicate distributed like the *original* ``px``
      — i.e. ``&&X`` is ``(X & Y) & Z`` with ``Y, Z ~ p_X``. This models a
      growing conjunction of similar predicates, the physical situation of
      "application of several ANDs".
    * ``operand="self"``: each operator combines the running result with an
      independent variable distributed like the *running result* — the
      strictly recursive reading of the unary notation.

    ``correlation`` of ``None`` selects the unknown-correlation mixture.
    The chain is applied left to right: ``apply_chain(p, "&&|")`` computes
    ``|(&(&(p)))`` in the paper's prefix notation.
    """
    if operand not in ("original", "self"):
        raise DistributionError(f"unknown operand mode {operand!r}")
    result = px
    for op in chain:
        other = px if operand == "original" else result
        if op == "&":
            result = (
                and_unknown(result, other)
                if correlation is None
                else and_c(result, other, correlation)
            )
        elif op == "|":
            result = (
                or_unknown(result, other)
                if correlation is None
                else or_c(result, other, correlation)
            )
        elif op == "~":
            result = negate(result)
        else:
            raise DistributionError(f"unknown chain operator {op!r}")
    return result
