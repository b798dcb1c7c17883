"""Min-entropy of a qubit source, from the adversary's point of view.

The min-entropy of a binary measurement is -log2 of its most probable
outcome.  For a source emitting a known pure state this is a plain formula;
for a source described only by its (mixed) state, an adversary may realize
the state with any decomposition into pure states and keep the per-event
record for herself.  The worst-case rate over all decompositions has a
closed form that depends on the state only through its equatorial
coherence c = sqrt(s1^2 + s2^2):

    rate(c) = -log2((1 + sqrt(1 - c^2)) / 2)

This module provides the closed form, which evaluates a pure state through
its vertical component, and a finite-statistics confidence bound.  The
tests check the closed form against independent references kept with
them: a brute-force minimizer over two-term decompositions and the
weighted mean of a decomposition's per-term rates.

Everything is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .states import StokesVector

_CLAMP = 1e-9
# States with |s|^2 at least this are evaluated as pure, through their
# vertical component: on the sphere surface the coherence route is
# ill-conditioned, and a pure state has only one decomposition.
_PURE_NORM2 = 1.0 - 1e-12


@dataclass(frozen=True)
class EntropyRate:
    """Min-entropy per generated raw bit; in [0, 1] for a binary outcome."""

    bits_per_sample: float

    def __post_init__(self) -> None:
        b = float(self.bits_per_sample)
        if not math.isfinite(b) or b < -_CLAMP or b > 1.0 + _CLAMP:
            raise ParameterError(f"entropy rate {b} outside [0, 1]")
        object.__setattr__(self, "bits_per_sample", min(1.0, max(0.0, b)))

    def __float__(self) -> float:
        return self.bits_per_sample


def _pure_rate(z: float) -> float:
    """-log2((1 + |z|)/2): computational-basis min-entropy of a pure state
    with vertical Bloch component z."""
    return -math.log2(0.5 * (1.0 + abs(z)))


def rate_from_coherence(c: float) -> EntropyRate:
    """Worst-case min-entropy rate of a state with equatorial coherence c."""
    if not 0.0 <= c <= 1.0 + _CLAMP:
        raise ParameterError(f"coherence {c} outside [0, 1]")
    c = min(1.0, c)
    return EntropyRate(_pure_rate(math.sqrt(1.0 - c * c)))


def closed_form_minentropy(s: StokesVector) -> EntropyRate:
    """Closed-form worst-case rate, the minimum decomposition min-entropy
    over all decompositions of the state ``s``: ``rate_from_coherence`` of
    its coherence, or for a pure state the same value exactly through its
    vertical component."""
    if s.norm_squared >= _PURE_NORM2:
        return EntropyRate(_pure_rate(s.s3))
    return rate_from_coherence(s.coherence)


def lower_confidence_rate(
    s_hat: StokesVector, n_per_basis: int, alpha: float
) -> EntropyRate:
    """Conservative rate from an estimated state with finite statistics.

    Deflates the estimated coherence by a distribution-free Hoeffding
    margin delta = sqrt(2*ln(4/alpha)/n) covering both equatorial
    components simultaneously, then evaluates the closed form at the
    deflated value.  Deflation is the secure direction: the closed form
    increases with coherence, so the result never overstates the rate.
    The margin vanishes as n grows, pulling the result up to the plug-in
    value.

    Note this bound is very loose near unit coherence, where the closed
    form is steep; reports carry it alongside the plug-in estimate rather
    than replacing it.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha={alpha} outside (0, 1)")
    if n_per_basis < 1:
        raise ParameterError("n_per_basis must be >= 1")
    delta = math.sqrt(2.0 * math.log(4.0 / alpha) / n_per_basis)
    c_low = max(0.0, s_hat.coherence - delta)
    return rate_from_coherence(c_low)
