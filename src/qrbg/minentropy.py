"""Min-entropy of a qubit source, from the adversary's point of view.

The min-entropy of a binary measurement is -log2 of its most probable
outcome.  For a source emitting a known pure state this is a plain formula;
for a source described only by its (mixed) state, an adversary may realize
the state with any decomposition into pure states and keep the per-event
record for herself.  The worst-case rate over all decompositions has a
closed form that depends on the state only through its equatorial
coherence c = sqrt(s1^2 + s2^2):

    rate(c) = -log2((1 + sqrt(1 - c^2)) / 2)

This module provides the weighted mean of a decomposition's per-term
rates (which can exceed the min-entropy of an adversary who knows each
event's term), the closed form, which evaluates a pure state through its
vertical component, a brute-force minimizer over two-term decompositions
that verifies the closed form independently, and a finite-statistics
confidence bound.

Everything is a pure function; the minimizer vectorizes over chord
directions and is deterministic for a fixed direction count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .states import Decomposition, PureState, StokesVector

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


def _pure_rate(z):
    """-log2((1 + |z|)/2): computational-basis min-entropy of a pure state
    with vertical Bloch component z (a float, or elementwise an array)."""
    p_max = 0.5 * (1.0 + abs(z))
    return -np.log2(p_max) if isinstance(p_max, np.ndarray) else -math.log2(p_max)


def rate_from_coherence(c: float) -> EntropyRate:
    """Worst-case min-entropy rate of a state with equatorial coherence c."""
    if not 0.0 <= c <= 1.0 + _CLAMP:
        raise ParameterError(f"coherence {c} outside [0, 1]")
    c = min(1.0, c)
    return EntropyRate(_pure_rate(math.sqrt(1.0 - c * c)))


def minentropy_decomposition(d: Decomposition) -> EntropyRate:
    """Weighted mean sum_i w_i * (-log2 p_max,i) of the terms' pure-state
    min-entropies.

    It is not the min-entropy of an adversary who prepared the source and
    knows which term each event came from: hers is -log2 sum_i w_i * p_max,i,
    of her mean guessing probability, at or below this mean by Jensen's
    inequality and equal to it when every term has the same p_max, as in
    ``worst_case_decomposition``.  For 1/2 |0> + 1/2 |+> this mean is 0.5 and
    hers -log2 0.75 = 0.415.
    """
    return EntropyRate(sum(w * float(closed_form_minentropy(psi.bloch)) for w, psi in d.terms))


def closed_form_minentropy(s: StokesVector) -> EntropyRate:
    """Closed-form worst-case rate, the minimum decomposition min-entropy
    over all decompositions of the state ``s``: ``rate_from_coherence`` of
    its coherence, or for a pure state the same value exactly through its
    vertical component."""
    if s.norm_squared >= _PURE_NORM2:
        return EntropyRate(_pure_rate(s.s3))
    return rate_from_coherence(s.coherence)


@lru_cache(maxsize=8)
def _chord_directions(count: int) -> np.ndarray:
    """Deterministic grid of chord directions over the upper hemisphere.

    The vertical axis comes first, then rings at uniformly spaced polar
    angles with azimuth counts proportional to ring circumference.  Chords
    are unoriented, so one hemisphere covers all of them.
    """
    dirs = np.empty((count, 3))
    dirs[0] = (0.0, 0.0, 1.0)
    remaining = count - 1
    n_rings = max(1, round(math.sqrt(remaining)))
    thetas = (np.arange(1, n_rings + 1) / n_rings) * (math.pi / 2)
    sines = np.sin(thetas)
    raw = sines / sines.sum() * remaining
    alloc = np.floor(raw).astype(int)
    leftovers = np.argsort(alloc - raw)
    for i in range(remaining - int(alloc.sum())):
        alloc[leftovers[i % n_rings]] += 1
    pos = 1
    for theta, m_k in zip(thetas, alloc):
        if m_k == 0:
            continue
        phis = 2.0 * math.pi * np.arange(m_k) / m_k
        dirs[pos : pos + m_k, 0] = math.sin(theta) * np.cos(phis)
        dirs[pos : pos + m_k, 1] = math.sin(theta) * np.sin(phis)
        dirs[pos : pos + m_k, 2] = math.cos(theta)
        pos += m_k
    dirs.flags.writeable = False
    return dirs


def minimize_over_decompositions(
    s: StokesVector, directions: int = 10_000
) -> EntropyRate:
    """Brute-force minimum of the decomposition min-entropy of the state
    ``s``.

    Every two-term decomposition corresponds to a chord through the state's
    Bloch point: the chord's sphere intersections are the pure terms and
    the lever rule fixes the weights.  Any k-term decomposition averages
    chord values, and the rate is convex over the sphere, so scanning
    chords suffices to find the global minimum.  The scan evaluates one
    chord per grid direction and returns the smallest rate found.

    For a state on the sphere surface the only decomposition is the state
    itself and its pure rate is returned directly.
    """
    if directions < 8:
        raise ParameterError("need at least 8 chord directions")
    point = s.as_array()
    r2 = float(point @ point)
    if r2 >= _PURE_NORM2:
        return closed_form_minentropy(PureState(s).bloch)
    dirs = _chord_directions(directions)
    ru = dirs @ point
    half_gap = np.sqrt(ru * ru + (1.0 - r2))
    t_up = -ru + half_gap
    t_down = -ru - half_gap
    z_up = np.clip(point[2] + t_up * dirs[:, 2], -1.0, 1.0)
    z_down = np.clip(point[2] + t_down * dirs[:, 2], -1.0, 1.0)
    w_up = -t_down / (t_up - t_down)
    rates = w_up * _pure_rate(z_up) + (1.0 - w_up) * _pure_rate(z_down)
    return EntropyRate(float(rates.min()))


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
