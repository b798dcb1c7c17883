"""Qubit states on the Poincare (Bloch) sphere.

A polarization qubit is its real Stokes vector (s1, s2, s3), with s0 fixed
to 1; the vector stands for the density matrix

    rho = 1/2 [[1 + s3, s1 - i*s2],
               [s1 + i*s2, 1 - s3]]

in the computational (H/V) basis, and every quantity this package computes
is a function of the vector alone.  Physical states live inside or on the
unit sphere; pure states live on its surface.  A decomposition is a
probability-weighted list of pure states whose mixture, the weighted mean
of their Bloch vectors, reproduces a given state; an adversary preparing
the source may pick any of them.

All values here are immutable and all functions are pure, so everything
in this module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Absolute tolerance for component and weight checks.  Inputs within
# tolerance are accepted and clamped; beyond it they are rejected.
ATOL = 1e-12
# How far |s|^2 may exceed 1 for a vector that is scaled back onto the
# sphere rather than rejected: a vector computed in float64 from states on
# the sphere (a mixture, a rescaled estimate) overshoots by a few ulp, far
# inside this window.  It is also the bound on v^2 = 1 - s1^2 - s2^2
# below which ``worst_case_decomposition`` puts a state on the equator.
_NORM2_TOL = 1e-11
# Pure states must sit on the sphere to within this squared-length slack.
_PURE_NORM2_TOL = 2e-9


@dataclass(frozen=True)
class StokesVector:
    """Real Stokes components (s1, s2, s3) of a qubit state; s0 = 1 implied.

    s3 is the H/V population imbalance; s1 and s2 are the diagonal and
    circular coherences.  Physicality requires s1^2 + s2^2 + s3^2 <= 1.
    """

    s1: float
    s2: float
    s3: float

    def __post_init__(self) -> None:
        s1, s2, s3 = float(self.s1), float(self.s2), float(self.s3)
        for name, v in (("s1", s1), ("s2", s2), ("s3", s3)):
            if not math.isfinite(v):
                raise ParameterError(f"{name} is not finite: {v!r}")
            if abs(v) > 1.0 + ATOL:
                raise ParameterError(f"{name}={v} outside [-1, 1]")
        norm2 = s1 * s1 + s2 * s2 + s3 * s3
        if norm2 > 1.0 + _NORM2_TOL:
            raise ParameterError(
                f"({s1}, {s2}, {s3}) lies outside the unit sphere "
                f"(|s|^2 = {norm2})"
            )
        if norm2 > 1.0:
            scale = 1.0 / math.sqrt(norm2)
            s1, s2, s3 = s1 * scale, s2 * scale, s3 * scale
        object.__setattr__(self, "s1", min(1.0, max(-1.0, s1)))
        object.__setattr__(self, "s2", min(1.0, max(-1.0, s2)))
        object.__setattr__(self, "s3", min(1.0, max(-1.0, s3)))

    @property
    def norm_squared(self) -> float:
        return self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2

    @property
    def coherence(self) -> float:
        """Magnitude of the equatorial component, sqrt(s1^2 + s2^2)."""
        return math.hypot(self.s1, self.s2)

    def as_array(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3], dtype=float)


@dataclass(frozen=True)
class PureState:
    """A pure qubit state stored as a unit-length Bloch vector.

    Storing only the Bloch vector removes the global-phase ambiguity of
    amplitude pairs; every quantity this package computes depends only on
    Stokes data.
    """

    bloch: StokesVector

    def __post_init__(self) -> None:
        b = self.bloch
        norm2 = b.norm_squared
        if abs(norm2 - 1.0) > _PURE_NORM2_TOL:
            raise ParameterError(
                f"Bloch vector has |s|^2 = {norm2}, a pure state needs 1"
            )
        if norm2 != 1.0:
            scale = 1.0 / math.sqrt(norm2)
            object.__setattr__(
                self,
                "bloch",
                StokesVector(b.s1 * scale, b.s2 * scale, b.s3 * scale),
            )


@dataclass(frozen=True)
class Decomposition:
    """Probability-weighted pure states realizing one mixed state."""

    terms: tuple[tuple[float, PureState], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(w), psi) for w, psi in self.terms)
        if not terms:
            raise ParameterError("decomposition has no terms")
        total = 0.0
        for w, _ in terms:
            if not math.isfinite(w) or w < -ATOL:
                raise ParameterError(f"negative weight {w}")
            total += w
        if abs(total - 1.0) > len(terms) * ATOL:
            raise ParameterError(
                f"weights sum to {total}, expected 1"
            )
        object.__setattr__(self, "terms", terms)


def mix(d: Decomposition) -> StokesVector:
    """Mixture of the decomposition's terms: the weight-averaged Bloch
    vector of the terms."""
    weights, states = zip(*d.terms)
    avg = np.array(weights) @ np.array([psi.bloch.as_array() for psi in states])
    return StokesVector(avg[0], avg[1], avg[2])


def worst_case_decomposition(s: StokesVector) -> Decomposition:
    """The two-term decomposition that minimizes the decomposition
    min-entropy of the state ``s``.

    Both terms share the equatorial components (s1, s2) of ``s`` and sit
    on the sphere at vertical components +-v with v = sqrt(1 - s1^2 - s2^2).
    The weights (1 +- s3/v)/2 follow from the lever rule on the vertical
    axis and are the unique choice whose mixture reproduces ``s``.

    On the equator boundary (v = 0, which forces s3 = 0 for a physical
    state) the two terms coincide with the pure input state and each carry
    weight 1/2.
    """
    v2 = 1.0 - s.s1 ** 2 - s.s2 ** 2
    if v2 <= _NORM2_TOL:
        if abs(s.s3) > math.sqrt(_NORM2_TOL):
            raise ParameterError(
                "state has unit coherence but nonzero s3; not physical"
            )
        psi = PureState(StokesVector(s.s1, s.s2, 0.0))
        return Decomposition(((0.5, psi), (0.5, psi)))
    v = math.sqrt(v2)
    up = PureState(StokesVector(s.s1, s.s2, v))
    down = PureState(StokesVector(s.s1, s.s2, -v))
    # |s3| <= v for any physical state; rounding may overshoot marginally
    ratio = s.s3 / v
    if abs(ratio) > 1.0:
        if abs(ratio) > 1.0 + 1e-9:
            raise ParameterError(
                f"vertical component {s.s3} exceeds the sphere chord {v}"
            )
        ratio = math.copysign(1.0, ratio)
    w_up = 0.5 * (1.0 + ratio)
    return Decomposition(((w_up, up), (1.0 - w_up, down)))


def rotate_equatorial(s: StokesVector, angle: float) -> StokesVector:
    """Rotate the (s1, s2) coherence components by ``angle`` radians.

    Models a birefringent element: the state changes but any quantity that
    depends only on sqrt(s1^2 + s2^2) is unaffected.
    """
    c, sn = math.cos(angle), math.sin(angle)
    return StokesVector(
        c * s.s1 - sn * s.s2,
        sn * s.s1 + c * s.s2,
        s.s3,
    )
