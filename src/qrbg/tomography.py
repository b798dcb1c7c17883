"""State reconstruction from measured counts.

Calibration runs measure the source in the three complementary bases.
Linear inversion maps each basis's outcome counts to one Stokes component;
if the resulting point falls outside the unit sphere it is scaled back
radially, which for a qubit is exactly the nearest physical state and can
only shrink the coherence, i.e. it errs in the secure direction for the
certified entropy rate.

Calibration is a separate run from bit generation; the certified rate is
assumed valid while the source state does not drift between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .minentropy import EntropyRate, closed_form_minentropy
from .sources import BASIS_AXIS, BASIS_CHARS, EventSource
from .states import StokesVector

# events each basis needs before its component is estimated
MIN_BASIS_COUNT = 100
# Events the tally counts at a time, so that its keys never span a piece.
_TALLY_EVENTS = 1 << 16


@dataclass(frozen=True)
class CountTable:
    """Outcome counts per measurement basis; rows ordered Z, X, Y."""

    counts: np.ndarray  # shape (3, 2): [basis code][outcome]

    def __post_init__(self) -> None:
        c = np.asarray(self.counts)
        if c.shape != (3, 2):
            raise ParameterError(f"expected counts of shape (3, 2), got {c.shape}")
        if not np.issubdtype(c.dtype, np.integer):  # a cast would truncate 100.9 or read True as 1
            raise ParameterError(f"counts must be integers, got dtype {c.dtype}")
        c = c.astype(np.int64)
        if (c < 0).any():
            raise ParameterError("counts must be nonnegative")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    def per_basis(self) -> np.ndarray:
        return self.counts.sum(axis=1)


@dataclass(frozen=True)
class TomographyResult:
    """Estimated state with its statistics.

    ``s_raw`` is the raw linear-inversion vector and may be non-physical;
    ``s_hat`` is always physical.  ``projected`` is set exactly when the
    raw vector had to be scaled back to the sphere.
    """

    s_hat: StokesVector
    s_raw: np.ndarray
    stderr: np.ndarray
    n_per_basis: np.ndarray
    projected: bool


def _tally(log: EventSource) -> CountTable:
    """Count outcomes per (basis, outcome) cell, a piece at a time and
    ``_TALLY_EVENTS`` events of a piece at a time."""
    counts = np.zeros(6, dtype=np.int64)
    for piece in log.pieces():
        for lo in range(0, piece.n, _TALLY_EVENTS):
            cells = piece.bases[lo : lo + _TALLY_EVENTS] * np.uint8(2)
            cells += piece.outcomes[lo : lo + _TALLY_EVENTS]
            counts += np.bincount(cells, minlength=6)
    if not counts.any():
        raise InsufficientDataError("cannot tally an empty event log")
    return CountTable(counts.reshape(3, 2))


def estimate_stokes(c: CountTable) -> TomographyResult:
    """Linear inversion with radial projection to the physical ball.

    Component estimates are (n0 - n1)/(n0 + n1) per basis (X -> s1,
    Y -> s2, Z -> s3) with standard error sqrt((1 - s^2)/n).
    """
    per_basis = c.per_basis()
    low = [BASIS_CHARS[i] for i in range(3) if per_basis[i] < MIN_BASIS_COUNT]
    if low:
        raise InsufficientDataError(
            f"bases {low} below the {MIN_BASIS_COUNT}-count floor "
            f"(counts {per_basis.tolist()})"
        )
    diff = (c.counts[:, 0] - c.counts[:, 1]).astype(float)
    # basis codes in component order (s1, s2, s3)
    order = np.argsort(BASIS_AXIS)
    s_raw = (diff / per_basis)[order]
    n_comp = per_basis[order]
    stderr = np.sqrt(np.maximum(0.0, 1.0 - s_raw ** 2) / n_comp)
    norm = float(np.linalg.norm(s_raw))
    projected = norm > 1.0
    s_phys = s_raw / norm if projected else s_raw
    return TomographyResult(
        s_hat=StokesVector(*s_phys),
        s_raw=s_raw,
        stderr=stderr,
        n_per_basis=n_comp,
        projected=projected,
    )


def reconstruct(log: EventSource) -> tuple[TomographyResult, EntropyRate]:
    """Tally a calibration log and estimate the state, with its plug-in
    rate: the closed form evaluated at the estimated state.  Which rate
    certifies is ``pipeline.calibrate``'s choice."""
    result = estimate_stokes(_tally(log))
    return result, closed_form_minentropy(result.s_hat)
