"""Reference implementations that the tests check the package against.

Nothing in ``qrbg`` calls these; they live with the tests so that the
package holds only what a run uses.  Each is independent of the code it
checks, except ``toeplitz_extract``, a convenience that hashes through
the production ``_Hasher``: the hash's independent references are
``toeplitz_matrix`` (the index definition, small sizes) and
``exact_hash`` (integer arithmetic, no floats).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from qrbg.bits import _bit_array
from qrbg.errors import ParameterError
from qrbg.extractor import HashSeed, _Hasher
from qrbg.minentropy import _PURE_NORM2, EntropyRate, closed_form_minentropy
from qrbg.sources import EventLog, EventStream
from qrbg.states import Decomposition, PureState, StokesVector


def joined(stream: EventStream) -> EventLog:
    """The events of ``stream`` as one log, each piece copied in place."""
    outcomes = np.empty(stream.n, dtype=np.uint8)
    labels = None if stream.prepared.weights is None else np.empty(stream.n, dtype=np.int32)
    lo = 0
    for piece in stream.pieces():
        outcomes[lo : lo + piece.n] = piece.outcomes
        if labels is not None:
            labels[lo : lo + piece.n] = piece.eve_labels
        lo += piece.n
    return EventLog(stream.source, stream.seed, stream.codes(0, stream.n), outcomes, labels)


def in_pieces(log: EventLog, sizes):
    """``log`` as an event source that yields it cut into pieces of the
    given sizes, each a view of ``log``."""

    def pieces():
        for start, stop in itertools.pairwise(np.cumsum((0, *sizes))):
            labels = None if log.eve_labels is None else log.eve_labels[start:stop]
            yield EventLog(log.source, log.seed, log.bases[start:stop], log.outcomes[start:stop], labels)

    return SimpleNamespace(source=log.source, seed=log.seed, n=log.n, pieces=pieces)


def toeplitz_matrix(seed_bits: np.ndarray, n: int, m: int) -> np.ndarray:
    """Materialize T[j][k] = seed[j - k + n - 1]; small sizes only."""
    seed_bits = np.asarray(seed_bits, dtype=np.uint8)
    if seed_bits.shape[0] != n + m - 1:
        raise ParameterError("seed length must be n + m - 1")
    j = np.arange(m)[:, None]
    k = np.arange(n)[None, :]
    return seed_bits[j - k + n - 1]


def toeplitz_extract(seed, raw: np.ndarray) -> np.ndarray:
    """Hash one raw block, or each row of a 2-D array of blocks, through
    the production ``_Hasher``; the output width is len(seed) - n + 1 for
    blocks of n bits.  Not independent of the hash it is compared with.

    Output bit j equals parity(sum_k seed[j - k + n - 1] * raw[k]), i.e.
    the (n - 1 + j)-th coefficient of the seed*raw convolution mod 2.
    """
    seed_bits = (seed if isinstance(seed, HashSeed) else HashSeed(seed)).bits
    raw = _bit_array(raw, "raw bits")
    hasher = _Hasher(seed_bits, raw.shape[-1])
    out = np.empty(raw.shape[:-1] + (hasher.m,), dtype=np.uint8)
    hasher.hash(raw.reshape(-1, hasher.n), out.reshape(-1, hasher.m))
    return out


# Bits per convolution coefficient in ``exact_hash``'s integers: every
# coefficient is at most n, below 2^24 for any n the tests hash.
_SLOT_BYTES = 3


def _slots(bits: np.ndarray) -> int:
    """``bits`` as one integer with bit i at bit 24 * i."""
    spread = np.zeros(_SLOT_BYTES * len(bits), dtype=np.uint8)
    spread[::_SLOT_BYTES] = bits
    return int.from_bytes(spread.tobytes(), "little")


def exact_hash(seed_bits: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The Toeplitz hash of one n-bit block, float-free: the convolution of
    block and seed as one Python big-integer product, each coefficient in
    its own 24-bit slot, and output bit j the parity of coefficient
    n - 1 + j."""
    n, length = len(block), len(seed_bits)
    if n >= 1 << 8 * _SLOT_BYTES:
        raise ParameterError(f"a {n}-bit block overflows the coefficient slots")
    product = _slots(block) * _slots(seed_bits)
    coefficients = np.frombuffer(product.to_bytes(_SLOT_BYTES * (n + length), "little"), dtype=np.uint8)
    return coefficients[_SLOT_BYTES * (n - 1) : _SLOT_BYTES * length : _SLOT_BYTES] & 1


@dataclass(frozen=True)
class UniversalityReport:
    n: int
    m: int
    seed_count: int
    expected_collisions: int
    min_collisions: int
    max_collisions: int

    @property
    def exact(self) -> bool:
        return self.min_collisions == self.max_collisions == self.expected_collisions


def universality_check(n: int, m: int) -> UniversalityReport:
    """Exhaustively verify the 2-universal property at small sizes.

    For every pair of distinct inputs, counts the seeds mapping both to
    the same output; the family is 2-universal with collision probability
    exactly 2^-m iff every count equals 2^(n+m-1) / 2^m.  Cost grows as
    4^n * 2^(n+m), so keep n at 8 or below in routine runs.
    """
    if not 1 <= n <= 12 or not 1 <= m <= 6:
        raise ParameterError("exhaustive check limited to n <= 12, m <= 6")
    seed_len = n + m - 1
    num_inputs = 1 << n
    num_seeds = 1 << seed_len
    shifts = np.arange(n - 1, -1, -1)
    inputs = ((np.arange(num_inputs)[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    out_weights = 1 << np.arange(m - 1, -1, -1)
    seed_shifts = np.arange(seed_len - 1, -1, -1)
    collisions = np.zeros((num_inputs, num_inputs), dtype=np.int64)
    for seed_int in range(num_seeds):
        seed_bits = ((seed_int >> seed_shifts) & 1).astype(np.uint8)
        t = toeplitz_matrix(seed_bits, n, m)
        out_ids = ((inputs @ t.T) & 1) @ out_weights
        collisions += out_ids[:, None] == out_ids[None, :]
    off_diag = collisions[~np.eye(num_inputs, dtype=bool)]
    return UniversalityReport(
        n=n,
        m=m,
        seed_count=num_seeds,
        expected_collisions=num_seeds >> m,
        min_collisions=int(off_diag.min()),
        max_collisions=int(off_diag.max()),
    )


def mix(d: Decomposition) -> StokesVector:
    """Mixture of the decomposition's terms: the weight-averaged Bloch
    vector of the terms."""
    weights, states = zip(*d.terms)
    avg = np.array(weights) @ np.array([psi.bloch.as_array() for psi in states])
    return StokesVector(avg[0], avg[1], avg[2])


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


def _pure_rates(z: np.ndarray) -> np.ndarray:
    """-log2((1 + |z|)/2), elementwise."""
    return -np.log2(0.5 * (1.0 + np.abs(z)))


def minimize_over_decompositions(s: StokesVector, directions: int = 10_000) -> EntropyRate:
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
    rates = w_up * _pure_rates(z_up) + (1.0 - w_up) * _pure_rates(z_down)
    return EntropyRate(float(rates.min()))
