"""Seeded randomness extraction with explicit entropy accounting.

A binary Toeplitz matrix hashed against each raw block implements a
2-universal family: output bit j is the parity of the AND between the raw
block and matrix row j, with T[j][k] = seed[j - k + n - 1].  The seed of
n + m - 1 uniform bits is public but must be drawn independently of the
raw data; one seed is drawn per extraction and reused across blocks.

The output length per n-bit block at statistical distance epsilon from
uniform, given a certified min-entropy rate h, is

    m = floor(h*n - 4*log2(1/epsilon) - 2)

m is floored, so fractional entropy is forfeited per block; a raw tail
shorter than one block is discarded.  Both choices keep the accounting
stateless and auditable.

Where the 4 and the 2 come from.  For a 2-universal family and a block of
min-entropy k, the leftover hash lemma (Hastad, Impagliazzo, Levin & Luby,
SIAM J. Comput. 28, 1364 (1999)) bounds the distance of the output from
uniform, jointly with the public seed, by

    Delta <= 1/2 * sqrt(2^(m - k))

A block of the certified rate has k = h*n, and the formula above leaves
k - m >= 4*log2(1/epsilon) + 2, so Delta <= 1/2 * 2^(-2*log2(1/epsilon) - 1)
= epsilon^2 / 4 per block, not epsilon: a 2*log2(1/epsilon) margin would
already give epsilon / 2.  The accounting keeps the 4, as acceptance
criterion 05 pins it (output_length(1.0, 1000, 2^-10) = 958).

The raw stream is hashed a chunk at a time: whole blocks are hashed as
they complete, a partial block is carried to the next chunk, and each
block group's output can be written out before the next chunk is read,
so memory does not grow with the stream.  Output bit j is the parity of
coefficient n - 1 + j of the integer convolution c = x * s of block and
seed.  The hash convolves with the centred seed s' = 2s - 1 instead:
c' = x * s' is computed as irfft(rfft(x) * S), S = rfft(s'), at a 5-smooth
length N >= n + m - 1 that _fft_length picks for speed (the one within
3 % with the most factors of 5), and rounded to the nearest integer.
Every term of an output coefficient lies inside the seed, so there
c' = 2c - |x|, |x| the block's popcount.  S is made once per
extraction, in place, from s' and N - n - m + 1 zeros.  Rows are
transformed two at a time while two padded float64 rows fit in
_BATCH_BYTES (16 MiB, N up to 2^20), and one at a time above it.
scipy.fftpack's transforms (scipy.fft's pocketfft plans, equal bit for
bit) keep a spectrum half-complex, [S0, Re S1, Im S1, ...], in the real
array transformed, so a batch is transformed, multiplied by S and
transformed back in its zero-padded input rows, and rounded, guarded and
reduced to parities _FINISH_SLICE coefficients at a time.  The seed's
spectrum, the pad and one slice's int64 rounding buffer per row are made
once per extraction; a batch allocates no transform-sized or m-long
array.  The hashing runs on the calling thread alone.

Two blocks per row.  With w = n.bit_length(), 2^w > n >= every
coefficient of c, so a row holding x_lo + 2^w * x_hi convolves to
c'_lo + 2^w * c'_hi.  With v its rounded value,
v + |x_lo| + 2^w * |x_hi| = 2 * (c_lo + 2^w * c_hi), whose bits 1 and
w + 1 are the two blocks' output bits: one transform pair hashes two
blocks.  An odd last block has a zero high half.  Whatever the row holds,
the run-time guard rejects any batch whose residual |c' - rint(c')|
exceeds 1/4 or is not a number, or whose sum above is odd, which a
rounding error of an odd integer leaves as its only trace.

Where it packs.  Every hasher packs two blocks per row and proves each
packed batch before its inverse transform: it evaluates the batch's own
E below from the computed spectral product and the blocks' popcounts,
and hashes a batch whose E exceeds 1/4 (_FFT_GUARD) again at one block
per row, which the block-size limit proves exact for any seed.  An input
crafted against the public seed can so slow hashing but never make it
wrong.

The bound.  Let u = 2^-53 and gamma_k = k*u / (1 - k*u) (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3 and 24).

* One transform.  pocketfft transforms a real array of 5-smooth length N
  in passes of radix 4, 2 (at most once), 3 and 5, whose product is N.
  A radix-r pass multiplies by twiddle factors, each taken within
  mu = 10u of its exact root: pocketfft multiplies two tabulated roots,
  each a double-precision cosine and sine of a twice-rounded angle, about
  2.5u each and 8u for the product.  The pass then takes length-r DFTs.
  A complex product rounds within sqrt(2)*gamma_2 (Higham Lemma 3.5) and
  an r-term complex inner product within sqrt(2)*gamma_{r+1} of the sum
  of its terms' moduli.  Against the pass's norm sqrt(r), the pass then
  has normwise relative error at most

      eta_r = a + sqrt(r) * b_r * (1 + a),
      a   = mu + sqrt(2)*gamma_2*(1 + mu)       (the twiddle product),
      b_r = mu + sqrt(2)*gamma_{r+1}*(1 + mu)   (one DFT output),

  i.e. 33u, 40u, 47u and 54u for r = 2, 3, 4, 5.  As in Higham's
  Theorem 24.2 (there for radix 2), the passes compose to

      ||fl(F x) - F x||_2 <= eps_N * ||F x||_2 = eps_N * sqrt(N) * ||x||_2,
      eps_N = prod over the passes of (1 + eta_r) - 1,

  and the inverse transform is bounded the same way.  Assumptions: the
  real passes (FFTPACK's radf and radb) round no worse than the complex
  passes whose work they halve; pocketfft uses no Bluestein step at a
  5-smooth length; the final 1/N scaling costs gamma_2 relative.
* The convolution.  With X = F x, P = X * S and hats for computed
  values, c'^ - c' = (irfft^(P^) - irfft(P^)) + irfft(P^ - P).  The first
  term has 2-norm at most eps_N * ||P^||_2 / sqrt(N), ||P^||_2 taken over
  the full spectrum.  Each entry of the second is at most
  ||P^ - P||_1 / N; split P^ - P into the product's rounding, X's
  transform error times S^ and X times S's transform error, and bound
  each by Cauchy-Schwarz with ||s'||_2 = sqrt(L), L = n + m - 1 the seed
  length.  Every coefficient is then within

      E = (eps_N ||P^||_2 / sqrt(N) + B) * (1 + gamma_2) + gamma_2 * c_max,
      B = (sqrt(2) gamma_2 (1 + eps_N)^2 + eps_N (2 + eps_N)) sqrt(L) ||x||_2,

  where c_max bounds |c'|.
* The per-batch bound takes, for each packed row,
  ||x||_2 <= sqrt|x_lo| + 2^w sqrt|x_hi| (the triangle inequality) and
  c_max = |x_lo| + 2^w |x_hi| from the blocks' popcounts, and ||P^||_2^2
  at most twice the dot of the row's half-complex spectrum with itself
  (each bin but DC and Nyquist stands for a conjugate pair), over
  1 - gamma_{N+2} for that sum's rounding.  Its assumptions are those of
  one transform and numpy's complex product rounding within
  sqrt(2) gamma_2.  E is evaluated in float64; its own rounding is far
  inside the gap between 1/4 and the 1/2 at which rounding to the
  nearest integer would go wrong.  ||P^||_2 is at most about
  max|S^| ||X^||_2, and centring is what keeps it small: a 0/1 seed with
  p ones has S[0] = p, about 8e5 at n = 1e6, while a random centred
  seed's largest |S| is about 4,800, near sqrt(L ln N).
* Figures (random seeds; the workloads' rates, 0.38 at n = 1e4, 0.96 at
  n = 1e5 and 0.6 at n = 1e6).  The largest per-batch E over 10 seeds (5
  at n = 1e6) was 1.8e-5 on random and 2.8e-5 on all-ones blocks at
  n = 1e4, 0.0020 and 0.0030 at n = 1e5, and 0.14-0.16 and 0.18-0.24 at
  n = 1e6: no batch was hashed again.  Under such a seed no 0/1 batch
  can fail up to n = 5e5: with all-ones halves and ||P^||_2 at most
  (1 + sqrt(2) gamma_2) max|S^| ||X^||_2, E is 4.5e-5 at n = 1e4 and
  0.0044 at n = 1e5 (rate 0.96).  At n = 1e6, over 40 seeds, random
  blocks gave 0.14-0.21, blocks of density 0.55 at most 0.223, all-ones
  blocks 0.16-0.35 (above 1/4 for 7 seeds), and adversarial_recal's
  blocks 0.147-0.202 on four benchmark seeds; the triangle inequality
  raises E by a relative 3e-7 at most over the exact ||x||_2.  The
  residuals of packed rows at n = 1e6 were about 2e-6 on random blocks
  and 6.1e-5 on seed-reversed ones.  Hashing a block, in one process
  alternating with the code that hashed n = 1e6 one block per row (same
  seed and blocks, median of 10-60 paired runs on one core of a shared
  2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1), took
  0.54 times as long at n = 1e6 (47-50 against 88-91 ms); the popcount
  correction and the parity check cost 4.5-5 % at n = 1e4 (0.21 ms) and
  1-1.5 % at n = 1e5 (4.3 ms).  Bounding each packed batch cost 8 % at
  n = 1e4 (0.10 ms) and 3.7 % at n = 1e5 (2.1 ms), against the bound
  stubbed out, alternating in one process.
* Block-size limit.  For one block per row and the worst-case seed, all
  ones or all zeros with m = n (its centred spectrum peaks at
  max|S| = L), E stays at most 1/4 for every n up to
  ExtractorParams.MAX_N (taking, for each n, the largest eps_N of any
  5-smooth length up to the N that _fft_length chooses for 2n - 1, so
  that E grows with n); a larger block size is rejected.  There
  ||X^||_2 <= (1 + eps_N) sqrt(N n), max|S^| <= L + eps_N sqrt(N L),
  and c_max = n.
"""

from __future__ import annotations

import hashlib
import math
import secrets
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Union

import numpy as np
from scipy import fft as _fft, fftpack as _fftpack

from .bits import BitsFile, BitStream, BlockCutter, _bit_array, pack_bits, read_bits_file, unpack_bits
from .errors import InsufficientDataError, InsufficientEntropyError, ParameterError
from .minentropy import EntropyRate

_FFT_GUARD = 0.25
# Rows per transform call while the batch's padded input fits in
# _BATCH_BYTES, one row per call above it.  pocketfft computes the rows
# of a 2-D transform side by side in SIMD lanes: two rows of two blocks
# each hashed a block in 0.15-0.17 ms against 0.19-0.20 for one row at
# n = 1e4 and in 2.5-2.7 ms against 2.6-3.2 at n = 1e5 (rate 0.96; the
# medians of two sets of 5-6 alternating fresh processes, on the machine
# of _fft_length's figures).  At n = 1e6 two rows were no faster (30-34
# against 28-34 ms), and each batch's transforms would double the
# extraction's peak memory.
_BATCH_ROWS = 2
_BATCH_BYTES = 16 << 20
# Output coefficients are rounded, guarded and reduced to parities in
# slices of this many, so the rounding buffer is rows x slice int64
# (256 KiB a row), not rows x m.  Hash time per block, medians of two sets
# of 6 and 8 alternating fresh processes (random blocks, rates 0.96 and
# 0.6, the machine of _fft_length's figures): 2^12 took 2.18 ms at
# n = 1e5 and 22.3 ms at n = 1e6, 2^14 2.03-2.11 and 22.9-23.1 ms, 2^15
# 2.02-2.10 and 21.1-22.0 ms, 2^16 2.01-2.11 and 21.3-21.7 ms, and one
# slice of all m 2.13 and 22.1 ms.  At n = 1e4 (m = 3,542) every choice
# is one slice.
_FINISH_SLICE = 1 << 15
# glibc's malloc maps each request above its mmap threshold (128 KiB at
# start) afresh; freeing such a mapping raises the threshold to its size,
# up to 32 MiB, and the heap's trim threshold to twice that.
# _Hasher.__init__ allocates and frees this many bytes once, untouched (no
# resident memory), so pocketfft's per-call scratch (a transform's length
# in float64) reuses heap pages whatever earlier work left the thresholds
# at.  Standalone `qrbg extract` took, after import, 4.6k minor faults at
# n = 1e5 from 8 MiB up, against 805k at 2 MiB and below; at n = 1e6,
# 16.8k from 20 MiB up, 20.2k at 16 MiB and 79k at 12 MiB and below.
# Extracting 2e7 random raw bits at n = 1e6 peaked at 113.7-113.8 MiB with
# 20 MiB against 112.6-113.0 MiB with 12 MiB, which hashed a block in 29-30
# against 24-25 ms (two fresh processes each).
_HEAP_WARMUP = 20 << 20

# The error model of the module docstring: unit roundoff, and how far a
# computed twiddle factor may lie from its exact root.
_U = 2.0**-53
_TWIDDLE_ERROR = 10 * _U
_SQRT2 = math.sqrt(2.0)


def _gamma(k: int) -> float:
    return k * _U / (1 - k * _U)


def _transform_error(length: int) -> float:
    """eps_N: the normwise relative error bound of one pocketfft real
    transform of 5-smooth ``length``, a product over its radix passes."""
    mu = _TWIDDLE_ERROR
    twiddle = mu + _SQRT2 * _gamma(2) * (1 + mu)
    growth, rest = 1.0, length
    for radix in (4, 2, 3, 5):
        butterfly = mu + _SQRT2 * _gamma(radix + 1) * (1 + mu)
        while rest % radix == 0:
            rest //= radix
            growth *= 1 + twiddle + math.sqrt(radix) * butterfly * (1 + twiddle)
    if rest != 1:
        raise ParameterError(f"transform length {length} is not 5-smooth")
    return growth - 1


def _convolution_error(
    eps: float, product_norm: float, seed_norm: float, x_norm: float, c_max: float
) -> float:
    """E: how far any computed coefficient of a convolution can lie from the
    exact one, for transforms within ``eps``, a computed spectral product
    whose full-spectrum 2-norm is at most ``product_norm`` * sqrt(N), a
    seed of 2-norm ``seed_norm``, an input of 2-norm ``x_norm`` and
    coefficients at most ``c_max``."""
    g2 = _SQRT2 * _gamma(2)
    spectrum = (g2 * (1 + eps) ** 2 + eps * (2 + eps)) * seed_norm * x_norm
    return (eps * product_norm + spectrum) * (1 + _gamma(2)) + _gamma(2) * c_max


def _fft_length(target: int) -> int:
    """The transform length for a convolution of ``target`` coefficients:
    of the 5-smooth lengths from ``target`` to 1.03 * ``target`` (or to the
    shortest 5-smooth length, if that is longer), the one with the most
    factors of 5, and the shortest of those.  It never decreases as
    ``target`` grows.

    The rule is measured on pocketfft, not derived.  Hashing random blocks
    with _Hasher on scipy.fft's transforms, after a 32 MB allocate/free had
    warmed the heap, at n = 1e4, 3e4, 1e5, 3e5 and 1e6 and rates 0.96, 0.8,
    0.6 and 0.38, the rule keeps next_fast_len's length at 13 of the 20
    sizes.  At the other seven, the time per block against next_fast_len's
    length was 0.92 at 60,000, 0.80 at 200,000, 0.94 at 140,625, 0.92 at
    600,000, 0.96 at 421,875, 0.95 at 2,000,000 and 1.00 at 1,406,250
    (medians of 9 alternating rounds on a 2-vCPU Intel Xeon, Python 3.11.7,
    numpy 2.4.6, scipy 1.17.1).  Lengths rich in 2s were slower than the
    rule's pick at the same size: 163,840 by 23 %, 184,320 by 8 %, 204,800
    by 19 % and 614,400 by 6 %.  The hasher runs scipy.fftpack's in-place
    transforms (the same pocketfft plans) and warms the heap with
    _HEAP_WARMUP (20 MiB); on that path, a two-row rfft/irfft pair with its
    spectral product was faster at 200,000 than at 196,608, next_fast_len's
    pick, in 6 of 6 alternating fresh-process pairs (6.6-8.1 against 8.5-9.7
    ms).  In a fresh heap the transforms page-fault on every block and some
    lengths read backwards, so measure candidates in a warmed process."""
    shortest = _fft.next_fast_len(target, real=True)
    limit = max(shortest, target * 103 // 100)
    candidates = []  # (-factors of 5, length): min() takes the most 5s, then the shortest
    fives, power = 0, 1
    while power <= limit:
        odd = power
        while odd <= limit:
            length = odd << (-(-target // odd) - 1).bit_length()
            if length <= limit:
                candidates.append((-fives, length))
            odd *= 3
        fives, power = fives + 1, power * 5
    return min(candidates)[1]


def _largest_exact_n() -> int:
    """The largest n such that one block per row of any size up to n, with
    any seed of at most 2n - 1 bits, keeps E at most _FFT_GUARD."""
    # A block of n' <= n bits is transformed at a 5-smooth length up to
    # _fft_length(2n - 1), since that never decreases.  With eps the
    # largest eps_N of those lengths, E grows with n, so a bisection finds
    # the limit.
    cap = 1 << 30
    lengths = sorted(
        2**a * 3**b * 5**c
        for a in range(31)
        for b in range(19)
        for c in range(13)
        if 2**a * 3**b * 5**c <= cap
    )
    eps = np.maximum.accumulate([_transform_error(length) for length in lengths])

    def exact(n: int) -> bool:
        length = _fft_length(2 * n - 1)
        worst = eps[np.searchsorted(lengths, length)]
        # The worst +-1 seed is constant: max|S| = 2n - 1, and its computed
        # spectrum lies within eps * sqrt(N) * ||s||_2 of the exact one.
        seed_bits = 2 * n - 1
        peak = seed_bits + worst * math.sqrt(length * seed_bits)
        x_norm = math.sqrt(n)
        product = (1 + worst) * (1 + _SQRT2 * _gamma(2)) * peak * x_norm
        return _convolution_error(worst, product, math.sqrt(seed_bits), x_norm, n) <= _FFT_GUARD

    lo, hi = 1, cap // 4
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if exact(mid) else (lo, mid - 1)
    return lo


def parse_epsilon(text: str) -> float:
    """Accept '2^-K' or a plain float literal."""
    text = text.strip()
    try:
        eps = 2.0 ** float(text[2:]) if text.startswith("2^") else float(text)
    except OverflowError:  # 2^K for K >= 1024
        eps = math.inf
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"epsilon {eps} outside (0, 1)")
    return eps


def format_epsilon(eps: float) -> str:
    exp = math.log2(eps)
    if eps == 2.0 ** round(exp):
        return f"2^{round(exp)}"
    return repr(eps)


def _epsilon_cost(epsilon: float) -> float:
    """4*log2(1/epsilon), the bits a block gives up for distance epsilon,
    taken as -4*log2(epsilon): 1/epsilon overflows below 2^-1024, while
    this is finite for every epsilon in (0, 1) and exact for a power of
    two."""
    return -4.0 * math.log2(epsilon)


def output_length(
    h: Union[EntropyRate, float], n: int, epsilon: float
) -> int:
    """Extractable bits per n-bit block; may be <= 0 (callers must reject)."""
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon {epsilon} outside (0, 1)")
    if n < 1:
        raise ParameterError("block size n must be >= 1")
    rate = float(h)
    return math.floor(rate * n - _epsilon_cost(epsilon) - 2.0)


@dataclass(frozen=True)
class ExtractorParams:
    """Block size, distance target and certified rate, with m derived.

    ``h_rate`` must be an entropy rate, a finite number in [0, 1], and
    ``n`` at most MAX_N, the largest block size for which the module
    docstring's error bound proves the hash exact whatever the seed.
    """

    # _largest_exact_n(), which takes about 15 ms; a test recomputes it.
    MAX_N: ClassVar[int] = 135_720_237

    n: int
    epsilon: float
    h_rate: float
    m: int = field(init=False)

    def __post_init__(self) -> None:
        if self.n > self.MAX_N:
            raise ParameterError(
                f"block size n = {self.n} exceeds {self.MAX_N}, the largest "
                "for which the FFT hash is proven exact"
            )
        rate = float(EntropyRate(self.h_rate))
        m = output_length(rate, self.n, self.epsilon)
        if m < 1:
            raise InsufficientEntropyError(
                f"no extractable output: floor(h*n - 4*log2(1/eps) - 2) = {m} "
                f"with h*n = {rate * self.n}, "
                f"4*log2(1/eps) = {_epsilon_cost(self.epsilon)}"
            )
        object.__setattr__(self, "h_rate", rate)
        object.__setattr__(self, "m", m)

    @property
    def seed_bits_needed(self) -> int:
        return self.n + self.m - 1

    @property
    def ratio(self) -> float:
        return self.m / self.n


@dataclass(frozen=True)
class HashSeed:
    """Uniform public bits defining one Toeplitz matrix (first row and
    first column concatenated), and the path of the seed file holding
    them, if any."""

    bits: np.ndarray
    path: Optional[str] = None

    def __post_init__(self) -> None:
        bits = _bit_array(self.bits, "seed bits")
        if bits.ndim != 1 or bits.size == 0:
            raise ParameterError("seed must be a nonempty bit vector")
        bits = bits.copy()
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def bit_length(self) -> int:
        return int(self.bits.shape[0])

    @property
    def sha256(self) -> str:
        """Digest of the seed bits packed as a bits file's payload, so a
        seed is pinned by its content wherever its file lives."""
        return hashlib.sha256(pack_bits(self.bits)).hexdigest()

    @classmethod
    def system(cls, bit_length: int, path: str) -> "HashSeed":
        """A seed drawn from system entropy, to be written to ``path``."""
        payload = secrets.token_bytes((bit_length + 7) // 8)
        return cls(unpack_bits(payload, bit_length), path)

    @classmethod
    def read(cls, path: str, bit_length: int) -> "HashSeed":
        """The first ``bit_length`` bits of a ``role=seed`` bits file; the
        rest of the file is not read."""
        stream = read_bits_file(path, "seed", bit_length)
        if stream.bit_length < bit_length:
            raise ParameterError(f"{path} holds {stream.bit_length} bits, the extractor needs {bit_length}")
        return cls(stream.bits, path)


class _Hasher:
    """Toeplitz hashing of n-bit blocks under one seed.  The seed's
    transform, the zero-padded input array (every batch's transforms run
    in it) and the rounding buffer (rows x _FINISH_SLICE int64, not
    rows x m) are made once per extraction."""

    def __init__(self, seed_bits: np.ndarray, n: int) -> None:
        m = seed_bits.shape[0] - n + 1
        if n < 1 or m < 1:
            raise ParameterError(
                f"seed of {seed_bits.shape[0]} bits cannot hash a {n}-bit block"
            )
        self.n, self.m = n, m
        # Circular convolution of length >= n + m - 1 aliases only the
        # coefficients below index n - 1, which the output window never
        # reads, so the transform can stay one block short of the full
        # linear-convolution length.
        self.fft_len = _fft_length(n + m - 1)
        self.eps = _transform_error(self.fft_len)
        self.seed_norm = math.sqrt(n + m - 1)
        fits = _BATCH_ROWS * self.fft_len * 8 <= _BATCH_BYTES
        self.rows = _BATCH_ROWS if fits else 1
        self.batch = 2 * self.rows
        self.pad = np.zeros((self.rows, self.fft_len), dtype=np.float64)
        self.rounded = np.empty((self.rows, min(m, _FINISH_SLICE)), dtype=np.int64)
        # A half-complex spectrum [S0, Re S1, Im S1, ...]: its real bins (DC,
        # and Nyquist at even N), and bins 1 to (N - 1) // 2 as (re, im) pairs.
        self.real = slice(0, None, self.fft_len - 1) if self.fft_len % 2 == 0 else slice(0, 1)
        self.pairs = slice(1, self.fft_len - 1 + self.fft_len % 2)
        # The centred seed 2s - 1 (its padding stays 0) has no DC spike; see
        # the module docstring.
        self.seed_fft = np.zeros(self.fft_len)
        centred = self.seed_fft[: n + m - 1]
        np.multiply(seed_bits, 2.0, out=centred)
        centred -= 1.0
        self.seed_fft = _fftpack.rfft(self.seed_fft, overwrite_x=True)
        # Row i of a batch holds its block i and its block rows + i scaled
        # by 2^shift, above every coefficient of the first.
        self.shift = n.bit_length()
        np.empty(_HEAP_WARMUP, dtype=np.uint8)

    def _batch_error(self, spectrum: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
        """The largest E of a batch's rows, from each row's computed
        spectral product ``spectrum`` and the popcounts of its low and high
        blocks, ``lo`` and ``hi``."""
        scale = 2.0**self.shift
        # Each row's sum of its N squares is within gamma_{N + 2}; the full
        # spectrum counts each square at most twice.  (einsum, not BLAS:
        # waking BLAS threads cost more than the sum at n = 1e4.)
        squares = 2 * np.einsum("ij,ij->i", spectrum, spectrum) / (1 - _gamma(self.fft_len + 2))
        x_norm = np.sqrt(lo) + scale * np.sqrt(hi)
        return _convolution_error(
            self.eps, np.sqrt(squares / self.fft_len), self.seed_norm, x_norm, lo + scale * hi
        ).max()

    def hash(self, blocks: np.ndarray, out: np.ndarray) -> None:
        """Hash each row of ``blocks`` (k x n) into the row of ``out`` (k x m)."""
        for start in range(0, len(blocks), self.batch):
            batch, hashed = blocks[start : start + self.batch], out[start : start + self.batch]
            if not self._hash_rows(batch, hashed, 2):  # hash these blocks again, one per row
                for first in range(0, len(batch), self.rows):
                    self._hash_rows(batch[first : first + self.rows], hashed[first : first + self.rows], 1)

    def _hash_rows(self, batch: np.ndarray, out: np.ndarray, per_row: int) -> bool:
        """Hash ``batch``, ``per_row`` blocks to a row, into ``out``; False,
        with ``out`` untouched, if a packed batch fails its bound.
        The batch is transformed in the pad rows, in place."""
        n, m, w = self.n, self.m, self.shift
        k = len(batch)
        rows = -(-k // per_row)
        high = k - rows  # rows that also carry a block in their high half
        # |x| of row i's low block (block i) and high block (rows + i, or none)
        ones = [np.count_nonzero(block) for block in batch] + [0] * (2 * rows - k)
        lo, hi = np.array(ones, dtype=np.int64).reshape(2, rows)
        pad = self.pad[:rows]
        np.multiply(batch[rows:], 2.0**w, out=pad[:high, :n])
        np.add(pad[:high, :n], batch[:high], out=pad[:high, :n])
        pad[high:, :n] = batch[high:rows]
        pad[:, n:] = 0.0
        spectrum = _fftpack.rfft(pad, axis=-1, overwrite_x=True)
        spectrum[:, self.real] *= self.seed_fft[self.real]
        pairs = spectrum[:, self.pairs].view(np.complex128)
        pairs *= self.seed_fft[self.pairs].view(np.complex128)
        if high and self._batch_error(spectrum, lo, hi) > _FFT_GUARD:
            return False
        conv = _fftpack.irfft(spectrum, axis=-1, overwrite_x=True)
        # rint(x * (2s - 1)) + |x_lo| + 2^w |x_hi| = 2 (c_lo + 2^w c_hi)
        # when exact, so an odd sum is a rounding error too.
        popcounts = (lo + (hi << w))[:, None]
        for start in range(0, m, _FINISH_SLICE):
            stop = min(start + _FINISH_SLICE, m)
            window = conv[:, n - 1 + start : n - 1 + stop]
            rounded = self.rounded[:rows, : stop - start]
            # A coefficient that is not a number casts to an arbitrary
            # integer here; its residual stays NaN, which the guard rejects.
            with np.errstate(invalid="ignore"):
                np.rint(window, out=rounded, casting="unsafe")
            np.subtract(window, rounded, out=window)
            np.abs(window, out=window)
            np.add(rounded, popcounts, out=rounded)
            low_bits = out[:rows, start:stop]
            np.bitwise_and(rounded, 3, out=low_bits, casting="unsafe")
            if not window.max() <= _FFT_GUARD or np.bitwise_or.reduce(low_bits, axis=None) & 1:
                raise ParameterError(
                    "FFT convolution lost integer precision; block size too large"
                )
            np.right_shift(low_bits, 1, out=low_bits)
            np.right_shift(rounded[:high], w + 1, out=rounded[:high])
            np.bitwise_and(rounded[:high], 1, out=out[rows:, start:stop], casting="unsafe")
        return True


def toeplitz_extract(seed: Union[HashSeed, np.ndarray], raw: np.ndarray) -> np.ndarray:
    """Hash one raw block, or each row of a 2-D array of blocks; the output
    width is len(seed) - n + 1 for blocks of n bits.

    Output bit j equals parity(sum_k seed[j - k + n - 1] * raw[k]), i.e.
    the (n - 1 + j)-th coefficient of the seed*raw convolution mod 2.
    """
    seed_bits = (seed if isinstance(seed, HashSeed) else HashSeed(seed)).bits
    raw = _bit_array(raw, "raw bits")
    hasher = _Hasher(seed_bits, raw.shape[-1])
    out = np.empty(raw.shape[:-1] + (hasher.m,), dtype=np.uint8)
    hasher.hash(raw.reshape(-1, hasher.n), out.reshape(-1, hasher.m))
    return out


@dataclass
class ExtractionResult:
    output: Optional[BitsFile]
    seed: HashSeed
    params: ExtractorParams
    blocks: int
    seconds: float  # wall time of the extraction, reads and writes included

    @property
    def raw_bits_per_second(self) -> float:
        return self.blocks * self.params.n / self.seconds

    def render(self) -> str:
        """ASCII key=value block of the extraction's accounting, for an
        ``output`` that is the file written and a seed with its file's
        path."""
        p = self.params
        lines = [
            f"blocks={self.blocks}",
            f"block_n={p.n}",
            f"block_m={p.m}",
            f"ratio={p.ratio!r}",
            f"output_bits={self.output.bit_length}",
            f"epsilon={format_epsilon(p.epsilon)}",
            f"seed=seed_file={self.seed.path}",
            f"seed_sha256={self.seed.sha256}",
            f"raw_bits_per_second={self.raw_bits_per_second:.3e}",
        ]
        return "\n".join(lines) + "\n"


def extract_stream(
    raw: Union[BitStream, BitsFile, np.ndarray],
    params: ExtractorParams,
    seed: HashSeed,
    sink: Callable[[np.ndarray], None],
) -> ExtractionResult:
    """Hash every full n-bit block of ``raw`` (a source with a length and
    ``chunks()``, or a bit array, read as a ``BitStream``) with one seed, a
    chunk at a time, handing each block group's output to ``sink`` as it is
    hashed; ``output`` is left for the caller to set.  The tail remainder is
    discarded; a stream with no whole block is insufficient data."""
    start = time.perf_counter()
    source = raw if hasattr(raw, "chunks") else BitStream(raw)
    if seed.bit_length != params.seed_bits_needed:
        raise ParameterError(
            f"seed has {seed.bit_length} bits, params need {params.seed_bits_needed}"
        )
    n, m = params.n, params.m
    blocks = len(source) // n
    if blocks == 0:
        raise InsufficientDataError(
            f"raw stream of {len(source)} bits is shorter than one {n}-bit block"
        )
    hasher = _Hasher(seed.bits, n)

    def hash_group(bits: np.ndarray) -> None:
        group = bits.reshape(-1, n)
        out = np.empty(group.shape[0] * m, np.uint8)
        hasher.hash(group, out.reshape(-1, m))
        sink(out)

    # Groups of whole batches (the blocks one transform call takes), except
    # the last, so the batches, and which blocks share a row, are the same
    # however the stream is chunked; a tail shorter than one block is dropped.
    groups = BlockCutter(n * hasher.batch)
    for chunk in source.chunks():
        groups.cut(chunk, hash_group)
    last = groups.rest.shape[0] // n * n
    if last:
        hash_group(groups.rest[:last])
    return ExtractionResult(None, seed, params, blocks, time.perf_counter() - start)


def _toeplitz_matrix(seed_bits: np.ndarray, n: int, m: int) -> np.ndarray:
    """Materialize T[j][k] = seed[j - k + n - 1]; small sizes only."""
    seed_bits = np.asarray(seed_bits, dtype=np.uint8)
    if seed_bits.shape[0] != n + m - 1:
        raise ParameterError("seed length must be n + m - 1")
    j = np.arange(m)[:, None]
    k = np.arange(n)[None, :]
    return seed_bits[j - k + n - 1]


@dataclass(frozen=True)
class _UniversalityReport:
    n: int
    m: int
    seed_count: int
    expected_collisions: int
    min_collisions: int
    max_collisions: int

    @property
    def exact(self) -> bool:
        return self.min_collisions == self.max_collisions == self.expected_collisions


def universality_check(n: int, m: int) -> _UniversalityReport:
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
        t = _toeplitz_matrix(seed_bits, n, m)
        out_ids = ((inputs @ t.T) & 1) @ out_weights
        collisions += out_ids[:, None] == out_ids[None, :]
    off_diag = collisions[~np.eye(num_inputs, dtype=bool)]
    return _UniversalityReport(
        n=n,
        m=m,
        seed_count=num_seeds,
        expected_collisions=num_seeds >> m,
        min_collisions=int(off_diag.min()),
        max_collisions=int(off_diag.max()),
    )
