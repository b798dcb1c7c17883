"""A-posteriori statistical validation, NIST SP 800-22 style.

Seven tests from the suite are implemented: frequency (monobit), block
frequency, runs, longest run of ones, cumulative sums, serial and
approximate entropy.  Each follows the published formulas and reproduces
the standard's worked-example p-values; the remaining suite members
(spectral, templates, universal, complexity and the random-excursion
family) are out of scope.

These tests check that a generator is implemented correctly.  They are
not a security argument: passing them proves nothing about
unpredictability, which rests on the certified min-entropy instead.

Every test is a pure function of its input bits and never mutates them.
A test reads its input once, a chunk at a time, keeping only exact integer
state between chunks (counts, the walk's end point and extremes, pattern
counts with their overlap), so a stream on disk is tested in bounded
memory and every p-value is the same however the stream is chunked.
Tests returning several p-values (serial, cumulative sums) report the
smallest as their headline p_value and carry the individual values in
``parameters``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gammaincc

from .bits import BitStream, BlockCutter
from .errors import InsufficientDataError, ParameterError

DEFAULT_SIGNIFICANCE = 0.01

_PATTERN_CHUNK = 1 << 20  # bits per bincount in the pattern tests

# Longest-run class probabilities. For 8-bit blocks these are the exact
# run-length fractions out of 256 strings; the larger block sizes use the
# reference implementation's constants.
_LONGEST_RUN_TABLES = (
    (750_000, 10_000, 10, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, 4, (0.1174035788, 0.242955959, 0.249363483, 0.17517706, 0.102701071, 0.112398847)),
    (128, 8, 1, (55 / 256, 94 / 256, 59 / 256, 48 / 256)),
)


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    passed: bool
    significance: float
    parameters: dict = field(default_factory=dict)


def _result(
    name: str,
    statistic: float,
    p_value: float,
    significance: float,
    **parameters,
) -> TestResult:
    p_value = float(min(1.0, max(0.0, p_value)))
    return TestResult(
        name=name,
        statistic=float(statistic),
        p_value=p_value,
        passed=p_value >= significance,
        significance=significance,
        parameters=parameters,
    )


def _require(n: int, minimum: int, test: str) -> int:
    if n < minimum:
        raise InsufficientDataError(f"{test} needs >= {minimum} bits, got {n}")
    return n


def _igamc(a: float, x: float) -> float:
    return float(gammaincc(a, x))


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Each test below is a class that holds exact integer state over
# consecutive chunks of one stream (``feed``) and applies the published
# formula once the stream ends (``finish``).  The constructor gets the
# stream's full length, checks it and the test's parameters, and reads no
# bits; ``_run`` feeds every chunk to every test, or to the pattern counts
# it reads.


class _Monobit:
    def __init__(self, n: int) -> None:
        self.n = _require(n, 100, "monobit")
        self.ones = 0

    def feed(self, b: np.ndarray) -> None:
        self.ones += int(np.count_nonzero(b))

    def finish(self, significance: float) -> TestResult:
        n = self.n
        s = 2.0 * self.ones - n
        s_obs = abs(s) / math.sqrt(n)
        p = math.erfc(s_obs / math.sqrt(2.0))
        return _result("monobit", s_obs, p, significance, n=n)


class _Blocks:
    """Feeds ``count`` the whole m-bit blocks of a stream's first
    n // m * m bits, one per row, a partial block carried across chunks."""

    def __init__(self, n: int, m: int) -> None:
        self.m, self.big_n = m, n // m
        self._left = self.big_n * m
        self._cutter = BlockCutter(m)

    def feed(self, b: np.ndarray) -> None:
        b = b[: self._left]
        self._left -= b.shape[0]
        self._cutter.cut(b, self.count)


class _BlockFrequency(_Blocks):
    def __init__(self, n: int, block_len: int | None = None) -> None:
        _require(n, 100, "block_frequency")
        m = block_len if block_len is not None else max(20, n // 100)
        if m < 2 or m > n:
            raise ParameterError(f"block length {m} invalid for {n} bits")
        super().__init__(n, m)
        self.ones: list[np.ndarray] = []  # per block

    def count(self, blocks: np.ndarray) -> None:
        self.ones.append(blocks.sum(axis=1, dtype=np.int64))

    def finish(self, significance: float) -> TestResult:
        m, big_n = self.m, self.big_n
        props = np.concatenate(self.ones) / m
        chi2 = 4.0 * m * float(((props - 0.5) ** 2).sum())
        p = _igamc(big_n / 2.0, chi2 / 2.0)
        return _result("block_frequency", chi2, p, significance, block_len=m, blocks=big_n)


class _Runs:
    def __init__(self, n: int) -> None:
        self.n = _require(n, 100, "runs")
        self.ones = 0
        self.changes = 0  # adjacent unequal pairs
        self.last: int | None = None

    def feed(self, b: np.ndarray) -> None:
        if not b.size:
            return
        self.ones += int(np.count_nonzero(b))
        self.changes += int(np.count_nonzero(b[1:] != b[:-1]))
        if self.last is not None:
            self.changes += int(b[0]) != self.last
        self.last = int(b[-1])

    def finish(self, significance: float) -> TestResult:
        n = self.n
        pi = self.ones / n
        if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
            # frequency precondition failed; the standard assigns p = 0
            return _result("runs", 0.0, 0.0, significance, pi=pi, precheck_failed=True)
        v_obs = 1 + self.changes
        num = abs(v_obs - 2.0 * n * pi * (1.0 - pi))
        den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
        p = math.erfc(num / den)
        return _result("runs", float(v_obs), p, significance, pi=pi)


def _longest_run_per_block(blocks: np.ndarray) -> np.ndarray:
    n_blocks, width = blocks.shape
    padded = np.zeros((n_blocks, width + 2), dtype=np.int8)
    padded[:, 1:-1] = blocks
    flat = padded.ravel()
    delta = np.diff(flat)
    starts = np.flatnonzero(delta == 1)
    ends = np.flatnonzero(delta == -1)
    longest = np.zeros(n_blocks, dtype=np.int64)
    np.maximum.at(longest, starts // (width + 2), ends - starts)
    return longest


class _LongestRun(_Blocks):
    def __init__(self, n: int) -> None:
        _require(n, 128, "longest_run_of_ones")
        for threshold, m, lowest, pis in _LONGEST_RUN_TABLES:
            if n >= threshold:
                break
        super().__init__(n, m)
        self.lowest, self.pis = lowest, pis
        self.nu = np.zeros(len(pis), dtype=np.int64)  # blocks per run-length class

    def count(self, blocks: np.ndarray) -> None:
        k = len(self.pis) - 1
        longest = _longest_run_per_block(blocks)
        classes = np.clip(longest, self.lowest, self.lowest + k) - self.lowest
        self.nu += np.bincount(classes, minlength=k + 1)

    def finish(self, significance: float) -> TestResult:
        nu, big_n, k = self.nu, self.big_n, len(self.pis) - 1
        expected = big_n * np.asarray(self.pis)
        chi2 = float(((nu - expected) ** 2 / expected).sum())
        p = _igamc(k / 2.0, chi2 / 2.0)
        return _result(
            "longest_run_of_ones",
            chi2,
            p,
            significance,
            block_len=self.m,
            blocks=big_n,
            nu=nu.tolist(),
        )


def _cusum_p(z: int, n: int) -> float:
    # summation limits follow the reference implementation's integer
    # divisions so published example values reproduce exactly
    big_k = n // z
    rz = z / math.sqrt(n)
    total = 1.0
    for k in range(math.trunc((-big_k + 1) / 4), math.trunc((big_k - 1) / 4) + 1):
        total -= _phi((4 * k + 1) * rz) - _phi((4 * k - 1) * rz)
    for k in range(math.trunc((-big_k - 3) / 4), math.trunc((big_k - 1) / 4) + 1):
        total += _phi((4 * k + 3) * rz) - _phi((4 * k + 1) * rz)
    return total


class _CumulativeSums:
    """One walk S_k of +-1 steps, S_0 = 0: the forward excursion is the
    largest |S_k|, and the reverse walk's partial sums are S_n - S_k for
    k < n, so the reverse excursion needs only the extremes of S_0..S_n-1
    and the end point S_n."""

    def __init__(self, n: int) -> None:
        self.n = _require(n, 100, "cumulative_sums")
        # the narrowest integer that holds |S_k| <= n
        self.dtype = np.int32 if n < 2**31 else np.int64
        self.end = self.low = self.high = self.z_forward = 0

    def feed(self, b: np.ndarray) -> None:
        if not b.size:
            return
        steps = b.astype(np.int8)
        steps *= 2
        steps -= 1
        walk = np.cumsum(steps, dtype=self.dtype)
        walk += self.end
        self.z_forward = max(self.z_forward, int(walk.max()), -int(walk.min()))
        head = walk[:-1]  # S_k before this chunk's last, from S_end onwards
        self.low = min(self.low, int(head.min(initial=self.end)))
        self.high = max(self.high, int(head.max(initial=self.end)))
        self.end = int(walk[-1])

    def finish(self, significance: float) -> TestResult:
        n, z_fwd = self.n, self.z_forward
        z_rev = max(self.end - self.low, self.high - self.end)
        p_fwd = _cusum_p(z_fwd, n)
        p_rev = _cusum_p(z_rev, n)
        if p_fwd <= p_rev:
            z, p = z_fwd, p_fwd
        else:
            z, p = z_rev, p_rev
        return _result(
            "cumulative_sums",
            float(z),
            p,
            significance,
            z_forward=z_fwd,
            p_forward=p_fwd,
            z_reverse=z_rev,
            p_reverse=p_rev,
        )


def _window_counts(data: np.ndarray, m: int) -> np.ndarray:
    """Counts of the m-bit patterns lying wholly inside ``data``, indexed
    with the first bit most significant; no index array is longer than
    _PATTERN_CHUNK."""
    starts = data.shape[0] - m + 1
    counts = np.zeros(1 << m, dtype=np.int64)
    for lo in range(0, max(starts, 0), _PATTERN_CHUNK):
        hi = min(lo + _PATTERN_CHUNK, starts)
        idx = np.zeros(hi - lo, dtype=np.int64)
        for j in range(m):
            idx <<= 1
            idx |= data[lo + j : hi + j]
        counts += np.bincount(idx, minlength=1 << m)
    return counts


class _Patterns:
    """Counts of the m-bit patterns starting at each position of a stream
    read as a cycle.  The last m - 1 bits seen carry each pattern across a
    chunk boundary, and the stream's first m - 1 bits close the cycle."""

    def __init__(self, m: int) -> None:
        self.m = m
        self.counts = np.zeros(1 << m, dtype=np.int64)
        self.head = self.tail = np.empty(0, dtype=np.uint8)

    def feed(self, b: np.ndarray) -> None:
        overlap = self.m - 1
        if self.head.size < overlap:
            self.head = np.concatenate([self.head, b[: overlap - self.head.size]])
        data = np.concatenate([self.tail, b]) if self.tail.size else b
        self.counts += _window_counts(data, self.m)
        self.tail = data[max(data.shape[0] - overlap, 0) :].copy()

    def finish(self) -> np.ndarray:
        """The counts; the m - 1 patterns that wrap round the end are added."""
        return self.counts + _window_counts(np.concatenate([self.tail, self.head]), self.m)


def _shorter(counts: np.ndarray) -> np.ndarray:
    """Cyclic pattern counts one bit shorter: a pattern's count is the sum
    over the bit that follows it."""
    return counts.reshape(-1, 2).sum(axis=1)


def _psi_squared(counts: np.ndarray, m: int, n: int) -> float:
    if m < 1:
        return 0.0
    return float((1 << m) / n * (counts.astype(float) ** 2).sum() - n)


# The pattern tests read cyclic counts of m + 1 bits from a ``patterns``
# attribute and have no ``feed`` of their own: ``_run`` feeds one
# ``_Patterns`` per length, however many tests read it.


class _Serial:
    def __init__(self, n: int, m: int = 5) -> None:
        if m < 2:
            raise ParameterError("serial needs pattern length m >= 2")
        self.n = _require(n, 1 << m, "serial")
        self.m = m
        self.patterns = _Patterns(m + 1)

    def finish(self, significance: float) -> TestResult:
        n, m = self.n, self.m
        counts_m = _shorter(self.patterns.finish())
        counts_m1 = _shorter(counts_m)
        psi_m = _psi_squared(counts_m, m, n)
        psi_m1 = _psi_squared(counts_m1, m - 1, n)
        psi_m2 = _psi_squared(_shorter(counts_m1), m - 2, n)
        d1 = psi_m - psi_m1
        d2 = psi_m - 2.0 * psi_m1 + psi_m2
        p1 = _igamc(2.0 ** (m - 2), d1 / 2.0)
        p2 = _igamc(2.0 ** (m - 3), d2 / 2.0)
        return _result(
            "serial",
            d1,
            min(p1, p2),
            significance,
            m=m,
            p_value1=p1,
            p_value2=p2,
            delta2=d2,
        )


class _ApproximateEntropy:
    def __init__(self, n: int, m: int = 5) -> None:
        if m < 1:
            raise ParameterError("approximate_entropy needs m >= 1")
        self.n = _require(n, 1 << m, "approximate_entropy")
        self.m = m
        self.patterns = _Patterns(m + 1)

    def finish(self, significance: float) -> TestResult:
        n, m = self.n, self.m

        def phi(counts: np.ndarray) -> float:
            frac = counts[counts > 0] / n
            return float((frac * np.log(frac)).sum())

        counts_m1 = self.patterns.finish()
        apen = phi(_shorter(counts_m1)) - phi(counts_m1)
        chi2 = 2.0 * n * (math.log(2.0) - apen)
        p = _igamc(2.0 ** (m - 1), chi2 / 2.0)
        return _result("approximate_entropy", chi2, p, significance, m=m, apen=apen)


def _run(bits, makers: list[Callable], significance: float) -> list[TestResult]:
    """Each maker builds one test for the stream's length; every chunk is
    fed to every test, or once to each length of pattern counts that tests
    read, then each test reports.  ``bits`` is a source with a length and
    ``chunks()``, or a bit array, read as a ``BitStream``."""
    source = bits if hasattr(bits, "chunks") else BitStream(bits)
    tests = [make(len(source)) for make in makers]
    patterns: dict[int, _Patterns] = {}
    for test in tests:
        if hasattr(test, "patterns"):
            test.patterns = patterns.setdefault(test.patterns.m, test.patterns)
    fed = [test for test in tests if not hasattr(test, "patterns")] + list(patterns.values())
    if fed:
        for chunk in source.chunks():
            for part in fed:
                part.feed(chunk)
    return [test.finish(significance) for test in tests]


def monobit(bits, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    """Frequency test: erfc(|sum of +-1|/sqrt(2n))."""
    return _run(bits, [_Monobit], significance)[0]


def block_frequency(
    bits, block_len: int | None = None, significance: float = DEFAULT_SIGNIFICANCE
) -> TestResult:
    return _run(bits, [lambda n: _BlockFrequency(n, block_len)], significance)[0]


def runs(bits, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    return _run(bits, [_Runs], significance)[0]


def longest_run_of_ones(bits, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    return _run(bits, [_LongestRun], significance)[0]


def cumulative_sums(bits, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    """Both scan directions; the headline p-value is the smaller one."""
    return _run(bits, [_CumulativeSums], significance)[0]


def serial(bits, m: int = 5, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    return _run(bits, [lambda n: _Serial(n, m)], significance)[0]


def approximate_entropy(
    bits, m: int = 5, significance: float = DEFAULT_SIGNIFICANCE
) -> TestResult:
    return _run(bits, [lambda n: _ApproximateEntropy(n, m)], significance)[0]


# The battery in report order, each test at its default parameters.
_BATTERY: dict[str, Callable] = {
    "monobit": _Monobit,
    "block_frequency": _BlockFrequency,
    "runs": _Runs,
    "longest_run_of_ones": _LongestRun,
    "cumulative_sums": _CumulativeSums,
    "serial": _Serial,
    "approximate_entropy": _ApproximateEntropy,
}
ALL_TESTS = tuple(_BATTERY)


def run_battery(
    bits, tests: tuple[str, ...] = ALL_TESTS, significance: float = DEFAULT_SIGNIFICANCE
) -> list[TestResult]:
    """Run the named tests at their default parameters on the same
    (unmodified) stream, in one pass over its chunks; ``bits`` as ``_run``
    takes it."""
    unknown = [t for t in tests if t not in _BATTERY]
    if unknown:
        raise ParameterError(f"unknown tests: {unknown}")
    return _run(bits, [_BATTERY[name] for name in tests], significance)


def check_length(n: int, tests: tuple[str, ...]) -> None:
    """Raise what ``run_battery`` raises for an ``n``-bit stream shorter
    than a named test needs, reading no bits: each test's constructor
    checks the length."""
    for name in tests:
        _BATTERY[name](n)


def pass_fraction(results: list[TestResult]) -> float:
    if not results:
        return 1.0
    return sum(r.passed for r in results) / len(results)


def battery_report(results: list[TestResult]) -> str:
    lines = [
        f"test={r.name} stat={r.statistic!r} p={r.p_value!r} pass={int(r.passed)}"
        for r in results
    ]
    return "\n".join(lines) + ("\n" if lines else "")
