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
Tests returning several p-values (serial, cumulative sums) report the
smallest as their headline p_value and carry the individual values in
``parameters``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np
from scipy.special import gammaincc

from .bits import BitStream
from .errors import InsufficientDataError, ParameterError

DEFAULT_SIGNIFICANCE = 0.01

_PATTERN_CHUNK = 1 << 20  # bits per bincount in the pattern tests

ALL_TESTS = (
    "monobit",
    "block_frequency",
    "runs",
    "longest_run_of_ones",
    "cumulative_sums",
    "serial",
    "approximate_entropy",
)

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


def as_bits(bits: Union[BitStream, np.ndarray, Sequence[int], str]) -> np.ndarray:
    if isinstance(bits, BitStream):
        return bits.bits
    if isinstance(bits, str):
        return np.fromiter((int(c) for c in bits), dtype=np.uint8)
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ParameterError("bit input must be one-dimensional")
    return arr


def _require(bits: np.ndarray, minimum: int, test: str) -> int:
    n = bits.shape[0]
    if n < minimum:
        raise InsufficientDataError(f"{test} needs >= {minimum} bits, got {n}")
    return n


def _igamc(a: float, x: float) -> float:
    return float(gammaincc(a, x))


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def monobit(bits, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    """Frequency test: erfc(|sum of +-1|/sqrt(2n))."""
    b = as_bits(bits)
    n = _require(b, 100, "monobit")
    s = 2.0 * int(b.sum()) - n
    s_obs = abs(s) / math.sqrt(n)
    p = math.erfc(s_obs / math.sqrt(2.0))
    return _result("monobit", s_obs, p, significance, n=n)


def block_frequency(
    bits, block_len: int | None = None, significance: float = DEFAULT_SIGNIFICANCE
) -> TestResult:
    b = as_bits(bits)
    n = _require(b, 100, "block_frequency")
    m = block_len if block_len is not None else max(20, n // 100)
    if m < 2 or m > n:
        raise ParameterError(f"block length {m} invalid for {n} bits")
    big_n = n // m
    props = b[: big_n * m].reshape(big_n, m).mean(axis=1)
    chi2 = 4.0 * m * float(((props - 0.5) ** 2).sum())
    p = _igamc(big_n / 2.0, chi2 / 2.0)
    return _result("block_frequency", chi2, p, significance, block_len=m, blocks=big_n)


def runs(bits, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    b = as_bits(bits)
    n = _require(b, 100, "runs")
    pi = float(b.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        # frequency precondition failed; the standard assigns p = 0
        return _result("runs", 0.0, 0.0, significance, pi=pi, precheck_failed=True)
    v_obs = 1 + int((b[1:] != b[:-1]).sum())
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


def longest_run_of_ones(bits, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    b = as_bits(bits)
    n = _require(b, 128, "longest_run_of_ones")
    for threshold, m, lowest, pis in _LONGEST_RUN_TABLES:
        if n >= threshold:
            break
    big_n = n // m
    longest = _longest_run_per_block(b[: big_n * m].reshape(big_n, m))
    k = len(pis) - 1
    classes = np.clip(longest, lowest, lowest + k) - lowest
    nu = np.bincount(classes, minlength=k + 1)
    expected = big_n * np.asarray(pis)
    chi2 = float(((nu - expected) ** 2 / expected).sum())
    p = _igamc(k / 2.0, chi2 / 2.0)
    return _result(
        "longest_run_of_ones",
        chi2,
        p,
        significance,
        block_len=m,
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


def cumulative_sums(bits, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    """Both scan directions; the headline p-value is the smaller one."""
    b = as_bits(bits)
    n = _require(b, 100, "cumulative_sums")
    # one walk S_k of +-1 steps, S_0 = 0, in the narrowest integer that
    # holds |S_k| <= n; the reverse walk's partial sums are S_n - S_k, k < n
    steps = b.astype(np.int8)
    steps *= 2
    steps -= 1
    walk = np.cumsum(steps, dtype=np.int32 if n < 2**31 else np.int64)
    z_fwd = max(int(walk.max()), -int(walk.min()))
    end, head = int(walk[-1]), walk[:-1]
    low, high = int(head.min(initial=0)), int(head.max(initial=0))
    z_rev = max(end - low, high - end)
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


def _pattern_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Counts of the m-bit patterns starting at each position, wrapping
    round the end; accumulated per chunk so no index array is n long."""
    n = b.shape[0]
    aug = np.concatenate([b, b[: m - 1]]) if m > 1 else b
    counts = np.zeros(1 << m, dtype=np.int64)
    for start in range(0, n, _PATTERN_CHUNK):
        stop = min(start + _PATTERN_CHUNK, n)
        idx = np.zeros(stop - start, dtype=np.int64)
        for j in range(m):
            idx <<= 1
            idx |= aug[start + j : stop + j]
        counts += np.bincount(idx, minlength=1 << m)
    return counts


def _psi_squared(b: np.ndarray, m: int) -> float:
    if m < 1:
        return 0.0
    n = b.shape[0]
    counts = _pattern_counts(b, m)
    return float((1 << m) / n * (counts.astype(float) ** 2).sum() - n)


def serial(bits, m: int = 5, significance: float = DEFAULT_SIGNIFICANCE) -> TestResult:
    b = as_bits(bits)
    if m < 2:
        raise ParameterError("serial needs pattern length m >= 2")
    n = _require(b, 1 << m, "serial")
    psi_m = _psi_squared(b, m)
    psi_m1 = _psi_squared(b, m - 1)
    psi_m2 = _psi_squared(b, m - 2)
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


def approximate_entropy(
    bits, m: int = 5, significance: float = DEFAULT_SIGNIFICANCE
) -> TestResult:
    b = as_bits(bits)
    if m < 1:
        raise ParameterError("approximate_entropy needs m >= 1")
    n = _require(b, 1 << m, "approximate_entropy")

    def phi(block: int) -> float:
        counts = _pattern_counts(b, block)
        frac = counts[counts > 0] / n
        return float((frac * np.log(frac)).sum())

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = _igamc(2.0 ** (m - 1), chi2 / 2.0)
    return _result("approximate_entropy", chi2, p, significance, m=m, apen=apen)


@dataclass(frozen=True)
class BatteryConfig:
    tests: tuple[str, ...] = ALL_TESTS
    significance: float = DEFAULT_SIGNIFICANCE
    block_len: int | None = None
    serial_m: int = 5
    apen_m: int = 5

    def __post_init__(self) -> None:
        unknown = [t for t in self.tests if t not in ALL_TESTS]
        if unknown:
            raise ParameterError(f"unknown tests: {unknown}")


def run_battery(bits, config: BatteryConfig | None = None) -> list[TestResult]:
    """Run every enabled test on the same (unmodified) stream."""
    cfg = config or BatteryConfig()
    b = as_bits(bits)
    runners: dict[str, Callable[[], TestResult]] = {
        "monobit": lambda: monobit(b, cfg.significance),
        "block_frequency": lambda: block_frequency(b, cfg.block_len, cfg.significance),
        "runs": lambda: runs(b, cfg.significance),
        "longest_run_of_ones": lambda: longest_run_of_ones(b, cfg.significance),
        "cumulative_sums": lambda: cumulative_sums(b, cfg.significance),
        "serial": lambda: serial(b, cfg.serial_m, cfg.significance),
        "approximate_entropy": lambda: approximate_entropy(b, cfg.apen_m, cfg.significance),
    }
    return [runners[name]() for name in cfg.tests]


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
