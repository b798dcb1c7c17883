import hashlib
import math

import numpy as np
import pytest
from scipy.special import gammaincc

from qrbg.errors import InsufficientDataError, ParameterError
from qrbg.stat_tests import (
    ALL_TESTS,
    DEFAULT_SIGNIFICANCE,
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    longest_run_of_ones,
    monobit,
    pass_fraction,
    run_battery,
    runs,
    serial,
    battery_report,
)
import qrbg.bits
import qrbg.stat_tests
from qrbg.bits import BitStream
from qrbg.stat_tests import _cusum_p  # reference-value check at n below the floor
from qrbg.stat_tests import _Patterns, _result

def from_text(text):
    """A string of 0s and 1s as a bit array."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


# First 100 binary digits of pi, the SP 800-22 running example.
PI_100 = from_text(
    "1100100100001111110110101010001000100001011010001100001000110100"
    "110001001100011001100010100010111000"
)

# The 128-bit longest-run worked example.
E_128 = from_text(
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)


class TestPublishedVectors:
    """Worked-example p-values from the standard, matched to 1e-6."""

    def test_monobit_pi(self):
        assert monobit(PI_100).p_value == pytest.approx(0.109599, abs=1e-6)

    def test_block_frequency_pi(self):
        r = block_frequency(PI_100, block_len=10)
        assert r.statistic == pytest.approx(7.2, abs=1e-9)
        assert r.p_value == pytest.approx(0.706438, abs=1e-6)

    def test_runs_pi(self):
        assert runs(PI_100).p_value == pytest.approx(0.500798, abs=1e-6)

    def test_longest_run_128(self):
        r = longest_run_of_ones(E_128)
        assert r.statistic == pytest.approx(4.882457, abs=1e-6)
        assert r.p_value == pytest.approx(0.180609, abs=1e-6)
        assert r.parameters["nu"] == [4, 9, 3, 0]

    def test_cumulative_sums_pi(self):
        r = cumulative_sums(PI_100)
        assert r.parameters["z_forward"] == 16
        assert r.parameters["p_forward"] == pytest.approx(0.219194, abs=1e-6)

    def test_cumulative_sums_small_example_formula(self):
        # z = 4 over 10 bits of the standard's small example
        assert _cusum_p(4, 10) == pytest.approx(0.4116588, abs=1e-6)

    def test_serial_small(self):
        r = serial(from_text("0011011101"), m=3)
        assert r.parameters["p_value1"] == pytest.approx(0.808792, abs=1e-6)
        assert r.parameters["p_value2"] == pytest.approx(0.670320, abs=1e-6)
        assert r.statistic == pytest.approx(1.6, abs=1e-9)

    def test_approximate_entropy_small(self):
        r = approximate_entropy(from_text("0100110101"), m=3)
        assert r.p_value == pytest.approx(0.261961, abs=1e-6)

    def test_approximate_entropy_pi(self):
        r = approximate_entropy(PI_100, m=2)
        assert r.statistic == pytest.approx(5.550792, abs=1e-5)
        assert r.p_value == pytest.approx(0.235301, abs=1e-6)


class TestDegenerateInputs:
    def test_all_zeros_fails_everything(self):
        zeros = np.zeros(2000, dtype=np.uint8)
        results = run_battery(zeros) + [serial(zeros, m=3), approximate_entropy(zeros, m=3)]
        assert len(results) == 9
        assert all(not r.passed for r in results)

    def test_hundred_zeros_monobit(self):
        r = monobit(np.zeros(100, dtype=np.uint8))
        assert r.p_value == pytest.approx(math.erfc(10 / math.sqrt(2)), abs=1e-30)
        assert not r.passed

    def test_perfect_alternation_monobit(self):
        r = monobit(np.tile([0, 1], 500))
        assert r.p_value == 1.0
        assert r.passed

    def test_runs_precheck(self):
        biased = np.ones(1000, dtype=np.uint8)
        biased[:100] = 0
        r = runs(biased)
        assert r.p_value == 0.0
        assert r.parameters.get("precheck_failed")


class TestValidation:
    def test_minimum_lengths(self):
        with pytest.raises(InsufficientDataError):
            monobit(np.ones(99, dtype=np.uint8))
        with pytest.raises(InsufficientDataError):
            longest_run_of_ones(np.ones(127, dtype=np.uint8))
        with pytest.raises(InsufficientDataError):
            serial(np.ones(20, dtype=np.uint8), m=5)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            serial(np.ones(100, dtype=np.uint8), m=1)
        with pytest.raises(ParameterError):
            block_frequency(np.ones(200, dtype=np.uint8), block_len=1)
        with pytest.raises(ParameterError):
            run_battery(np.ones(100, dtype=np.uint8), tests=("monobit", "nonsense"))

    def test_pass_iff_p_at_least_significance(self, rng):
        bits = rng.integers(0, 2, 5000).astype(np.uint8)
        for r in run_battery(bits):
            assert r.passed == (r.p_value >= r.significance)
            assert 0.0 <= r.p_value <= 1.0


class TestBattery:
    def test_empty_config(self):
        assert run_battery(np.ones(1000, dtype=np.uint8), tests=()) == []

    def test_read_only(self, rng):
        bits = rng.integers(0, 2, 20_000).astype(np.uint8)
        before = hashlib.sha256(bits.tobytes()).hexdigest()
        run_battery(bits)
        assert hashlib.sha256(bits.tobytes()).hexdigest() == before

    def test_deterministic(self, rng):
        bits = rng.integers(0, 2, 20_000).astype(np.uint8)
        a = run_battery(bits)
        b = run_battery(bits)
        assert [(r.name, r.statistic, r.p_value) for r in a] == [
            (r.name, r.statistic, r.p_value) for r in b
        ]

    def test_good_generator_passes_most(self):
        bits = np.random.default_rng(123).integers(0, 2, 10**6).astype(np.uint8)
        results = run_battery(bits)
        assert sum(r.passed for r in results) >= 6

    def test_report_lines(self, rng):
        bits = rng.integers(0, 2, 5000).astype(np.uint8)
        results = run_battery(bits, tests=("monobit", "runs"))
        lines = battery_report(results).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("test=monobit stat=")
        assert " p=" in lines[0] and " pass=" in lines[0]
        assert pass_fraction(results) in (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("test", [monobit, run_battery])
    @pytest.mark.parametrize("values", [[2] * 100, [0, 3] * 100, [0, 256] * 100, [0.5, 1] * 100])
    def test_values_other_than_bits_rejected(self, test, values):
        with pytest.raises(ParameterError, match="bits must be 0 or 1"):
            test(np.array(values))

    def test_strings_are_not_parsed(self):
        with pytest.raises(ParameterError, match="bits must be 0 or 1"):
            monobit("01" * 50)


def reference_cusum_z(b):
    """Both scan directions' excursions from full-length int64 walks."""
    steps = 2 * b.astype(np.int64) - 1
    return (
        int(np.abs(np.cumsum(steps)).max()),
        int(np.abs(np.cumsum(steps[::-1])).max()),
    )


def reference_pattern_counts(b, m):
    """One int64 index per position over the whole stream."""
    n = b.shape[0]
    aug = np.concatenate([b, b[: m - 1]]) if m > 1 else b
    idx = np.zeros(n, dtype=np.int64)
    for j in range(m):
        idx = (idx << 1) | aug[j : j + n]
    return np.bincount(idx, minlength=1 << m)


def reference_pattern_tests(b, m=5, significance=DEFAULT_SIGNIFICANCE):
    """Serial and approximate entropy at pattern length m, each count
    taken over the whole stream at the length the formula names."""
    n = b.shape[0]

    def psi_squared(k):
        if k < 1:
            return 0.0
        return float((1 << k) / n * (reference_pattern_counts(b, k).astype(float) ** 2).sum() - n)

    def phi(k):
        frac = reference_pattern_counts(b, k)
        frac = frac[frac > 0] / n
        return float((frac * np.log(frac)).sum())

    d1 = psi_squared(m) - psi_squared(m - 1)
    d2 = psi_squared(m) - 2.0 * psi_squared(m - 1) + psi_squared(m - 2)
    p1 = float(gammaincc(2.0 ** (m - 2), d1 / 2.0))
    p2 = float(gammaincc(2.0 ** (m - 3), d2 / 2.0))
    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = float(gammaincc(2.0 ** (m - 1), chi2 / 2.0))
    return [
        _result("serial", d1, min(p1, p2), significance, m=m, p_value1=p1, p_value2=p2, delta2=d2),
        _result("approximate_entropy", chi2, p, significance, m=m, apen=apen),
    ]


# seeded streams spanning several pattern-count chunks with a ragged last
# one, a short stream, and the two constant streams
REFERENCE_STREAMS = {
    "seeded": np.random.default_rng(7).integers(0, 2, 2_500_003).astype(np.uint8),
    "biased": (np.random.default_rng(8).random(1_200_000) < 0.6).astype(np.uint8),
    "short": np.random.default_rng(9).integers(0, 2, 1000).astype(np.uint8),
    "zeros": np.zeros((1 << 20) + 5, dtype=np.uint8),
    "ones": np.ones((1 << 20) + 5, dtype=np.uint8),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_STREAMS))
class TestReferenceFormulas:
    def test_cumulative_sums_excursions(self, name):
        b = REFERENCE_STREAMS[name]
        z_fwd, z_rev = reference_cusum_z(b)
        params = cumulative_sums(b).parameters
        assert (params["z_forward"], params["z_reverse"]) == (z_fwd, z_rev)
        assert params["p_forward"] == _cusum_p(z_fwd, b.shape[0])
        assert params["p_reverse"] == _cusum_p(z_rev, b.shape[0])

    def test_pattern_counts(self, name):
        b = REFERENCE_STREAMS[name]
        for m in range(1, 7):
            patterns = _Patterns(m)
            patterns.feed(b)
            assert np.array_equal(patterns.finish(), reference_pattern_counts(b, m)), m

    def test_report_unchanged(self, name):
        b = REFERENCE_STREAMS[name]
        results = run_battery(b)
        assert [r.name for r in results[-2:]] == ["serial", "approximate_entropy"]
        want = results[:-2] + reference_pattern_tests(b)
        assert battery_report(results) == battery_report(want)
        assert results == want


@pytest.mark.parametrize("name", sorted(REFERENCE_STREAMS))
def test_battery_is_the_same_however_the_stream_is_chunked(name, monkeypatch):
    b = REFERENCE_STREAMS[name]

    def tests(stream):
        # the battery at its defaults, then the tests with other parameters
        return run_battery(stream) + [
            block_frequency(stream, block_len=20), serial(stream, m=2), approximate_entropy(stream, m=1)
        ]

    whole = tests(b)
    # chunks shorter than a pattern and than a block, or many blocks long
    # and ending mid-block; all but the last chunk have this length
    monkeypatch.setattr(qrbg.bits, "CHUNK_BITS", 5 if b.shape[0] < 10**4 else 65_537)
    assert tests(BitStream(b)) == whole


class TestCalibration:
    def test_pass_proportion_on_reference_generator(self):
        # 100 disjoint million-bit segments of a fixed PCG64 stream: the
        # per-test pass proportion must sit in the acceptance band for
        # alpha = 0.01 with 100 trials
        gen = np.random.default_rng(20260808)
        per_test_passes = {name: 0 for name in ALL_TESTS}
        for _ in range(100):
            segment = gen.integers(0, 2, 10**6).astype(np.uint8)
            for r in run_battery(segment):
                per_test_passes[r.name] += r.passed
        for name, passed in per_test_passes.items():
            assert 96 <= passed <= 100, (name, passed)
