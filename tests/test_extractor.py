import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import qrbg.bits
import qrbg.extractor
from qrbg.bits import BitStream, pack_bits, write_bits_file
from qrbg.errors import InsufficientDataError, InsufficientEntropyError, ParameterError
from qrbg.extractor import _toeplitz_matrix  # the index definition, as the hash's reference
from qrbg.extractor import (
    ExtractorParams,
    HashSeed,
    extract_stream,
    format_epsilon,
    output_length,
    parse_epsilon,
    toeplitz_extract,
    universality_check,
)


def matrix_oracle(seed_bits, raw):
    """Straight GF(2) matrix multiply from the index definition; the
    independent reference for the convolution path."""
    seed_bits = list(seed_bits)
    raw = list(raw)
    n = len(raw)
    m = len(seed_bits) - n + 1
    out = []
    for j in range(m):
        acc = 0
        for k in range(n):
            acc ^= seed_bits[j - k + n - 1] & raw[k]
        out.append(acc)
    return np.array(out, dtype=np.uint8)


def full_spectrum_norm(half):
    """The 2-norm of the full spectrum whose even-length real-transform half
    is ``half``: bins other than 0 and N/2 stand for a conjugate pair."""
    squares = np.abs(half.astype(np.clongdouble)) ** 2
    return math.sqrt(float(2 * squares.sum() - squares[0] - squares[-1]))


def half_complex(spectrum, length):
    """scipy.fftpack's layout [S0, Re S1, Im S1, ...] of ``spectrum``, the
    last axis of scipy.fft's real spectra of ``length`` points."""
    pairs = spectrum[..., 1 : (length + 1) // 2]
    parts = [spectrum[..., :1].real, np.stack([pairs.real, pairs.imag], -1).reshape(*pairs.shape[:-1], -1)]
    return np.concatenate(parts + [spectrum[..., -1:].real] * (length % 2 == 0), -1)


def complex_spectrum(half, length):
    """scipy.fft's real spectra of ``length`` points from the last axis of
    ``half``, in scipy.fftpack's layout."""
    out = np.zeros(half.shape[:-1] + (length // 2 + 1,), np.complex128)
    pairs = half[..., 1 : length - 1 + length % 2]
    out.real[..., 1 : (length + 1) // 2], out.imag[..., 1 : (length + 1) // 2] = pairs[..., 0::2], pairs[..., 1::2]
    out.real[..., 0] = half[..., 0]
    if length % 2 == 0:
        out.real[..., -1] = half[..., -1]
    return out


def record_batches(monkeypatch):
    """Two lists that fill as hashers run: each packed batch's bound, and
    the row count of each inverse transform."""
    errors, inverses = [], []
    batch_error, irfft = qrbg.extractor._Hasher._batch_error, qrbg.extractor._fftpack.irfft
    monkeypatch.setattr(
        qrbg.extractor._Hasher, "_batch_error", lambda *a: errors.append(batch_error(*a)) or errors[-1]
    )
    monkeypatch.setattr(
        qrbg.extractor._fftpack, "irfft", lambda x, *a, **k: inverses.append(len(x)) or irfft(x, *a, **k)
    )
    return errors, inverses


def row_by_row_batch_error(hasher, seed, batch):
    """The largest E of the rows that ``batch`` (k x n, two blocks to a
    row) packs into, evaluated one row at a time from scipy.fft's complex
    spectra of the row and of the centred seed padded with zeros."""
    fft, length, w = qrbg.extractor._fft, hasher.fft_len, hasher.shift
    n = batch.shape[1]
    centred = np.zeros(length)
    centred[: seed.size] = 2.0 * seed - 1.0
    seed_spectrum = fft.rfft(centred)
    rows = -(-len(batch) // 2)
    worst = 0.0
    # Row i holds block i and 2^w times block rows + i, if there is one.
    for i in range(rows):
        lo = batch[i]
        hi = batch[rows + i] if rows + i < len(batch) else np.zeros(n, np.uint8)
        row = np.zeros(length)
        row[:n] = lo + 2.0**w * hi
        product = fft.rfft(row) * seed_spectrum
        squares = 2 * np.vdot(product, product).real / (1 - qrbg.extractor._gamma(length + 2))
        a, b = np.count_nonzero(lo), np.count_nonzero(hi)
        error = qrbg.extractor._convolution_error(
            hasher.eps,
            math.sqrt(squares / length),
            math.sqrt(seed.size),
            math.sqrt(a) + 2**w * math.sqrt(b),
            a + 2**w * b,
        )
        worst = max(worst, error)
    return worst


class TestOutputLength:
    def test_unit_rate(self):
        assert output_length(1.0, 1000, 2.0**-10) == math.floor(1000 - 4 * 10 - 2)
        assert output_length(1.0, 1000, 2.0**-10) == 958

    def test_reference_accounting_point(self):
        assert output_length(0.96, 4096, 2.0**-64) == 3674

    def test_zero_rate_unusable(self):
        assert output_length(0.0, 10**6, 2.0**-10) < 0
        with pytest.raises(InsufficientEntropyError):
            ExtractorParams(10**6, 2.0**-10, 0.0)

    @pytest.mark.parametrize("h_rate", [1.5, -0.1, float("nan"), float("inf")])
    def test_rate_must_be_an_entropy_rate(self, h_rate):
        with pytest.raises(ParameterError):
            ExtractorParams(1000, 2.0**-16, h_rate)

    def test_m_is_derived_not_given(self):
        assert ExtractorParams(100_000, 2.0**-64, 0.96).m == 95742
        with pytest.raises(TypeError):
            ExtractorParams(100_000, 2.0**-64, 0.96, m=5)

    @pytest.mark.parametrize(
        "text, cost", [("2^-1030", 4120), ("1e-310", 4 * -math.log2(1e-310))], ids=["2^-1030", "1e-310"]
    )
    def test_epsilon_below_2_to_minus_1024(self, text, cost):
        # 1/epsilon overflows to inf here; the cost is still finite
        assert output_length(1.0, 10**4, parse_epsilon(text)) == math.floor(10**4 - cost - 2)
        with pytest.raises(InsufficientEntropyError, match=r"4\*log2\(1/eps\) = 4120.0"):
            ExtractorParams(1000, 2.0**-1030, 1.0)

    def test_epsilon_validation(self):
        with pytest.raises(ParameterError):
            output_length(1.0, 100, 0.0)
        with pytest.raises(ParameterError):
            output_length(1.0, 100, 1.0)

    def test_rate_ratios(self):
        assert output_length(0.96, 100_000, 2.0**-64) / 100_000 == pytest.approx(
            0.9574, abs=1e-4
        )
        assert output_length(0.38, 100_000, 2.0**-64) / 100_000 == pytest.approx(
            0.3774, abs=1e-4
        )


class TestToeplitzExtract:
    def test_reference_vector(self):
        seed = HashSeed(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        raw = np.array([1, 0, 1, 1], dtype=np.uint8)
        want = matrix_oracle([1, 0, 1, 1, 0], [1, 0, 1, 1])
        got = toeplitz_extract(seed, raw)
        assert np.array_equal(got, want)
        assert got.tolist() == [0, 1]

    def test_all_zero_raw(self, rng):
        seed = HashSeed(rng.integers(0, 2, 40).astype(np.uint8))
        out = toeplitz_extract(seed, np.zeros(20, dtype=np.uint8))
        assert not out.any()

    def test_linearity(self, rng):
        seed = HashSeed(rng.integers(0, 2, 300).astype(np.uint8))
        for _ in range(50):
            x = rng.integers(0, 2, 200).astype(np.uint8)
            y = rng.integers(0, 2, 200).astype(np.uint8)
            a = toeplitz_extract(seed, x ^ y)
            b = toeplitz_extract(seed, x) ^ toeplitz_extract(seed, y)
            assert np.array_equal(a, b)

    def test_matches_matrix_oracle_across_shapes(self, rng):
        for n, m in [(1, 1), (3, 8), (17, 5), (64, 64), (301, 97), (1000, 958)]:
            seed_bits = rng.integers(0, 2, n + m - 1).astype(np.uint8)
            raw = rng.integers(0, 2, n).astype(np.uint8)
            got = toeplitz_extract(HashSeed(seed_bits), raw)
            assert np.array_equal(got, matrix_oracle(seed_bits, raw)), (n, m)

    def test_matches_vectorized_oracle_large(self, rng):
        n, m = 4096, 3674
        seed_bits = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        raw = rng.integers(0, 2, n).astype(np.uint8)
        t = seed_bits[np.arange(m)[:, None] - np.arange(n)[None, :] + n - 1]
        want = (t @ raw) % 2
        got = toeplitz_extract(HashSeed(seed_bits), raw)
        assert np.array_equal(got, want.astype(np.uint8))

    def test_seed_shorter_than_block_rejected(self):
        with pytest.raises(ParameterError):
            toeplitz_extract(HashSeed(np.array([1, 0], dtype=np.uint8)), np.zeros(4, dtype=np.uint8))

    def test_rows_hashed_as_blocks(self, rng):
        seed = HashSeed(rng.integers(0, 2, 300).astype(np.uint8))
        blocks = rng.integers(0, 2, (5, 200)).astype(np.uint8)
        got = toeplitz_extract(seed, blocks)
        assert got.shape == (5, 101)
        for block, out in zip(blocks, got):
            assert np.array_equal(out, matrix_oracle(seed.bits, block))

    def test_deterministic(self, rng):
        seed = HashSeed(rng.integers(0, 2, 500).astype(np.uint8))
        raw = rng.integers(0, 2, 300).astype(np.uint8)
        assert np.array_equal(toeplitz_extract(seed, raw), toeplitz_extract(seed, raw))


class TestBatchedHash:
    """Blocks are transformed _BATCH_ROWS at a time; the batch size does
    not change the bytes (a short last batch is test_rows_hashed_as_blocks)."""

    @pytest.mark.parametrize("batch_rows", [1, 3, 8])
    def test_batch_size_does_not_change_output(self, rng, monkeypatch, batch_rows):
        seed = HashSeed(rng.integers(0, 2, 300).astype(np.uint8))
        blocks = rng.integers(0, 2, (7, 200)).astype(np.uint8)
        default = toeplitz_extract(seed, blocks)
        monkeypatch.setattr(qrbg.extractor, "_BATCH_ROWS", batch_rows)
        assert np.array_equal(toeplitz_extract(seed, blocks), default)

    def test_guard_failure_raises(self, rng, monkeypatch):
        monkeypatch.setattr(qrbg.extractor, "_FFT_GUARD", -1.0)
        seed = HashSeed(rng.integers(0, 2, 300).astype(np.uint8))
        blocks = rng.integers(0, 2, (3, 200)).astype(np.uint8)
        with pytest.raises(ParameterError, match="integer precision"):
            toeplitz_extract(seed, blocks)

    @pytest.mark.parametrize("per_row", [2, 1], ids=["packed", "one_per_row"])
    @pytest.mark.parametrize("width", [5, 7])
    def test_sliced_finish_matches_matrix_oracle(self, rng, monkeypatch, width, per_row):
        """Coefficients are rounded and reduced a slice at a time; m = 101
        leaves a partial last slice of 1 or 3 coefficients."""
        monkeypatch.setattr(qrbg.extractor, "_FINISH_SLICE", width)
        n, m, count = 200, 101, 7
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        blocks = rng.integers(0, 2, (count, n)).astype(np.uint8)
        hasher = qrbg.extractor._Hasher(seed, n)
        assert hasher.rounded.shape == (2, width)
        if per_row == 1:
            monkeypatch.setattr(qrbg.extractor._Hasher, "_batch_error", lambda *a: 1.0)
        out = np.empty((count, m), dtype=np.uint8)
        hasher.hash(blocks, out)
        assert np.array_equal(out, (blocks.astype(np.int64) @ _toeplitz_matrix(seed, n, m).T) % 2)

    @staticmethod
    def corrupt_one_coefficient(monkeypatch, change, position):
        """Finish in slices of 7, and apply ``change`` to output coefficient
        ``position`` of every inverse transform's rows, for n = 200 (the
        output window starts at coefficient 199)."""
        monkeypatch.setattr(qrbg.extractor, "_FINISH_SLICE", 7)
        irfft = qrbg.extractor._fftpack.irfft

        def corrupted(*a, **k):
            conv = irfft(*a, **k)
            conv[:, 199 + position] = change(conv[:, 199 + position])
            return conv

        monkeypatch.setattr(qrbg.extractor._fftpack, "irfft", corrupted)

    @pytest.mark.parametrize("position", [0, 100], ids=["first_slice", "last_slice"])
    def test_guard_rejects_nan(self, rng, monkeypatch, position):
        self.corrupt_one_coefficient(monkeypatch, lambda c: np.nan, position)
        seed = HashSeed(rng.integers(0, 2, 300).astype(np.uint8))
        blocks = rng.integers(0, 2, (3, 200)).astype(np.uint8)
        with pytest.raises(ParameterError, match="integer precision"):
            toeplitz_extract(seed, blocks)

    @pytest.mark.parametrize("position", [0, 100], ids=["first_slice", "last_slice"])
    def test_odd_coefficient_sum_rejected(self, rng, monkeypatch, position):
        """A coefficient off by exactly one leaves no residual, but its sum
        with the blocks' popcounts turns odd."""
        self.corrupt_one_coefficient(monkeypatch, lambda c: c + 1.0, position)
        seed = HashSeed(rng.integers(0, 2, 300).astype(np.uint8))
        blocks = rng.integers(0, 2, (3, 200)).astype(np.uint8)
        with pytest.raises(ParameterError, match="integer precision"):
            toeplitz_extract(seed, blocks)

    @pytest.mark.parametrize(
        "n, m, rows", [(10**4, 9000, 2), (10**5, 90_000, 2), (10**6, 600_000, 1)]
    )
    def test_rows_sized_by_byte_budget(self, n, m, rows):
        assert qrbg.extractor._Hasher(np.ones(n + m - 1, np.uint8), n).rows == rows

    def test_budget_below_two_rows_does_not_change_output(self, rng, monkeypatch):
        seed = HashSeed(rng.integers(0, 2, 300).astype(np.uint8))
        blocks = rng.integers(0, 2, (7, 200)).astype(np.uint8)
        default = toeplitz_extract(seed, blocks)
        monkeypatch.setattr(qrbg.extractor, "_BATCH_BYTES", 0)
        assert qrbg.extractor._Hasher(seed.bits, 200).rows == 1
        assert np.array_equal(toeplitz_extract(seed, blocks), default)


class TestPackedHash:
    """Two blocks per transform row where the error bound allows it."""

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7])
    def test_matches_matrix_oracle(self, rng, count):
        n, m = 200, 101
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        blocks = rng.integers(0, 2, (count, n)).astype(np.uint8)
        hasher = qrbg.extractor._Hasher(seed, n)
        assert (hasher.rows, hasher.batch) == (2, 4)
        out = np.empty((count, m), dtype=np.uint8)
        hasher.hash(blocks, out)
        want = (blocks.astype(np.int64) @ _toeplitz_matrix(seed, n, m).T) % 2
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("ones", [False, True], ids=["random", "all_ones"])
    @pytest.mark.parametrize(
        "n, rate, count",
        [(10**4, 0.38, 7), (10**5, 0.96, 7), (10**6, 0.6, 4)],
        ids=["staged_events", "scale_bits", "adversarial_recal"],
    )
    def test_benchmark_sizes_never_fall_back(self, rng, monkeypatch, n, rate, count, ones):
        """At each workload's block size and rate, every hasher packs two
        blocks per row, and every packed batch of random or all-ones blocks
        passes its bound: one inverse transform per batch.  All-ones blocks
        at n = 1e6 read 0.22 under this seed; under some seeds they exceed
        1/4 and are hashed again (the module docstring's figures)."""
        m = output_length(rate, n, 2.0**-64)
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        blocks = np.ones((count, n), np.uint8) if ones else rng.integers(0, 2, (count, n)).astype(np.uint8)
        hasher = qrbg.extractor._Hasher(seed, n)
        assert hasher.batch == 2 * hasher.rows
        errors, inverses = record_batches(monkeypatch)
        hasher.hash(blocks, np.empty((count, m), np.uint8))
        assert len(inverses) == len(errors) == math.ceil(count / hasher.batch)
        assert max(errors) <= qrbg.extractor._FFT_GUARD

    @pytest.mark.parametrize("n, rate, ones", [(10**5, 0.96, False), (10**5, 0.96, True), (10**6, 0.6, False)])
    def test_extreme_blocks_match_one_block_per_row(self, rng, monkeypatch, n, rate, ones):
        """Each packed batch is checked, and one that fails is hashed again:
        at n = 1e5 under a random and an all-ones seed, and at n = 1e6.  The
        reference forces every batch to one block per row."""
        m = output_length(rate, n, 2.0**-64)
        seed = np.ones(n + m - 1, np.uint8) if ones else rng.integers(0, 2, n + m - 1).astype(np.uint8)
        alternating = np.arange(n, dtype=np.uint8) % 2
        # A reversed seed window makes one coefficient as large as it can be.
        blocks = np.stack(
            [np.ones(n, np.uint8), alternating, seed[:n][::-1], seed[m - 1 :][::-1], 1 - alternating]
        )
        packed = qrbg.extractor._Hasher(seed, n)
        got, want = (np.empty((len(blocks), m), np.uint8) for _ in range(2))
        packed.hash(blocks, got)
        single = qrbg.extractor._Hasher(seed, n)
        monkeypatch.setattr(qrbg.extractor._Hasher, "_batch_error", lambda *a: 1.0)
        single.hash(blocks, want)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7])
    def test_failed_batch_check_hashes_one_block_per_row(self, rng, monkeypatch, count):
        n, m = 200, 101
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        blocks = rng.integers(0, 2, (count, n)).astype(np.uint8)
        hasher = qrbg.extractor._Hasher(seed, n)
        _, inverses = record_batches(monkeypatch)
        monkeypatch.setattr(qrbg.extractor._Hasher, "_batch_error", lambda *a: 1.0)
        out = np.empty((count, m), dtype=np.uint8)
        hasher.hash(blocks, out)
        # Each batch of up to four blocks in two rows is hashed again at
        # one block per row, two rows to a transform.
        assert sum(inverses) == count and len(inverses) == math.ceil(count / 2)
        assert np.array_equal(out, (blocks.astype(np.int64) @ _toeplitz_matrix(seed, n, m).T) % 2)

    def test_batch_check_at_one_million(self, rng, monkeypatch):
        """Random blocks pass the per-batch bound at n = 1e6; a batch forced
        to fail it gives the same bits at one block per row."""
        n, m = 10**6, 600_000
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        blocks = rng.integers(0, 2, (2, n)).astype(np.uint8)
        hasher = qrbg.extractor._Hasher(seed, n)
        assert (hasher.rows, hasher.batch) == (1, 2)
        errors, _ = record_batches(monkeypatch)
        packed, fallback = (np.empty((2, m), dtype=np.uint8) for _ in range(2))
        hasher.hash(blocks, packed)
        assert len(errors) == 1 and 0 < errors[0] <= qrbg.extractor._FFT_GUARD
        monkeypatch.setattr(qrbg.extractor._Hasher, "_batch_error", lambda *a: 1.0)
        hasher.hash(blocks, fallback)
        assert np.array_equal(fallback, packed)
        for block in range(2):
            for j in rng.choice(m, 8, replace=False):
                row = seed[j : j + n][::-1].astype(np.int64)
                assert packed[block, j] == (row @ blocks[block]) % 2, (block, j)

    def test_batch_bound_reads_the_seed_not_its_padding(self, rng, monkeypatch):
        """n + m - 1 = 1,600,395 leaves 19,605 zeros in N = 1,620,000.  Each
        packed batch's bound equals the one from scipy.fft's complex spectra
        of its row and of the centred seed padded with zeros, and passes, so
        each batch runs one inverse.  Centring the padding too leaves every
        output bit as it is but inflates the seed spectrum, and so every
        batch's bound (0.86 against 0.16 here): each batch would be hashed
        again at one block per row."""
        n, m = 10**6, 600_396
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        blocks = rng.integers(0, 2, (4, n)).astype(np.uint8)
        hasher = qrbg.extractor._Hasher(seed, n)
        assert (hasher.fft_len, hasher.rows) == (1_620_000, 1)
        errors, inverses = record_batches(monkeypatch)
        hasher.hash(blocks, np.empty((4, m), np.uint8))
        assert inverses == [1, 1]
        for error, batch in zip(errors, (blocks[:2], blocks[2:]), strict=True):
            assert error == pytest.approx(row_by_row_batch_error(hasher, seed, batch), rel=1e-12)
            assert error <= qrbg.extractor._FFT_GUARD

    @pytest.mark.parametrize("zero_first_row", [False, True])
    def test_two_row_batch_bound_is_its_largest_row(self, rng, monkeypatch, zero_first_row):
        """At n = 1e5 a batch is two rows: seven blocks make a batch of four
        and one of three, whose second row has an empty high half.  Each
        batch's bound, taken for all its rows at once, equals the largest
        of its rows' bounds taken one at a time; with the first rows' blocks
        zero, the largest is the second row's."""
        n, m = 10**5, 95_742
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        blocks = rng.integers(0, 2, (7, n)).astype(np.uint8)
        if zero_first_row:
            blocks[[0, 2, 4, 6]] = 0
        hasher = qrbg.extractor._Hasher(seed, n)
        assert (hasher.fft_len, hasher.rows) == (200_000, 2)
        errors, inverses = record_batches(monkeypatch)
        hasher.hash(blocks, np.empty((7, m), np.uint8))
        assert inverses == [2, 2]
        for error, batch in zip(errors, (blocks[:4], blocks[4:]), strict=True):
            assert 0 < error == pytest.approx(row_by_row_batch_error(hasher, seed, batch), rel=1e-12)


def factors_of(prime, k):
    count = 0
    while k % prime == 0:
        k, count = k // prime, count + 1
    return count


def five_smooth(k):
    return k == 2 ** factors_of(2, k) * 3 ** factors_of(3, k) * 5 ** factors_of(5, k)


class TestTransformLength:
    """_fft_length: the 5-smooth length within 3 % of the target with the
    most factors of 5, the shortest of those."""

    # Small targets, and n + m - 1 at n = 1e4 to 1e6 and rates 0.96 to 0.38.
    @pytest.mark.parametrize(
        "targets",
        [range(1, 3000), [13_541, 41_141, 58_541, 137_741, 195_741, 413_741, 587_741, 1_379_741, 1_959_741]],
        ids=["small", "grid"],
    )
    def test_most_fives_within_three_percent(self, targets):
        for target in targets:
            length = qrbg.extractor._fft_length(target)
            shortest = qrbg.extractor._fft.next_fast_len(target, real=True)
            # A target too small for a 5-smooth length within 3 % gets the shortest.
            window = [k for k in range(target, max(shortest, target * 103 // 100) + 1) if five_smooth(k)]
            assert five_smooth(length) and target <= length <= max(shortest, 1.03 * target), target
            assert length == min(window, key=lambda k: (-factors_of(5, k), k)), target
            if max(factors_of(5, k) for k in window) == factors_of(5, shortest):
                assert length == shortest, target

    def test_never_decreases(self):
        lengths = [qrbg.extractor._fft_length(target) for target in range(1, 20_000)]
        assert lengths == sorted(lengths)

    # Each workload's n + m - 1 over the benchmark's seeds: scale_bits
    # (n = 1e5, rate about 0.96), staged_events (n = 1e4, rate about 0.38)
    # and adversarial_recal (n = 1e6, rate about 0.6).
    @pytest.mark.parametrize(
        "targets, length",
        [(range(195_600, 195_900), 200_000), (range(13_530, 13_550), 13_824), (range(1_600_800, 1_601_300), 1_620_000)],
        ids=["scale_bits", "staged_events", "adversarial_recal"],
    )
    def test_workload_lengths(self, targets, length):
        assert {qrbg.extractor._fft_length(target) for target in targets} == {length}

    # n + m - 1 = 243, 486, 971 and 1457, which next_fast_len takes to 243,
    # 486, 972 and 1458 and the rule to 250, 500, 1000 and 1500.
    @pytest.mark.parametrize("n, m", [(150, 94), (300, 187), (600, 372), (1000, 458)])
    def test_matches_matrix_oracle_where_the_rule_differs(self, rng, n, m):
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        blocks = rng.integers(0, 2, (5, n)).astype(np.uint8)
        blocks[0] = 1
        assert qrbg.extractor._Hasher(seed, n).fft_len != qrbg.extractor._fft.next_fast_len(n + m - 1, real=True)
        want = (blocks.astype(np.int64) @ _toeplitz_matrix(seed, n, m).T) % 2
        assert np.array_equal(toeplitz_extract(seed, blocks), want)


class TestExactnessBound:
    def test_max_n_is_the_largest_proven_exact(self):
        assert qrbg.extractor._largest_exact_n() == ExtractorParams.MAX_N

    def test_block_size_above_the_limit_rejected(self):
        assert ExtractorParams(ExtractorParams.MAX_N, 2.0**-64, 0.9).n == ExtractorParams.MAX_N
        with pytest.raises(ParameterError, match="proven exact"):
            ExtractorParams(ExtractorParams.MAX_N + 1, 2.0**-64, 0.9)

    @pytest.mark.parametrize("length", [960, 1000])  # radices 4, 4, 4, 3, 5 and 4, 2, 5, 5, 5
    def test_transform_error_within_model(self, rng, length):
        """scipy's real transform stays within eps_N of a long-double DFT."""
        x = rng.integers(0, 2, length).astype(np.float64)
        pi = np.longdouble("3.14159265358979323846264338327950288")
        turns = np.arange(length // 2 + 1)[:, None] * np.arange(length)[None, :] % length
        angle = 2 * pi * turns.astype(np.longdouble) / length
        exact = np.cos(angle) @ x.astype(np.longdouble) - 1j * (np.sin(angle) @ x.astype(np.longdouble))
        got = qrbg.extractor._fft.rfft(x)
        eps = qrbg.extractor._transform_error(length)
        assert full_spectrum_norm(got - exact) <= eps * math.sqrt(length) * np.linalg.norm(x)

    # The transform lengths of n = 1e4 (staged_events' rate 0.35), n = 1e5
    # (rate 0.96) and n = 1e6 (rate 0.6).
    @pytest.mark.parametrize("length", [13824, 200000, 1620000])
    def test_transforms_within_model_at_workload_lengths(self, rng, length):
        """scipy's float64 rfft and irfft stay within eps_N of scipy.fft run
        in long double."""
        fft = qrbg.extractor._fft
        eps = qrbg.extractor._transform_error(length)
        x = rng.integers(0, 2, length).astype(np.float64)
        spectrum = fft.rfft(x)
        exact = fft.rfft(x.astype(np.longdouble))
        assert full_spectrum_norm(spectrum - exact) <= eps * math.sqrt(length) * np.linalg.norm(x)
        # The inverse, with its 1/N, is bounded relative to its own output.
        inverse = fft.irfft(spectrum, length)
        exact = fft.irfft(spectrum.astype(np.clongdouble), length)
        error = math.sqrt(float(np.sum((inverse - exact) ** 2)))
        gamma2 = qrbg.extractor._gamma(2)
        assert error <= eps * (1 + gamma2) * full_spectrum_norm(spectrum) / math.sqrt(length)


class TestHasherTransforms:
    """The error model is tested on scipy.fft (TestExactnessBound); the
    hasher runs scipy.fftpack's transforms in place, which must give the
    same values bit for bit."""

    # The workload lengths, an odd length, and N = 1 and 2, where a
    # spectrum has no (re, im) pair.
    @pytest.mark.parametrize("length", [1, 2, 960, 1000, 13824, 200000, 759375, 1620000])
    def test_in_place_transforms_equal_scipy_fft(self, rng, monkeypatch, length):
        fft, fftpack = qrbg.extractor._fft, qrbg.extractor._fftpack
        calls = []
        for name in ("rfft", "irfft"):

            def spy(x, *a, _transform=getattr(fftpack, name), _name=name, **k):
                before = x.copy()
                got = _transform(x, *a, **k)
                assert np.shares_memory(got, x)
                calls.append((_name, before, got.copy()))
                return got

            monkeypatch.setattr(fftpack, name, spy)
        monkeypatch.setattr(qrbg.extractor, "_fft_length", lambda target: length)
        n = (length + 1) // 2
        m = max(1, length - n - 3)  # leaves padding where the length allows
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        blocks = rng.integers(0, 2, (3, n)).astype(np.uint8)
        hasher = qrbg.extractor._Hasher(seed, n)
        assert hasher.fft_len == length
        out = np.empty((3, m), np.uint8)
        hasher.hash(blocks, out)
        if length <= 1000:
            assert np.array_equal(out, (blocks.astype(np.int64) @ _toeplitz_matrix(seed, n, m).T) % 2)
        assert [name for name, _, _ in calls] == ["rfft"] + ["rfft", "irfft"] * (2 if hasher.rows == 1 else 1)
        for name, before, got in calls:
            if name == "rfft":
                want = fft.rfft(before, axis=-1)
                # scipy.fft's DC and Nyquist bins are real, so the layout loses nothing.
                assert not want[..., 0].imag.any() and (length % 2 or not want[..., -1].imag.any())
                want = half_complex(want, length)
            else:
                want = fft.irfft(complex_spectrum(before, length), length, axis=-1)
            assert np.array_equal(got, want), name


class TestPinnedDigests:
    """sha256 of toeplitz_extract output recorded before blocks were packed
    two to a transform row; the hash must not change."""

    @pytest.mark.parametrize(
        "n, m, blocks, stream, digest",
        [
            (10**5, 95_742, 5, 1, "55d0ee9243b63ff8f31f4f89f187f84efaae95470899ed24ddea14b4c79fde7b"),
            (10**6, 600_000, 2, 2, "eb6a20e1f985d2bd42398299cff5d63f329f24c3e554984e1570bd2af3a03aee"),
        ],
    )
    def test_digest(self, n, m, blocks, stream, digest):
        rng = np.random.default_rng([2006, n, stream])
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        raw = rng.integers(0, 2, (blocks, n), dtype=np.uint8)
        out = toeplitz_extract(seed, raw)
        assert hashlib.sha256(pack_bits(out.ravel())).hexdigest() == digest


class TestLargeBlocks:
    """n = 1e6, where a batch is one row of two blocks; the odd last block
    has a zero high half."""

    N, M, BLOCKS = 10**6, 600_000, 5

    @pytest.fixture
    def hashed(self, rng):
        seed = rng.integers(0, 2, self.N + self.M - 1).astype(np.uint8)
        raw = rng.integers(0, 2, (self.BLOCKS, self.N)).astype(np.uint8)
        hasher = qrbg.extractor._Hasher(seed, self.N)
        assert (hasher.rows, hasher.batch) == (1, 2)
        out = np.empty((self.BLOCKS, self.M), dtype=np.uint8)
        tracemalloc.start()
        try:
            hasher.hash(raw, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return seed, raw, out, peak

    def test_construction_peak_is_what_the_hasher_holds(self, rng, monkeypatch):
        # The seed is centred and transformed in place in the array that
        # keeps its spectrum, so construction allocates only the arrays it
        # keeps (24.5 MiB here, traced peak 66 KiB above that); centring a
        # float64 copy of the seed that scipy padded again peaked at
        # 36.6 MiB.  The heap warm-up (untouched, but traced) is left out.
        monkeypatch.setattr(qrbg.extractor, "_HEAP_WARMUP", 0)
        seed = rng.integers(0, 2, self.N + self.M - 1).astype(np.uint8)
        tracemalloc.start()
        try:
            hasher = qrbg.extractor._Hasher(seed, self.N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = hasher.pad.nbytes + hasher.rounded.nbytes + hasher.seed_fft.nbytes
        assert peak <= held + (1 << 20), (peak, held)

    def test_hash_allocates_no_transform_sized_array(self, hashed):
        # Each batch is transformed in the hasher's own pad row: the traced
        # peak is small temporaries (0.07 MiB).  A spectrum and a
        # convolution returned by the transforms (12.8 MB each) peaked at
        # 24.5 MiB, 36.6 MiB when held through the next batch's transforms.
        assert hashed[3] < 256 << 10

    def test_sampled_bits_match_direct_parity(self, rng, hashed):
        seed, raw, out, _ = hashed
        # a low half, a high half and the lone last block
        for block in (0, 1, self.BLOCKS - 1):
            for j in rng.choice(self.M, 8, replace=False):
                # T[j][k] = seed[j - k + n - 1], so row j is seed[j : j + n] reversed.
                row = seed[j : j + self.N][::-1].astype(np.int64)
                assert out[block, j] == (row @ raw[block]) % 2, (block, j)


class TestUniversality:
    def test_small_family_is_exactly_two_universal(self):
        report = universality_check(4, 2)
        assert report.seed_count == 32
        assert report.expected_collisions == 8
        assert report.exact

    def test_single_output_bit(self):
        report = universality_check(2, 1)
        assert report.exact
        assert report.expected_collisions / report.seed_count == 0.5

    def test_size_limits(self):
        with pytest.raises(ParameterError):
            universality_check(13, 2)
        with pytest.raises(ParameterError):
            universality_check(4, 7)


def bit_rows(count, width):
    """The integers below ``count`` as rows of ``width`` bits, least significant first."""
    return (np.arange(count)[:, None] >> np.arange(width)) & 1


class TestLeftoverHash:
    @pytest.mark.parametrize("k, m", [(6, 2), (6, 4), (7, 3), (8, 2), (8, 4)])
    def test_flat_sources_meet_the_lemma(self, k, m):
        # the leftover hash lemma, for any source of min-entropy k: the hash's
        # distance from uniform, averaged over every seed, is at most
        # 1/2 sqrt(2^(m - k))
        n, rng = 10, np.random.default_rng(k * 16 + m)
        seeds = bit_rows(1 << (n + m - 1), n + m - 1)
        # each row of each seed's matrix as an n-bit word, and each word's parity
        words = np.concatenate([_toeplitz_matrix(seed, n, m) for seed in seeds]) @ (1 << np.arange(n))
        parity = (bit_rows(1 << n, n).sum(axis=1) % 2).astype(np.uint8)
        # flat sources on 2^k inputs, each input an n-bit word: five random
        # sets and an affine subspace, k coordinates free in a fixed word
        sources = [rng.choice(1 << n, 1 << k, replace=False) for _ in range(5)]
        sources.append(rng.integers(1 << n) ^ bit_rows(1 << k, k) @ (1 << rng.choice(n, k, replace=False)))
        for source in sources:
            bits = parity[words[:, None] & source].reshape(len(seeds), m, len(source))
            # each seed's outputs as integers, offset by the seed's index
            keys = (bits << np.arange(m, dtype=np.uint8)[:, None]).sum(axis=1, dtype=np.int64)
            keys += (np.arange(len(seeds)) << m)[:, None]
            counts = np.bincount(keys.ravel(), minlength=len(seeds) << m).reshape(len(seeds), 1 << m)
            distance = 0.5 * np.abs(counts / len(source) - 2.0**-m).sum(axis=1).mean()
            assert distance <= 0.5 * math.sqrt(2.0 ** (m - k))

    @pytest.mark.parametrize("h, n, epsilon", [(1.0, 1000, 2.0**-10), (0.9, 100_000, 2.0**-64), (0.5, 2000, 2.0**-16)])
    def test_accounting_leaves_each_block_within_epsilon_squared_over_4(self, h, n, epsilon):
        m = output_length(h, n, epsilon)
        assert 0.5 * 2.0 ** ((m - h * n) / 2) <= epsilon**2 / 4


class TestExtractStream:
    def test_accounting_example(self, extract_in_memory, rng):
        params = ExtractorParams(4096, 2.0**-64, 0.96)
        assert params.m == 3674
        raw = rng.integers(0, 2, 10**6).astype(np.uint8)
        seed = HashSeed(rng.integers(0, 2, params.seed_bits_needed).astype(np.uint8))
        res = extract_in_memory(raw, params, seed=seed)
        assert res.blocks == 244
        assert res.output.bit_length == 896_456
        assert res.params.ratio == pytest.approx(3674 / 4096, abs=1e-12)

    def test_blocks_match_session_extraction(self, extract_in_memory, rng):
        params = ExtractorParams(512, 2.0**-16, 0.9)
        raw = rng.integers(0, 2, 2048).astype(np.uint8)
        seed = HashSeed(rng.integers(0, 2, params.seed_bits_needed).astype(np.uint8))
        res = extract_in_memory(raw, params, seed=seed)
        for b in range(res.blocks):
            block_out = toeplitz_extract(seed, raw[b * 512 : (b + 1) * 512])
            assert np.array_equal(
                res.output.bits[b * params.m : (b + 1) * params.m], block_out
            )

    def test_tail_discarded(self, extract_in_memory, rng):
        params = ExtractorParams(100, 2.0**-8, 0.9)
        seed = HashSeed(rng.integers(0, 2, params.seed_bits_needed).astype(np.uint8))
        res = extract_in_memory(rng.integers(0, 2, 399).astype(np.uint8), params, seed=seed)
        assert res.blocks == 3
        assert res.output.bit_length == 3 * params.m

    def test_stream_shorter_than_one_block_is_insufficient_data(self, rng):
        params = ExtractorParams(100, 2.0**-8, 0.9)
        seed = HashSeed(rng.integers(0, 2, params.seed_bits_needed).astype(np.uint8))
        sink = []
        with pytest.raises(InsufficientDataError, match="50 bits is shorter than one 100-bit block"):
            extract_stream(np.ones(50, dtype=np.uint8), params, seed=seed, sink=sink.append)
        assert sink == []

    def test_seed_length_checked(self, rng):
        params = ExtractorParams(100, 2.0**-8, 0.9)
        with pytest.raises(ParameterError):
            extract_stream(
                np.ones(200, dtype=np.uint8),
                params,
                seed=HashSeed(np.ones(10, dtype=np.uint8)),
                sink=lambda out: None,
            )

    def test_chunked_stream_and_sink(self, extract_in_memory, rng, monkeypatch):
        params = ExtractorParams(300, 2.0**-8, 0.9)
        seed = HashSeed(rng.integers(0, 2, params.seed_bits_needed).astype(np.uint8))
        raw = rng.integers(0, 2, 10_537).astype(np.uint8)
        whole = extract_in_memory(raw, params, seed=seed).output.bits
        assert np.array_equal(
            whole, toeplitz_extract(seed, raw[: 35 * 300].reshape(35, 300)).ravel()
        )
        # shorter than a block, 1.5 blocks, three and five blocks (each cuts
        # a packed pair), many
        for chunk in (7, 450, 900, 1500, 1000):
            monkeypatch.setattr(qrbg.bits, "CHUNK_BITS", chunk)
            pieces = []
            res = extract_stream(BitStream(raw), params, seed=seed, sink=pieces.append)
            assert res.output is None and res.blocks == 35
            assert np.array_equal(np.concatenate(pieces), whole)

    def test_groups_are_whole_batches(self, rng, monkeypatch):
        """Chunks of three blocks reach the hasher in groups of whole
        two-row, two-block-per-row batches, the last one excepted."""
        params = ExtractorParams(300, 2.0**-8, 0.9)
        seed = HashSeed(rng.integers(0, 2, params.seed_bits_needed).astype(np.uint8))
        raw = rng.integers(0, 2, 23 * 300 + 7).astype(np.uint8)
        sizes = []
        hash_blocks = qrbg.extractor._Hasher.hash

        def recorded(hasher, blocks, out):
            sizes.append(len(blocks))
            hash_blocks(hasher, blocks, out)

        monkeypatch.setattr(qrbg.extractor._Hasher, "hash", recorded)
        monkeypatch.setattr(qrbg.bits, "CHUNK_BITS", 900)
        extract_stream(BitStream(raw), params, seed=seed, sink=lambda out: None)
        assert sum(sizes) == 23 and all(k % 4 == 0 for k in sizes[:-1])

    def test_values_other_than_bits_rejected(self, extract_in_memory, rng):
        params = ExtractorParams(100, 2.0**-8, 0.9)
        seed = HashSeed(rng.integers(0, 2, params.seed_bits_needed).astype(np.uint8))
        with pytest.raises(ParameterError, match="bits must be 0 or 1"):
            extract_in_memory(np.array([256, 1] * 50), params, seed=seed)

    def test_accepts_bitstream_input(self, extract_in_memory, rng):
        params = ExtractorParams(64, 2.0**-4, 0.9)
        seed = HashSeed(rng.integers(0, 2, params.seed_bits_needed).astype(np.uint8))
        raw = rng.integers(0, 2, 200).astype(np.uint8)
        a = extract_in_memory(BitStream(raw), params, seed=seed)
        b = extract_in_memory(raw, params, seed=seed)
        assert np.array_equal(a.output.bits, b.output.bits)


class TestHashSeed:
    def test_system_seed_sizes(self):
        for nbits in (1, 8, 63, 200):
            seed = HashSeed.system(nbits, "out.seed.bits")
            assert (seed.bit_length, seed.path) == (nbits, "out.seed.bits")

    def test_read_keeps_the_bits_the_hash_needs(self, tmp_path):
        bits = np.random.default_rng(4).integers(0, 2, 500).astype(np.uint8)
        path = str(tmp_path / "seed.bits")
        write_bits_file(path, BitStream(bits), {"role": "seed"})
        seed = HashSeed.read(path, 300)
        assert seed.path == path
        assert np.array_equal(seed.bits, bits[:300])
        with pytest.raises(ParameterError, match="seed.bits holds 500 bits, the extractor needs 501"):
            HashSeed.read(path, 501)
        write_bits_file(path, BitStream(bits), {"role": "raw"})
        with pytest.raises(ParameterError, match="seed.bits has role=raw, expected seed"):
            HashSeed.read(path, 300)

    def test_read_unpacks_only_the_bits_it_keeps(self, tmp_path):
        """1,000 bits from a 2^23-bit seed file: unpacking the whole file,
        and concatenating its chunks, peaked at 16 MiB."""
        bits = np.random.default_rng(5).integers(0, 2, 1 << 23, dtype=np.uint8)
        path = str(tmp_path / "seed.bits")
        write_bits_file(path, BitStream(bits), {"role": "seed"})
        tracemalloc.start()
        try:
            seed = HashSeed.read(path, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(seed.bits, bits[:1000])
        assert peak < 2 << 20, peak

    def test_validation(self):
        with pytest.raises(ParameterError):
            HashSeed(np.array([], dtype=np.uint8))
        with pytest.raises(ParameterError):
            HashSeed(np.array([0, 1, 2], dtype=np.uint8))

    @pytest.mark.parametrize("values", [[256, 1, 257], [0, -1], [0.5, 1], [np.nan, 0]])
    def test_values_other_than_bits_rejected_before_cast(self, values):
        with pytest.raises(ParameterError, match="seed bits must be 0 or 1"):
            HashSeed(np.array(values))

    def test_raw_values_other_than_bits_rejected(self):
        seed = HashSeed(np.ones(3, dtype=np.uint8))
        with pytest.raises(ParameterError, match="raw bits must be 0 or 1"):
            toeplitz_extract(seed, np.array([2, 3]))


def test_epsilon_parsing():
    assert parse_epsilon("2^-64") == 2.0**-64
    assert parse_epsilon("0.25") == 0.25
    assert parse_epsilon(" 2^-10 ") == 2.0**-10
    with pytest.raises(ParameterError):
        parse_epsilon("2^1")
    with pytest.raises(ParameterError):
        parse_epsilon("0")
    # 2^K overflows a float from K = 1024 on; those are outside (0, 1) too
    for text in ("2^1024", "2^99999", "2^-1075", "1e999", "nan"):
        with pytest.raises(ParameterError, match=r"outside \(0, 1\)"):
            parse_epsilon(text)


def test_epsilon_formatting():
    assert format_epsilon(2.0**-64) == "2^-64"
    assert parse_epsilon(format_epsilon(0.3)) == 0.3
