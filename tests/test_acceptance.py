"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
and the reported benchmark figures.
"""

import math
import time

import numpy as np

from qrbg.bits import BitStream, write_bits_file
from qrbg.extractor import ExtractorParams, HashSeed, output_length, universality_check
from qrbg.minentropy import (
    closed_form_minentropy,
    minentropy_decomposition,
    minimize_over_decompositions,
    rate_from_coherence,
)
from qrbg.pipeline import parse_config_text, run_pipeline
from qrbg.sources import adversarial, sample_events, single_photon
from qrbg.stat_tests import monobit, run_battery, runs
from qrbg.states import StokesVector, worst_case_decomposition


def from_text(text):
    """A string of 0s and 1s as a bit array."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


PI_100 = from_text(
    "1100100100001111110110101010001000100001011010001100001000110100"
    "110001001100011001100010100010111000"
)
E_128 = from_text(
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)


def verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_ball(rng, count):
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (rng.random(count) ** (1 / 3))[:, None]


def test_criterion_01_worst_case_theorem():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    max_gap = -math.inf
    min_gap = math.inf
    max_attain = 0.0
    for row in random_ball(rng, 1000):
        state = StokesVector(*row)
        f = float(closed_form_minentropy(state))
        gap = float(minimize_over_decompositions(state, 10_000)) - f
        max_gap = max(max_gap, gap)
        min_gap = min(min_gap, gap)
        attained = float(minentropy_decomposition(worst_case_decomposition(state)))
        max_attain = max(max_attain, abs(attained - f))
    elapsed = time.perf_counter() - t0
    ok = min_gap >= -1e-9 and max_gap <= 1e-3 and max_attain < 1e-12 and elapsed < 60
    verdict(
        1,
        ok,
        f"decomposition scan gap in [{min_gap:.2e}, {max_gap:.2e}] "
        f"(allowed [-1e-9, 1e-3]), attainment {max_attain:.2e} < 1e-12, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_02_single_photon_rate(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config_text(
        "mode = single\n"
        "state = 0.9996, 0, 0\n"
        "rng_seed = 202\n"
        "tomography_events = 3000000\n"
        "generation_bits = 200000\n"
        "block_n = 100000\n"
        "epsilon = 2^-64\n"
        "tests = none\n"
    )
    report = run_pipeline(cfg, str(tmp_path))
    elapsed = time.perf_counter() - t0
    rate = float(report.certified)
    ok = 0.94 <= rate <= 0.98 and elapsed < 30
    verdict(2, ok, f"certified rate {rate:.4f} in [0.94, 0.98], {elapsed:.1f}s < 30s")


def test_criterion_03_entangled_rate(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config_text(
        "mode = entangled\n"
        "coherence = 0.88\n"
        "accidental_fraction = 0.0409\n"
        "rng_seed = 303\n"
        "tomography_events = 3000000\n"
        "generation_bits = 200000\n"
        "block_n = 100000\n"
        "epsilon = 2^-64\n"
        "tests = none\n"
    )
    report = run_pipeline(cfg, str(tmp_path))
    elapsed = time.perf_counter() - t0
    rate = float(report.certified)
    ok = 0.36 <= rate <= 0.40 and elapsed < 30
    verdict(3, ok, f"certified rate {rate:.4f} in [0.36, 0.40], {elapsed:.1f}s < 30s")


def test_criterion_04_rate_ratios():
    ratio_single = output_length(0.96, 100_000, 2.0**-64) / 100_000
    ratio_pairs = output_length(0.38, 100_000, 2.0**-64) / 100_000
    ok = abs(ratio_single - 57 / 60) <= 0.01 and abs(ratio_pairs - 5.3 / 14) <= 0.01
    verdict(
        4,
        ok,
        f"throughput ratios {ratio_single:.4f} vs 57/60={57/60:.4f} and "
        f"{ratio_pairs:.4f} vs 5.3/14={5.3/14:.4f}, both within 0.01",
    )


def test_criterion_05_output_length_accounting(tmp_path):
    formula = lambda h, n, k: math.floor(h * n - 4 * k - 2)
    ok_a = output_length(0.96, 4096, 2.0**-64) == 3674 == formula(0.96, 4096, 64)
    ok_b = output_length(1.0, 1000, 2.0**-10) == 958 == formula(1.0, 1000, 10)
    cfg = parse_config_text(
        "mode = single\nstate = 0.95, 0, 0\nrng_seed = 505\n"
        "tomography_events = 60000\ngeneration_bits = 30000\n"
        "block_n = 3000\nepsilon = 2^-16\ntests = none\n"
    )
    report = run_pipeline(cfg, str(tmp_path))
    from qrbg.bits import read_bits_file

    on_disk = read_bits_file(str(tmp_path / "extracted.bits")).bit_length
    ext = report.extraction
    ok_c = ext.output.bit_length == ext.blocks * ext.params.m == on_disk
    verdict(
        5,
        ok_a and ok_b and ok_c,
        f"output_length(0.96,4096,2^-64)={output_length(0.96, 4096, 2.0**-64)}, "
        f"output_length(1,1000,2^-10)={output_length(1.0, 1000, 2.0**-10)}, "
        f"file bits {on_disk} == blocks*m {ext.blocks * ext.params.m}",
    )


def test_criterion_06_extractor_universality():
    t0 = time.perf_counter()
    r42 = universality_check(4, 2)
    r83 = universality_check(8, 3)
    elapsed = time.perf_counter() - t0
    ok = r42.exact and r83.exact and elapsed < 10
    verdict(
        6,
        ok,
        f"collision counts exact at (4,2): {r42.min_collisions}/{r42.seed_count} "
        f"and (8,3): {r83.min_collisions}/{r83.seed_count} "
        f"(probability 2^-m), {elapsed:.1f}s < 10s",
    )


def test_criterion_07_adversarial_soundness(extract_in_memory):
    state = StokesVector(0.6, 0, 0.3)
    d = worst_case_decomposition(state)
    log = sample_events(adversarial(d), 707, "Z", 10**6)
    p_max = np.array([0.5 * (1 + abs(psi.bloch.s3)) for _, psi in d.terms])
    eve_mean = float(np.mean(-np.log2(p_max[log.eve_labels])))
    f = float(closed_form_minentropy(state))
    ok_eve = abs(eve_mean - 0.152) <= 0.003 and abs(eve_mean - f) <= 0.003

    params = ExtractorParams(100_000, 2.0**-32, 0.152)
    seed = HashSeed(np.random.default_rng(708).integers(0, 2, params.seed_bits_needed).astype(np.uint8))
    extracted = extract_in_memory(log.outcomes, params, seed=seed).output
    p_mono = monobit(extracted.bits).p_value
    p_runs = runs(extracted.bits).p_value
    ok_tests = p_mono >= 0.01 and p_runs >= 0.01
    verdict(
        7,
        ok_eve and ok_tests,
        f"adversary's surprisal {eve_mean:.6f} = 0.152 +- 0.003 (closed form {f:.6f}); "
        f"extracted {extracted.bit_length} bits: monobit p={p_mono:.3f}, runs p={p_runs:.3f} >= 0.01",
    )


def test_criterion_08_raw_vs_extracted(extract_in_memory):
    t0 = time.perf_counter()
    raw = sample_events(single_photon(StokesVector(0.9, 0, 0.3)), 808, "Z", 2_200_000).outcomes
    p_raw = monobit(raw[:10**6]).p_value
    ok_raw = p_raw < 1e-6

    rate = rate_from_coherence(0.9)
    params = ExtractorParams(100_000, 2.0**-64, float(rate))
    seed = HashSeed(np.random.default_rng(809).integers(0, 2, params.seed_bits_needed).astype(np.uint8))
    extracted = extract_in_memory(raw, params, seed=seed).output
    results = run_battery(extracted.bits[:10**6], significance=0.01)
    ok_ext = len(results) == 7 and all(r.passed for r in results)
    elapsed = time.perf_counter() - t0
    ok = ok_raw and ok_ext and elapsed < 60
    verdict(
        8,
        ok,
        f"raw monobit p={p_raw:.2e} < 1e-6; extracted 1e6 bits pass "
        f"{sum(r.passed for r in results)}/7 battery tests at 0.01; {elapsed:.1f}s < 60s",
    )


def test_criterion_09_battery_reference_vectors():
    from qrbg.stat_tests import (
        approximate_entropy,
        block_frequency,
        cumulative_sums,
        longest_run_of_ones,
        serial,
    )
    from qrbg.stat_tests import _cusum_p

    checks = [
        ("monobit", monobit(PI_100).p_value, 0.109599),
        ("block_frequency", block_frequency(PI_100, block_len=10).p_value, 0.706438),
        ("runs", runs(PI_100).p_value, 0.500798),
        ("longest_run_of_ones", longest_run_of_ones(E_128).p_value, 0.180609),
        ("cumulative_sums", cumulative_sums(PI_100).parameters["p_forward"], 0.219194),
        ("cumulative_sums_small", _cusum_p(4, 10), 0.4116588),
        ("serial_p1", serial(from_text("0011011101"), m=3).parameters["p_value1"], 0.808792),
        ("serial_p2", serial(from_text("0011011101"), m=3).parameters["p_value2"], 0.670320),
        ("approximate_entropy", approximate_entropy(from_text("0100110101"), m=3).p_value, 0.261961),
    ]
    bad = [(n, got, want) for n, got, want in checks if abs(got - want) > 1e-6]
    verdict(
        9,
        not bad,
        "all published worked-example p-values matched to 1e-6"
        if not bad
        else f"mismatches: {bad}",
    )


def test_criterion_10_scale(tmp_path):
    # 10^8 extracted bits end to end; generation size covers the target
    # for any certified rate the calibration can plausibly produce
    # a fixed hash seed, so the battery verdicts are those of one pinned output
    seed_path = tmp_path / "seed.bits"
    seed_bits = np.random.default_rng(5).integers(0, 2, 200_000).astype(np.uint8)
    write_bits_file(str(seed_path), BitStream(seed_bits), {"role": "seed"})
    t0 = time.perf_counter()
    cfg = parse_config_text(
        "mode = single\n"
        "state = 0.9996, 0, 0\n"
        "rng_seed = 1010\n"
        "tomography_events = 3000000\n"
        "generation_bits = 105000000\n"
        "block_n = 100000\n"
        "epsilon = 2^-64\n"
        "tests = monobit,runs\n"
        f"seed_file = {seed_path}\n"
    )
    report = run_pipeline(cfg, str(tmp_path))
    elapsed = time.perf_counter() - t0
    output_bits = report.extraction.output.bit_length
    ok = (
        output_bits >= 10**8
        and elapsed < 600
        and all(r.passed for r in report.test_results)
    )
    throughput = report.extraction.raw_bits_per_second or 0.0
    verdict(
        10,
        ok,
        f"{output_bits} extracted bits in {elapsed:.0f}s < 600s; "
        f"extraction core measured at {throughput:.2e} raw bits/s "
        f"(soft target 1e7, reported not asserted)",
    )
