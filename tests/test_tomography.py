import math
import tracemalloc

import numpy as np
import pytest

import qrbg.sources
from oracles import in_pieces, joined
from qrbg.errors import InsufficientDataError, ParameterError
from qrbg.minentropy import closed_form_minentropy, lower_confidence_rate, rate_from_coherence
from qrbg.pipeline import Calibration, PipelineConfig, calibrate
from qrbg.sources import (
    BLOCKED,
    EventLog,
    EventStream,
    adversarial,
    load_event_log,
    save_event_log,
    single_photon,
)
from qrbg.states import StokesVector, worst_case_decomposition
from qrbg.tomography import (
    CountTable,
    _tally,
    estimate_stokes,
    reconstruct,
)


def table(z0, z1, x0, x1, y0, y1):
    return CountTable(np.array([[z0, z1], [x0, x1], [y0, y1]]))


def eigenclip(s_raw):
    """Independent nearest-physical-state oracle: clip negative
    eigenvalues of the raw matrix and renormalize the trace."""
    s1, s2, s3 = (float(x) for x in s_raw)
    m = 0.5 * np.array([[1 + s3, s1 - 1j * s2], [s1 + 1j * s2, 1 - s3]])
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum()
    m = (vecs * vals) @ vecs.conj().T
    return np.array([2 * m[0, 1].real, -2 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real])


class TestTally:
    def test_all_same_cell(self):
        log = EventLog("t", 0, np.zeros(10, dtype=np.uint8), np.zeros(10, dtype=np.uint8))
        c = _tally(log)
        assert c.counts.tolist() == [[10, 0], [0, 0], [0, 0]]

    def test_alternating(self):
        outcomes = np.tile([0, 1], 500).astype(np.uint8)
        log = EventLog("t", 0, np.zeros(1000, dtype=np.uint8), outcomes)
        c = _tally(log)
        assert c.counts[0].tolist() == [500, 500]

    def test_simulated_fraction(self):
        c = _tally(EventStream(single_photon(StokesVector(0.6, 0, 0.3)), 2024, 3 * 10**6, BLOCKED))
        frac = c.counts[1, 0] / c.counts[1].sum()
        assert abs(frac - 0.8) < 0.001

    def test_empty_rejected(self):
        log = EventLog("t", 0, np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8))
        with pytest.raises(InsufficientDataError):
            _tally(log)

    @pytest.mark.parametrize("labelled", [False, True])
    def test_pieces_read_back_tally_as_the_log_in_memory(self, tmp_path, monkeypatch, labelled):
        if labelled:
            source = adversarial(worst_case_decomposition(StokesVector(0.6, 0, 0.3)))
        else:
            source = single_photon(StokesVector(0.6, 0, 0.3))
        log = joined(EventStream(source, 5, 1000, BLOCKED))
        path = tmp_path / "calibration.log"
        save_event_log(log, str(path))
        monkeypatch.setattr(qrbg.sources, "_LOG_ROWS", 7)
        opened = load_event_log(str(path))
        # one piece per 7-character read that completes a line, the first
        # read joined to the first record
        text = path.read_text()
        records = text[text.index("\n0,") + 1 :]
        first = records.index("\n") + 1
        reads = [records[: first + 7], *(records[i : i + 7] for i in range(first + 7, len(records), 7))]
        assert sum(1 for _ in opened.pieces()) == sum("\n" in r for r in reads) > 100
        assert _tally(opened).counts.tolist() == _tally(log).counts.tolist()


    @pytest.mark.parametrize("events", [1, 7, 1000, 1 << 16])
    def test_slice_size_leaves_the_counts_unchanged(self, events):
        # pieces of `events` each, the last one ragged
        n = 3 * 4096 + 5
        rng = np.random.default_rng(events)
        bases = rng.integers(0, 3, n).astype(np.uint8)
        outcomes = rng.integers(0, 2, n).astype(np.uint8)
        want = [[np.count_nonzero((bases == b) & (outcomes == o)) for o in (0, 1)] for b in range(3)]
        log = EventLog("t", 0, bases, outcomes)
        sizes = [min(events, n - lo) for lo in range(0, n, events)]
        assert _tally(in_pieces(log, sizes)).counts.tolist() == want

    def test_counts_a_calibration_sample_in_slices(self):
        # the sample in pieces of _DRAWS events, as a stream draws it: the
        # whole sample's int64 cell keys took 23 MiB; a piece's uint8 keys
        # take 64 KiB
        n = 3 * 10**6
        source = adversarial(worst_case_decomposition(StokesVector(0.9, 0.3, 0.1)))
        log = joined(EventStream(source, 7, n, BLOCKED))
        draws = qrbg.sources._DRAWS
        pieces = in_pieces(log, [min(draws, n - lo) for lo in range(0, n, draws)])
        tracemalloc.start()
        try:
            _tally(pieces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_calibration_stream_memory_does_not_grow_with_its_events(self):
        # sampling and tallying a piece at a time holds no array of the
        # run's length: 1.76 MiB traced at either count
        source = adversarial(worst_case_decomposition(StokesVector(0.9, 0.3, 0.1)))
        peaks = []
        for n in (3 * 10**6, 3 * 10**7):
            tracemalloc.start()
            try:
                _tally(EventStream(source, 7, n, BLOCKED))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks


class TestEstimateStokes:
    def test_balanced_counts_give_origin(self):
        r = estimate_stokes(table(500, 500, 500, 500, 500, 500))
        assert r.s_hat.as_array() == pytest.approx(np.zeros(3), abs=1e-15)
        assert not r.projected

    def test_component_arithmetic(self):
        r = estimate_stokes(table(500, 500, 900, 100, 500, 500))
        assert r.s_hat.s1 == pytest.approx(0.8, abs=1e-15)
        assert r.stderr[0] == pytest.approx(math.sqrt((1 - 0.64) / 1000), abs=1e-12)

    def test_projection_back_to_sphere(self):
        # raw vector (0.9, 0, 0.6) has norm ~1.0817
        r = estimate_stokes(table(800, 200, 950, 50, 500, 500))
        assert r.projected
        assert np.linalg.norm(r.s_raw) > 1
        np.testing.assert_allclose(r.s_raw, [0.9, 0.0, 0.6], atol=1e-12)
        np.testing.assert_allclose(
            r.s_hat.as_array(), np.array([0.9, 0, 0.6]) / np.linalg.norm([0.9, 0, 0.6]),
            atol=1e-12,
        )
        np.testing.assert_allclose(r.s_hat.as_array(), eigenclip(r.s_raw), atol=1e-10)

    def test_count_floor(self):
        with pytest.raises(InsufficientDataError):
            estimate_stokes(table(1000, 1000, 40, 40, 1000, 1000))
        estimate_stokes(table(60, 40, 60, 40, 60, 40))  # floor met exactly at 100

    def test_nearest_psd_equivalence_random(self, rng):
        # radial scaling and eigenvalue clipping agree for qubit states
        v = rng.normal(size=(10_000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        radii = 1.0 + 0.3 * rng.random(10_000)
        for vec, r in zip(v, radii):
            s_raw = vec * r
            np.testing.assert_allclose(eigenclip(s_raw), s_raw / r, atol=1e-10)

    def test_projection_never_raises_rate(self, rng):
        done = 0
        while done < 200:
            s_raw = rng.uniform(-1, 1, size=3)
            norm = np.linalg.norm(s_raw)
            if not 1.0 + 1e-6 < norm <= 1.3:
                continue
            done += 1
            n = 10**6
            counts = np.round((1 + s_raw[[2, 0, 1]]) / 2 * n).astype(int)
            t = CountTable(np.stack([counts, n - counts], axis=1))
            r = estimate_stokes(t)
            if not r.projected:
                continue
            c_raw = min(1.0, math.hypot(r.s_raw[0], r.s_raw[1]))
            assert float(rate_from_coherence(r.s_hat.coherence)) <= float(
                rate_from_coherence(c_raw)
            ) + 1e-12

    def test_estimator_consistency(self, rng):
        # component error within 4 standard errors in virtually all runs
        s_true = np.array([0.55, -0.2, 0.3])
        n = 10_000
        p0 = (1 + s_true[[2, 0, 1]]) / 2
        failures = 0
        for _ in range(1000):
            n0 = rng.binomial(n, p0)
            r = estimate_stokes(CountTable(np.stack([n0, n - n0], axis=1)))
            err = np.abs(r.s_hat.as_array() - s_true)
            if (err > 4 * r.stderr).any():
                failures += 1
        assert failures <= 1


class TestReconstruct:
    def test_high_coherence_source(self):
        log = EventStream(single_photon(StokesVector(0.9996, 0, 0)), 515, 3 * 10**6, BLOCKED)
        result, rate = reconstruct(log)
        assert 0.94 <= float(rate) <= 0.98
        assert abs(float(rate) - 0.96) < 0.02

    def test_ideal_diagonal_source(self):
        log = EventStream(single_photon(StokesVector(1, 0, 0)), 616, 3 * 10**6, BLOCKED)
        _, rate = reconstruct(log)
        assert float(rate) >= 0.99

    def test_zero_coherence_source(self):
        log = EventStream(single_photon(StokesVector(0, 0, 0.5)), 717, 300_000, BLOCKED)
        _, rate = reconstruct(log)
        assert float(rate) < 1e-4
        conservative = calibrate(log, PipelineConfig(alpha=0.01, conservative=True)).rate
        assert float(conservative) == 0.0

    def test_conservative_rate_never_higher(self):
        log = EventStream(single_photon(StokesVector(0.8, 0, 0.1)), 818, 300_000, BLOCKED)
        _, plug_in = reconstruct(log)
        lower = calibrate(log, PipelineConfig(alpha=0.01, conservative=True)).rate
        assert float(lower) <= float(plug_in)

    def test_hoeffding_companion_below_rate(self):
        log = EventStream(single_photon(StokesVector(0.8, 0, 0.1)), 919, 300_000, BLOCKED)
        result, rate = reconstruct(log)
        lower = lower_confidence_rate(result.s_hat, int(result.n_per_basis.min()), 0.01)
        assert float(rate) == float(closed_form_minentropy(result.s_hat))
        assert float(lower) <= float(rate)

    def test_requires_all_bases(self):
        log = EventStream(single_photon(StokesVector(0.5, 0, 0)), 10, 1000)
        with pytest.raises(InsufficientDataError):
            reconstruct(log)


def test_calibration_report_block():
    r = estimate_stokes(table(600, 400, 800, 200, 500, 500))
    plug_in = rate_from_coherence(r.s_hat.coherence)
    lower = lower_confidence_rate(r.s_hat, int(r.n_per_basis.min()), 0.01)
    block = Calibration(r, plug_in, lower, 0.01).render()
    for key in ("s1=", "s2=", "s3=", "stderr1=", "stderr2=", "stderr3=",
                "projected=", "minentropy_rate=", "alpha=", "minentropy_lower="):
        assert any(line.startswith(key) for line in block.splitlines())


@pytest.mark.parametrize("counts, message", [
    (np.ones((2, 2)), r"shape \(3, 2\), got \(2, 2\)"),
    (np.array([[5, 5], [5, -1], [5, 5]]), "nonnegative"),
    (np.array([[100.9, 100.2], [150.7, 50], [100, 100.5]]), "integers, got dtype float64"),
    (np.ones((3, 2), dtype=bool), "integers, got dtype bool"),
])
def test_count_table_rejects_bad_counts(counts, message):
    with pytest.raises(ParameterError, match=message):
        CountTable(counts)


def counts_log(*pairs):
    """An event log with the given (outcome 0, outcome 1) counts for Z, X
    and Y in turn."""
    cells = [(basis, outcome, count) for basis, pair in enumerate(pairs) for outcome, count in enumerate(pair)]
    bases, outcomes, counts = np.array(cells).T
    return EventLog("t", 0, np.repeat(bases, counts).astype(np.uint8), np.repeat(outcomes, counts).astype(np.uint8))


def test_plug_in_certifies_rate_1_on_a_projected_estimate():
    """A characterisation of a weakness, not a wanted property: radial
    projection puts an estimate that sampling noise pushed past the sphere
    on its surface, where an equatorial point's plug-in rate is 1.  A Y
    bias of 0.03, within noise at 1000 events, lifts the certified rate
    from 0.971 to 1.0.  Once the certificate no longer reads the projected
    state, this fails: flip it to assert the projected rate is below the
    unprojected one."""
    z, x = (500, 500), (9999, 1)
    inside = calibrate(counts_log(z, x, (500, 500)), PipelineConfig())
    outside = calibrate(counts_log(z, x, (515, 485)), PipelineConfig())
    assert not inside.tomography.projected and outside.tomography.projected
    assert np.linalg.norm(outside.tomography.s_raw) == pytest.approx(1.00025, abs=1e-5)
    assert float(inside.rate) == pytest.approx(0.9714, abs=1e-4)
    assert float(outside.rate) == 1.0
