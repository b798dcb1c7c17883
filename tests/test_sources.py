import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import qrbg.sources
from qrbg.errors import InsufficientDataError, ParameterError
from oracles import in_pieces, joined, minentropy_decomposition, mix
from qrbg.minentropy import closed_form_minentropy
from qrbg.sources import (
    _BASIS_BYTES,
    BASIS_CHARS,
    BLOCKED,
    EventLog,
    EventStream,
    PRNG_NAME,
    ZBits,
    _encode,
    _record_blocks,
    _write_event_log,
    adversarial,
    entangled,
    load_event_log,
    sample_events,
    save_event_log,
    single_photon,
)
from qrbg.states import (
    Decomposition,
    PureState,
    StokesVector,
    worst_case_decomposition,
)


def single(s1, s2, s3, seed=1):
    return single_photon(StokesVector(s1, s2, s3)), seed


def blocked_schedule(n):
    """The oracle of ``BLOCKED``: equal thirds of Z, X, Y in consecutive
    blocks, the remainder going Z, X."""
    per, rest = divmod(n, 3)
    codes = np.arange(3, dtype=np.uint8)
    return np.concatenate([np.repeat(codes, per), codes[:rest]])


def read_log(tmp_path, text):
    """``text`` written to a file and read back through ``load_event_log``,
    its pieces joined into one log."""
    path = tmp_path / "events.log"
    path.write_text(text, encoding="utf-8")
    opened = load_event_log(str(path))
    pieces = list(opened.pieces())
    labels = None if pieces[0].eve_labels is None else np.concatenate([p.eve_labels for p in pieces])
    return EventLog(
        opened.source,
        opened.seed,
        np.concatenate([p.bases for p in pieces]),
        np.concatenate([p.outcomes for p in pieces]),
        labels,
    )


class TestSampleEvents:
    def test_deterministic_source_all_zero(self):
        log = joined(EventStream(*single(0, 0, 1), 1000, "Z"))
        assert not log.outcomes.any()

    def test_balanced_source_statistics(self):
        log = joined(EventStream(*single(1, 0, 0, seed=42), 10**6, "Z"))
        assert abs(log.outcomes.mean() - 0.5) < 0.002

    def test_reproducibility_bytewise(self):
        a = joined(EventStream(*single(0.3, 0.2, 0.1, seed=99), 9000, BLOCKED))
        b = joined(EventStream(*single(0.3, 0.2, 0.1, seed=99), 9000, BLOCKED))
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.bases, b.bases)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        _write_event_log(a, buf_a)
        _write_event_log(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_different_seeds_differ(self):
        a = joined(EventStream(*single(1, 0, 0, seed=1), 4000, "Z"))
        b = joined(EventStream(*single(1, 0, 0, seed=2), 4000, "Z"))
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_schedule_length_mismatch(self):
        with pytest.raises(ParameterError):
            EventStream(*single(0, 0, 1), 20, np.zeros(10, dtype=np.uint8))

    def test_unknown_basis(self):
        with pytest.raises(ParameterError):
            EventStream(*single(0, 0, 1), 1, ["Q"])

    def test_unknown_basis_letter(self):
        with pytest.raises(ParameterError, match="unknown basis 'Q'"):
            EventStream(*single(0, 0, 1), 1, "Q")

    @pytest.mark.parametrize("schedule", [
        np.array([0, 1, 2], dtype=np.int64),  # valid codes, but a cast would be needed
        np.array([0, 1, 3], dtype=np.uint8),  # code 3 would wrap to Z modulo 3
        ["Z", "X", "Y"],  # letters are read one for the whole run, not per event
    ])
    def test_schedule_neither_cast_nor_wrapped(self, schedule):
        with pytest.raises(ParameterError, match="uint8 array|basis codes must be"):
            EventStream(*single(0, 0, 1), 3, schedule)

    def test_basis_dependent_probabilities(self):
        # X basis on an s1-polarized state is deterministic
        log = joined(EventStream(*single(1, 0, 0, seed=5), 2000, "X"))
        assert not log.outcomes.any()

    @pytest.mark.parametrize("labelled", [False, True])
    def test_z_stream_matches_one_constant_z_draw(self, monkeypatch, labelled):
        monkeypatch.setattr(qrbg.sources, "_CHUNK", 1000)
        if labelled:
            d = worst_case_decomposition(StokesVector(0.6, 0, 0.3))
            model = (adversarial(d), 12)
        else:
            model = single(0.6, 0, 0.3, seed=12)
        n = 3500  # three whole chunks and a ragged one
        log = joined(EventStream(*model, n, "Z"))
        stream = EventStream(*model, n)
        raw = ZBits(stream)
        assert np.array_equal(np.concatenate(list(raw.chunks())), log.outcomes)
        assert len(raw) == n and raw.meta["source"] == log.source
        whole, streamed = io.StringIO(), io.StringIO()
        _write_event_log(log, whole)
        _write_event_log(stream, streamed)
        assert streamed.getvalue() == whole.getvalue()

    def test_raw_bits_match_constant_z(self):
        model = single(0.6, 0, 0.3, seed=77)
        raw = joined(EventStream(*model, 50_000, "Z")).outcomes
        log = joined(EventStream(*model, 50_000, np.zeros(50_000, dtype=np.uint8)))
        assert np.array_equal(raw, log.outcomes)


class TestAdversarialSource:
    def test_labels_recorded_and_marginal(self):
        state = StokesVector(0.6, 0, 0.3)
        d = worst_case_decomposition(state)
        model = (adversarial(d), 31337)
        log = joined(EventStream(*model, 10**6, "Z"))
        assert log.eve_labels is not None
        zeros = 1.0 - log.outcomes.mean()
        assert abs(zeros - 0.65) < 0.002
        for label, p0 in ((0, 0.9), (1, 0.1)):
            sel = log.outcomes[log.eve_labels == label]
            assert abs((1.0 - sel.mean()) - p0) < 0.003

    def test_label_frequencies_match_weights(self):
        state = StokesVector(0.6, 0, 0.3)
        d = worst_case_decomposition(state)
        log = joined(EventStream(adversarial(d), 4, 10**6, "Z"))
        frac_up = (log.eve_labels == 0).mean()
        assert abs(frac_up - 0.6875) < 0.002

    def test_marginal_consistency_three_bases(self):
        state = StokesVector(0.4, -0.3, 0.5)
        d = worst_case_decomposition(state)
        log = joined(EventStream(adversarial(d), 8, 10**6, BLOCKED))
        want = mix(d).as_array()
        per = 10**6 // 3
        for code, comp in ((0, 2), (1, 0), (2, 1)):
            sel = log.outcomes[log.bases == code]
            est = 1.0 - 2.0 * sel.mean()
            sigma = math.sqrt((1 - want[comp] ** 2) / per)
            assert abs(est - want[comp]) <= 3 * sigma

    def test_eve_advantage_matches_worst_case(self):
        # knowing the per-event term, the adversary's average surprisal
        # equals the closed-form rate of the mixed state
        state = StokesVector(0.6, 0, 0.3)
        d = worst_case_decomposition(state)
        log = joined(EventStream(adversarial(d), 11, 10**5, "Z"))
        p_max = np.array([0.5 * (1 + abs(psi.bloch.s3)) for _, psi in d.terms])
        empirical = float(np.mean(-np.log2(p_max[log.eve_labels])))
        assert empirical == pytest.approx(float(closed_form_minentropy(state)), abs=3e-3)

    def test_eve_advantage_generic_decomposition(self, rng):
        from qrbg.states import Decomposition, PureState

        dirs = rng.normal(size=(3, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        w = np.array([0.5, 0.3, 0.2])
        d = Decomposition(
            tuple((float(wi), PureState(StokesVector(*r))) for wi, r in zip(w, dirs))
        )
        log = joined(EventStream(adversarial(d), 21, 10**6, "Z"))
        p_max = np.array([0.5 * (1 + abs(psi.bloch.s3)) for _, psi in d.terms])
        surprisal = -np.log2(p_max[log.eve_labels])
        want = float(minentropy_decomposition(d))
        sigma = surprisal.std() / math.sqrt(len(surprisal))
        assert abs(surprisal.mean() - want) <= 3 * sigma + 1e-9
        assert surprisal.mean() >= float(closed_form_minentropy(mix(d))) - 3 * sigma - 1e-9

    def test_chunk_boundary_reproducibility(self):
        state = StokesVector(0.2, 0.1, 0.4)
        d = worst_case_decomposition(state)
        n = (1 << 22) + 17
        model = (adversarial(d), 3)
        a = joined(EventStream(*model, n, "Z"))
        b = joined(EventStream(*model, n, "Z"))
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.eve_labels, b.eve_labels)


def reference_sample(model, sched, n):
    """Labels and outcomes on the sampler's PCG64 stream, drawn in plain
    numpy as the draw order states it: per chunk, every event's term
    uniform, then every outcome uniform; a term by ``searchsorted`` over
    the cumulative weights, an outcome against its own Born-rule
    threshold."""
    source, seed = model
    rng = np.random.default_rng(seed)
    blochs = np.array([[s.s1, s.s2, s.s3] for s in source.states])
    p0 = 0.5 * (1.0 + blochs[:, [2, 0, 1]])  # columns Z, X, Y
    outcomes = np.empty(n, dtype=np.uint8)
    labels = None if source.weights is None else np.empty(n, dtype=np.int32)
    for start in range(0, n, qrbg.sources._CHUNK):
        stop = min(start + qrbg.sources._CHUNK, n)
        terms = 0
        if labels is not None:
            # the last edge is 1 up to rounding, above every uniform
            terms = np.searchsorted(np.cumsum(source.weights)[:-1], rng.random(stop - start), side="right")
            labels[start:stop] = terms
        outcomes[start:stop] = rng.random(stop - start) >= p0[terms, sched[start:stop]]
    return outcomes, labels


def random_decomposition(terms, seed):
    rng = np.random.default_rng(seed)
    blochs = rng.normal(size=(terms, 3))
    blochs /= np.linalg.norm(blochs, axis=1)[:, None]
    weights = rng.random(terms)
    weights /= weights.sum()
    return Decomposition(tuple((float(w), PureState(StokesVector(*b.tolist()))) for w, b in zip(weights, blochs)))


ORACLE_EVENTS = 10_007
ORACLE_SCHEDULES = {
    "constant_z": np.zeros(ORACLE_EVENTS, dtype=np.uint8),
    "blocked": blocked_schedule(ORACLE_EVENTS),
    # 300-event stretches, several to a 1000-event chunk
    "stretches_300": np.repeat(np.arange(ORACLE_EVENTS // 300 + 1, dtype=np.uint8) % 3, 300)[:ORACLE_EVENTS],
    # 16-event stretches: 63 to a 1000-event chunk, the most it compares
    "stretches_16": np.repeat(np.arange(ORACLE_EVENTS // 16 + 1, dtype=np.uint8) % 3, 16)[:ORACLE_EVENTS],
    "interleaved": (np.arange(ORACLE_EVENTS) % 3).astype(np.uint8),
}


@pytest.mark.parametrize("chunk", [1000, None])
@pytest.mark.parametrize("schedule", sorted(ORACLE_SCHEDULES))
@pytest.mark.parametrize("terms", [None, 1, 2, 3, 12])
def test_sampler_matches_per_event_thresholds(monkeypatch, chunk, schedule, terms):
    if chunk is not None:  # chunks split stretches and stretches split chunks
        monkeypatch.setattr(qrbg.sources, "_CHUNK", chunk)
    if terms is None:
        model = single(0.6, -0.2, 0.3, seed=21)
    else:
        model = (adversarial(random_decomposition(terms, terms)), 21)
    sched = ORACLE_SCHEDULES[schedule]
    want_outcomes, want_labels = reference_sample(model, sched, ORACLE_EVENTS)
    drawn = [joined(EventStream(*model, ORACLE_EVENTS, sched))]
    if schedule == "constant_z":
        drawn.append(joined(EventStream(*model, ORACLE_EVENTS, "Z")))
    for log in drawn:
        assert np.array_equal(log.outcomes, want_outcomes)
        assert (log.eve_labels is None) == (want_labels is None)
        if want_labels is not None:
            assert np.array_equal(log.eve_labels, want_labels)


def concatenated(stream):
    """The events of ``stream``'s pieces, concatenated: bases, outcomes and
    eve_labels (None without weights)."""
    pieces = list(stream.pieces())
    labels = None if pieces[0].eve_labels is None else np.concatenate([p.eve_labels for p in pieces])
    return np.concatenate([p.bases for p in pieces]), np.concatenate([p.outcomes for p in pieces]), labels


STREAM_EVENTS = [1, 2, 3, 2**16 - 1, 2**16 + 1, 3_000_001]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("schedule", ["Z", "Y", BLOCKED])
@pytest.mark.parametrize("n, weighted", [
    *((n, w) for n in STREAM_EVENTS for w in (False, True)),
    (2**22 + 5, True),  # the outcome generator advanced across a chunk boundary
])
def test_stream_matches_the_chunk_oracle(seed, schedule, n, weighted):
    if weighted:
        source = adversarial(worst_case_decomposition(StokesVector(0.4, -0.3, 0.5)))
    else:
        source = single_photon(StokesVector(0.4, -0.3, 0.5))
    sched = blocked_schedule(n) if schedule == BLOCKED else np.full(n, BASIS_CHARS.index(schedule), dtype=np.uint8)
    want_outcomes, want_labels = reference_sample((source, seed), sched, n)
    stream = EventStream(source, seed, n, schedule)
    assert all(0 < p.n <= qrbg.sources._DRAWS for p in stream.pieces())
    bases, outcomes, labels = concatenated(stream)
    assert np.array_equal(bases, sched)
    assert np.array_equal(outcomes, want_outcomes)
    assert (labels is None) == (want_labels is None)
    if weighted:
        assert np.array_equal(labels, want_labels)


@pytest.mark.parametrize("schedule", ["Z", BLOCKED])
def test_pieces_drawn_twice_are_the_same_events(schedule):
    d = worst_case_decomposition(StokesVector(0.9, 0.3, 0.1))
    stream = EventStream(adversarial(d), 11, 2**22 + 2**16 + 3, schedule)
    first, second = concatenated(stream), concatenated(stream)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# The piece length against the chunk: (events a piece, chunk, events).
# Every sample crosses chunk boundaries and ends inside a piece, its
# ragged last chunk still long enough for an interleaved schedule to take
# the per-event lookup; "chunk" draws each chunk whole, in one piece.
DRAW_CHUNK = 3 * 2**16 + 5
DRAW_CASES = {
    "1": (1, 250, 1130),
    "7": (7, 250, 1130),
    "2^16": (1 << 16, DRAW_CHUNK, 2 * DRAW_CHUNK + 1001),
    "chunk": (DRAW_CHUNK, DRAW_CHUNK, 2 * DRAW_CHUNK + 1001),
}
DRAW_SOURCES = {
    "single": lambda: single(0.6, -0.2, 0.3, seed=31),
    "entangled": lambda: (entangled(0.8, 0.1, 0.4), 31),
    "adversarial": lambda: (adversarial(random_decomposition(3, 3)), 31),
}


@pytest.mark.parametrize("case", sorted(DRAW_CASES))
@pytest.mark.parametrize("schedule", ["Z", "blocked", "interleaved"])
@pytest.mark.parametrize("kind", sorted(DRAW_SOURCES))
def test_buffer_length_leaves_the_stream_unchanged(monkeypatch, case, schedule, kind):
    draws, chunk, n = DRAW_CASES[case]
    monkeypatch.setattr(qrbg.sources, "_DRAWS", draws)
    monkeypatch.setattr(qrbg.sources, "_CHUNK", chunk)
    compared = []
    compare = qrbg.sources._compare
    monkeypatch.setattr(qrbg.sources, "_compare", lambda *args: compared.append(1) or compare(*args))
    model = DRAW_SOURCES[kind]()
    sched = {
        "Z": np.zeros(n, dtype=np.uint8),
        "blocked": blocked_schedule(n),
        "interleaved": (np.arange(n) % 3).astype(np.uint8),
    }[schedule]
    want_outcomes, want_labels = reference_sample(model, sched, n)
    log = joined(EventStream(*model, n, {"Z": "Z", "blocked": BLOCKED}.get(schedule, sched)))
    assert np.array_equal(log.bases, sched)
    assert np.array_equal(log.outcomes, want_outcomes)
    assert (log.eve_labels is None) == (want_labels is None)
    if want_labels is not None:
        assert np.array_equal(log.eve_labels, want_labels)
    # an interleaved piece looks every threshold up once it holds
    # _LOOKUP_STRETCHES events: pieces of 1 or 7 events, and the 5-event
    # piece that ends each 3 * 2^16 + 5-event chunk, compare
    assert (not compared) == (schedule == "interleaved" and case == "chunk")


@pytest.mark.parametrize("case", sorted(DRAW_CASES))
@pytest.mark.parametrize("kind", sorted(DRAW_SOURCES))
def test_buffer_length_leaves_the_z_stream_unchanged(monkeypatch, case, kind):
    draws, chunk, n = DRAW_CASES[case]
    monkeypatch.setattr(qrbg.sources, "_DRAWS", draws)
    monkeypatch.setattr(qrbg.sources, "_CHUNK", chunk)
    model = DRAW_SOURCES[kind]()
    want_outcomes, want_labels = reference_sample(model, np.zeros(n, dtype=np.uint8), n)
    pieces = list(EventStream(*model, n).pieces())
    # pieces of at most `draws` events, none crossing a chunk
    stops = {start: min(start + chunk, n) for start in range(0, n, chunk)}
    assert [p.n for p in pieces] == [min(draws, stop - lo) for start, stop in stops.items() for lo in range(start, stop, draws)]
    assert np.array_equal(np.concatenate([p.outcomes for p in pieces]), want_outcomes)
    if want_labels is not None:
        assert np.array_equal(np.concatenate([p.eve_labels for p in pieces]), want_labels)


def traced_peak(run) -> int:
    """The most memory ``tracemalloc`` saw allocated while ``run()`` ran."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_z_stream_piece_draws_without_a_threshold_buffer():
    # a piece's labels (0.25 MiB) and outcomes, its two draws of uniforms
    # (0.5 MiB each) and piece-sized masks: 1.25 MiB; a whole chunk's
    # labels and outcomes took 20 MiB, and a float64 threshold per event
    # would add 0.5 MiB a piece
    d = worst_case_decomposition(StokesVector(0.9, 0.3, 0.1))
    pieces = EventStream(adversarial(d), 3, qrbg.sources._CHUNK).pieces()
    assert traced_peak(lambda: next(pieces)) < 2 * 2**20


def test_z_stream_pass_holds_two_pieces_and_one_buffer():
    # 2^23 events, a piece at a time: the piece held and the one being
    # drawn, with its uniforms (0.5 MiB), 0.63 MiB in all; whole-chunk
    # pieces took 8.5 MiB
    stream = EventStream(*single(0.6, 0, 0.3, seed=4), 2 * qrbg.sources._CHUNK)
    assert traced_peak(lambda: all(piece.n for piece in stream.pieces())) < 2**20


def test_calibration_sample_holds_its_arrays_and_one_buffer():
    # 3e6 events joined: codes and outcomes (2.9 MiB each), labels (11.4
    # MiB) and one piece; the whole sample's uniforms took 23 MiB more
    n = 3 * 10**6
    d = worst_case_decomposition(StokesVector(0.9, 0.3, 0.1))
    assert traced_peak(lambda: joined(EventStream(adversarial(d), 7, n, BLOCKED))) < 19 * 2**20


def coincidence_state(coherence, accidental_fraction, phase=0.0):
    """The effective qubit that coincidence detection of a pair sees."""
    (state,) = entangled(coherence, accidental_fraction, phase).states
    return state


class TestEffectiveQubit:
    def test_ideal_pair(self):
        s = coincidence_state(1.0, 0.0)
        assert (s.s1, s.s2, s.s3) == (1.0, 0.0, 0.0)

    def test_fully_dephased(self):
        s = coincidence_state(0.0, 0.7)
        assert s.as_array() == pytest.approx(np.zeros(3), abs=1e-15)

    def test_accidentals_shrink_coherence(self):
        s = coincidence_state(0.88, 0.0409)
        assert s.s1 == pytest.approx(0.88 * (1 - 0.0409), abs=1e-12)
        assert s.s3 == pytest.approx(0.0, abs=1e-15)
        assert float(closed_form_minentropy(s)) == pytest.approx(0.3805, abs=1e-4)

    def test_no_subtraction_monotonicity(self):
        rates = [
            float(closed_form_minentropy(coincidence_state(0.9, a)))
            for a in np.linspace(0.0, 0.9, 10)
        ]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_phase_leaves_rate_unchanged(self):
        base = float(closed_form_minentropy(coincidence_state(0.844, 0.0)))
        for phase in (0.3, 1.2, math.pi / 2, 4.0):
            rot = float(closed_form_minentropy(coincidence_state(0.844, 0.0, phase)))
            assert rot == pytest.approx(base, abs=1e-12)

    def test_populations_stay_balanced(self):
        s = coincidence_state(0.5, 0.2, 0.7)
        assert s.s3 == pytest.approx(0.0, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            coincidence_state(1.2, 0.0)
        with pytest.raises(ParameterError):
            coincidence_state(0.5, 1.0)


def coincidences(coherence, basis, n, seed):
    return joined(EventStream(entangled(coherence, 0.0), seed, n, basis))


class TestSampleCoincidences:
    def test_ideal_pair_balanced_z(self):
        log = coincidences(1.0, "Z", 10**6, seed=6)
        assert abs(log.outcomes.mean() - 0.5) < 0.002

    def test_ideal_pair_deterministic_x(self):
        log = coincidences(1.0, "X", 10**5, seed=7)
        assert not log.outcomes.any()

    def test_degraded_pair_x_fraction(self):
        log = coincidences(0.844, "X", 10**6, seed=8)
        zeros = 1.0 - log.outcomes.mean()
        assert abs(zeros - 0.922) < 0.002


class TestEventLogFiles:
    def test_roundtrip_with_labels(self, tmp_path):
        d = worst_case_decomposition(StokesVector(0.6, 0, 0.3))
        interleaved = (np.arange(500) % 3).astype(np.uint8)
        log = joined(EventStream(adversarial(d), 5, 500, interleaved))
        buf = io.StringIO()
        _write_event_log(log, buf)
        back = read_log(tmp_path, buf.getvalue())
        assert back.source == log.source
        assert back.seed == log.seed
        assert np.array_equal(back.bases, log.bases)
        assert np.array_equal(back.outcomes, log.outcomes)
        assert np.array_equal(back.eve_labels, log.eve_labels)

    def test_roundtrip_via_path(self, tmp_path):
        log = joined(EventStream(*single(0.5, 0, 0.5, seed=13), 300, BLOCKED))
        path = tmp_path / "events.log"
        save_event_log(log, str(path))
        text = path.read_text()
        assert text.startswith("# source=single_photon(")
        assert "# seed=13" in text
        first_record = text.splitlines()[4]
        assert first_record.startswith("0,Z,")

    def test_empty_log_rejected(self, tmp_path):
        with pytest.raises(InsufficientDataError):
            read_log(tmp_path, "# source=x\n# seed=0\n")

    def test_index_gap_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            read_log(tmp_path, "0,Z,0\n2,Z,1\n")

    def test_header_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            read_log(tmp_path, "# n=3\n0,Z,0\n1,Z,1\n")

    @pytest.mark.parametrize("key", ["n", "seed", "source"])
    def test_repeated_header_key_rejected(self, tmp_path, key):
        # the writer never repeats a key; read last-wins, "# n=5" then
        # "# n=2" would declare two records
        head = {"n": "# n=5\n# n=2\n", "seed": "# seed=1\n# seed=1\n", "source": "# source=x\n# source=y\n"}[key]
        with pytest.raises(ParameterError, match=f"event log header repeats key '{key}'"):
            read_log(tmp_path, head + "0,Z,0\n1,Z,1\n")

    def test_written_in_chunks_of_any_size(self, monkeypatch):
        # the log in one piece, and drawn in pieces of 7 events
        d = worst_case_decomposition(StokesVector(0.6, 0, 0.3))
        stream = EventStream(adversarial(d), 9, 100, BLOCKED)
        whole = io.StringIO()
        _write_event_log(joined(stream), whole)
        monkeypatch.setattr(qrbg.sources, "_DRAWS", 7)
        assert [p.n for p in stream.pieces()] == [7] * 14 + [2]
        chunked = io.StringIO()
        _write_event_log(stream, chunked)
        assert chunked.getvalue() == whole.getvalue()

    @pytest.mark.parametrize("labelled", [False, True])
    def test_read_in_pieces_of_any_size(self, tmp_path, monkeypatch, labelled):
        if labelled:
            d = worst_case_decomposition(StokesVector(0.6, 0, 0.3))
            model = (adversarial(d), 9)
        else:
            model = single(0.6, 0, 0.3, seed=9)
        buf = io.StringIO()
        _write_event_log(EventStream(*model, 100, BLOCKED), buf)
        whole = read_log(tmp_path, buf.getvalue())
        monkeypatch.setattr(qrbg.sources, "_LOG_ROWS", 7)
        pieced = read_log(tmp_path, buf.getvalue())
        assert (pieced.source, pieced.seed) == (whole.source, whole.seed)
        assert np.array_equal(pieced.bases, whole.bases)
        assert np.array_equal(pieced.outcomes, whole.outcomes)
        if labelled:
            assert np.array_equal(pieced.eve_labels, whole.eve_labels)
        else:
            assert pieced.eve_labels is None and whole.eve_labels is None


HEADER = "# source=x\n# seed=0\n# n=2\n"
MALFORMED_LOGS = {
    "basis Q": ("0,Q,0\n1,Z,1\n", ParameterError),
    "basis ZZ": ("0,ZZ,0\n1,Z,1\n", ParameterError),
    "outcome 2 on Z": ("0,Z,2\n1,Z,1\n", ParameterError),
    "outcome not ASCII": ("0,Z,\u00e9\n1,Z,1\n", ParameterError),
    "index x": ("x,Z,0\n1,Z,1\n", ParameterError),
    "out of order": ("1,Z,0\n0,Z,1\n", ParameterError),
    "3 and 4 columns": ("0,Z,0\n1,Z,1,0\n", ParameterError),
    "header only": ("", InsufficientDataError),
    "header n mismatch": ("0,Z,0\n", ParameterError),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LOGS))
def test_malformed_log_rejected(tmp_path, name):
    records, error = MALFORMED_LOGS[name]
    with pytest.raises(error):
        read_log(tmp_path, HEADER + records)


# Logs whose first record or header the reader rejects before reading
# the records, with the message each must raise.
BAD_LOG_HEADS = {
    "2 fields": (HEADER + "0,Z\n1,Z\n", "malformed event record: '0,Z'"),
    "5 fields": (HEADER + "0,Z,0,1,1\n1,Z,1,1,1\n", "malformed event record: '0,Z,0,1,1'"),
    "header n=abc": ("# source=x\n# seed=0\n# n=abc\n0,Z,0\n", "n='abc' is not a record count"),
    # Only LF and CRLF end a line; a lone carriage return is named by its line.
    "carriage returns alone": (
        "# source=x\r# seed=0\r# n=2\r0,Z,0\r1,X,1\r",
        "^event log line 1: carriage return without a line feed",
    ),
    "carriage return in the header": (
        "# source=x\n# seed=0\r\n# n=2\r\r\n0,Z,0\n1,X,1\n",
        "^event log line 3: carriage return without a line feed",
    ),
    "carriage return in the first record": (
        HEADER + "0,Z,0\r1,X,1\n",
        "^event log line 4: carriage return without a line feed",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_LOG_HEADS))
def test_bad_first_record_or_header_rejected(tmp_path, name):
    text, message = BAD_LOG_HEADS[name]
    with pytest.raises(ParameterError, match=message):
        read_log(tmp_path, text)


def after_good_records(records, lead):
    """``records`` with their indices moved on by ``lead``, after ``lead``
    valid Z records."""
    good = "".join(f"{i},Z,{i % 2}\n" for i in range(lead))
    moved = (line.partition(",") for line in records.splitlines(keepends=True))
    return good + "".join(
        f"{int(i) + lead if i.isdigit() else i},{rest}" for i, _, rest in moved
    )


# "header only" has no bad record to move
@pytest.mark.parametrize("name", sorted(set(MALFORMED_LOGS) - {"header only"}))
def test_malformed_log_rejected_after_first_piece(tmp_path, monkeypatch, name):
    monkeypatch.setattr(qrbg.sources, "_LOG_ROWS", 7)
    records, error = MALFORMED_LOGS[name]
    lead = 10  # the bad record lies past the first piece
    with pytest.raises(error):
        read_log(tmp_path, f"# n={lead + 2}\n" + after_good_records(records, lead))


def test_piece_errors_name_the_whole_log_record(tmp_path, monkeypatch):
    monkeypatch.setattr(qrbg.sources, "_LOG_ROWS", 7)
    log = "# n=12\n" + after_good_records(MALFORMED_LOGS["basis Q"][0], 10)
    with pytest.raises(ParameterError, match="event record 10: basis"):
        read_log(tmp_path, log)


def boundary_records(labels, final_newline):
    """Ten Z records 'i,Z,i % 2[,label]', one per line."""
    text = "".join(f"{i},Z,{i % 2}" + ("" if labels is None else f",{labels[i]}") + "\n" for i in range(10))
    return text if final_newline else text[:-1]


def read_ends(text, rows):
    """Where in the record lines ``text`` the record reader's reads of
    ``rows`` characters end: the first joins the first line."""
    head = text.find("\n") + 1 or len(text)
    return [*range(head + rows, len(text), rows), len(text)]


def one_piece_per_read(text, rows):
    """The blocks and newline offsets the reader must hand out for reads
    of ``rows`` characters: for each read that completes a line, the lines
    it completes, from the partial line the reads before it left; the last
    line given a newline if it has none."""
    cut = 0
    for end in read_ends(text, rows):
        stop = text.rfind("\n", 0, end) + 1
        if stop > cut:
            yield text[cut:stop].encode(), [i for i, char in enumerate(text[cut:stop]) if char == "\n"]
            cut = stop
    if cut < len(text):
        yield (text[cut:] + "\n").encode(), [len(text) - cut]


def read_texts(text, rows):
    """The characters of each of those reads."""
    ends = read_ends(text, rows)
    return [text[a:b] for a, b in zip([0, *ends], ends)]


# Ten-record logs read 7 characters at a time, as (eve_labels, final
# newline, what holds of the reads).
READ_BOUNDARY_LOGS = {
    # 6-character lines: the read ending at character 48 ends a line, so
    # its piece leaves nothing over
    "piece ends where a read ends": (None, True, lambda reads: any(r.endswith("\n") for r in reads[:-1])),
    # 8-character lines: the second read ends one character before the
    # newline of record 1, which is carried into the third
    "read ends mid-line": ([1] * 10, True, lambda reads: not reads[1].endswith("\n")),
    # record 1 is 16 characters long, so the second read holds no newline
    # and hands out no piece
    "read holds no newline": ([0, 123456789, *range(2, 10)], True, lambda reads: "\n" not in reads[1]),
    "last line without newline": ([1] * 10, False, lambda reads: not reads[-1].endswith("\n")),
}


@pytest.mark.parametrize("count", ["# n=10\n", ""], ids=["with n", "without n"])
@pytest.mark.parametrize("case", sorted(READ_BOUNDARY_LOGS))
def test_piece_ending_on_a_read_boundary_is_read_on(tmp_path, monkeypatch, count, case):
    monkeypatch.setattr(qrbg.sources, "_LOG_ROWS", 7)
    labels, final_newline, holds = READ_BOUNDARY_LOGS[case]
    records = boundary_records(labels, final_newline)
    assert holds(read_texts(records, 7))
    fh = io.StringIO(records)
    blocks = [(bytes(block), ends.tolist()) for block, ends in _record_blocks(fh.readline(), fh)]
    assert blocks == list(one_piece_per_read(records, 7))
    log = read_log(tmp_path, count + records)
    assert log.bases.tolist() == [0] * 10
    assert log.outcomes.tolist() == [i % 2 for i in range(10)]
    if labels is None:
        assert log.eve_labels is None
    else:
        assert log.eve_labels.tolist() == labels


def test_z_log_rejects_the_piece_holding_a_non_z_event(monkeypatch, tmp_path):
    monkeypatch.setattr(qrbg.sources, "_LOG_ROWS", 7)
    path = tmp_path / "gen.log"
    records = "".join(f"{i},{'X' if i == 12 else 'Z'},{i % 2}\n" for i in range(20))
    path.write_text("# source=x\n# seed=3\n# n=20\n" + records)
    raw = ZBits(load_event_log(str(path)))
    assert len(raw) == 20 and raw.meta == {"role": "raw", "source": "x", "seed": "3", "prng": PRNG_NAME}
    # the records before the piece holding record 12 are handed out
    starts = np.cumsum([0, *(len(ends) for _, ends in one_piece_per_read(records, 7))])
    before = int(starts[starts <= 12].max())
    assert 0 < before <= 12
    got = []
    with pytest.raises(ParameterError, match="event record 12: not Z-basis"):
        for chunk in raw.chunks():
            got += chunk.tolist()
    assert got == [i % 2 for i in range(before)]


@pytest.mark.parametrize("x_piece", [0, 1])
def test_drawn_non_z_piece_rejected_at_its_first_event(x_piece):
    # a drawn one-basis schedule is one code at stride 0, checked as that code
    model = single(0.6, 0, 0.3, seed=5)
    pieces = [next(EventStream(*model, 30, "Z").pieces())] * x_piece + [next(EventStream(*model, 40, "X").pieces())]
    assert all(p.bases.strides == (0,) for p in pieces)
    events = SimpleNamespace(source="x", seed=5, n=sum(p.n for p in pieces), pieces=lambda: iter(pieces))
    with pytest.raises(ParameterError, match=f"^event record {30 * x_piece}: not Z-basis"):
        list(ZBits(events).chunks())


def test_failed_log_write_leaves_no_file_and_an_earlier_log_as_it_was(tmp_path):
    # the second piece's eve_label is too wide to write, once the first is written
    labels = np.zeros(20, dtype=np.int32)
    labels[10] = 10 ** 9
    bad = in_pieces(EventLog("x", 0, np.zeros(20, dtype=np.uint8), np.ones(20, dtype=np.uint8), labels), (10, 10))
    fresh, earlier = tmp_path / "fresh.log", tmp_path / "earlier.log"
    save_event_log(EventStream(*single(0.6, 0, 0.3), 20), str(earlier))
    before = earlier.read_bytes()
    for path in (fresh, earlier):
        with pytest.raises(ParameterError, match="eve_label"):
            save_event_log(bad, str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["earlier.log"]
    assert earlier.read_bytes() == before


def twelve_records(labelled):
    """Record lines 0 to 11 over all three bases, with one- and two-digit
    eve_labels if ``labelled``."""
    return [f"{i},{'ZXY'[i % 3]},{i // 2 % 2}" + (f",{i * 7 % 12}" if labelled else "") + "\n" for i in range(12)]


def replace_line(index, edit):
    def change(lines):
        return [edit(line) if i == index else line for i, line in enumerate(lines)]

    return change


# How each log changes the twelve records, and the error it must raise
# (None for a log that is read).
READ_SIZE_LOGS = {
    "canonical": (lambda lines: lines, None),
    "last line without newline": (replace_line(11, str.rstrip), None),
    "basis Q": (replace_line(7, lambda line: line.replace("X", "Q")), "event record 7: basis is not Z, X or Y"),
    "index out of order": (replace_line(10, lambda line: "11" + line[2:]), "event record 10: index out of order"),
    "extra column": (replace_line(4, lambda line: line.rstrip() + ",1\n"), "event record 4: not a canonical record"),
    "bad last line without newline": (
        replace_line(11, lambda line: line[:5] + "2" + line[6:].rstrip()),
        "event record 11: outcome is not 0 or 1",
    ),
    "record missing": (lambda lines: lines[:-1], "header declares n=12 but log has 11 records"),
    "not ASCII": (replace_line(5, lambda line: line.replace("Y", "\u00e9")), "byte 0xc3 is not ASCII"),
    "CRLF": (lambda lines: [line.replace("\n", "\r\n") for line in lines], None),
    "carriage return alone": (
        replace_line(6, lambda line: line.replace("\n", "\r")),
        "event record 6: carriage return without a line feed",
    ),
    "carriage return before CRLF": (
        replace_line(3, lambda line: line.replace("\n", "\r\r\n")),
        "event record 3: carriage return without a line feed",
    ),
    "last line ending in a carriage return": (
        replace_line(11, lambda line: line.replace("\n", "\r")),
        "event record 11: carriage return without a line feed",
    ),
}


@pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
@pytest.mark.parametrize("case", sorted(READ_SIZE_LOGS))
def test_every_read_size_reads_the_same_log(tmp_path, monkeypatch, labelled, case):
    change, error = READ_SIZE_LOGS[case]
    lines = twelve_records(labelled)
    records = "".join(change(lines))
    path = tmp_path / "events.log"
    path.write_text("# source=x\n# seed=0\n# n=12\n" + records, encoding="utf-8")
    for rows in range(1, len("".join(lines[-3:])) + 1):
        monkeypatch.setattr(qrbg.sources, "_LOG_ROWS", rows)
        if error is not None:
            with pytest.raises(ParameterError, match=error) as raised:
                list(load_event_log(str(path)).pieces())
            assert raised.value.exit_code == 5
            continue
        pieces = list(load_event_log(str(path)).pieces())
        assert [p.n for p in pieces] == [len(ends) for _, ends in one_piece_per_read(records, rows)]
        firsts = np.cumsum([0, *(p.n for p in pieces)])
        text = b"".join(_encode(int(first), p.bases, p.outcomes, p.eve_labels) for first, p in zip(firsts, pieces))
        assert text.decode() == "".join(lines)


def test_opened_log_without_n_is_written_without_n(tmp_path):
    path, copy = tmp_path / "in.log", tmp_path / "copy.log"
    path.write_text("# source=x\n# seed=4\n0,Z,0\n1,X,1\n")
    save_event_log(load_event_log(str(path)), str(copy))
    assert copy.read_text() == f"# source=x\n# seed=4\n# prng={PRNG_NAME}\n0,Z,0\n1,X,1\n"


def percent_format_records(first, bases, outcomes, labels=None):
    """Record lines as the writer wrote them before the byte codec, with
    one `%`-format: the reference that every emitted byte must match."""
    columns = [np.arange(first, first + len(outcomes)), _BASIS_BYTES[bases], outcomes]
    if labels is not None:
        columns.append(labels)
    line = ",".join(("%d", "%c", "%d", "%d")[: len(columns)]) + "\n"
    rows = np.column_stack(columns)
    return line * len(rows) % tuple(rows.ravel().tolist())


def percent_format_log(log):
    head = f"# source={log.source}\n# seed={log.seed}\n# n={log.n}\n# prng={PRNG_NAME}\n"
    step = 1 << 18  # bounds the tuple of the reference format
    return head + "".join(
        percent_format_records(
            start,
            log.bases[start : start + step],
            log.outcomes[start : start + step],
            None if log.eve_labels is None else log.eve_labels[start : start + step],
        )
        for start in range(0, log.n, step)
    )


def codec_stream(labels, n, seed=3):
    """A stream with 3 columns (labels None), one-digit eve_labels
    (worst-case decomposition, 2 terms) or two-digit ones (12 terms)."""
    if labels is None:
        return EventStream(*single(0.5, 0.2, 0.4, seed=seed), n, BLOCKED)
    if labels == "one digit":
        d = worst_case_decomposition(StokesVector(0.6, 0, 0.3))
    else:
        angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        d = Decomposition(tuple(
            (1 / 12, PureState(StokesVector(0.6 * np.cos(a), 0.6 * np.sin(a), 0.8))) for a in angles
        ))
    return EventStream(adversarial(d), seed, n, BLOCKED)


def codec_log(labels, n, seed=3):
    """The events of ``codec_stream`` as one log."""
    return joined(codec_stream(labels, n, seed))


def assert_reads_back(tmp_path, text, log):
    back = read_log(tmp_path, text)
    assert np.array_equal(back.bases, log.bases)
    assert np.array_equal(back.outcomes, log.outcomes)
    if log.eve_labels is None:
        assert back.eve_labels is None
    else:
        assert back.eve_labels.dtype == np.int32 and np.array_equal(back.eve_labels, log.eve_labels)


LABELS = [None, "one digit", "two digits"]


class TestEventLogCodec:
    @pytest.mark.parametrize("labels", LABELS)
    def test_writer_matches_percent_format_across_width_crossings(self, tmp_path, labels):
        # 1 000 005 records: the crossings 9 -> 10, 99 999 -> 100 000 and
        # 999 999 -> 1 000 000 fall inside drawn pieces of the default size
        stream = codec_stream(labels, 1_000_005)
        log = joined(stream)
        if labels == "two digits":
            assert log.eve_labels.max() == 11
        starts = np.cumsum([0, *(p.n for p in stream.pieces())])
        assert not {10, 100_000, 1_000_000} & set(starts.tolist())
        buf = io.StringIO()
        _write_event_log(stream, buf)
        assert buf.getvalue() == percent_format_log(log)
        assert_reads_back(tmp_path, buf.getvalue(), log)

    @pytest.mark.parametrize("labels", LABELS)
    @pytest.mark.parametrize("sizes", [(7, 7, 7, 7, 2), (3, 7, 20)], ids=["crossing inside", "crossing at boundary"])
    def test_writer_matches_percent_format_in_small_pieces(self, tmp_path, labels, sizes):
        # 7-event pieces cross 9 -> 10 inside the piece 7..13; pieces of
        # 3, 7 and 20 start a piece at 10
        log = codec_log(labels, 30)
        buf = io.StringIO()
        _write_event_log(in_pieces(log, sizes), buf)
        assert buf.getvalue() == percent_format_log(log)
        assert_reads_back(tmp_path, buf.getvalue(), log)

    @pytest.mark.parametrize("labels", [None, [0, 1, 1, 0, 1, 0, 0], [11, 3, 10, 0, 7, 12, 5]], ids=LABELS)
    @pytest.mark.parametrize("width_change", [10, 100_000, 1_000_000])
    @pytest.mark.parametrize("offset", [-7, -3, 0], ids=["ends at crossing", "crosses inside", "starts at crossing"])
    def test_piece_encoding_matches_percent_format(self, labels, width_change, offset):
        # a 7-row piece whose indices end just before, straddle or start
        # at a digit more
        first = width_change + offset
        bases, outcomes = np.arange(7, dtype=np.uint8) % 3, np.arange(7, dtype=np.uint8) // 2 % 2
        labels = None if labels is None else np.array(labels, dtype=np.int32)
        want = percent_format_records(first, bases, outcomes, labels)
        assert _encode(first, bases, outcomes, labels) == want.encode()

    def test_labels_of_mixed_width_in_one_piece(self):
        labels = np.array([0, 10, 3, 123, 9, 45], dtype=np.int32)
        log = EventLog("x", 0, np.zeros(6, dtype=np.uint8), np.ones(6, dtype=np.uint8), labels)
        want = percent_format_records(8, log.bases, log.outcomes, labels)
        assert _encode(8, log.bases, log.outcomes, labels).decode() == want
        assert want.splitlines()[3] == "11,Z,1,123"

    def test_negative_label_is_not_written(self):
        log = EventLog("x", 0, np.zeros(2, dtype=np.uint8), np.ones(2, dtype=np.uint8), np.array([0, -1], dtype=np.int32))
        with pytest.raises(ParameterError, match="eve_label"):
            _write_event_log(log, io.StringIO())


    @pytest.mark.parametrize("labels", LABELS)
    def test_log_past_index_100_000_round_trips_through_a_file(self, tmp_path, labels):
        log = codec_log(labels, 120_000)
        path = tmp_path / "events.log"
        save_event_log(log, str(path))
        text = path.read_text()
        assert text == percent_format_log(log)
        pieces = list(load_event_log(str(path)).pieces())
        records = text[text.index("\n0,") + 1 :]
        assert [p.n for p in pieces] == [len(ends) for _, ends in one_piece_per_read(records, 1 << 17)]
        starts = np.cumsum([0, *(p.n for p in pieces)])
        assert len(pieces) > 1 and 100_000 not in starts  # index 100 000 lies inside a piece
        assert np.array_equal(np.concatenate([p.bases for p in pieces]), log.bases)
        assert np.array_equal(np.concatenate([p.outcomes for p in pieces]), log.outcomes)
        if labels is not None:
            assert np.array_equal(np.concatenate([p.eve_labels for p in pieces]), log.eve_labels)

    def test_label_wider_than_the_reader_parses_is_not_written(self, tmp_path):
        def log(*labels):
            n = len(labels)
            return EventLog("x", 0, np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8), np.array(labels, dtype=np.int32))

        with pytest.raises(ParameterError, match="eve_label"):
            _write_event_log(log(999_999_999, 10 ** 9), io.StringIO())
        buf = io.StringIO()
        _write_event_log(log(999_999_999), buf)
        assert read_log(tmp_path, buf.getvalue()).eve_labels.tolist() == [999_999_999]


def f_string_records(first, bases, outcomes, labels):
    """The plain-Python reference: one f-string per record."""
    tails = [""] * len(outcomes) if labels is None else [f",{label}" for label in labels.tolist()]
    return "".join(
        f"{first + k},{BASIS_CHARS[basis]},{outcome}{tail}\n"
        for k, (basis, outcome, tail) in enumerate(zip(bases.tolist(), outcomes.tolist(), tails))
    )


# Runs of indices from each ``first`` straddle a change of decimal width,
# a multiple of 10^5 (where the index digits wrap round their table), or
# both; a run of 2^17 from 99 999 crosses two multiples.
INDEX_FIRSTS = [0, 9, 99_990, 99_999, 199_995, 999_990, 10 ** 9 - 5]


@pytest.mark.parametrize("labels", ["none", "one digit", "one to nine digits"])
@pytest.mark.parametrize("first", INDEX_FIRSTS)
@pytest.mark.parametrize("count", [20, 1 << 17], ids=["short run", "default piece"])
def test_index_digits_match_f_strings(first, labels, count):
    rng = np.random.default_rng(first)
    bases = rng.integers(0, 3, count, dtype=np.uint8)
    outcomes = rng.integers(0, 2, count, dtype=np.uint8)
    widths = rng.integers(1, 10, count)
    labels = {
        "none": None,
        "one digit": rng.integers(0, 10, count, dtype=np.int32),
        "one to nine digits": (rng.integers(0, 10 ** 9, count) // 10 ** (9 - widths)).astype(np.int32),
    }[labels]
    if labels is not None:
        labels[-1] = 10 ** (len(str(labels.max()))) - 1  # the widest label of its width
    assert _encode(first, bases, outcomes, labels).decode() == f_string_records(first, bases, outcomes, labels)


# One line of each non-canonical form, written where record {i} belongs.
NON_CANONICAL_LINES = {
    "index with leading zero": "0{i},Z,0",
    "index with sign": "+{i},Z,0",
    "space before index": " {i},Z,0",
    "space before basis": "{i}, Z,0",
    "space after outcome": "{i},Z,0 ",
    "trailing tab": "{i},Z,0\t",
    "comment line between records": "# note",
    "blank line between records": "",
    "trailing comment": "{i},Z,0 # x",
    "label -1": "{i},Z,0,-1",
    "label 01": "{i},Z,0,01",
    "space before label": "{i},Z,0, 1",
}


@pytest.mark.parametrize("bad", [0, 1, 9], ids=["first record", "second record", "second piece"])
@pytest.mark.parametrize("name", sorted(NON_CANONICAL_LINES))
def test_non_canonical_record_is_rejected_by_number(tmp_path, monkeypatch, name, bad):
    monkeypatch.setattr(qrbg.sources, "_LOG_ROWS", 7)
    line = NON_CANONICAL_LINES[name]
    label = ",0" if line.count(",") == 3 else ""
    good = [f"{i},X,{i % 2}{label}\n" for i in range(bad + 2)]
    good[bad] = line.format(i=bad) + "\n"
    with pytest.raises(ParameterError, match=f"^event record {bad}: "):
        read_log(tmp_path, f"# n={bad + 2}\n" + "".join(good))


def test_crlf_on_disk_and_missing_final_newline_are_accepted(tmp_path):
    path = tmp_path / "crlf.log"
    path.write_bytes(b"# source=x\r\n# seed=0\r\n# n=3\r\n0,Z,0\r\n1,X,1\r\n2,Y,0\r\n")
    (piece,) = load_event_log(str(path)).pieces()
    assert piece.bases.tolist() == [0, 1, 2] and piece.outcomes.tolist() == [0, 1, 0]
    for text in ("0,Z,0\n1,X,1", "0,Z,0,4\n1,X,1,12"):
        log = read_log(tmp_path, HEADER + text)
        assert log.bases.tolist() == [0, 1] and log.outcomes.tolist() == [0, 1]
    assert log.eve_labels.tolist() == [4, 12]


@pytest.mark.parametrize("seed", ["-3", "+3", " 007", "x"])
def test_header_seed_must_be_a_non_negative_decimal(tmp_path, seed):
    with pytest.raises(ParameterError, match="seed"):
        read_log(tmp_path, f"# seed={seed}\n0,Z,0\n")


def test_event_log_fields_follow_schedule():
    log = joined(EventStream(*single(0, 0, 1, seed=2), 3, np.array([0, 1, 2], dtype=np.uint8)))
    assert log.n == 3
    assert log.bases.tolist() == [0, 1, 2]
    assert log.eve_labels is None
    assert log.outcomes[0] == 0


def test_blocked_schedule_is_equal_thirds():
    sched = EventStream(*single(0, 0, 1), 9_999, BLOCKED).codes(0, 9_999)
    counts = np.bincount(sched, minlength=3)
    assert counts.tolist() == [3333, 3333, 3333]
    assert (np.diff(np.flatnonzero(np.diff(sched))) > 0).all()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_must_be_unsigned_64_bit(seed):
    source = single_photon(StokesVector(0, 0, 0))
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="unsigned 64-bit"):
        sample_events(source, seed, "Z", n=1, rng=rng, outcome_rng=rng)
    with pytest.raises(ParameterError, match="unsigned 64-bit"):
        EventStream(source, seed, 1)


def test_source_names_are_the_log_headers():
    s = StokesVector(0.6, 0, 0.3)
    assert single_photon(s).name == "single_photon(s1=0.6,s2=0.0,s3=0.3)"
    assert entangled(0.88, 0.0409, 0.25).name == "entangled(coherence=0.88,accidental_fraction=0.0409,phase=0.25)"
    assert adversarial(worst_case_decomposition(s)).name == "adversarial(terms=2)"
