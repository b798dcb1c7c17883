import errno
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qrbg.bits
import qrbg.pipeline
import qrbg.sources
from qrbg.bits import BitStream, open_bits_file, pack_bits, read_bits_file, write_bits_file
from qrbg.cli import main
from qrbg.errors import InsufficientDataError, InsufficientEntropyError, ParameterError, QrbgError
from qrbg.extractor import ExtractorParams, toeplitz_extract
from qrbg.pipeline import (
    load_raw_bits,
    parse_config_text,
    run_pipeline,
    simulate_logs,
)
from qrbg.sources import derive_subseeds, load_event_log, sample_events
from qrbg.tomography import reconstruct

FAST_CONFIG = """
mode = single
state = 0.95, 0, 0.1
rng_seed = 4242
tomography_events = 60000
generation_bits = 20000
block_n = 2000
epsilon = 2^-16
tests = monobit,runs
"""


def write_seed_file(path, nbits, seed=5):
    rng = np.random.default_rng(seed)
    write_bits_file(
        str(path),
        BitStream(rng.integers(0, 2, nbits).astype(np.uint8)),
        {"role": "seed"},
    )


# Configurations whose keys each parse but whose source cannot be built,
# with the error each must raise.
UNBUILDABLE_SOURCES = {
    "weights and states differ in length": (
        "mode = adversarial\nadv_weights = 0.5, 0.5\nadv_states = 1,0,0\n", "differ in length"
    ),
    "weights sum to 0.9": (
        "mode = adversarial\nadv_weights = 0.6, 0.3\nadv_states = 1,0,0; -1,0,0\n", "sum"
    ),
    "coherence above one": ("mode = entangled\ncoherence = 1.5\n", "coherence"),
    "key of another mode": ("mode = single\nstate = 1,0,0\ncoherence = 0.5\n", "coherence is a key of entangled mode"),
}


# Each mode's keys that build its source, as a config sets them.
MODE_KEYS = {"single": "state = 1,0,0\n", "entangled": "coherence = 0.88\n", "adversarial": "adv_target = 0.6,0,0.3\n"}


class TestConfigParsing:
    def test_full_roundtrip(self):
        cfg = parse_config_text(FAST_CONFIG)
        assert cfg.mode == "single"
        assert cfg.state.s1 == 0.95
        assert cfg.rng_seed == 4242
        assert cfg.block_n == 2000
        assert cfg.epsilon == 2.0**-16
        assert cfg.tests == ("monobit", "runs")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError, match="unknown config key"):
            parse_config_text("mode = single\nstate = 1,0,0\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            parse_config_text("mode = single\nstate = 1,0,0\nmode = single\n")

    def test_mode_requirements(self):
        with pytest.raises(ParameterError, match="^single source: single mode requires 'state"):
            parse_config_text("mode = single\n")
        with pytest.raises(ParameterError, match="^entangled source: entangled mode requires 'coherence'$"):
            parse_config_text("mode = entangled\n")
        with pytest.raises(ParameterError, match="^adversarial source: adversarial mode requires 'adv_target'"):
            parse_config_text("mode = adversarial\n")

    def test_adversarial_explicit_terms(self):
        cfg = parse_config_text(
            "mode = adversarial\n"
            "adv_weights = 0.6875, 0.3125\n"
            "adv_states = 0.6,0,0.8; 0.6,0,-0.8\n"
        )
        source = cfg.source()
        assert len(source.states) == len(source.weights) == 2

    def test_adversarial_target_shortcut(self):
        cfg = parse_config_text("mode = adversarial\nadv_target = 0.6,0,0.3\n")
        assert cfg.source().weights == pytest.approx((0.6875, 0.3125), abs=1e-12)

    def test_tests_none(self):
        cfg = parse_config_text("mode = single\nstate = 1,0,0\ntests = none\n")
        assert cfg.tests == ()

    def test_bad_values(self):
        with pytest.raises(ParameterError, match="block_n"):
            parse_config_text(f"mode = single\nstate = 1,0,0\nblock_n = {ExtractorParams.MAX_N + 1}\n")
        with pytest.raises(ParameterError):
            parse_config_text("mode = single\nstate = 1,0\n")
        with pytest.raises(ParameterError):
            parse_config_text("mode = single\nstate = 1,0,0\nalpha = 2\n")
        with pytest.raises(ParameterError):
            parse_config_text("mode = single\nstate = 1,0,0\nepsilon = 1.5\n")

    @pytest.mark.parametrize("value", ["0", "1", "-0.5", "nan"])
    def test_significance_must_be_a_probability(self, value):
        with pytest.raises(ParameterError, match="significance"):
            parse_config_text(f"mode = single\nstate = 1,0,0\nsignificance = {value}\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="rng_seed"):
            parse_config_text("mode = single\nstate = 1,0,0\nrng_seed = -1\n")

    @pytest.mark.parametrize("text, value", [("1", True), ("TRUE", True), ("yes", True),
                                             ("0", False), ("False", False), ("NO", False)])
    def test_conservative_flag_values(self, text, value):
        cfg = parse_config_text(f"mode = single\nstate = 1,0,0\nconservative = {text}\n")
        assert cfg.conservative is value

    @pytest.mark.parametrize("text", ["ture", "2", ""])
    def test_conservative_rejects_a_value_that_is_not_a_flag(self, text):
        with pytest.raises(ParameterError, match="conservative"):
            parse_config_text(f"mode = single\nstate = 1,0,0\nconservative = {text}\n")

    @pytest.mark.parametrize("case", sorted(UNBUILDABLE_SOURCES))
    def test_source_that_cannot_be_built_is_rejected(self, case):
        text, message = UNBUILDABLE_SOURCES[case]
        with pytest.raises(ParameterError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("key, value", [("gen_format", "csv"), ("mode", "bogus"), ("block_n", 0),
                                            ("recalibrate_every", -5), ("alpha", 1.5),
                                            ("seed_file", "\u00fbseed.bits"), ("phase", math.inf)])
    def test_config_built_in_code_is_checked_by_the_table(self, tmp_path, key, value):
        cfg = parse_config_text(FAST_CONFIG)
        setattr(cfg, key, value)
        with pytest.raises(ParameterError, match=key):
            run_pipeline(cfg, str(tmp_path / "out"))
        with pytest.raises(ParameterError, match=key):
            simulate_logs(cfg, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("mode, key, value, owner", [
        ("single", "coherence", "0.5", "entangled"),
        ("single", "adv_target", "0.1,0,0", "adversarial"),
        ("entangled", "state", "1,0,0", "single"),
        ("adversarial", "phase", "0.3", "entangled"),
    ])
    def test_key_of_another_mode_rejected(self, mode, key, value, owner):
        text = f"mode = {mode}\n{MODE_KEYS[mode]}{key} = {value}\n"
        with pytest.raises(ParameterError, match=f"^{mode} source: {key} is a key of {owner} mode$"):
            parse_config_text(text)

    def test_key_of_another_mode_at_its_default_is_read(self):
        cfg = parse_config_text("mode = single\nstate = 1,0,0\naccidental_fraction = 0\nphase = 0.0\n")
        assert ("accidental_fraction", "0.0") in cfg.echo() and ("phase", "0.0") in cfg.echo()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_phase_must_be_finite(self, value):
        with pytest.raises(ParameterError, match=f"line 3: bad value for phase: '{value}' is not finite"):
            parse_config_text(f"mode = entangled\ncoherence = 0.88\nphase = {value}\n")

    @pytest.mark.parametrize("text, message", [
        ("mode single\n", "line 1: expected key=value, got 'mode single'"),
        ("mode = adversarial\nadv_target = 0.6,0,0.3\nadv_weights = 1\n", "either adv_target or adv_weights"),
        ("mode = single\nstate = 1,0,0\ntests = bogus\n", "line 3: bad value for tests: unknown tests"),
        ("mode = single\nstate = 1,0,0\ntests = monobit,runs,monobit\n", r"line 3: bad value for tests: repeated tests \['monobit'\]$"),
        # separators with no name would select no test, as 'none' does
        ("mode = single\nstate = 1,0,0\ntests = ,\n", "line 3: bad value for tests: ',' names no test$"),
        ("mode = single\nstate = 1,0,0\ntests = , ,\n", "line 3: bad value for tests: ', ,' names no test$"),
        # read as no seed file, a run would draw a system seed instead
        ("mode = single\nstate = 1,0,0\nseed_file =\n", "line 3: bad value for seed_file: '' is empty$"),
    ])
    def test_malformed_config_text_rejected(self, text, message):
        with pytest.raises(ParameterError, match=message):
            parse_config_text(text)


class TestRunPipeline:
    def test_fast_run_produces_everything(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG)
        report = run_pipeline(cfg, str(tmp_path))
        ext = report.extraction
        assert ext.output.bit_length == ext.blocks * ext.params.m
        assert (tmp_path / "calibration.log").exists()
        assert (tmp_path / "raw.bits").exists()
        assert (tmp_path / "extracted.bits").exists()
        assert (tmp_path / "report.txt").exists()
        labels = {f.label for f in report.files}
        assert labels == {"calibration_log", "generation_raw", "hash_seed", "extracted_bits"}
        for rec in report.files:
            data = (tmp_path / rec.path).read_bytes()
            assert (rec.sha256, rec.size) == (hashlib.sha256(data).hexdigest(), len(data))
        extracted = read_bits_file(str(tmp_path / "extracted.bits"))
        assert extracted.bit_length == ext.output.bit_length
        assert extracted.meta["role"] == "extracted"
        seed = read_bits_file(str(tmp_path / "extracted.seed.bits"))
        assert extracted.meta["seed_sha256"] == sha256(pack_bits(seed.bits))
        assert "seed_file" not in extracted.meta
        text = (tmp_path / "report.txt").read_text()
        assert "note=statistical tests check implementation correctness only" in text

    def test_reproducible_with_seed_file(self, tmp_path):
        seed_path = tmp_path / "seed.bits"
        # enough seed bits for block_n=2000 at any plausible m
        write_seed_file(seed_path, 6000)
        cfg_text = FAST_CONFIG + f"seed_file = {seed_path}\n"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(parse_config_text(cfg_text), str(out_a))
        run_pipeline(parse_config_text(cfg_text), str(out_b))
        for name in ("calibration.log", "raw.bits", "extracted.bits"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        timing = ("timestamp=", "raw_bits_per_second=")
        ra = [l for l in (out_a / "report.txt").read_text().splitlines() if not l.startswith(timing)]
        rb = [l for l in (out_b / "report.txt").read_text().splitlines() if not l.startswith(timing)]
        assert ra == rb

    def test_calibration_generation_separation(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG)
        run_pipeline(cfg, str(tmp_path))
        calib = load_event_log(str(tmp_path / "calibration.log"))
        raw_meta = read_bits_file(str(tmp_path / "raw.bits")).meta
        assert int(raw_meta["seed"]) != calib.seed

    def test_certified_rate_drives_extractor(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG)
        report = run_pipeline(cfg, str(tmp_path))
        from qrbg.extractor import output_length

        params = report.extraction.params
        assert params.m == output_length(float(report.certified), params.n, params.epsilon)
        meta = read_bits_file(str(tmp_path / "extracted.bits")).meta
        assert float(meta["h_rate"]) == float(report.certified)

    def test_zero_coherence_aborts_before_generation(self, tmp_path):
        cfg = parse_config_text(
            "mode = single\nstate = 0, 0, 0.7\nrng_seed = 9\n"
            "tomography_events = 30000\ngeneration_bits = 10000\n"
            "block_n = 1000\nepsilon = 2^-16\n"
        )
        with pytest.raises(InsufficientEntropyError, match=r"\[certify\]"):
            run_pipeline(cfg, str(tmp_path))
        assert not (tmp_path / "raw.bits").exists()
        assert not (tmp_path / "extracted.bits").exists()

    def test_recalibration_takes_minimum(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG + "recalibrate_every = 5000\n")
        report = run_pipeline(cfg, str(tmp_path))
        assert report.calibration.recalibrations == 4
        ext = report.extraction
        assert ext.output.bit_length == ext.blocks * ext.params.m

    def test_events_gen_format(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG.replace("tests = monobit,runs", "tests = none"))
        cfg.gen_format = "events"
        report = run_pipeline(cfg, str(tmp_path))
        gen = load_event_log(str(tmp_path / "generation.log"))
        assert gen.n == 20000
        assert not any(piece.bases.any() for piece in gen.pieces())
        assert report.test_results == []

    def test_drawn_seed_is_written_to_a_file(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG)
        report = run_pipeline(cfg, str(tmp_path / "a"))
        seed_path = tmp_path / "a" / "extracted.seed.bits"
        seed = read_bits_file(str(seed_path))
        assert seed.meta["role"] == "seed"
        assert seed.bit_length == report.extraction.params.seed_bits_needed
        text = (tmp_path / "a" / "report.txt").read_text()
        assert f"seed=seed_file={seed_path}\n" in text
        assert f"seed_sha256={sha256(pack_bits(seed.bits))}\n" in text
        assert "file=hash_seed path=extracted.seed.bits " in text
        assert max(len(line) for line in text.splitlines()) < 200
        # the drawn seed file reproduces the run as a configured one
        again = run_pipeline(parse_config_text(FAST_CONFIG + f"seed_file = {seed_path}\n"), str(tmp_path / "b"))
        assert "hash_seed" not in {f.label for f in again.files}
        assert extracted_payload(tmp_path / "b" / "extracted.bits") == extracted_payload(
            tmp_path / "a" / "extracted.bits"
        )

    def test_same_seed_content_at_two_paths_gives_identical_files(self, tmp_path):
        paths = [tmp_path / "one" / "seed.bits", tmp_path / "two" / "seed.bits"]
        for path in paths:
            path.parent.mkdir()
            write_seed_file(path, 6000)
        outs = []
        for i, path in enumerate(paths):
            outs.append(tmp_path / f"run{i}")
            run_pipeline(parse_config_text(FAST_CONFIG + f"seed_file = {path}\n"), str(outs[-1]))
        extracted = [(out / "extracted.bits").read_bytes() for out in outs]
        assert extracted[0] == extracted[1]
        meta = read_bits_file(str(outs[0] / "extracted.bits")).meta
        params = ExtractorParams(int(meta["block_n"]), 2.0**-16, float(meta["h_rate"]))
        used = read_bits_file(str(paths[0])).bits[: params.seed_bits_needed]
        assert meta["seed_sha256"] == sha256(pack_bits(used))
        assert f"seed_sha256={meta['seed_sha256']}\n" in (outs[0] / "report.txt").read_text()

    def test_seed_file_is_read_only_after_generation(self, tmp_path, monkeypatch):
        # the [seed] stage reads the seed file's header alone; its bits are
        # read by the extract stage, so no earlier stage holds them
        seed_path = tmp_path / "seed.bits"
        write_seed_file(seed_path, 6000)
        events = []
        generate, chunks = qrbg.pipeline.generate, qrbg.bits.BitsFile.chunks

        def generated(*args):
            path = generate(*args)
            events.append("generated")
            return path

        def read(self):
            events.append(f"read {Path(self.path).name}")
            return chunks(self)

        monkeypatch.setattr(qrbg.pipeline, "generate", generated)
        monkeypatch.setattr(qrbg.bits.BitsFile, "chunks", read)
        report = run_pipeline(parse_config_text(FAST_CONFIG + f"seed_file = {seed_path}\n"), str(tmp_path / "o"))
        assert [e for e in events if e in ("generated", "read seed.bits")] == ["generated", "read seed.bits"]
        assert report.extraction.seed.path == str(seed_path)
        assert report.extraction.seed.bit_length == report.extraction.params.seed_bits_needed

    def test_failed_rerun_leaves_no_stale_report(self, tmp_path):
        out = tmp_path / "o"
        run_pipeline(parse_config_text(FAST_CONFIG), str(out))
        assert (out / "report.txt").exists()
        # no extractable entropy: the rerun rewrites calibration.log, then fails
        cfg = parse_config_text(FAST_CONFIG.replace("state = 0.95, 0, 0.1", "state = 0.05,0,0"))
        with pytest.raises(InsufficientEntropyError, match=r"\[certify\]"):
            run_pipeline(cfg, str(out))
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("tests", ["monobit,runs", "serial", "none"])
    def test_output_below_a_tests_minimum_fails_before_generating(self, tmp_path, tests):
        # one 200-bit block hashes to 56 output bits: fewer than monobit's
        # 100, more than serial's 32
        cfg = parse_config_text(
            FAST_CONFIG.replace("generation_bits = 20000", "generation_bits = 200")
            .replace("block_n = 2000", "block_n = 200")
            .replace("tests = monobit,runs", f"tests = {tests}")
        )
        out = tmp_path / "o"
        if tests == "monobit,runs":
            with pytest.raises(InsufficientDataError, match=r"^\[certify\] monobit needs >= 100 bits, got 56$"):
                run_pipeline(cfg, str(out))
            assert [p.name for p in out.iterdir()] == ["calibration.log"]
        else:
            assert run_pipeline(cfg, str(out)).extraction.output.bit_length == 56

    def test_missing_seed_file_is_io_error(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG + "seed_file = /nonexistent/seed.bits\n")
        with pytest.raises(OSError):
            run_pipeline(cfg, str(tmp_path))

    def test_stage_error_keeps_type_errno_and_filename(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG + "seed_file = /nonexistent/seed.bits\n")
        with pytest.raises(FileNotFoundError) as info:
            run_pipeline(cfg, str(tmp_path))
        assert info.value.errno == errno.ENOENT
        assert info.value.filename == "/nonexistent/seed.bits"
        assert "[seed]" in str(info.value)
        assert list(tmp_path.iterdir()) == []  # checked before the calibration log is written

    def test_separation_is_an_explicit_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qrbg.pipeline, "derive_subseeds", lambda master, count: [7] * count)
        with pytest.raises(QrbgError, match="calibration seed"):
            run_pipeline(parse_config_text(FAST_CONFIG), str(tmp_path))
        with pytest.raises(QrbgError, match="calibration seed"):
            simulate_logs(parse_config_text(FAST_CONFIG), str(tmp_path))
        assert not (tmp_path / "raw.bits").exists()

    def test_recalibration_report_matches_listed_log(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG + "recalibrate_every = 5000\n")
        report = run_pipeline(cfg, str(tmp_path))
        lines = (tmp_path / "report.txt").read_text().splitlines()
        values = dict(line.split("=", 1) for line in lines if "=" in line)
        assert values["recalibrations"] == str(report.calibration.recalibrations) == "4"
        assert values["certified_segment"] == str(report.calibration.certified_segment)
        # the segment listed is the one whose own calibration certifies least
        _, _, seeds = qrbg.pipeline._streams(cfg, 4)
        rates = [
            float(qrbg.pipeline.calibrate(
                qrbg.pipeline._calibration_log(cfg.source(), seed, cfg.tomography_events), cfg
            ).rate)
            for seed in seeds
        ]
        assert rates.index(min(rates)) == report.calibration.certified_segment
        listed = next(f.path for f in report.files if f.label == "calibration_log")
        result, rate = reconstruct(load_event_log(str(tmp_path / listed)))
        assert float(values["s1"]) == result.s_hat.s1
        assert float(values["s2"]) == result.s_hat.s2
        assert float(values["s3"]) == result.s_hat.s3
        assert float(values["minentropy_rate"]) == float(rate) == float(report.certified)


class TestSimulateLogs:
    def test_writes_both_files(self, tmp_path):
        cfg = parse_config_text(FAST_CONFIG)
        calib, gen, master = simulate_logs(cfg, str(tmp_path))
        assert master == 4242
        log = load_event_log(str(calib))
        assert log.n == 60000
        assert load_raw_bits(str(gen)).bit_length == 20000

    def test_adversarial_logs_carry_labels(self, tmp_path):
        cfg = parse_config_text(
            "mode = adversarial\nadv_target = 0.6,0,0.3\nrng_seed = 77\n"
            "tomography_events = 3000\ngeneration_bits = 1000\ngen_format = events\n"
        )
        calib, gen, _ = simulate_logs(cfg, str(tmp_path))
        for path in (calib, gen):
            assert all(piece.eve_labels is not None for piece in load_event_log(str(path)).pieces())

    def test_recalibration_is_rejected_before_any_file(self, tmp_path):
        # a pipeline run writes the log of the segment it certifies, which
        # need not be the first
        cfg = parse_config_text(FAST_CONFIG + "recalibrate_every = 5000\n")
        with pytest.raises(ParameterError, match="recalibrate_every"):
            simulate_logs(cfg, str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()


class TestCli:
    def run(self, *args):
        return CliRunner().invoke(main, args, catch_exceptions=False)

    def test_full_flow(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(FAST_CONFIG)
        out = tmp_path / "out"

        r = self.run("simulate", "--config", str(cfg_path), "--out", str(out))
        assert r.exit_code == 0, r.output
        assert "calibration=" in r.output

        r = self.run("calibrate", str(out / "calibration.log"), "--alpha", "0.01")
        assert r.exit_code == 0, r.output
        assert "minentropy_rate=" in r.output
        rate = float(
            next(l for l in r.output.splitlines() if l.startswith("minentropy_rate=")).split("=")[1]
        )

        seed_path = tmp_path / "seed.bits"
        write_seed_file(seed_path, 4000)
        r = self.run(
            "extract",
            str(out / "raw.bits"),
            "--h-rate", str(rate),
            "--block-n", "2000",
            "--epsilon", "2^-16",
            "--seed-file", str(seed_path),
            "--out", str(out / "ex.bits"),
        )
        assert r.exit_code == 0, r.output
        assert "output_bits=" in r.output

        r = self.run("test", str(out / "ex.bits"), "--tests", "monobit,runs")
        assert r.exit_code == 0, r.output
        assert r.output.count("pass=1") == 2

        r = self.run("pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "p"))
        assert r.exit_code == 0, r.output
        assert "output_bits=" in r.output

    def test_generate_packs_event_log(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(FAST_CONFIG + "gen_format = events\n")
        out = tmp_path / "out"
        assert self.run("simulate", "--config", str(cfg_path), "--out", str(out)).exit_code == 0
        r = self.run("generate", str(out / "generation.log"), "--out", str(out / "raw.bits"))
        assert r.exit_code == 0, r.output
        packed = read_bits_file(str(out / "raw.bits"))
        assert packed.bit_length == 20000

    def test_extract_defaults_come_from_the_config_table(self, tmp_path):
        raw = tmp_path / "raw.bits"
        write_bits_file(str(raw), BitStream(np.ones(250_000, dtype=np.uint8)), {"role": "raw"})
        r = CliRunner().invoke(main, ["extract", str(raw), "--h-rate", "0.9", "--out", str(tmp_path / "ex.bits")])
        assert r.exit_code == 0, r.output
        meta = read_bits_file(str(tmp_path / "ex.bits")).meta
        assert (meta["block_n"], meta["epsilon"]) == ("100000", "2^-64")
        assert "blocks=2" in r.output

    @pytest.mark.parametrize("mode", ["single", "adversarial"])
    def test_calibrate_reads_in_pieces_as_whole(self, tmp_path, monkeypatch, mode):
        # an adversarial log carries a fourth, eve_label column
        cfg = parse_config_text(
            FAST_CONFIG.replace("tomography_events = 60000", "tomography_events = 3000")
            if mode == "single"
            else "mode = adversarial\nadv_target = 0.6,0,0.3\nrng_seed = 77\n"
            "tomography_events = 3000\ngeneration_bits = 1000\n"
        )
        calib, _, _ = simulate_logs(cfg, str(tmp_path))
        args = ["calibrate", str(calib)]
        whole = CliRunner().invoke(main, args)
        monkeypatch.setattr(qrbg.sources, "_LOG_ROWS", 7)
        pieced = CliRunner().invoke(main, args)
        assert whole.exit_code == pieced.exit_code == 0, whole.output
        assert "minentropy_rate=" in whole.output
        assert pieced.output == whole.output

    def test_pipeline_recalibrates_from_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(FAST_CONFIG + "recalibrate_every = 5000\n")
        r = self.run("pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert r.exit_code == 0, r.output
        assert "recalibrations=4" in r.output


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# Digests of the files run_pipeline wrote for FAST_CONFIG and the
# write_seed_file(..., 6000) seed before the stages were shared with the CLI.
# The extracted header records the seed file's path, so only its payload
# is pinned.
GOLDEN = {
    "calibration.log": "e68405a84ba0329bb37dc34535ff3e071a4d134cd478e760334efb32f197cb38",
    "raw.bits": "9a936fb00a165b12d41844119cb6dc6ff6c566e3b9c5514d21eaccd1d433c726",
    "generation.log": "264768e651e400b57ea4dd12d0f45adcf633da2643ede4755fe32d87f63cc832",
    "extracted": "274232e1c3439056b9401cf63a2a341ecf80d7d5cc05cac9faa9e6882b0dfc7a",
    "extracted_recalibrated": "1bc54f4e21d7a28a03350cc0e4fff75097df83f3e1247e99e4e74f282a3731e8",
}


# Digests of an adversarial simulate run's event logs, which carry the
# eve_label column, as written before the event-log codec used numpy.
GOLDEN_LABELLED = {
    "calibration.log": "2fdd0f12d6dd9cac498c8359135075b778a8432ed2fe4880c4c77116ff40a2dc",
    "generation.log": "28e9c792f273f977a20e28667312b00af3de12736a41b1e3cc6a7ec2dd21aa18",
}


def test_labelled_event_logs_are_pinned(tmp_path):
    cfg = parse_config_text(
        "mode = adversarial\nadv_target = 0.6,0,0.3\nrng_seed = 77\n"
        "tomography_events = 3000\ngeneration_bits = 1000\ngen_format = events\n"
    )
    for path in simulate_logs(cfg, str(tmp_path))[:2]:
        assert sha256(path.read_bytes()) == GOLDEN_LABELLED[path.name], path.name


def extracted_payload(path):
    return sha256(pack_bits(read_bits_file(str(path)).bits))


@pytest.mark.parametrize("gen_format", ["bits", "events"])
def test_pipeline_outputs_are_pinned(tmp_path, gen_format):
    seed_path = tmp_path / "seed.bits"
    write_seed_file(seed_path, 6000)
    cfg = parse_config_text(FAST_CONFIG + f"gen_format = {gen_format}\nseed_file = {seed_path}\n")
    out = tmp_path / "out"
    run_pipeline(cfg, str(out))
    gen_name = "raw.bits" if gen_format == "bits" else "generation.log"
    for name in ("calibration.log", gen_name):
        assert sha256((out / name).read_bytes()) == GOLDEN[name], name
    assert extracted_payload(out / "extracted.bits") == GOLDEN["extracted"]


def test_recalibration_changes_only_the_calibration_log(tmp_path):
    seed_path = tmp_path / "seed.bits"
    write_seed_file(seed_path, 6000)
    cfg = parse_config_text(FAST_CONFIG + f"recalibrate_every = 5000\nseed_file = {seed_path}\n")
    report = run_pipeline(cfg, str(tmp_path / "out"))
    assert sha256((tmp_path / "out" / "raw.bits").read_bytes()) == GOLDEN["raw.bits"]
    assert extracted_payload(tmp_path / "out" / "extracted.bits") == GOLDEN["extracted_recalibrated"]
    calib = sha256((tmp_path / "out" / "calibration.log").read_bytes())
    assert (calib == GOLDEN["calibration.log"]) == (report.calibration.certified_segment == 0)


# Digests of the files run_pipeline wrote for an entangled source with a
# nonzero phase and for an explicit adversarial decomposition, with the
# write_seed_file(..., 6000) seed, before the sampler drew every source
# from one Born table.  Both gen_formats hash the same raw bits.
SOURCE_CONFIGS = {
    "entangled": "mode = entangled\ncoherence = 0.88\naccidental_fraction = 0.0409\nphase = 0.3\n",
    "adversarial": (
        "mode = adversarial\nadv_weights = 0.5, 0.3, 0.2\n"
        "adv_states = 0.6,0,0.8; 0,0.6,-0.8; 1,0,0\n"
    ),
}
GOLDEN_SOURCES = {
    "entangled": {
        "calibration.log": "f806f472b66027adc9d542420f520a7f2ddb4657cea4b71ed9729d16689a1be0",
        "raw.bits": "29ba810431933656737394164e10200a480a0f277670e74424a427d0fab44c1a",
        "generation.log": "c196701c931bc4b6554a2998236154de87fb50e2d3e7b10d2ad91d72644c7038",
        "extracted": "170475634d818d06b882cfc0c29e6a347cd9086ea9ba85d1d8806612a3cc64ab",
    },
    "adversarial": {
        "calibration.log": "965e887ddad7c04bbd41462529c028c615def27cef24613253feb3c2aca2364c",
        "raw.bits": "6f11907378221bfca65ff80a5b492b46b8a73615a7de97935e77d8602c239700",
        "generation.log": "4804b23a603bc13b8070fffdc962d66e715e9a4e489ec8634ce6a68b8d64e41a",
        "extracted": "ec4a986db758ed575b40a53e18ccf7708c34941fc1eece9e601a874d075059ee",
    },
}


def with_source(source):
    """FAST_CONFIG with the source ``single`` (its own) or one of SOURCE_CONFIGS."""
    if source == "single":
        return FAST_CONFIG
    return FAST_CONFIG.replace("mode = single\nstate = 0.95, 0, 0.1\n", SOURCE_CONFIGS[source])


@pytest.mark.parametrize("gen_format", ["bits", "events"])
@pytest.mark.parametrize("source", sorted(SOURCE_CONFIGS))
def test_source_outputs_are_pinned(tmp_path, source, gen_format):
    seed_path = tmp_path / "seed.bits"
    write_seed_file(seed_path, 6000)
    cfg = parse_config_text(with_source(source) + f"gen_format = {gen_format}\nseed_file = {seed_path}\n")
    out = tmp_path / "out"
    run_pipeline(cfg, str(out))
    golden = GOLDEN_SOURCES[source]
    gen_name = "raw.bits" if gen_format == "bits" else "generation.log"
    for name in ("calibration.log", gen_name):
        assert sha256((out / name).read_bytes()) == golden[name], name
    assert extracted_payload(out / "extracted.bits") == golden["extracted"]


@pytest.mark.parametrize("gen_format", ["bits", "events"])
@pytest.mark.parametrize("source", ["single", *sorted(SOURCE_CONFIGS)])
def test_staged_cli_matches_pipeline(tmp_path, source, gen_format):
    seed_path = tmp_path / "seed.bits"
    write_seed_file(seed_path, 6000)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(with_source(source) + f"gen_format = {gen_format}\nseed_file = {seed_path}\n")
    staged, piped = tmp_path / "staged", tmp_path / "piped"
    runner = CliRunner()

    def run(*args, reads=()):
        """Run a command that succeeds and leaves the files it ``reads`` as they were."""
        before = {path: sha256(path.read_bytes()) for path in reads}
        r = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert r.exit_code == 0, r.output
        assert {path: sha256(path.read_bytes()) for path in reads} == before
        return r.output

    run("pipeline", "--config", cfg_path, "--out", piped, reads=[cfg_path, seed_path])
    run("simulate", "--config", cfg_path, "--out", staged, reads=[cfg_path])
    calib = staged / "calibration.log"
    state = run("calibrate", calib, "--report", staged / "state.txt", reads=[calib])
    rate = next(l for l in state.splitlines() if l.startswith("minentropy_rate=")).split("=")[1]
    raw = staged / "raw.bits"
    if gen_format == "events":
        run("generate", staged / "generation.log", "--out", raw, reads=[staged / "generation.log"])
    extracted = staged / "extracted.bits"
    run("extract", raw, "--h-rate", rate, "--block-n", "2000", "--epsilon", "2^-16",
        "--seed-file", seed_path, "--out", extracted, reads=[raw, seed_path])
    run("test", extracted, "--tests", "monobit", "--report", staged / "tests.txt", reads=[extracted])
    gen_name = "raw.bits" if gen_format == "bits" else "generation.log"
    for name in ("calibration.log", gen_name, "extracted.bits"):
        assert (staged / name).read_bytes() == (piped / name).read_bytes(), name
    state_block = (piped / "report.txt").read_text().split("[tomography]\n")[1].split("[extraction]")[0]
    assert state_block == state


def test_extract_prints_the_reports_extraction_lines(tmp_path):
    """qrbg extract and a pipeline report render one extraction record
    the same way; only the report has the certified rate, and the speed
    differs from run to run."""
    seed_path = tmp_path / "seed.bits"
    write_seed_file(seed_path, 6000)
    piped = tmp_path / "piped"
    report = run_pipeline(parse_config_text(FAST_CONFIG + f"seed_file = {seed_path}\n"), str(piped))
    r = CliRunner().invoke(main, [
        "extract", str(piped / "raw.bits"), "--h-rate", repr(float(report.certified)),
        "--block-n", "2000", "--epsilon", "2^-16", "--seed-file", str(seed_path),
        "--out", str(tmp_path / "staged.bits"),
    ])
    assert r.exit_code == 0, r.output
    section = (piped / "report.txt").read_text().split("[extraction]\n")[1].split("\n[")[0]
    assert section.startswith(f"certified_rate={float(report.certified)!r}\n")
    reported = [l for l in section.splitlines()[1:] if not l.startswith("raw_bits_per_second=")]
    printed = r.output.splitlines()
    assert printed[-1] == f"path={tmp_path / 'staged.bits'}"
    assert [l for l in printed[:-1] if not l.startswith("raw_bits_per_second=")] == reported
    assert [l.split("=", 1)[0] for l in reported] == [
        "blocks", "block_n", "block_m", "ratio", "output_bits", "epsilon", "seed", "seed_sha256",
    ]


def test_extract_rejects_mixed_basis_log(tmp_path):
    calib, _, _ = simulate_logs(parse_config_text(FAST_CONFIG), str(tmp_path))
    # the Z check runs as the log's pieces are read
    raw = load_raw_bits(str(calib))
    with pytest.raises(QrbgError, match="Z-basis"):
        list(raw.chunks())


@pytest.mark.parametrize("args, code", [(["calibrate", "missing"], 4), (["calibrate", "--bogus"], 5), ([], 5)])
def test_exit_code_without_standalone_mode(tmp_path, monkeypatch, args, code):
    # a caller that handles click's own exceptions still gets each code
    # through SystemExit
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(args, standalone_mode=False)
    assert info.value.code == code


def test_generate_copies_a_raw_bits_file(tmp_path):
    raw = tmp_path / "raw.bits"
    bits = np.random.default_rng(3).integers(0, 2, 1001).astype(np.uint8)
    write_bits_file(str(raw), BitStream(bits), {"role": "raw", "source": "x", "seed": "3"})
    r = CliRunner().invoke(main, ["generate", str(raw), "--out", str(tmp_path / "copy.bits")])
    assert r.exit_code == 0, r.output
    assert (tmp_path / "copy.bits").read_bytes() == raw.read_bytes()


def test_extract_draws_its_seed_onto_a_symlink_to_a_directory(tmp_path):
    # os.replace replaces the link itself, so the seed is committed
    raw = tmp_path / "raw.bits"
    write_bits_file(str(raw), BitStream(np.ones(20000, dtype=np.uint8)), {"role": "raw"})
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "out.seed.bits").symlink_to("elsewhere")
    r = CliRunner().invoke(main, [
        "extract", str(raw), "--h-rate", "0.5", "--block-n", "10000", "--out", str(tmp_path / "out.bits"),
    ])
    assert r.exit_code == 0, r.output
    assert (tmp_path / "out.bits").is_file()
    assert (tmp_path / "out.seed.bits").is_file() and not (tmp_path / "out.seed.bits").is_symlink()


def test_pipeline_takes_a_seed_file_beside_its_files(tmp_path):
    # a seed file in the run directory that the run does not write is kept
    out = tmp_path / "o"
    out.mkdir()
    write_seed_file(out / "raw.bits.seed", 4000)
    before = (out / "raw.bits.seed").read_bytes()
    cfg = parse_config_text(FAST_CONFIG + f"seed_file = {out / 'raw.bits.seed'}\n")
    assert run_pipeline(cfg, str(out)).extraction.seed.path == str(out / "raw.bits.seed")
    assert (out / "raw.bits.seed").read_bytes() == before


ROUND_TRIP_CONFIGS = {
    "single": FAST_CONFIG,
    "entangled": "mode = entangled\ncoherence = 0.88\naccidental_fraction = 0.0409\nphase = 0.25\n",
    "adversarial_target": "mode = adversarial\nadv_target = 0.6,0,0.3\nconservative = 1\n",
    "adversarial_terms": (
        "mode = adversarial\nadv_weights = 0.6875, 0.3125\n"
        "adv_states = 0.6,0,0.8; 0.6,0,-0.8\ntests = none\n"
    ),
    "recalibrated": FAST_CONFIG + "recalibrate_every = 5000\n",
    "seed_file": FAST_CONFIG.replace("2^-16", "1e-9") + "seed_file = seed.bits\ngen_format = events\n",
}


def test_conservative_certifies_the_hoeffding_deflation(tmp_path):
    blocks = {}
    for flag in ("0", "1"):
        report = run_pipeline(parse_config_text(FAST_CONFIG + f"conservative = {flag}\n"), str(tmp_path / flag))
        blocks[flag] = report.calibration.render().splitlines()
    values = dict(line.split("=", 1) for line in blocks["1"])
    assert values["minentropy_rate"] == values["minentropy_lower"] == repr(float(report.certified))
    # the choice of rate is the one line the flag changes
    assert [line for line in blocks["0"] if not line.startswith("minentropy_rate=")] == [
        line for line in blocks["1"] if not line.startswith("minentropy_rate=")
    ]


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CONFIGS))
def test_config_echo_round_trips(name):
    cfg = parse_config_text(ROUND_TRIP_CONFIGS[name])
    rendered = "".join(f"{k} = {v}\n" for k, v in cfg.echo())
    assert parse_config_text(rendered) == cfg


def test_tomography_block_holds_plain_numbers(tmp_path):
    cfg = parse_config_text(FAST_CONFIG + "recalibrate_every = 10000\n")
    run_pipeline(cfg, str(tmp_path))
    text = (tmp_path / "report.txt").read_text()
    block = text.split("[tomography]\n")[1].split("\n[")[0].splitlines()
    assert any(line.startswith("stderr1=") for line in block)
    for line in block:
        key, value = line.split("=", 1)
        if key != "note":  # the one free-text line
            for item in value.split(","):
                float(item)


def test_config_echo_is_stable():
    a = parse_config_text(FAST_CONFIG).echo()
    b = parse_config_text(FAST_CONFIG).echo()
    assert a == b
    keys = [k for k, _ in a]
    assert keys.index("mode") == 0


def test_run_shorter_than_one_block_is_rejected(tmp_path):
    cfg = parse_config_text(FAST_CONFIG.replace("block_n = 2000", "block_n = 30000"))
    with pytest.raises(ParameterError, match="cannot fill one block_n=30000-bit block"):
        run_pipeline(cfg, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


# The battery's results on the streamed run below, computed from the whole
# extracted stream in memory before the battery read its input in chunks.
STREAMED_BATTERY_SHA256 = "efea36e53d62619f26373e037710e578a4c360f4439b8b70e3ccdec040722ccc"


def test_streamed_run_matches_whole_array_reference(tmp_path):
    # more than two sampling chunks, and not a multiple of block_n
    n_bits, block_n = 2**23 + 12_345, 10_000
    seed_path = tmp_path / "seed.bits"
    write_seed_file(seed_path, 2 * block_n)
    cfg = parse_config_text(
        FAST_CONFIG.replace("generation_bits = 20000", f"generation_bits = {n_bits}")
        .replace("block_n = 2000", f"block_n = {block_n}")
        .replace("tests = monobit,runs\n", "")
        + f"seed_file = {seed_path}\n"
    )
    out = tmp_path / "out"
    report = run_pipeline(cfg, str(out))

    gen_seed = derive_subseeds(cfg.rng_seed, 2)[0]
    outcomes = sample_events(cfg.source(), gen_seed, "Z", n_bits).outcomes
    params = ExtractorParams(block_n, cfg.epsilon, float(report.certified))
    blocks = n_bits // block_n
    seed = read_bits_file(str(seed_path)).bits[: params.seed_bits_needed]
    hashed = toeplitz_extract(seed, outcomes[: blocks * block_n].reshape(blocks, block_n))
    for name, bits in (("raw.bits", outcomes), ("extracted.bits", hashed.ravel())):
        opened = open_bits_file(str(out / name))
        assert opened.bit_length == bits.shape[0], name
        assert (out / name).read_bytes()[opened.offset :] == pack_bits(bits), name
    assert report.extraction.output.bit_length == hashed.size > qrbg.bits.CHUNK_BITS  # the battery reads two chunks
    assert hashlib.sha256(repr(report.test_results).encode()).hexdigest() == STREAMED_BATTERY_SHA256


# A child's ru_maxrss starts at its parent's peak (the kernel carries the
# peak over a vfork and exec), so each script reads the peak of its own
# address space, VmHWM.
PEAK_RSS = """
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""
PEAK_RSS_SCRIPT = PEAK_RSS + """
import sys
from qrbg.pipeline import parse_config_text, run_pipeline
run_pipeline(parse_config_text(sys.stdin.read()), sys.argv[1])
print(peak_kib())
"""
IMPORT_RSS_SCRIPT = PEAK_RSS + """
import qrbg.pipeline
print(peak_kib())
"""
EXTRACT_RSS_SCRIPT = PEAK_RSS + """
import sys
from pathlib import Path
from qrbg.extractor import ExtractorParams
from qrbg.pipeline import extract
extract(sys.argv[1], ExtractorParams(10**6, 2.0**-64, 0.6), None, Path(sys.argv[2]))
print(peak_kib())
"""


def child_peak_kib(*args, text=""):
    """The VmHWM in KiB that a script run with ``args`` prints, in an
    interpreter of its own that imports this checkout's package."""
    src = str(Path(qrbg.pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", *args], input=text, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.fixture(scope="module")
def peaks_kib(tmp_path_factory):
    """Peak RSS in KiB of a bare import of the pipeline and of runs of 5e6
    and 5e7 raw bits at n = 1e5, each in a process of its own."""
    tmp_path = tmp_path_factory.mktemp("peaks")
    peaks = {"import": child_peak_kib(IMPORT_RSS_SCRIPT)}
    for bits in (5_000_000, 50_000_000):
        text = (
            FAST_CONFIG.replace("generation_bits = 20000", f"generation_bits = {bits}")
            .replace("block_n = 2000", "block_n = 100000")
        )
        peaks[bits] = child_peak_kib(PEAK_RSS_SCRIPT, str(tmp_path / str(bits)), text=text)
    return peaks


def test_peak_memory_does_not_grow_with_generation_bits(peaks_kib):
    # both runs sample, hash and test whole chunks; the second is ten times
    # longer.  It grew 0-0.4 MiB (7.3-7.5 MiB with 2^22-bit chunks).
    small, large = peaks_kib[5_000_000], peaks_kib[50_000_000]
    assert large - small < 2 * 1024, (small, large)


def test_peak_memory_stays_near_the_import_floor(peaks_kib):
    # A run's working set above the interpreter, numpy, scipy and qrbg:
    # 20.9-21.4 MiB for 5e7 raw bits at n = 1e5 (33.3-33.4 MiB with 2^22-bit
    # chunks and the seed transformed through float64 copies).
    floor, large = peaks_kib["import"], peaks_kib[50_000_000]
    assert large - floor < 25 * 1024, (floor, large)


def test_extraction_memory_at_one_million_bits_a_block(tmp_path, peaks_kib):
    # Extracting 2e7 random raw bits at n = 1e6 (ten groups of two blocks)
    # holds the seed's spectrum and one padded row (12.8 MB each),
    # pocketfft's scratch and one group's output: 56.8-57.0 MiB above the
    # import.  A group-sized copy of the carried bits per group and an
    # m-long int64 rounding buffer raised it to 70.7-70.9 MiB.
    raw = tmp_path / "raw.bits"
    bits = np.random.default_rng(7).integers(0, 2, 20_000_000, np.uint8)
    write_bits_file(str(raw), BitStream(bits), {"role": "raw"})
    peak = child_peak_kib(EXTRACT_RSS_SCRIPT, str(raw), str(tmp_path / "out.bits"))
    assert peak - peaks_kib["import"] < 64 * 1024, (peaks_kib["import"], peak)
