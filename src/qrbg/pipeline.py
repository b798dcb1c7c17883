"""End-to-end orchestration: simulate, calibrate, certify, generate,
extract, test, report.

A run is driven by a flat ASCII key=value configuration.  Calibration and
generation always use disjoint event streams derived from distinct
sub-seeds of the master seed, mirroring off-line calibration: the bits
that are extracted never enter the tomographic estimate.  The certified
entropy rate fixes the extractor's output length before any raw bit is
generated; if it admits no output the run aborts without generating.

Each stage is one function (``calibrate``, ``generate`` and ``extract``
here, and ``stat_tests.run_battery``), called both by ``run_pipeline`` and
by the CLI subcommands, so for one ``rng_seed`` and ``seed_file`` the staged
commands write the same files as a pipeline run.

Every file a run emits is listed in its report together with a SHA-256
digest, and the extracted file is re-read after writing so the report's
accounting line reflects the bytes actually on disk.
"""

from __future__ import annotations

import errno
import hashlib
import math
import secrets
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from .bits import BitsFile, _committed, bits_writer, open_bits_file, write_bits_file
from .errors import ParameterError, QrbgError
from .extractor import (
    ExtractionResult,
    ExtractorParams,
    HashSeed,
    extract_stream,
    format_epsilon,
    parse_epsilon,
)
from .minentropy import EntropyRate, lower_confidence_rate
from .sources import (
    PRNG_NAME,
    EventLog,
    EventSource,
    Source,
    ZBits,
    ZStream,
    adversarial,
    blocked_schedule,
    derive_subseeds,
    entangled,
    load_event_log,
    sample_events,
    save_event_log,
    single_photon,
)
from .stat_tests import ALL_TESTS, DEFAULT_SIGNIFICANCE, TestResult
from .stat_tests import battery_report, check_length, pass_fraction, run_battery
from .states import Decomposition, PureState, StokesVector, worst_case_decomposition
from .tomography import TomographyResult, reconstruct

SECURITY_NOTE = (
    "statistical tests check implementation correctness only; "
    "the security claim rests on the certified min-entropy rate"
)


def _numbers(text: str, count: int | None = None) -> tuple[float, ...]:
    values = tuple(float(p) for p in text.split(",") if p.strip())
    if count is not None and len(values) != count:
        raise ValueError(f"{text!r} needs {count} comma-separated numbers")
    return values


def _checked(parse, check, rule: str):
    """A key parser that also rejects a parsed value failing ``check``."""

    def parsed(text: str):
        value = parse(text)
        if not check(value):
            raise ValueError(f"{text!r} {rule}")
        return value

    return parsed


def _choice(*options: str):
    return _checked(str, options.__contains__, f"is not {'|'.join(options)}")


_FLAGS = {"0": False, "1": True, "false": False, "true": True, "no": False, "yes": True}
_flag = _checked(lambda t: _FLAGS.get(t.lower()), lambda v: v is not None, f"is not {'|'.join(_FLAGS)}")
_probability = _checked(float, lambda v: 0.0 < v < 1.0, "is outside (0, 1)")
_count = _checked(int, lambda v: v > 0, "is not positive")
# a path the report records must be ASCII, as the report is; an empty one
# names no file
_ascii_path = _checked(_checked(str, bool, "is empty"), str.isascii, "is not ASCII")
_block_size = _checked(
    int,
    lambda v: 0 < v <= ExtractorParams.MAX_N,
    f"is not in 1..{ExtractorParams.MAX_N}, the block sizes the hash is proven exact for",
)


def _parse_vector(text: str) -> StokesVector:
    return StokesVector(*_numbers(text.replace(";", ","), 3))


def _format_vector(s: StokesVector) -> str:
    return f"{s.s1!r},{s.s2!r},{s.s3!r}"


def _parse_tests(text: str) -> tuple[str, ...]:
    token = text.lower()
    if token in ("", "none"):
        return ()
    if token == "all":
        return ALL_TESTS
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    if not names:
        raise ValueError(f"{text!r} names no test")
    unknown = [t for t in names if t not in ALL_TESTS]
    if unknown:
        raise ValueError(f"unknown tests {unknown}")
    repeated = sorted({t for t in names if names.count(t) > 1})
    if repeated:
        raise ValueError(f"repeated tests {repeated}")
    return names


def _single(cfg: PipelineConfig) -> Source:
    if cfg.state is None:
        raise ParameterError("single mode requires 'state = s1,s2,s3'")
    return single_photon(cfg.state)


def _entangled(cfg: PipelineConfig) -> Source:
    if cfg.coherence is None:
        raise ParameterError("entangled mode requires 'coherence'")
    return entangled(cfg.coherence, cfg.accidental_fraction, cfg.phase)


def _adversarial(cfg: PipelineConfig) -> Source:
    explicit = cfg.adv_weights is not None or cfg.adv_states is not None
    if cfg.adv_target is not None:
        if explicit:
            raise ParameterError("give either adv_target or adv_weights/adv_states, not both")
        return adversarial(worst_case_decomposition(cfg.adv_target))
    if not (cfg.adv_weights and cfg.adv_states):
        raise ParameterError(
            "adversarial mode requires 'adv_target' or both 'adv_weights' and 'adv_states'"
        )
    if len(cfg.adv_weights) != len(cfg.adv_states):
        raise ParameterError("adv_weights and adv_states differ in length")
    terms = zip(cfg.adv_weights, cfg.adv_states)
    return adversarial(Decomposition(tuple((w, PureState(StokesVector(*s))) for w, s in terms)))


# mode -> the builder of its source, and the keys it builds from, which it checks
_SOURCES = {
    "single": (_single, ("state",)),
    "entangled": (_entangled, ("coherence", "accidental_fraction", "phase")),
    "adversarial": (_adversarial, ("adv_target", "adv_weights", "adv_states")),
}

# the files a run writes, by report label; the generation file's name by gen_format
_RUN_FILES = {
    "calibration_log": "calibration.log",
    "generation_raw": {"bits": "raw.bits", "events": "generation.log"},
    "extracted_bits": "extracted.bits",
    "report": "report.txt",
}


def _key(default, parse, show=str):
    """A config key: its default, its text parser and its text formatter.
    The parser holds every rule on the key's value alone."""
    return field(default=default, metadata={"parse": parse, "show": show})


@dataclass
class PipelineConfig:
    """Run configuration; every field is one key of the config file, echoed
    in this order."""

    mode: str = _key("single", _choice(*_SOURCES))
    rng_seed: int | None = _key(None, _checked(int, lambda v: v >= 0, "is negative"))
    state: StokesVector | None = _key(None, _parse_vector, _format_vector)
    coherence: float | None = _key(None, float, repr)
    accidental_fraction: float = _key(0.0, float, repr)
    phase: float = _key(0.0, _checked(float, math.isfinite, "is not finite"), repr)
    adv_target: StokesVector | None = _key(None, _parse_vector, _format_vector)
    adv_weights: tuple[float, ...] | None = _key(
        None, _numbers, lambda v: ",".join(map(repr, v))
    )
    adv_states: tuple[tuple[float, float, float], ...] | None = _key(
        None,
        lambda t: tuple(_numbers(chunk, 3) for chunk in t.split(";")),
        lambda v: ";".join(",".join(map(repr, s)) for s in v),
    )
    tomography_events: int = _key(3_000_000, _count)
    alpha: float = _key(0.01, _probability, repr)
    conservative: bool = _key(False, _flag, lambda v: str(int(v)))
    generation_bits: int = _key(1_000_000, _count)
    block_n: int = _key(100_000, _block_size)
    epsilon: float = _key(2.0 ** -64, parse_epsilon, format_epsilon)
    tests: tuple[str, ...] = _key(
        ALL_TESTS, _parse_tests, lambda v: ",".join(v) if v else "none"
    )
    significance: float = _key(DEFAULT_SIGNIFICANCE, _probability, repr)
    gen_format: str = _key("bits", _choice(*_RUN_FILES["generation_raw"]))
    seed_file: str | None = _key(None, _ascii_path)
    recalibrate_every: int | None = _key(None, _count)

    def set(self, key: str, text: str) -> None:
        """Set one key from its text form, as a config-file line does."""
        spec = _FIELDS.get(key)
        if spec is None:
            raise ParameterError(f"unknown config key {key!r}")
        setattr(self, key, _parse(spec, text.strip()))

    def echo(self) -> list[tuple[str, str]]:
        """Canonical key=value view of every key that has a value."""
        pairs = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is not None:
                pairs.append((spec.name, spec.metadata["show"](value)))
        return pairs

    def validate(self) -> Source:
        """Check every key with its parser, as if read from a file, then
        build the configured source, so that a configuration whose source
        cannot be built fails before any file is written."""
        for key, text in self.echo():
            _parse(_FIELDS[key], text)
        return self.source()

    def source(self) -> Source:
        """The configured mode's source; a key of another mode set away
        from its default is an error, as the source would not use it."""
        try:
            for mode, (_, keys) in _SOURCES.items():
                for key in keys:
                    if mode != self.mode and getattr(self, key) != _FIELDS[key].default:
                        raise ParameterError(f"{key} is a key of {mode} mode")
            return _SOURCES[self.mode][0](self)
        except ParameterError as exc:
            raise ParameterError(f"{self.mode} source: {exc}") from None


_FIELDS = {spec.name: spec for spec in fields(PipelineConfig)}


def _parse(spec, text: str):
    try:
        return spec.metadata["parse"](text)
    except (ValueError, QrbgError) as exc:
        raise ParameterError(f"bad value for {spec.name}: {exc}") from None


def parse_config_text(text: str) -> PipelineConfig:
    cfg = PipelineConfig()
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ParameterError(f"line {lineno}: duplicate config key {key!r}")
        seen.add(key)
        try:
            cfg.set(key, value)
        except ParameterError as exc:
            raise ParameterError(f"line {lineno}: {exc}") from None
    cfg.validate()
    return cfg


def load_config(path: str) -> PipelineConfig:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParameterError(f"{path}: byte 0x{byte:02x} is not ASCII; a config file is ASCII text") from None
    return parse_config_text(text)


@dataclass(frozen=True)
class Calibration:
    """A state estimate with its certified rate and Hoeffding companion;
    for a recalibrated run, also the segment count and the index of the
    segment certified."""

    tomography: TomographyResult
    rate: EntropyRate
    lower: EntropyRate
    alpha: float
    recalibrations: int = 0
    certified_segment: int = 0

    def render(self) -> str:
        """ASCII key=value block describing the calibration."""
        t, s = self.tomography, self.tomography.s_hat
        lines = [
            f"s1={s.s1!r}",
            f"s2={s.s2!r}",
            f"s3={s.s3!r}",
            *(f"stderr{i}={float(e)!r}" for i, e in enumerate(t.stderr, start=1)),
            f"projected={int(t.projected)}",
            f"n_per_basis={','.join(str(int(x)) for x in t.n_per_basis)}",
            f"minentropy_rate={self.rate.bits_per_sample!r}",
            f"alpha={self.alpha!r}",
            f"minentropy_lower={self.lower.bits_per_sample!r}",
            "note=minentropy_lower is a Hoeffding deflation added by this "
            "implementation, not part of the certified figure",
        ]
        if self.recalibrations:
            lines.append(f"recalibrations={self.recalibrations}")
            lines.append(f"certified_segment={self.certified_segment}")
        return "\n".join(lines) + "\n"


@dataclass
class FileRecord:
    label: str
    path: str
    sha256: str
    size: int


@dataclass
class RunReport:
    """A run's settings, each stage's own result, and the files written."""

    timestamp: str
    config: list[tuple[str, str]]
    master_seed: int
    calibration: Calibration | None = None
    extraction: ExtractionResult | None = None
    test_results: list[TestResult] = field(default_factory=list)
    files: list[FileRecord] = field(default_factory=list)

    @property
    def certified(self) -> EntropyRate | None:
        return self.calibration.rate if self.calibration else None

    def render(self) -> str:
        out = ["# qrbg run report"]
        out.append(f"timestamp={self.timestamp}")
        out.append(f"prng={PRNG_NAME}")
        out.append(f"master_seed={self.master_seed}")
        out.append("[config]")
        out.extend(f"{k}={v}" for k, v in self.config)
        if self.calibration is not None:
            out.append("[tomography]")
            out.append(self.calibration.render().rstrip("\n"))
        if self.extraction is not None:
            out.append("[extraction]")
            out.append(f"certified_rate={self.certified.bits_per_sample!r}")
            out.append(self.extraction.render().rstrip("\n"))
        if self.test_results:
            out.append("[tests]")
            out.append(battery_report(self.test_results).rstrip("\n"))
            out.append(f"pass_fraction={pass_fraction(self.test_results)!r}")
        if self.files:
            out.append("[files]")
            for rec in self.files:
                out.append(
                    f"file={rec.label} path={rec.path} sha256={rec.sha256} bytes={rec.size}"
                )
        out.append(f"note={SECURITY_NOTE}")
        return "\n".join(out) + "\n"


def _digest(path: Path, label: str) -> FileRecord:
    # paths are recorded relative to the run directory so a report stays
    # valid wherever the directory is moved
    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            size += len(block)
    return FileRecord(label, path.name, digest.hexdigest(), size)


@contextmanager
def _stage(name: str):
    """Prefix any error raised inside with ``[name]``, keeping the error
    object itself: its type, and an OSError's errno and filename."""
    try:
        yield
    except Exception as exc:
        if isinstance(exc, OSError) and exc.strerror:
            exc.strerror = f"[{name}] {exc.strerror}"
        elif exc.args and isinstance(exc.args[0], str):
            exc.args = (f"[{name}] {exc.args[0]}",) + exc.args[1:]
        raise


def _drawn_seed(output: Path) -> Path:
    """Where the seed drawn for the extracted file ``output`` is written."""
    return output.with_suffix(".seed.bits")


def _run_files(config: PipelineConfig, out: Path) -> dict[str, Path]:
    """The files a run into ``out`` writes, the seed it draws without a
    ``seed_file`` included."""
    names = {**_RUN_FILES, "generation_raw": _RUN_FILES["generation_raw"][config.gen_format]}
    files = {label: out / name for label, name in names.items()}
    if not config.seed_file:
        files["hash_seed"] = _drawn_seed(files["extracted_bits"])
    return files


def _distinct(**paths: str | Path | None) -> None:
    """Reject two of a command's files, each keyed by what it is, that are one
    file: a command never writes over what it reads, nor hashes data with itself."""
    seen: dict[Path, str] = {}
    for what, path in paths.items():
        if path:
            key = Path(path).resolve()
            if key in seen:
                raise ParameterError(f"{seen[key]} and {what} {path} are one file")
            seen[key] = f"{what} {path}"


def _streams(config: PipelineConfig, segments: int) -> tuple[int, int, list[int]]:
    """Master seed, generation seed and one calibration seed per segment."""
    master = config.rng_seed if config.rng_seed is not None else secrets.randbits(63)
    gen_seed, *calib_seeds = derive_subseeds(master, 1 + segments)
    # generation bits must never feed the state estimate
    if gen_seed in calib_seeds:
        raise QrbgError("generation stream reuses a calibration seed")
    return master, gen_seed, calib_seeds


def _calibration_log(source: Source, seed: int, n: int) -> EventLog:
    return sample_events(source, seed, blocked_schedule(n), n)


def calibrate(log: EventSource, config: PipelineConfig) -> Calibration:
    """Reconstruct the state from calibration events and certify a rate:
    the plug-in rate, or with ``conservative`` its Hoeffding deflation at
    confidence ``alpha``, which is reported either way."""
    result, plug_in = reconstruct(log)
    lower = lower_confidence_rate(result.s_hat, int(result.n_per_basis.min()), config.alpha)
    return Calibration(result, lower if config.conservative else plug_in, lower, config.alpha)


def generate(source: Source, seed: int, config: PipelineConfig, out: Path) -> Path:
    """Sample the generation bits a chunk at a time, each chunk written as
    it is drawn, in ``config.gen_format``: a packed raw-bit file or an
    all-Z event log.  Returns the file's path; extraction reads the file
    back through ``load_raw_bits``, as ``qrbg extract`` does.
    """
    stream = ZStream(source, seed, config.generation_bits)
    path = _run_files(config, out)["generation_raw"]
    if config.gen_format == "events":
        save_event_log(stream, str(path))
    else:
        raw = ZBits(stream)
        write_bits_file(str(path), raw, raw.meta)
    return path


def simulate_logs(
    config: PipelineConfig, out_dir: str
) -> tuple[Path, Path, int]:
    """Write the calibration log and the generation file that a pipeline
    run of the same configuration writes; nothing is certified.  A
    configuration with ``recalibrate_every`` is rejected, since which
    segment's log a pipeline run writes depends on the certified rates.

    Returns (calibration path, generation path, master seed).
    """
    source = config.validate()
    if config.recalibrate_every is not None:
        raise ParameterError(
            "recalibrate_every is for pipeline runs: which segment's calibration log a run "
            "writes depends on the rates it certifies"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    master, gen_seed, (calib_seed,) = _streams(config, 1)
    calib_path = _run_files(config, out)["calibration_log"]
    save_event_log(_calibration_log(source, calib_seed, config.tomography_events), str(calib_path))
    return calib_path, generate(source, gen_seed, config, out), master


def load_raw_bits(path: str) -> BitsFile | ZBits:
    """Raw generation bits from either container format, opened for
    reading a chunk at a time, with the raw-file header.  A bits file must
    be raw, not extracted output or a hash seed.  An event log's header
    must declare ``n``, and each piece of its records must hold
    computational-basis (Z) events only, which is checked as it is read."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head.startswith(b"QRBGBITS"):
        return open_bits_file(path, "raw")
    log = load_event_log(path)
    if log.n is None:
        raise ParameterError(f"{path}: a generation log's header must declare n, its record count")
    return ZBits(log)


def extract(raw_path: str, params: ExtractorParams, seed_file: str | None, path: Path) -> ExtractionResult:
    """Hash the raw file ``raw_path``, read through ``load_raw_bits``, into
    ``path`` a chunk at a time and audit the file.

    The seed is the head of the ``role=seed`` bits file ``seed_file``, as
    many bits as the hash needs.  Without one a seed is drawn from system
    entropy and written next to ``path`` (``out.bits`` -> ``out.seed.bits``),
    committed after the output and only with it, so a failed extraction
    leaves neither file, and a directory at its path is rejected before
    either is written.  The raw input, seed file, output and drawn seed must
    be distinct files, which is checked before any is opened.  The header's
    ``source`` is the raw stream's, and its ``seed_sha256`` pins the seed by
    content, not by where its file lives.  Returns the extraction, whose
    output is the file written, opened for chunked reading, and whose seed
    knows its file's path.
    """
    drawn = None if seed_file else str(_drawn_seed(path))
    _distinct(raw_input=raw_path, seed_file=seed_file, output=path, drawn_seed=drawn)
    raw = load_raw_bits(raw_path)
    if seed_file:
        seed = HashSeed.read(seed_file, params.seed_bits_needed)
    else:
        seed = HashSeed.system(params.seed_bits_needed, drawn)
        if Path(drawn).is_dir() and not Path(drawn).is_symlink():
            raise IsADirectoryError(errno.EISDIR, "the drawn hash seed's path is a directory", drawn)
    header = {
        "role": "extracted",
        "block_n": str(params.n),
        "block_m": str(params.m),
        "epsilon": format_epsilon(params.epsilon),
        "h_rate": repr(params.h_rate),
        "seed_sha256": seed.sha256,
        "source": raw.meta.get("source", "unknown"),
    }
    with ExitStack() as files:
        if not seed_file:  # the outer file: committed after the output, and only with it
            write_seed = files.enter_context(bits_writer(seed.path, seed.bit_length, {"role": "seed"}))
            write_seed(seed.bits)
        write = files.enter_context(bits_writer(str(path), len(raw) // params.n * params.m, header))
        result = extract_stream(raw, params, seed, sink=write)
    # accounting audit against the file actually written: its header's
    # length and its payload's size
    result.output = written = open_bits_file(str(path))
    expected = result.blocks * params.m
    if written.bit_length != expected or written.payload_bytes != (expected + 7) // 8:
        raise QrbgError(
            f"accounting mismatch: file holds {written.bit_length} bits in "
            f"{written.payload_bytes} bytes, expected {expected}"
        )
    return result


def _certify_segments(
    config: PipelineConfig, source: Source, seeds: list[int], path: Path
) -> Calibration:
    """Certify one calibration per seed; the lowest rate wins, and its log,
    the only one written, is the one the report lists.  With
    ``recalibrate_every`` set, the calibration returned records the segment
    count and the winning segment's index."""
    worst: tuple[Calibration, int, EventLog] | None = None
    for segment, seed in enumerate(seeds):
        log = _calibration_log(source, seed, config.tomography_events)
        cal = calibrate(log, config)
        if worst is None or float(cal.rate) < float(worst[0].rate):
            worst = cal, segment, log
    cal, segment, log = worst
    save_event_log(log, str(path))
    if config.recalibrate_every is None:
        return cal
    return replace(cal, recalibrations=len(seeds), certified_segment=segment)


def run_pipeline(config: PipelineConfig, out_dir: str) -> RunReport:
    """Run every stage and write the report into ``out_dir``, beside the
    files it lists.

    Fails fast at the first stage error; insufficient certified entropy,
    or an output too short for a configured test, aborts before any
    generation happens, and a generation too short for one extractor
    block, or a ``seed_file`` that is missing, not a ``role=seed`` bit
    file or one of the files the run writes, before any file is written.
    """
    source = config.validate()
    if not out_dir.isascii():  # the report records paths under it
        raise ParameterError(f"output directory {out_dir!r} is not ASCII")
    if config.generation_bits < config.block_n:
        raise ParameterError(
            f"generation_bits={config.generation_bits} cannot fill one "
            f"block_n={config.block_n}-bit block, so nothing would be extracted"
        )
    out = Path(out_dir)
    files = _run_files(config, out)
    if config.seed_file:
        with _stage("seed"):
            _distinct(seed_file=config.seed_file, **files)
            open_bits_file(config.seed_file, "seed")
    out.mkdir(parents=True, exist_ok=True)
    # a report left by an earlier run would vouch for files this run replaces
    files["report"].unlink(missing_ok=True)
    recal = config.recalibrate_every
    segments = 1 if recal is None else max(1, math.ceil(config.generation_bits / recal))
    master, gen_seed, calib_seeds = _streams(config, segments)
    report = RunReport(
        timestamp=datetime.now(timezone.utc).isoformat(),
        config=config.echo(),
        master_seed=master,
    )

    with _stage("calibrate"):
        report.calibration = _certify_segments(config, source, calib_seeds, files["calibration_log"])
        report.files.append(_digest(files["calibration_log"], "calibration_log"))

    # certify extractor accounting, and that the battery can test the
    # output's length, before generating anything
    with _stage("certify"):
        params = ExtractorParams(config.block_n, config.epsilon, float(report.certified))
        check_length(config.generation_bits // config.block_n * params.m, config.tests)

    with _stage("generate"):
        gen_path = generate(source, gen_seed, config, out)
        report.files.append(_digest(gen_path, "generation_raw"))

    with _stage("extract"):
        report.extraction = extract(str(gen_path), params, config.seed_file, files["extracted_bits"])
        if not config.seed_file:
            # a configured seed file may live anywhere; only a drawn one is a run file
            report.files.append(_digest(files["hash_seed"], "hash_seed"))
        report.files.append(_digest(files["extracted_bits"], "extracted_bits"))

    with _stage("test"):
        if config.tests:
            report.test_results = run_battery(report.extraction.output, config.tests, config.significance)

    with _committed(str(files["report"]), "w", "ascii") as fh:
        fh.write(report.render())
    return report
