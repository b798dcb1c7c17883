"""Seeded simulation of polarization-qubit sources.

Three source variants produce detection events:

* ``SinglePhoton``: a fixed qubit state measured event by event.
* ``Entangled``: a photon-pair source observed through coincidence
  detection.  Only the two-detector subspace is kept, which behaves as an
  effective qubit; dephasing and accidental-coincidence background both
  act inside that subspace before any event is recorded, and nothing is
  ever subtracted afterwards.
* ``Adversarial``: an attacker prepares each event as one pure state drawn
  from a decomposition of the target density matrix and remembers which.

Outcomes follow the Born rule in the scheduled measurement basis:
``P(outcome 0) = (1 + s.u)/2`` for Bloch vector ``s`` and basis direction
``u`` in {Z=(0,0,1), X=(1,0,0), Y=(0,1,0)}.  Outcome 0 is an H-type click,
1 a V-type click (H1-V2 / V1-H2 for coincidences).

Sampling uses numpy's PCG64 generator and consumes random numbers in a
fixed chunked order, so equal (model, schedule, n, seed) inputs reproduce
identical logs.  Distinct logs with distinct seeds may be generated
concurrently; a single log is generated sequentially.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence, TextIO, Union

import numpy as np

from .errors import EmptyInputError, ParameterError
from .states import (
    Decomposition,
    StokesVector,
    rotate_equatorial,
)

PRNG_NAME = "numpy-pcg64"

BASIS_CHARS = ("Z", "X", "Y")
# The Stokes component (0 = s1, 1 = s2, 2 = s3) that each basis code
# measures: Z -> s3, X -> s1, Y -> s2.
BASIS_AXIS = (2, 0, 1)
_BASIS_CODE = {char: code for code, char in enumerate(BASIS_CHARS)}
_BASIS_BYTES = np.frombuffer("".join(BASIS_CHARS).encode(), dtype=np.uint8)

# Event-log records as parsed; the basis is read two characters wide so
# that a basis such as 'ZZ' is rejected rather than truncated to 'Z'.
_RECORD = [("index", np.int64), ("basis", "S2"), ("outcome", np.uint8), ("eve_label", np.int32)]
# Records per piece of event-log I/O, written or read; bounds the working
# memory of both directions.
_LOG_ROWS = 1 << 18

# Fixed sampling chunk; part of the reproducibility contract because it
# determines the order in which random numbers are consumed.
_CHUNK = 1 << 22


@dataclass(frozen=True)
class SinglePhoton:
    state: StokesVector

    def describe(self) -> str:
        s = self.state
        return f"single_photon(s1={s.s1!r},s2={s.s2!r},s3={s.s3!r})"


@dataclass(frozen=True)
class Entangled:
    coherence: float
    accidental_fraction: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.coherence <= 1.0:
            raise ParameterError(f"coherence {self.coherence} outside [0, 1]")
        if not 0.0 <= self.accidental_fraction < 1.0:
            raise ParameterError(
                f"accidental_fraction {self.accidental_fraction} outside [0, 1)"
            )

    def describe(self) -> str:
        return (
            f"entangled(coherence={self.coherence!r},"
            f"accidental_fraction={self.accidental_fraction!r},"
            f"phase={self.phase!r})"
        )


@dataclass(frozen=True)
class Adversarial:
    decomposition: Decomposition

    def describe(self) -> str:
        return f"adversarial(terms={len(self.decomposition.terms)})"


Variant = Union[SinglePhoton, Entangled, Adversarial]


@dataclass(frozen=True)
class SourceModel:
    variant: Variant
    rng_seed: int

    def __post_init__(self) -> None:
        seed = int(self.rng_seed)
        if not 0 <= seed < 2 ** 64:
            raise ParameterError("rng_seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "rng_seed", seed)

    def describe(self) -> str:
        return self.variant.describe()


@dataclass(frozen=True)
class EventLog:
    """Ordered detection events plus the provenance needed to recreate them."""

    source: str
    seed: int
    bases: np.ndarray
    outcomes: np.ndarray
    eve_labels: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.outcomes.shape[0])

    def __len__(self) -> int:
        return self.n

    def pieces(self) -> Iterator[EventLog]:
        yield self


class EventSource(Protocol):
    """What the tally, the log writer and ``ZBits`` read: provenance, a
    record count (None if a log's header gives none) and the events as
    checked ``EventLog`` pieces, in order."""

    source: str
    seed: int
    n: int | None

    def pieces(self) -> Iterator[EventLog]: ...


def _coincidence_bloch(model: Entangled) -> StokesVector:
    """Bloch vector of the effective qubit that coincidence detection sees:
    equatorial, of length coherence*(1 - accidental_fraction) (populations
    stay at 1/2 each), rotated in the equatorial plane by ``phase``."""
    c_eff = model.coherence * (1.0 - model.accidental_fraction)
    return rotate_equatorial(StokesVector(c_eff, 0.0, 0.0), model.phase)


def _born_table(variant: Variant) -> tuple[np.ndarray, np.ndarray | None]:
    """P(outcome 0) per prepared term (rows) and basis code (columns Z, X,
    Y), with the cumulative term weights of an adversarial source; any
    other source prepares one term and has no weights."""
    if isinstance(variant, Adversarial):
        d = variant.decomposition
        blochs, cum = d.bloch_vectors(), np.cumsum(d.weights())
        cum[-1] = 1.0
    else:
        bloch = variant.state if isinstance(variant, SinglePhoton) else _coincidence_bloch(variant)
        blochs, cum = bloch.as_array()[None, :], None
    return 0.5 * (1.0 + blochs[:, BASIS_AXIS]), cum


def constant_schedule(basis: str, n: int) -> np.ndarray:
    return np.full(n, _BASIS_CODE[basis], dtype=np.uint8)


def blocked_schedule(n: int) -> np.ndarray:
    """Equal thirds of Z, X, Y in consecutive blocks (remainder goes Z, X)."""
    per, rest = divmod(n, 3)
    codes = np.arange(len(BASIS_CHARS), dtype=np.uint8)
    return np.concatenate([np.repeat(codes, per), codes[:rest]])


def as_schedule(schedule: Union[np.ndarray, Sequence[str]], n: int) -> np.ndarray:
    if isinstance(schedule, np.ndarray) and schedule.dtype == np.uint8:
        sched = schedule
    else:
        try:
            sched = np.fromiter(
                (_BASIS_CODE[b] for b in schedule), dtype=np.uint8
            )
        except KeyError as exc:
            raise ParameterError(f"unknown basis {exc.args[0]!r}") from None
    if sched.shape[0] != n:
        raise ParameterError(
            f"schedule length {sched.shape[0]} does not match n={n}"
        )
    if sched.size and sched.max() > 2:
        raise ParameterError("basis codes must be 0 (Z), 1 (X) or 2 (Y)")
    return sched


def sample_events(
    model: SourceModel,
    basis_schedule: Union[np.ndarray, Sequence[str], str],
    n: int,
    rng: np.random.Generator | None = None,
) -> EventLog:
    """Draw ``n`` Born-rule outcomes under the given basis schedule: one
    basis code per event, or one basis letter for every event, which reads
    that basis's column of the Born table and builds no schedule array.

    Adversarial sources first draw the prepared term for each event of a
    chunk, then the outcome uniforms for that chunk; the per-event term
    index is recorded as the event's eve_label.  ``rng`` continues a
    stream that earlier calls drew from in whole ``_CHUNK`` pieces, as
    ``ZStream`` does; by default the model's seed starts one.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if isinstance(basis_schedule, str) and basis_schedule in _BASIS_CODE:
        column = _BASIS_CODE[basis_schedule]
        sched = np.broadcast_to(np.uint8(column), (n,))
    else:
        column, sched = None, as_schedule(basis_schedule, n)
    if rng is None:
        rng = np.random.default_rng(model.rng_seed)
    p0, cum = _born_table(model.variant)
    outcomes = np.empty(n, dtype=np.uint8)
    labels = None if cum is None else np.empty(n, dtype=np.int32)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        terms = 0
        if labels is not None:
            terms = np.searchsorted(cum, rng.random(stop - start), side="right")
            labels[start:stop] = terms
        basis = sched[start:stop] if column is None else column
        outcomes[start:stop] = rng.random(stop - start) >= p0[terms, basis]
    return EventLog(model.describe(), model.rng_seed, sched, outcomes, labels)


def sample_raw_bits(model: SourceModel, n: int) -> np.ndarray:
    """Computational-basis outcomes only, for generation runs: the
    outcomes of ``sample_events`` under a constant-Z schedule."""
    return sample_events(model, "Z", n).outcomes


@dataclass(frozen=True)
class ZStream:
    """The ``n`` Z-basis events of a generation run, drawn a ``_CHUNK`` at a
    time from one PCG64 stream: the events of ``sample_events(model, "Z",
    n)`` as pieces, without its whole-run arrays; each ``pieces`` call
    draws them again.  It is what a generation file is written from;
    extraction reads that file back, never this stream."""

    model: SourceModel
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError("n must be >= 1")

    @property
    def source(self) -> str:
        return self.model.describe()

    @property
    def seed(self) -> int:
        return self.model.rng_seed

    def pieces(self) -> Iterator[EventLog]:
        rng = np.random.default_rng(self.model.rng_seed)
        for start in range(0, self.n, _CHUNK):
            yield sample_events(self.model, "Z", min(_CHUNK, self.n - start), rng)


def write_event_log(log: EventSource, fh: TextIO) -> None:
    """ASCII event-log format: '# key=value' header lines then one
    'index,basis,outcome[,eve_label]' record per line, written a piece at
    a time as ``log`` yields its pieces."""
    count = "" if log.n is None else f"# n={log.n}\n"  # an opened log may declare none
    fh.write(f"# source={log.source}\n# seed={log.seed}\n{count}# prng={PRNG_NAME}\n")
    first = 0
    for piece in log.pieces():
        columns = [np.arange(first, first + piece.n), _BASIS_BYTES[piece.bases], piece.outcomes]
        if piece.eve_labels is not None:
            columns.append(piece.eve_labels)
        line = ",".join(("%d", "%c", "%d", "%d")[: len(columns)]) + "\n"
        for start in range(0, piece.n, _LOG_ROWS):
            rows = np.column_stack([c[start : start + _LOG_ROWS] for c in columns])
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))
        first += piece.n


def save_event_log(log: EventSource, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        write_event_log(log, fh)


def _reject(bad: np.ndarray, first: int, what: str) -> None:
    if bad.any():
        raise ParameterError(f"event record {first + int(np.argmax(bad))}: {what}")


def _read_log(fh: TextIO) -> tuple[str, int, int | None, Iterator[EventLog]]:
    """An event log's '# key=value' header, parsed now, as its source, seed
    and declared record count ``n`` (None if not given), and its records as
    pieces of at most ``_LOG_ROWS`` lines, each parsed by one ``np.loadtxt``
    call and checked as it is read: indices continue from the previous
    piece, the basis is exactly Z, X or Y, the outcome is 0 or 1, and every
    record has the first record's column count.  ``n`` is checked against
    the record count after the last piece."""
    header: dict[str, str] = {}
    for line in fh:
        text = line.strip()
        if text.startswith("#"):
            key, _, value = text[1:].partition("=")
            header[key.strip()] = value.strip()
        elif text:
            break
    else:
        raise EmptyInputError("event log contains no records")
    width = text.count(",") + 1
    if width not in (3, 4):
        raise ParameterError(f"malformed event record: {text!r}")
    try:
        seed = int(header.get("seed", 0))
    except ValueError:
        raise ParameterError(f"event log seed {header['seed']!r} is not an integer") from None
    declared = header.get("n")
    if declared is not None and not declared.isdigit():
        raise ParameterError(f"event log header n={declared!r} is not a record count")
    source, n = header.get("source", "unknown"), None if declared is None else int(declared)
    return source, seed, n, _log_pieces(source, seed, n, width, itertools.chain([line], fh))


def _log_pieces(
    source: str, seed: int, n: int | None, width: int, lines: Iterator[str]
) -> Iterator[EventLog]:
    done = 0
    for first in lines:
        if first.isspace() or first.lstrip().startswith("#"):
            continue  # a piece of blank and comment lines holds no record
        try:
            rec = np.loadtxt(
                itertools.chain([first], itertools.islice(lines, _LOG_ROWS - 1)),
                dtype=_RECORD[:width],
                delimiter=",",
                comments="#",
                ndmin=1,
            )
        except ValueError as exc:
            raise ParameterError(f"malformed event log after record {done}: {exc}") from None
        rows = rec.shape[0]
        _reject(rec["index"] != np.arange(done, done + rows), done, "index out of order")
        bases = np.full(rows, len(BASIS_CHARS), dtype=np.uint8)
        for code, char in enumerate(BASIS_CHARS):
            bases[rec["basis"] == char.encode()] = code
        _reject(bases == len(BASIS_CHARS), done, "basis is not Z, X or Y")
        _reject(rec["outcome"] > 1, done, "outcome is not 0 or 1")
        labels = rec["eve_label"].copy() if width == 4 else None
        yield EventLog(source, seed, bases, rec["outcome"].copy(), labels)
        done += rows
    if n is not None and n != done:
        raise ParameterError(f"header declares n={n} but log has {done} records")


def read_event_log(fh: TextIO) -> EventLog:
    """A whole event log in memory: its pieces, concatenated."""
    *_, pieces = _read_log(fh)
    logs = list(pieces)
    labels = None if logs[0].eve_labels is None else np.concatenate([p.eve_labels for p in logs])
    return EventLog(
        logs[0].source,
        logs[0].seed,
        np.concatenate([p.bases for p in logs]),
        np.concatenate([p.outcomes for p in logs]),
        labels,
    )


@dataclass(frozen=True)
class LogFile:
    """An event log on disk whose header has been parsed: its source, seed
    and declared record count ``n`` (None if the header gives none).  Each
    ``pieces`` call reads the records again, a piece at a time, each piece
    checked as it is read."""

    path: str
    source: str
    seed: int
    n: int | None

    def pieces(self) -> Iterator[EventLog]:
        with open(self.path, "r", encoding="ascii") as fh:
            yield from _read_log(fh)[3]


def load_event_log(path: str) -> LogFile:
    """Open an event log: parse its header now and leave its records to
    ``LogFile.pieces``."""
    with open(path, "r", encoding="ascii") as fh:
        return LogFile(path, *_read_log(fh)[:3])


@dataclass(frozen=True)
class ZBits:
    """The outcomes of Z-basis events as raw generation bits, in the shape
    of ``bits.BitsFile``: ``meta`` is a raw-bit file's header, ``len`` the
    event count and ``chunks`` yields each piece's outcomes.  The first
    piece holding an event not measured in Z stops the read."""

    events: EventSource

    @property
    def meta(self) -> dict[str, str]:
        e = self.events
        return {"role": "raw", "source": e.source, "seed": str(e.seed), "prng": PRNG_NAME}

    def __len__(self) -> int:
        return self.events.n

    def chunks(self) -> Iterator[np.ndarray]:
        done = 0
        for piece in self.events.pieces():
            if piece.bases.max(initial=0):  # max is the fast scan of a drawn stride-0 schedule
                _reject(piece.bases != 0, done, "not Z-basis; generation bits come from Z measurements only")
            yield piece.outcomes
            done += piece.n


def derive_subseeds(master_seed: int, count: int) -> list[int]:
    """Deterministic child seeds drawn from the master PCG64 stream."""
    rng = np.random.default_rng(master_seed)
    return [int(x) for x in rng.integers(0, 2 ** 63, size=count)]
