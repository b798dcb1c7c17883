"""Seeded simulation of polarization-qubit sources.

A source is one value, a ``Source``: the Bloch vectors it prepares and,
when an attacker prepares it, the weights of a decomposition of the state
(Hughston, Jozsa and Wootters) from which each event's term is drawn and
remembered.  Three functions build one:

* ``single_photon``: a fixed qubit state measured event by event.
* ``entangled``: a photon-pair source observed through coincidence
  detection.  Only the two-detector subspace is kept, which behaves as an
  effective qubit; dephasing and accidental-coincidence background both
  act inside that subspace before any event is recorded, and nothing is
  ever subtracted afterwards.
* ``adversarial``: an attacker prepares each event as one pure state drawn
  from a decomposition of the target state and remembers which.

Outcomes follow the Born rule in the scheduled measurement basis:
``P(outcome 0) = (1 + s.u)/2`` for Bloch vector ``s`` and basis direction
``u`` in {Z=(0,0,1), X=(1,0,0), Y=(0,1,0)}.  Outcome 0 is an H-type click,
1 a V-type click (H1-V2 / V1-H2 for coincidences).

A run is an ``EventStream``.  Sampling uses numpy's PCG64 generator and
consumes random numbers in a fixed chunked order, so equal (source, seed,
schedule, n) inputs reproduce identical logs.  A run is cut into
``_CHUNK`` events.  A source with weights takes a chunk's term uniforms,
one per event, from the generator as the chunk starts, and the chunk's
outcome uniforms from a copy of it advanced past them (``PCG64.advance``
by the chunk's length); the run goes on from that copy.  A source without
weights takes only outcome uniforms, in order.  One double is one PCG64
output, so the stream draws a chunk a piece of at most ``_DRAWS`` events
at a time from both generators in step, one ``sample_events`` call a
piece, and the stream is the same as one draw per chunk and pass.
Distinct logs with distinct seeds may be generated concurrently; a single
log is generated sequentially.

Every consumer of events (the tally, the log writer and ``ZBits``) reads
an ``EventSource`` a piece at a time and takes each piece whole: a drawn
piece holds at most ``_DRAWS`` events, and a piece read from a log file
is the lines one read of ``_LOG_ROWS`` characters completes.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Protocol, TextIO, Union

import numpy as np

from .bits import _committed, _header_line, _is_decimal
from .errors import InsufficientDataError, ParameterError
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

# Byte lookups of the event-log reader: each byte's basis code (a byte
# that is no basis letter reads as Z, which the re-encoding check then
# rejects) and whether it is a decimal digit.
_BASIS_OF_BYTE = np.zeros(256, dtype=np.uint8)
_BASIS_OF_BYTE[_BASIS_BYTES] = np.arange(len(BASIS_CHARS))
_IS_DIGIT = np.zeros(256, dtype=bool)
_IS_DIGIT[ord("0") : ord("9") + 1] = True
# The widest eve_label the reader parses; a wider one fails the check.
_LABEL_DIGITS = 9
# Column i holds the ASCII digits of i, zero-padded to five: the five low
# digits of every record index are copied from it.
_INDEX_SPAN = 10 ** 5
_INDEX_DIGITS = (
    np.arange(_INDEX_SPAN, dtype=np.int32) // 10 ** np.arange(4, -1, -1, dtype=np.int32)[:, None] % 10 + ord("0")
).astype(np.uint8)
# Characters per read of the event-log reader, each read one piece;
# bounds the reader's working memory.
_LOG_ROWS = 1 << 17

# Fixed sampling chunk; part of the reproducibility contract because it
# determines the order in which random numbers are consumed.
_CHUNK = 1 << 22
# Events per piece of an ``EventStream``, each one draw per generator, so
# sampling's working memory does not grow with the run.  Lengths from 2^14
# to 2^18 sample equally fast.
_DRAWS = 1 << 16
# One-basis stretches in a piece from which sampling looks each event's
# outcome threshold up in the Born table rather than comparing a stretch
# at a time.
_LOOKUP_STRETCHES = 64
# The schedule of a calibration run: equal thirds of Z, X, Y in
# consecutive blocks, the remainder going Z, X.
BLOCKED = "blocked"


@dataclass(frozen=True)
class Source:
    """A prepared source: ``name``, the ``# source=`` header of what it
    emits; the Bloch vectors it prepares, one per term; and, for an
    adversary, the terms' weights, from which it picks each event's term
    and records the pick as the event's eve_label."""

    name: str
    states: tuple[StokesVector, ...]
    weights: tuple[float, ...] | None = None


def single_photon(state: StokesVector) -> Source:
    """A fixed qubit state, measured event by event."""
    return Source(f"single_photon(s1={state.s1!r},s2={state.s2!r},s3={state.s3!r})", (state,))


def entangled(coherence: float, accidental_fraction: float = 0.0, phase: float = 0.0) -> Source:
    """The effective qubit that coincidence detection of a photon pair
    sees: equatorial, of length coherence*(1 - accidental_fraction)
    (populations stay at 1/2 each), rotated in the equatorial plane by
    ``phase``."""
    if not 0.0 <= coherence <= 1.0:
        raise ParameterError(f"coherence {coherence} outside [0, 1]")
    if not 0.0 <= accidental_fraction < 1.0:
        raise ParameterError(f"accidental_fraction {accidental_fraction} outside [0, 1)")
    name = f"entangled(coherence={coherence!r},accidental_fraction={accidental_fraction!r},phase={phase!r})"
    c_eff = coherence * (1.0 - accidental_fraction)
    return Source(name, (rotate_equatorial(StokesVector(c_eff, 0.0, 0.0), phase),))


def adversarial(decomposition: Decomposition) -> Source:
    """An attacker preparing each event as one pure state of
    ``decomposition``, drawn with its weight."""
    weights, states = zip(*((w, psi.bloch) for w, psi in decomposition.terms))
    return Source(f"adversarial(terms={len(states)})", states, weights)


def _seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ParameterError("rng_seed must be an unsigned 64-bit integer")
    return seed


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


def _born_table(source: Source) -> tuple[np.ndarray, np.ndarray | None]:
    """P(outcome 0) per prepared term (rows) and basis code (columns Z, X,
    Y), with the cumulative term weights if the source has weights."""
    blochs = np.array([s.as_array() for s in source.states])
    p0 = 0.5 * (1.0 + blochs[:, BASIS_AXIS])
    if source.weights is None:
        return p0, None
    cum = np.cumsum(source.weights)
    cum[-1] = 1.0
    return p0, cum


def _as_schedule(schedule: Union[np.ndarray, str], n: int) -> np.ndarray:
    """One basis code for each of ``n`` events: a basis letter's code at
    stride 0, or ``schedule`` if it is a uint8 array of ``n`` codes 0 to 2;
    never cast."""
    if isinstance(schedule, str):
        if schedule not in _BASIS_CODE:
            raise ParameterError(f"unknown basis {schedule!r}")
        return np.broadcast_to(np.uint8(_BASIS_CODE[schedule]), (n,))
    if not (isinstance(schedule, np.ndarray) and schedule.dtype == np.uint8):
        raise ParameterError("a basis schedule is a uint8 array of basis codes")
    if schedule.shape != (n,):
        raise ParameterError(f"schedule of shape {schedule.shape} does not match n={n}")
    # a stream's one-basis piece is one code at stride 0, checked once
    if (schedule[:1] if schedule.strides == (0,) else schedule).max(initial=0) > 2:
        raise ParameterError("basis codes must be 0 (Z), 1 (X) or 2 (Y)")
    return schedule


def sample_events(
    source: Source,
    seed: int,
    schedule: Union[np.ndarray, str],
    n: int,
    rng: np.random.Generator,
    outcome_rng: np.random.Generator,
) -> EventLog:
    """Draw one piece of an ``EventStream``: ``n`` Born-rule outcomes of
    ``source`` under the given basis schedule, a uint8 array of one basis
    code per event or one basis letter for every event, which builds no
    schedule array, in one draw per generator.  A source with weights draws
    each event's prepared term from ``rng`` and records it as the event's
    eve_label, and every source draws its outcome uniforms from
    ``outcome_rng``, which is ``rng`` itself for a source without weights.
    An event's outcome is ``u >= p[term]`` for its basis's column ``p`` of
    the Born table.  Each stretch measured in one basis gets it from
    whole-array comparisons with that column (``_compare``), so no
    per-event threshold is ever built; a piece of ``_LOOKUP_STRETCHES``
    stretches or more, as an interleaved schedule has, looks each event's
    threshold up in the table instead.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    sched = _as_schedule(schedule, n)
    p0, cum = _born_table(source)
    labels, terms = None, np.broadcast_to(np.int32(0), (n,))
    if cum is not None:
        # searchsorted(cum, u, side="right") as a count of the edges at or
        # below u; the last edge, cum[-1] = 1.0, is above every u.
        u = rng.random(n)
        labels = terms = np.empty(n, dtype=np.int32)
        np.greater_equal(u, cum[0], out=terms)
        for edge in cum[1:-1]:
            np.add(terms, u >= edge, out=terms)
    u = outcome_rng.random(n)
    outcomes = np.empty(n, dtype=np.uint8)
    out = outcomes.view(np.bool_)
    cuts = [] if sched.strides == (0,) else np.flatnonzero(sched[1:] != sched[:-1]) + 1
    if len(cuts) + 1 >= _LOOKUP_STRETCHES:
        np.greater_equal(u, p0[terms, sched], out=out)
    else:
        for a, b in zip([0, *cuts], [*cuts, n]):
            _compare(u[a:b], terms[a:b], p0[:, sched[a]], out[a:b])
    return EventLog(source.name, _seed(seed), sched, outcomes, labels)


def _compare(u: np.ndarray, terms: np.ndarray, p: np.ndarray, out: np.ndarray) -> None:
    """``out = u >= p[terms]`` from one comparison of ``u`` with each entry
    of ``p``; over the terms they telescope to ``[u >= p[0]] XOR sum_k
    [terms >= k] AND ([u >= p[k]] XOR [u >= p[k-1]])``."""
    np.greater_equal(u, p[0], out=out)
    below = out
    for k in range(1, len(p)):
        above = u >= p[k]
        flip = above ^ below
        flip &= terms >= k
        below = above
        out ^= flip


@dataclass(frozen=True, eq=False)
class EventStream:
    """The ``n`` events of a run of ``prepared`` under ``schedule``, a basis
    letter, ``BLOCKED`` or a uint8 array of ``n`` codes, drawn from the PCG64
    stream of ``seed`` in the module's draw order, again on each ``pieces``
    call: pieces of at most ``_DRAWS`` events, none crossing a ``_CHUNK``,
    each one ``sample_events`` call with its own basis codes, so no array
    of the run's length is built."""

    prepared: Source
    seed: int
    n: int
    schedule: Union[np.ndarray, str] = "Z"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if not (isinstance(self.schedule, str) and self.schedule == BLOCKED):
            object.__setattr__(self, "schedule", _as_schedule(self.schedule, self.n))

    @property
    def source(self) -> str:
        return self.prepared.name

    def codes(self, lo: int, hi: int) -> np.ndarray:
        """The basis codes of events ``lo`` to ``hi``."""
        if isinstance(self.schedule, np.ndarray):
            return self.schedule[lo:hi]
        third = self.n // 3
        ends = np.clip([0, third, 2 * third, 3 * third, 3 * third + 1, self.n], lo, hi)
        return np.repeat(np.array([0, 1, 2, 0, 1], dtype=np.uint8), np.diff(ends))

    def pieces(self) -> Iterator[EventLog]:
        rng = np.random.default_rng(self.seed)
        for start in range(0, self.n, _CHUNK):
            stop = min(start + _CHUNK, self.n)
            # a source with weights draws its outcomes after the chunk's terms
            after = rng if self.prepared.weights is None else np.random.Generator(
                copy.deepcopy(rng.bit_generator).advance(stop - start)
            )
            for lo in range(start, stop, _DRAWS):
                hi = min(lo + _DRAWS, stop)
                codes = self.codes(lo, hi)
                yield sample_events(self.prepared, self.seed, codes, n=hi - lo, rng=rng, outcome_rng=after)
            rng = after


def _put_decimal(rows: np.ndarray, values: np.ndarray) -> None:
    """The ASCII decimal digits of the non-negative eve_labels ``values``,
    one column per value, into ``rows``, the last row holding the units; a
    value with fewer digits than there are rows leaves 0 bytes ahead of its
    leading digit."""
    v = values.astype(np.min_scalar_type(values.max()))  # narrow types divide faster
    np.add(v % 10, ord("0"), out=rows[-1], casting="unsafe")
    for row in rows[-2::-1]:
        v //= 10
        np.add(v % 10, ord("0"), out=row, casting="unsafe")
        row[v == 0] = 0


def _encode(first: int, bases: np.ndarray, outcomes: np.ndarray, labels: np.ndarray | None) -> bytes:
    """The record lines 'index,basis,outcome[,eve_label]' of events
    numbered from ``first``, as the log's exact bytes.  Each run of indices
    of one decimal width and one multiple of ``_INDEX_SPAN`` fills a
    (columns x rows) byte table, its five low index digits a slice of
    ``_INDEX_DIGITS``, that one transposed copy turns into lines;
    eve_labels narrower than the widest are padded with 0 bytes, which are
    then dropped."""
    label_width = 0
    if labels is not None:
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= 10 ** _LABEL_DIGITS:
            raise ParameterError(f"eve_label must be a non-negative decimal of at most {_LABEL_DIGITS} digits")
        label_width = len(str(labels.max(initial=0)))
    runs = []
    lo, n = 0, len(outcomes)
    while lo < n:
        index = str(first + lo)
        width, start = len(index), (first + lo) % _INDEX_SPAN
        # the next index has one more digit, or other digits above the low five
        hi = min(n, 10 ** width - first, lo + _INDEX_SPAN - start)
        columns = width + 5 + (0 if labels is None else 1 + label_width)
        table = np.empty((columns, hi - lo), dtype=np.uint8)
        high = max(width - len(_INDEX_DIGITS), 0)  # digits above the table's five
        table[:high] = np.frombuffer(index[:high].encode(), dtype=np.uint8)[:, None]
        table[high:width] = _INDEX_DIGITS[high - width :, start : start + hi - lo]
        table[width] = table[width + 2] = ord(",")
        np.take(_BASIS_BYTES, bases[lo:hi], out=table[width + 1])
        np.add(outcomes[lo:hi], ord("0"), out=table[width + 3])
        if labels is not None:
            table[width + 4] = ord(",")
            _put_decimal(table[width + 5 : -1], labels[lo:hi])
        table[-1] = ord("\n")
        run = table.T.tobytes()
        if label_width > 1:
            flat = np.frombuffer(run, dtype=np.uint8)
            run = flat[flat != 0].tobytes()
        runs.append(run)
        lo = hi
    return b"".join(runs)


def _write_event_log(log: EventSource, fh: TextIO) -> None:
    """ASCII event-log format: '# key=value' header lines then one
    'index,basis,outcome[,eve_label]' record per line, written a piece at
    a time as ``log`` yields its pieces."""
    count = "" if log.n is None else f"# n={log.n}\n"  # an opened log may declare none
    fh.write(f"# source={log.source}\n# seed={log.seed}\n{count}# prng={PRNG_NAME}\n")
    first = 0
    for piece in log.pieces():
        fh.write(_encode(first, piece.bases, piece.outcomes, piece.eve_labels).decode("ascii"))
        first += piece.n


def save_event_log(log: EventSource, path: str) -> None:
    """Write ``log`` to ``path`` through ``bits._committed``: a write failing
    at any piece leaves no file, and an earlier one as it was."""
    with _committed(path, "w", "ascii") as fh:
        _write_event_log(log, fh)


def _reject(bad: np.ndarray, first: int, what: str) -> None:
    if bad.any():
        raise ParameterError(f"event record {first + int(np.argmax(bad))}: {what}")


def _read_log(fh: TextIO) -> tuple[str, int, int | None, Iterator[EventLog]]:
    """An event log's '# key=value' header, parsed now, as its source, seed
    and declared record count ``n`` (None if not given), and its records as
    pieces, one per read of the file, each checked as it is read: the
    piece must equal its own re-encoding, which holds exactly when every
    line is the record the writer would put there (indices continuing from
    the previous piece, basis Z, X or Y, outcome 0 or 1, the first record's
    column count).  ``n`` is checked against the record count after the
    last piece."""
    header: dict[str, str] = {}
    for number, line in enumerate(fh, 1):
        if "\r" in line.removesuffix("\n").removesuffix("\r"):
            raise ParameterError(f"event log line {number}: carriage return without a line feed")
        text = line.strip()
        if text.startswith("#"):
            _header_line(header, text, "event log")
        elif text:
            break
    else:
        raise InsufficientDataError("event log contains no records")
    width = text.count(",") + 1
    if width not in (3, 4):
        raise ParameterError(f"malformed event record: {text!r}")
    seed, declared = header.get("seed", "0"), header.get("n")
    if not _is_decimal(seed):
        raise ParameterError(f"event log seed {seed!r} is not a non-negative decimal")
    if declared is not None and not _is_decimal(declared):
        raise ParameterError(f"event log header n={declared!r} is not a record count")
    source, seed, n = header.get("source", "unknown"), int(seed), None if declared is None else int(declared)
    return source, seed, n, _log_pieces(source, seed, n, width, _record_blocks(line, fh))


def _record_blocks(head: str, fh: TextIO) -> Iterator[tuple[bytearray, np.ndarray]]:
    """The record lines from ``head`` on, one block per read of
    ``_LOG_ROWS`` characters that completes a line (``head`` joins the
    first read): the lines the read completes, as ASCII bytes with their
    newline offsets.  Only the read's partial last line is carried into the
    next; a last line with no newline is given one.  A CRLF line end is
    read as LF; a carriage return left over fails the record check."""
    part = bytearray()
    for text in chain([head + fh.read(_LOG_ROWS)], iter(lambda: fh.read(_LOG_ROWS), "")):
        more = text.encode("ascii")
        at = np.flatnonzero(np.frombuffer(more, dtype=np.uint8) == ord("\n"))
        if not len(at):
            part += more
            continue
        cut = int(at[-1]) + 1
        block, at = part + more[:cut], at + len(part)
        if b"\r" in block:  # its lines are whole, so no CRLF pair is split
            block = block.replace(b"\r\n", b"\n")
            at = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
        yield block, at
        part = bytearray(more[cut:])
    if part:  # the file ended mid-line
        yield part + b"\n", np.array([len(part)])


def _log_pieces(
    source: str, seed: int, n: int | None, width: int, blocks: Iterator[tuple[bytearray, np.ndarray]]
) -> Iterator[EventLog]:
    done = 0
    for block, ends in blocks:
        fields = _fields(np.frombuffer(block, dtype=np.uint8), ends, width)
        if _encode(done, *fields) != block:
            raise _bad_record(block, ends, _encode(done, *fields), done, width)
        done += len(ends)
        yield EventLog(source, seed, *fields)
    if n is not None and n != done:
        raise ParameterError(f"header declares n={n} but log has {done} records")


def _fields(line: np.ndarray, ends: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Each line's basis, outcome and eve_label, read at fixed offsets back
    from the eve_label, or from one past the newline when there is none;
    right only for canonical lines, which the re-encoding check ensures."""
    start, labels = (ends + 1, None) if width == 3 else _trailing_decimals(line, ends)
    bases = _BASIS_OF_BYTE[line.take(start - 4, mode="clip")]
    outcomes = (line.take(start - 2, mode="clip") == ord("1")).view(np.uint8)
    return bases, outcomes, labels


def _trailing_decimals(line: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each line's run of at most ``_LABEL_DIGITS`` digits before its
    newline starts, and the run's value (0 for no digits)."""
    start, value, scale = ends.copy(), np.zeros(len(ends), dtype=np.int32), 1
    for _ in range(_LABEL_DIGITS):
        byte = line.take(start - 1, mode="clip")
        digit = _IS_DIGIT[byte]
        if not digit.any():
            break
        start -= digit
        value += np.where(digit, byte - ord("0"), 0).astype(np.int32) * scale
        scale *= 10
    return start, value


def _bad_record(block: bytearray, ends: np.ndarray, encoded: bytes, first: int, width: int) -> ParameterError:
    """The error naming the first line of ``block`` that differs from its
    re-encoding ``encoded``, and what is wrong with it."""
    got, want = np.frombuffer(block, dtype=np.uint8), np.frombuffer(encoded, dtype=np.uint8)
    size = min(len(got), len(want))
    row = int(np.searchsorted(ends, np.flatnonzero(got[:size] != want[:size])[0]))
    begin = int(ends[row - 1]) + 1 if row else 0
    text = block[begin : ends[row]].decode("ascii")
    return ParameterError(f"event record {first + row}: {_fault(text, first + row, width)}")


def _fault(line: str, index: int, width: int) -> str:
    """What keeps one line from being the record ``index`` of a log whose
    records have ``width`` fields."""
    if "\r" in line:
        return "carriage return without a line feed"
    fields = line.split(",")
    if len(fields) == width and _is_decimal(fields[0]):
        written, basis, outcome, *_ = fields
        if written != str(index):
            return "index out of order"
        if basis not in BASIS_CHARS:
            return "basis is not Z, X or Y"
        if outcome not in ("0", "1"):
            return "outcome is not 0 or 1"
    return f"not a canonical record: {line!r}"


@dataclass(frozen=True)
class _LogFile:
    """An event log on disk whose header has been parsed: its source, seed
    and declared record count ``n`` (None if the header gives none).  Each
    ``pieces`` call reads the records again, a piece at a time, each piece
    checked as it is read."""

    path: str
    source: str
    seed: int
    n: int | None

    def pieces(self) -> Iterator[EventLog]:
        with _open_log(self.path) as fh:
            yield from _read_log(fh)[3]


@contextmanager
def _open_log(path: str) -> Iterator[TextIO]:
    """An event log opened as ASCII text whose lines end at LF alone, with
    no newline translated, so that a carriage return not followed by LF
    can be rejected; a byte outside ASCII, in the header or in a record, is
    a ``ParameterError`` naming the file."""
    try:
        with open(path, "r", encoding="ascii", newline="\n") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParameterError(f"{path}: byte 0x{byte:02x} is not ASCII; an event log is ASCII text") from None


def load_event_log(path: str) -> _LogFile:
    """Open an event log: parse its header now and leave its records to
    ``_LogFile.pieces``."""
    with _open_log(path) as fh:
        return _LogFile(path, *_read_log(fh)[:3])


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
            # a drawn schedule is one basis code at stride 0: that code is checked once
            bases = piece.bases[:1] if piece.bases.strides == (0,) else piece.bases
            if bases.max(initial=0):
                _reject(bases != 0, done, "not Z-basis; generation bits come from Z measurements only")
            yield piece.outcomes
            done += piece.n


def derive_subseeds(master_seed: int, count: int) -> list[int]:
    """Deterministic child seeds drawn from the master PCG64 stream."""
    rng = np.random.default_rng(master_seed)
    return [int(x) for x in rng.integers(0, 2 ** 63, size=count)]
