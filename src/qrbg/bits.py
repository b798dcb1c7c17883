"""Bit streams and their on-disk container.

Bit order is fixed throughout the package: the first bit of a stream is
the most significant bit of the first byte, and a final partial byte is
zero-padded on the right.  The true bit length travels in the header, not
in the payload.

File container (also used for hash seeds and raw generation bits), read
and written a chunk at a time by ``BitsFile`` and ``bits_writer``:

    16-byte ASCII magic 'QRBGBITS v1     '
    ASCII header lines '# key=value'
    one blank line
    packed payload bytes
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Iterator

import numpy as np

from .errors import ParameterError

MAGIC = b"QRBGBITS v1     "

# Bits per chunk of a streamed file; a multiple of 8, so each chunk after
# the first starts on a byte boundary.  Extraction and the battery hold a
# chunk unpacked, one byte per bit, at a time.
CHUNK_BITS = 1 << 19


def _is_decimal(text: str) -> bool:
    """Written as the writers of bits files and event logs write a count:
    ASCII digits with no sign, padding or leading zero."""
    return text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")


def _header_line(header: dict[str, str], text: str, where: str) -> None:
    """Add the '# key=value' header line ``text`` of a bits file or an
    event log to ``header``; a key given twice is an error."""
    key, _, value = text[1:].partition("=")
    key = key.strip()
    if key in header:
        raise ParameterError(f"{where} header repeats key {key!r}")
    header[key] = value.strip()


def _bit_array(values, what: str) -> np.ndarray:
    """``values`` as uint8, rejected unless every value is 0 or 1: a cast
    first would wrap 256 to 0 and 257 to 1."""
    values = np.asarray(values)
    if values.dtype.kind in "bu":  # no value below 0; max() needs no temporary
        bits = values.size == 0 or values.max() <= 1
    else:
        bits = ((values == 0) | (values == 1)).all()
    if not bits:
        raise ParameterError(f"{what} must be 0 or 1")
    return values.astype(np.uint8, copy=False)


def pack_bits(bits: np.ndarray) -> bytes:
    """MSB-first packing; final partial byte zero-padded."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(payload: bytes, bit_length: int) -> np.ndarray:
    if bit_length < 0 or len(payload) * 8 < bit_length:
        raise ParameterError(
            f"payload of {len(payload)} bytes cannot hold {bit_length} bits"
        )
    arr = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    return arr[:bit_length]


@dataclass
class BitStream:
    """An ordered bit sequence with its packing already defined."""

    bits: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        bits = _bit_array(self.bits, "bits")
        if bits.ndim != 1:
            raise ParameterError("bits must be one-dimensional")
        self.bits = bits

    @property
    def bit_length(self) -> int:
        return int(self.bits.shape[0])

    def __len__(self) -> int:
        return self.bit_length

    def chunks(self) -> Iterator[np.ndarray]:
        for start in range(0, self.bit_length, CHUNK_BITS):
            yield self.bits[start : start + CHUNK_BITS]


class BlockCutter:
    """Cuts consecutive chunks of a stream into whole blocks of ``width``
    bits, carrying a partial block to the next chunk in ``rest``, a view of
    a one-block buffer.  Nothing is concatenated: a carried block is
    completed in that buffer, a chunk's own whole blocks are a view of it,
    and only the new remainder is copied."""

    def __init__(self, width: int) -> None:
        self.width = width
        self._carry = np.empty(width, dtype=np.uint8)
        self.rest = self._carry[:0]

    def cut(self, chunk: np.ndarray, use: Callable[[np.ndarray], None]) -> None:
        """Hand ``use`` the blocks that ``chunk`` completes, one per row, in
        up to two pieces: the carried block, completed in the cutter's
        buffer, then the chunk's own whole blocks.  The buffer takes the new
        remainder once ``use`` returns, so ``use`` must copy what it keeps."""
        held, width = self.rest.shape[0], self.width
        if held:
            take = min(width - held, chunk.shape[0])
            self._carry[held : held + take] = chunk[:take]
            held, chunk = held + take, chunk[take:]
            if held == width:
                use(self._carry.reshape(1, width))
                held = 0
        whole = chunk.shape[0] // width * width
        if whole:
            use(chunk[:whole].reshape(-1, width))
        self.rest = self._carry[: held + chunk.shape[0] - whole]
        self.rest[held:] = chunk[whole:]


@dataclass(frozen=True)
class BitsFile:
    """A bits file opened for streaming: the header is parsed and the
    payload's size checked, and ``chunks`` reads the payload a chunk at a
    time."""

    path: str
    meta: dict[str, str]
    bit_length: int
    offset: int  # of the payload's first byte
    payload_bytes: int

    def __len__(self) -> int:
        return self.bit_length

    def chunks(self) -> Iterator[np.ndarray]:
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            for start in range(0, self.bit_length, CHUNK_BITS):
                count = min(CHUNK_BITS, self.bit_length - start)
                payload = fh.read((count + 7) // 8)
                if len(payload) * 8 < count:
                    raise ParameterError(f"{self.path}: payload ends before bit {start + count}")
                yield unpack_bits(payload, count)


@contextmanager
def _committed(path: str, mode: str = "wb", encoding: str | None = None) -> Iterator[IO]:
    """``path`` written as ``<path>.part``, renamed to ``path`` when the
    block completes; on any failure, a failed rename included, the part
    file is removed and an existing ``path`` left as it was."""
    part = f"{path}.part"
    fh = open(part, mode, encoding=encoding)
    try:
        with fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise


@contextmanager
def bits_writer(path: str, bit_length: int, header: dict[str, str]) -> Iterator[Callable]:
    """A bits file of ``bit_length`` bits, written through ``_committed``
    (so a stream may be read from the path it is written to) and failed
    unless exactly that many are written.  Yields ``write``, which appends
    bits packed, carrying a partial byte to the next call.  Header keys
    follow ``bit_length`` in insertion order, so identical inputs produce
    byte-identical files."""
    lines = [f"# bit_length={bit_length}\n"]
    for key, value in header.items():
        if key == "bit_length":
            continue
        if "\n" in str(value):
            raise ParameterError(f"header value for {key!r} contains newline")
        lines.append(f"# {key}={value}\n")
    carry, written = BlockCutter(8), 0

    def write(bits: np.ndarray) -> None:
        nonlocal written
        bits = np.asarray(bits, dtype=np.uint8)
        written += bits.shape[0]
        carry.cut(bits, lambda octets: fh.write(pack_bits(octets)))

    with _committed(path) as fh:
        fh.write(MAGIC + "".join(lines).encode("ascii") + b"\n")
        yield write
        fh.write(pack_bits(carry.rest))
        if written != bit_length:
            raise ParameterError(f"{path}: {written} bits written, header declares {bit_length}")


def write_bits_file(path: str, stream, header: dict[str, str]) -> None:
    """Write ``stream`` (a ``BitStream``, a ``BitsFile`` or any source with
    a length in bits and ``chunks()``) chunk by chunk; see ``bits_writer``."""
    with bits_writer(path, len(stream), header) as write:
        for chunk in stream.chunks():
            write(chunk)


def open_bits_file(path: str, role: str | None = None) -> BitsFile:
    """Parse a bits file's header and check that its payload holds
    ``bit_length`` bits, without reading the payload.  With ``role``, a
    header naming another role, or none, is rejected."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ParameterError(f"{path}: not a QRBGBITS v1 file")
        header: dict[str, str] = {}
        while True:
            line = fh.readline()
            if not line:
                raise ParameterError(f"{path}: truncated header")
            if line == b"\n":
                break
            if not line.isascii():
                raise ParameterError(f"{path}: header line {line!r} is not ASCII")
            text = line.decode("ascii").strip()
            if not text.startswith("#"):
                raise ParameterError(f"{path}: malformed header line {text!r}")
            _header_line(header, text, f"{path}:")
        offset = fh.tell()
        size = os.fstat(fh.fileno()).st_size - offset
    length = header.get("bit_length", "")
    if not _is_decimal(length):
        raise ParameterError(f"{path}: header needs a bit_length count, got {length!r}")
    if size * 8 < int(length):
        raise ParameterError(f"{path}: payload of {size} bytes cannot hold {length} bits")
    if role is not None and header.get("role") != role:
        named = f"role={header['role']}" if "role" in header else "no role"
        raise ParameterError(f"{path} has {named}, expected {role}")
    return BitsFile(path, header, int(length), offset, size)


def read_bits_file(path: str, role: str | None = None, head: int | None = None) -> BitStream:
    """A bits file in memory: its chunks, concatenated; ``role`` as for
    ``open_bits_file``.  With ``head``, only the file's first ``head`` bits
    (all of them if it holds fewer) are read."""
    opened = open_bits_file(path, role)
    if head is not None and head < opened.bit_length:
        opened = replace(opened, bit_length=head)
    return BitStream(np.concatenate([np.empty(0, dtype=np.uint8), *opened.chunks()]), opened.meta)
