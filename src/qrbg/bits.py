"""Bit streams and their on-disk container.

Bit order is fixed throughout the package: the first bit of a stream is
the most significant bit of the first byte, and a final partial byte is
zero-padded on the right.  The true bit length travels in the header, not
in the payload.

File container (also used for hash seeds and raw generation bits):

    16-byte ASCII magic 'QRBGBITS v1     '
    ASCII header lines '# key=value'
    one blank line
    packed payload bytes
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

MAGIC = b"QRBGBITS v1     "


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
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ParameterError("bits must be one-dimensional")
        if bits.size and bits.max() > 1:
            raise ParameterError("bits must be 0 or 1")
        self.bits = bits

    @property
    def bit_length(self) -> int:
        return int(self.bits.shape[0])

    def to_bytes(self) -> bytes:
        return pack_bits(self.bits)


def write_bits_file(path: str, stream: BitStream, header: dict[str, str]) -> None:
    """Serialize a stream; 'bit_length' is always written first.

    Header keys are emitted in insertion order so identical inputs produce
    byte-identical files.
    """
    keys = dict(header)
    keys.pop("bit_length", None)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"# bit_length={stream.bit_length}\n".encode("ascii"))
        for key, value in keys.items():
            if "\n" in str(value):
                raise ParameterError(f"header value for {key!r} contains newline")
            fh.write(f"# {key}={value}\n".encode("ascii"))
        fh.write(b"\n")
        fh.write(stream.to_bytes())


def read_bits_file(path: str) -> BitStream:
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
            key, _, value = text[1:].strip().partition("=")
            header[key.strip()] = value.strip()
        length = header.get("bit_length", "")
        if not length.isdigit():
            raise ParameterError(f"{path}: header needs a bit_length count, got {length!r}")
        payload = fh.read()
    try:
        bits = unpack_bits(payload, int(length))
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    return BitStream(bits, header)
