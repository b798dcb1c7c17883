import numpy as np
import pytest

import qrbg.bits
from qrbg.bits import (
    MAGIC,
    BitStream,
    BlockCutter,
    _committed,
    bits_writer,
    open_bits_file,
    pack_bits,
    read_bits_file,
    unpack_bits,
    write_bits_file,
)
from qrbg.errors import ParameterError


def test_msb_first_packing():
    assert pack_bits(np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)) == bytes([0b10110010])


def test_partial_byte_zero_padded():
    assert pack_bits(np.array([1, 1, 1], dtype=np.uint8)) == bytes([0b11100000])


def test_unpack_respects_bit_length():
    bits = unpack_bits(bytes([0b11100000]), 3)
    assert bits.tolist() == [1, 1, 1]


def test_unpack_length_check():
    with pytest.raises(ParameterError):
        unpack_bits(b"\x00", 9)


def test_pack_unpack_roundtrip(rng):
    bits = rng.integers(0, 2, 1001).astype(np.uint8)
    assert np.array_equal(unpack_bits(pack_bits(bits), 1001), bits)


def test_bitstream_validation():
    with pytest.raises(ParameterError):
        BitStream(np.array([0, 2, 1], dtype=np.uint8))
    with pytest.raises(ParameterError):
        BitStream(np.zeros((2, 2), dtype=np.uint8))


@pytest.mark.parametrize("values", [[256, 1, 257, 0], [0, -1], [0.5, 1], [np.nan, 0]])
def test_bitstream_rejects_values_before_the_cast(values):
    # a uint8 cast would wrap [256, 1, 257, 0] to the valid [0, 1, 1, 0]
    with pytest.raises(ParameterError, match="bits must be 0 or 1"):
        BitStream(np.array(values))


def test_file_roundtrip(tmp_path, rng):
    bits = rng.integers(0, 2, 12345).astype(np.uint8)
    path = tmp_path / "x.bits"
    write_bits_file(str(path), BitStream(bits), {"role": "raw", "seed": "7"})
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    back = read_bits_file(str(path))
    assert back.bit_length == 12345
    assert np.array_equal(back.bits, bits)
    assert back.meta["role"] == "raw"
    assert back.meta["seed"] == "7"
    assert back.meta["bit_length"] == "12345"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bits"
    path.write_bytes(b"NOTMAGIC" + b" " * 8 + b"\n")
    with pytest.raises(ParameterError):
        read_bits_file(str(path))


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "trunc.bits"
    path.write_bytes(MAGIC + b"# bit_length=8\n")
    with pytest.raises(ParameterError):
        read_bits_file(str(path))


def test_missing_bit_length_rejected(tmp_path):
    path = tmp_path / "nolen.bits"
    path.write_bytes(MAGIC + b"# role=seed\n\n\x00")
    with pytest.raises(ParameterError):
        read_bits_file(str(path))


@pytest.mark.parametrize("count", ["008", "00", "+8", "8.0", "-0", "1e1"])
def test_bit_length_is_a_count_as_the_writer_writes_it(tmp_path, count):
    # the same rule as an event log's seed and record count: decimal digits
    # with no sign or leading zero
    path = tmp_path / "padded.bits"
    path.write_bytes(MAGIC + f"# bit_length={count}\n\n".encode() + b"\xff")
    with pytest.raises(ParameterError, match="header needs a bit_length count"):
        open_bits_file(str(path))


def test_bit_length_zero_is_a_count(tmp_path):
    path = tmp_path / "empty.bits"
    write_bits_file(str(path), BitStream(np.empty(0, dtype=np.uint8)), {})
    assert open_bits_file(str(path)).bit_length == 0


def test_header_written_in_insertion_order(tmp_path):
    path = tmp_path / "o.bits"
    write_bits_file(str(path), BitStream(np.array([1], dtype=np.uint8)), {"b": "2", "a": "1"})
    text = path.read_bytes().split(b"\n\n")[0]
    assert text.index(b"# b=2") < text.index(b"# a=1")


def test_writer_carries_partial_bytes(tmp_path, rng):
    bits = rng.integers(0, 2, 1000).astype(np.uint8)
    path = tmp_path / "w.bits"
    with bits_writer(str(path), 1000, {"role": "raw"}) as write:
        for lo, hi in ((0, 3), (3, 3), (3, 17), (17, 600), (600, 1000)):
            write(bits[lo:hi])
    opened = open_bits_file(str(path))
    assert (opened.bit_length, opened.meta["role"]) == (1000, "raw")
    assert path.read_bytes()[opened.offset :] == pack_bits(bits)


@pytest.mark.parametrize("width", [1, 8, 13, 200])
def test_cutter_blocks_do_not_depend_on_the_chunking(rng, width):
    """Random chunkings, empty and longer-than-a-block chunks included,
    give the blocks and the rest of one reshape of the whole stream; the
    rest does not change when a chunk's buffer is reused."""
    bits = rng.integers(0, 2, 5 * width + 3 * width // 4 + 1).astype(np.uint8)
    whole = len(bits) // width * width
    for _ in range(20):
        cuts = np.sort(rng.integers(0, len(bits) + 1, rng.integers(0, 12)))
        cutter, blocks = BlockCutter(width), []
        for chunk in np.split(bits, cuts):
            chunk = chunk.copy()
            cutter.cut(chunk, lambda piece: blocks.append(piece.copy()))
            chunk[:] = 0
        assert all(piece.shape[1:] == (width,) and len(piece) for piece in blocks)
        assert np.array_equal(np.concatenate(blocks), bits[:whole].reshape(-1, width))
        assert np.array_equal(cutter.rest, bits[whole:])


def test_cutter_pieces_live_until_use_returns(rng):
    """A carried block is completed in the cutter's buffer, which takes the
    new remainder once ``use`` returns: a piece kept without a copy is
    overwritten.  The chunk's own blocks are a view of the chunk."""
    bits = rng.integers(0, 2, 23).astype(np.uint8)
    cutter, kept, copies = BlockCutter(8), [], []

    def use(piece):
        kept.append(piece)
        copies.append(piece.copy())

    cutter.cut(bits[:5], use)
    chunk = bits[5:].copy()
    cutter.cut(chunk, use)
    assert [len(piece) for piece in copies] == [1, 1]
    assert np.array_equal(np.concatenate(copies), bits[:16].reshape(2, 8))
    assert np.shares_memory(kept[0], cutter.rest) and np.shares_memory(kept[1], chunk)
    assert np.array_equal(kept[0].ravel()[:7], bits[16:]) and np.array_equal(cutter.rest, bits[16:])


def test_writer_checks_the_declared_length(tmp_path):
    path = tmp_path / "short.bits"
    with pytest.raises(ParameterError, match="9 bits written, header declares 10"):
        with bits_writer(str(path), 10, {}) as write:
            write(np.ones(9, dtype=np.uint8))
    assert list(tmp_path.iterdir()) == []


def test_chunked_read_and_rewrite_in_place(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(qrbg.bits, "CHUNK_BITS", 16)
    bits = rng.integers(0, 2, 100).astype(np.uint8)
    path = tmp_path / "x.bits"
    write_bits_file(str(path), BitStream(bits), {"role": "raw"})
    opened = open_bits_file(str(path))
    assert [len(c) for c in opened.chunks()] == [16] * 6 + [4]
    assert np.array_equal(np.concatenate(list(opened.chunks())), bits)
    # the copy is read from the path it replaces
    write_bits_file(str(path), opened, {"role": "raw", "copy": "1"})
    back = read_bits_file(str(path))
    assert np.array_equal(back.bits, bits) and back.meta["copy"] == "1"


def test_short_payload_names_the_file(tmp_path):
    path = tmp_path / "cut.bits"
    path.write_bytes(MAGIC + b"# bit_length=20\n\n\xff\xff")
    with pytest.raises(ParameterError, match="cut.bits: payload of 2 bytes cannot hold 20 bits"):
        open_bits_file(str(path))


def test_header_line_without_hash_rejected(tmp_path):
    path = tmp_path / "nohash.bits"
    path.write_bytes(MAGIC + b"# bit_length=8\nrole=raw\n\n\xff")
    with pytest.raises(ParameterError, match="nohash.bits: malformed header line 'role=raw'"):
        open_bits_file(str(path))


def test_writer_rejects_a_header_value_with_a_newline(tmp_path):
    with pytest.raises(ParameterError, match="header value for 'note' contains newline"):
        with bits_writer(str(tmp_path / "o.bits"), 8, {"note": "a\nb"}):
            pass
    assert list(tmp_path.iterdir()) == []


def test_committed_file_appears_only_when_complete(tmp_path):
    path = tmp_path / "o.txt"
    with _committed(str(path), "w", "ascii") as fh:
        fh.write("one")
        assert [p.name for p in tmp_path.iterdir()] == ["o.txt.part"]
    assert [p.name for p in tmp_path.iterdir()] == ["o.txt"]
    with pytest.raises(RuntimeError):
        with _committed(str(path), "w", "ascii") as fh:
            fh.write("two")
            raise RuntimeError
    # the earlier file stays as it was, and no part file is left
    assert [p.name for p in tmp_path.iterdir()] == ["o.txt"]
    assert path.read_text() == "one"


def test_committed_removes_its_part_file_when_the_rename_fails(tmp_path):
    target = tmp_path / "dir"
    target.mkdir()
    (target / "kept").write_bytes(b"x")
    with pytest.raises(OSError):
        with _committed(str(target)) as fh:
            fh.write(b"payload")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert [p.name for p in target.iterdir()] == ["kept"]


@pytest.mark.parametrize("head, key", [
    (b"# bit_length=8\n# role=raw\n# role=seed\n", "role"),  # read last-wins, it passes as a seed
    (b"# bit_length=8\n# bit_length = 8\n# role=seed\n", "bit_length"),
], ids=["role", "bit_length"])
def test_repeated_header_key_rejected(tmp_path, head, key):
    path = tmp_path / "twice.bits"
    path.write_bytes(MAGIC + head + b"\n\xff")
    with pytest.raises(ParameterError, match=f"twice.bits: header repeats key '{key}'"):
        open_bits_file(str(path), "seed")
