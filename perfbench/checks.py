"""Output checks for one benchmark run.

Every check reads the files a run left on disk and recomputes what it can
without the package: the QRBGBITS container is parsed here, the output
length comes from the paper's formula, and a few output bits are recomputed
by a direct Toeplitz parity product, independent of the FFT path.  Each
check returns a list of failure messages; an empty list means the run is
correct.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import numpy as np

MAGIC = b"QRBGBITS v1     "

# Under a correct implementation each p-value is uniform, so a test fails at
# significance 0.01 in one run of a hundred by chance.  A verdict counts as
# wrong only when it disagrees with its p-value or the p-value is below this
# floor, which a defect such as a biased output reaches at these sizes.
P_FLOOR = 1e-4

SPOT_BITS = 8


def output_length(h: float, n: int, epsilon: float) -> int:
    return math.floor(h * n - 4.0 * math.log2(1.0 / epsilon) - 2.0)


def write_seed_file(path: Path, bit_length: int, payload: bytes) -> None:
    """A QRBGBITS container with role=seed holding the first bit_length bits."""
    if len(payload) * 8 < bit_length:
        raise ValueError("payload too short")
    header = f"# bit_length={bit_length}\n# role=seed\n\n".encode("ascii")
    path.write_bytes(MAGIC + header + payload[: (bit_length + 7) // 8])


def read_header(path: Path) -> tuple[dict[str, str], int]:
    """Header of a QRBGBITS container and the payload's byte offset."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path.name}: not a QRBGBITS v1 file")
        header: dict[str, str] = {}
        while True:
            line = fh.readline()
            if line in (b"", b"\n"):
                break
            key, _, value = line.decode("ascii")[1:].strip().partition("=")
            header[key.strip()] = value.strip()
        return header, fh.tell()


def container_bits(path: Path, start: int, stop: int) -> np.ndarray:
    """Bits [start, stop) of a QRBGBITS container, MSB first."""
    header, offset = read_header(path)
    if not 0 <= start <= stop <= int(header["bit_length"]):
        raise ValueError(f"{path.name}: bits [{start}, {stop}) out of range")
    first = start // 8
    with open(path, "rb") as fh:
        fh.seek(offset + first)
        chunk = fh.read((stop + 7) // 8 - first)
    bits = np.unpackbits(np.frombuffer(chunk, dtype=np.uint8))
    return bits[start - 8 * first : stop - 8 * first]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def parse_sections(text: str) -> dict[str, list[str]]:
    """'[name]' sections of a report, each a list of its lines."""
    sections: dict[str, list[str]] = {"": []}
    current = ""
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        else:
            sections[current].append(line)
    return sections


def key_values(lines: list[str]) -> dict[str, str]:
    return dict(line.split("=", 1) for line in lines if "=" in line)


def fields(line: str) -> dict[str, str]:
    """'a=1 b=2' record of a report line."""
    return dict(part.split("=", 1) for part in line.split())


def check_accounting(
    blocks: int, n: int, m: int, output_bits: int, h: float, epsilon: float,
    raw_bits: int, extracted: Path,
) -> list[str]:
    errors = []
    if output_bits != blocks * m:
        errors.append(f"output_bits {output_bits} != blocks {blocks} * m {m}")
    if m != output_length(h, n, epsilon):
        errors.append(f"m {m} != floor(h*n - 4*log2(1/eps) - 2) = {output_length(h, n, epsilon)}")
    if blocks != raw_bits // n:
        errors.append(f"blocks {blocks} != raw bits {raw_bits} // n {n}")
    on_disk = int(read_header(extracted)[0]["bit_length"])
    if on_disk != output_bits:
        errors.append(f"{extracted.name} holds {on_disk} bits, accounting says {output_bits}")
    return errors


def check_rate(rate: float, window: tuple[float, float]) -> list[str]:
    lo, hi = window
    return [] if lo <= rate <= hi else [f"certified rate {rate} outside [{lo:.4f}, {hi:.4f}]"]


def check_battery(lines: list[str], expected: tuple[str, ...], significance: float) -> list[str]:
    records = [fields(line) for line in lines if line.startswith("test=")]
    names = tuple(r["test"] for r in records)
    errors = [] if names == expected else [f"battery ran {names}, expected {expected}"]
    for r in records:
        p, verdict = float(r["p"]), r["pass"] == "1"
        if verdict != (p >= significance):
            errors.append(f"{r['test']}: verdict pass={r['pass']} disagrees with p={p}")
        if p < P_FLOOR:
            errors.append(f"{r['test']}: p={p} below {P_FLOOR}")
    return errors


def check_files(run_dir: Path, lines: list[str], labels: set[str]) -> list[str]:
    errors = []
    listed = set()
    for line in lines:
        if not line.startswith("file="):
            continue
        rec = fields(line)
        listed.add(rec["file"])
        path = run_dir / rec["path"]
        if not path.is_file():
            errors.append(f"listed file {rec['path']} missing")
            continue
        if sha256_file(path) != rec["sha256"] or path.stat().st_size != int(rec["bytes"]):
            errors.append(f"{rec['path']} does not match its sha256/size in the report")
    if not labels <= listed:
        errors.append(f"report lists {sorted(listed)}, expected at least {sorted(labels)}")
    return errors


def spot_check(
    raw: Path, extracted: Path, seed_file: Path, n: int, m: int, blocks: int, seed: int
) -> list[str]:
    """Recompute output bits of the first and last block as Toeplitz parities.

    Output bit j of a block is parity(sum_k seed[j - k + n - 1] * raw[k]).
    """
    if blocks < 1:
        return ["no block to spot-check"]
    key = container_bits(seed_file, 0, n + m - 1).astype(np.int64)
    rng = random.Random(seed)
    errors = []
    for b in sorted({0, blocks - 1}):
        block = container_bits(raw, b * n, (b + 1) * n).astype(np.int64)
        out = container_bits(extracted, b * m, (b + 1) * m)
        picks = {0, m - 1} | {rng.randrange(m) for _ in range(SPOT_BITS - 2)}
        for j in sorted(picks):
            bit = int(np.dot(key[j : j + n][::-1], block)) & 1
            if bit != out[j]:
                errors.append(f"block {b} output bit {j}: file {out[j]}, direct product {bit}")
    return errors


def check_pipeline(wl, cfg, out: Path, seed_file: Path, seed: int) -> tuple[list[str], int]:
    """Checks of a run_pipeline run; returns (errors, output bits)."""
    sections = parse_sections((out / "report.txt").read_text(encoding="ascii"))
    ext = key_values(sections.get("extraction", []))
    blocks, n, m = int(ext["blocks"]), int(ext["block_n"]), int(ext["block_m"])
    output_bits, rate = int(ext["output_bits"]), float(ext["certified_rate"])
    errors = []
    if n != cfg.block_n:
        errors.append(f"report block_n {n} != config {cfg.block_n}")
    errors += check_accounting(
        blocks, n, m, output_bits, rate, cfg.epsilon, cfg.generation_bits, out / "extracted.bits"
    )
    errors += check_files(
        out, sections.get("files", []), {"calibration_log", "generation_raw", "extracted_bits"}
    )
    errors += check_rate(rate, wl.rate_window)
    errors += check_battery(sections.get("tests", []), wl.tests, cfg.significance)
    errors += spot_check(
        out / "raw.bits", out / "extracted.bits", seed_file, n, m, blocks, seed
    )
    return errors, output_bits


def check_staged(wl, cfg, out: Path, seed_file: Path, seed: int, staged: dict) -> tuple[list[str], int]:
    """Checks of a staged CLI run; returns (errors, output bits)."""
    ext = key_values(staged["extract"].splitlines())
    blocks, m, output_bits = int(ext["blocks"]), int(ext["block_m"]), int(ext["output_bits"])
    n, rate = cfg.block_n, staged["rate"]
    errors = check_accounting(
        blocks, n, m, output_bits, rate, cfg.epsilon, cfg.generation_bits, out / "extracted.bits"
    )
    raw_len = int(read_header(out / "raw.bits")[0]["bit_length"])
    if raw_len != cfg.generation_bits:
        errors.append(f"raw.bits holds {raw_len} bits, generation log has {cfg.generation_bits}")
    errors += check_rate(rate, wl.rate_window)
    battery = (out / "tests.txt").read_text(encoding="ascii").splitlines()
    errors += check_battery(battery, wl.tests, cfg.significance)
    any_failed = any(line.endswith("pass=0") for line in battery)
    if staged["test_code"] != int(any_failed):
        errors.append(f"qrbg test exited {staged['test_code']} with failed verdicts={any_failed}")
    errors += spot_check(
        out / "raw.bits", out / "extracted.bits", seed_file, n, m, blocks, seed
    )
    return errors, output_bits
