"""Every input the command line rejects, one row each.

A row is plain data: the argv, its paths relative to the directory it runs
in; the inputs made there first, each a file's bytes, a symbolic link's
target (a str) or an empty directory (None); the exit code; a fragment of
the message; and the names left in the directory afterwards, None for the
inputs alone.  One check runs every row: the exit code, the message, the
exact listing of the directory, every input left as it was, and nothing on
stdout but a battery's verdict (exit 1).  A new rejection is one more row.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from click.testing import CliRunner

import qrbg
from qrbg.bits import MAGIC, pack_bits
from qrbg.cli import main
from qrbg.extractor import ExtractorParams
from test_pipeline import FAST_CONFIG, UNBUILDABLE_SOURCES


class Row(NamedTuple):
    argv: list
    inputs: dict
    code: int
    message: str
    left: tuple | None = None


def bits(role, count, pattern=(1,)):
    """A bits file of ``count`` bits repeating ``pattern``, laid out as the
    writer lays it out; a ``role`` of None names none."""
    payload = pack_bits(np.resize(np.array(pattern, dtype=np.uint8), count))
    named = "" if role is None else f"# role={role}\n"
    return MAGIC + f"# bit_length={count}\n{named}\n".encode() + payload


def z_log(count, n=None, seed="0", bases="Z"):
    """An event log of ``count`` records, measured in ``bases`` in turn (by
    default all Z), whose header declares ``n`` (by default ``count``; ""
    declares none)."""
    n = count if n is None else n
    head = f"# source=x\n# seed={seed}\n" + (f"# n={n}\n" if n != "" else "")
    return (head + "".join(f"{i},{bases[i % len(bases)]},{i % 2}\n" for i in range(count))).encode()


def cfg(text):
    return {"run.cfg": text.encode()}


RAW = bits("raw", 4000)
NO_ROLE = bits(None, 4000)
SEED = bits("seed", 4000, (1, 0, 0))
EXTRACT = ["extract", "raw.bits", "--h-rate", "0.9", "--block-n", "1000"]
RUN = ["--config", "run.cfg", "--out", "o"]
CALIBRATED = ("o", "o/calibration.log", "run.cfg")
SHORT = z_log(20)
TINY = b"# source=x\n# seed=0\n# n=2\n0,Z,0\n1,X,1\n"
# longer than one read of the file (2^17 characters); a fault put at
# record 20000 is past it
LONG = z_log(30000)
PAST = b"\n20000,Z,0\n"
OUT = {"calibrate": [], "generate": ["--out", "out.bits"],
       "extract": ["--h-rate", "0.9", "--block-n", "10", "--epsilon", "2^-1", "--out", "out.bits"]}

ROWS = {
    # 1: a battery verdict, the one exit that prints results
    "test: a failed battery": Row(["test", "zeros.bits", "--tests", "monobit"], {"zeros.bits": bits("raw", 2000, (0,))},
                                  1, "pass=0"),
    # 2: insufficient entropy
    "pipeline: zero coherence": Row(["pipeline", *RUN], cfg(FAST_CONFIG.replace("0.95, 0, 0.1", "0, 0, 0.7")),
                                    2, "[certify] no extractable output", CALIBRATED),
    **{
        f"{command}: epsilon {eps}": row
        for eps in ("2^-1030", "1e-310")
        for command, row in [
            ("extract", Row([*EXTRACT, "--epsilon", eps, "--out", "ex.bits"], {"raw.bits": RAW},
                            2, "no extractable output")),
            ("pipeline", Row(["pipeline", *RUN], cfg(FAST_CONFIG.replace("2^-16", eps)),
                             2, "[certify] no extractable output", CALIBRATED)),
        ]
    },
    # 3: insufficient data
    "calibrate: too few events": Row(["calibrate", "tiny.log"], {"tiny.log": TINY}, 3, "below the 100-count floor"),
    "extract: raw shorter than one block": Row([*EXTRACT, "--out", "out.bits"], {"raw.bits": bits("raw", 500)},
                                               3, "500 bits is shorter than one 1000-bit block"),
    "pipeline: output below monobit's 100 bits": Row(
        ["pipeline", *RUN], cfg(FAST_CONFIG.replace("20000\nblock_n = 2000", "200\nblock_n = 200")),
        3, "[certify] monobit needs >= 100 bits, got 56", CALIBRATED,
    ),
    # 4: a missing input, from the stage that opens it, or an unwritable output
    **{
        f"{what}: missing": Row(argv, inputs, 4, "No such file or directory: 'missing'")
        for what, argv, inputs in [
            ("simulate --config", ["simulate", "--config", "missing", "--out", "o"], {}),
            ("calibrate LOGFILE", ["calibrate", "missing", "--report", "state.txt"], {}),
            ("generate GENLOG", ["generate", "missing", "--out", "raw.bits"], {}),
            ("extract RAWFILE", ["extract", "missing", "--h-rate", "0.9", "--out", "out.bits"], {}),
            ("extract --seed-file", [*EXTRACT, "--seed-file", "missing", "--out", "out.bits"], {"raw.bits": RAW}),
            ("test BITSFILE", ["test", "missing", "--report", "tests.txt"], {}),
            ("pipeline --config", ["pipeline", "--config", "missing", "--out", "o"], {}),
            ("pipeline seed_file", ["pipeline", *RUN], cfg(FAST_CONFIG + "seed_file = missing\n")),
        ]
    },
    "extract: onto a directory": Row([*EXTRACT, "--out", "outdir"], {"raw.bits": RAW, "outdir": None},
                                     4, "Is a directory: 'outdir.part' -> 'outdir'"),
    "extract: onto a directory, with a seed file": Row(
        [*EXTRACT, "--seed-file", "seed.bits", "--out", "outdir"], {"raw.bits": RAW, "seed.bits": SEED, "outdir": None},
        4, "Is a directory: 'outdir.part' -> 'outdir'",
    ),
    # the output is committed only with its seed
    "extract: drawn seed path is a directory": Row([*EXTRACT, "--out", "out.bits"],
                                                   {"raw.bits": RAW, "out.seed.bits": None},
                                                   4, "the drawn hash seed's path is a directory"),
    # 5: a malformed command line, never 2, the code of insufficient entropy
    **{
        f"usage: {what}": Row(argv, {"events.log": SHORT}, 5, "Usage:")
        for what, argv in [
            ("bad option value", ["calibrate", "events.log", "--alpha", "abc"]),
            ("missing required option", ["extract", "events.log", "--out", "out.bits"]),
            ("missing argument", ["calibrate"]),
            ("unknown option", ["calibrate", "events.log", "--bogus"]),
            ("unknown subcommand", ["bogus"]),
            ("option before the subcommand", ["--alpha", "0.1", "calibrate", "events.log"]),
            # rejected before the raw file, which is missing, is read
            ("extract --out naming no file", ["extract", "missing.log", "--h-rate", "0.9", "--out", "."]),
            ("extract --out empty", ["extract", "missing.log", "--h-rate", "0.9", "--out", ""]),
        ]
    },
    "usage: bare qrbg": Row([], {}, 5, "Usage:"),
    **{
        f"test: --tests {tests!r}": Row(["test", "bits.bits", "--tests", tests],
                                        {"bits.bits": bits("raw", 2000, (0, 1))}, 5, "no test")
        for tests in (",", " , ", "none", "")
    },
    # 5: a value outside its range
    **{
        f"{command}: epsilon {eps}": row
        for eps in ("2^1024", "2^99999")
        for command, row in [
            ("extract", Row([*EXTRACT, "--epsilon", eps, "--out", "ex.bits"], {"raw.bits": RAW},
                            5, "bad value for epsilon: epsilon inf outside (0, 1)")),
            ("pipeline", Row(["pipeline", *RUN], cfg(FAST_CONFIG.replace("2^-16", eps)),
                             5, "line 8: bad value for epsilon: epsilon inf outside (0, 1)")),
        ]
    },
    **{
        f"extract: --h-rate {h}": Row(["extract", "raw.bits", "--h-rate", h, "--block-n", "1000", "--out", "ex.bits"],
                                      {"raw.bits": RAW}, 5, f"entropy rate {h} outside [0, 1]")
        for h in ("1.5", "nan")
    },
    "extract: block above the exactness limit": Row(
        ["extract", "raw.bits", "--h-rate", "0.9", "--block-n", str(ExtractorParams.MAX_N + 1), "--out", "ex.bits"],
        {"raw.bits": RAW}, 5, "proven exact",
    ),
    "test: --significance 0": Row(["test", "ones.bits", "--tests", "monobit", "--significance", "0"],
                                  {"ones.bits": bits("raw", 2000)}, 5, "bad value for significance"),
    "test: a repeated test name": Row(["test", "bits.bits", "--tests", "monobit,monobit"],
                                      {"bits.bits": bits("raw", 2000, (0, 1))}, 5, "repeated tests ['monobit']"),
    # 5: a configuration no run starts from
    **{
        f"{command}: phase = {phase}": Row([command, *RUN], cfg(FAST_CONFIG + f"phase = {phase}\n"),
                                           5, f"bad value for phase: '{phase}' is not finite")
        for command in ("pipeline", "simulate")
        for phase in ("inf", "nan")
    },
    **{
        f"{command}: {case}": Row([command, *RUN], cfg(text), 5, message)
        for command in ("pipeline", "simulate")
        for case, (text, message) in UNBUILDABLE_SOURCES.items()
    },
    "pipeline: unknown config key": Row(["pipeline", *RUN], cfg(FAST_CONFIG + "bogus = 1\n"), 5, "unknown config key"),
    "pipeline: significance = 0": Row(["pipeline", *RUN], cfg(FAST_CONFIG + "significance = 0\n"),
                                      5, "bad value for significance"),
    "simulate: rng_seed = -1": Row(["simulate", *RUN], cfg(FAST_CONFIG.replace("4242", "-1")), 5, "rng_seed"),
    "simulate: recalibrate_every": Row(["simulate", *RUN], cfg(FAST_CONFIG + "recalibrate_every = 5000\n"),
                                       5, "recalibrate_every is for pipeline runs"),
    "pipeline: generation shorter than one block": Row(
        ["pipeline", *RUN], cfg(FAST_CONFIG.replace("block_n = 2000", "block_n = 30000")),
        5, "cannot fill one block_n=30000-bit block",
    ),
    # 5: a malformed input file
    "calibrate: an outcome of 2": Row(["calibrate", "bad.log"], {"bad.log": TINY.replace(b"0,Z,0", b"0,Z,2")},
                                      5, "event record 0: outcome is not 0 or 1"),
    "calibrate: an outcome of 2, past the first read": Row(
        ["calibrate", "bad.log", "--report", "state.txt"], {"bad.log": LONG.replace(PAST, b"\n20000,Z,2\n")},
        5, "event record 20000: outcome is not 0 or 1",
    ),
    "calibrate: lone carriage returns": Row(["calibrate", "cr.log"],
                                            {"cr.log": b"# source=x\r# seed=0\r# n=2\r0,Z,0\r1,X,1\r"},
                                            5, "line 1: carriage return without a line feed"),
    **{
        f"{command}: {case}": Row([command, "generation.log", *OUT[command]], {"generation.log": log}, 5, message)
        for command in ("generate", "extract")
        for case, log, message in [
            ("n above the record count", z_log(30000, n=30001), "n=30001 but log has 30000"),
            ("n below the record count", z_log(30000, n=29999), "n=29999 but log has 30000"),
            ("no n header", z_log(30000, n=""), "must declare n"),
            ("non-Z past the first read", LONG.replace(PAST, b"\n20000,X,0\n"), "event record 20000: not Z-basis"),
        ]
    },
    "extract: a mixed-basis log": Row(["extract", "events.log", *OUT["extract"]],
                                      {"events.log": SHORT.replace(b"\n1,Z,1\n", b"\n1,X,1\n")},
                                      5, "event record 1: not Z-basis"),
    **{
        f"{command}: header seed {seed!r}": Row([command, "events.log", *OUT[command]],
                                                {"events.log": z_log(20, seed=seed)},
                                                5, f"seed {seed.strip()!r} is not a non-negative decimal")
        for command in ("calibrate", "generate", "extract")
        for seed in ("-3", "+3", " 007")
    },
    **{
        f"{command}: non-ASCII {where}": Row([command, "events.log", *(OUT[command] or ["--report", "state.txt"])],
                                             {"events.log": log}, 5, "events.log: byte 0xc3 is not ASCII")
        for command in ("calibrate", "generate", "extract")
        for where, log in [
            ("record", LONG.replace(PAST, b"\n20000,Z,\xc3\xa9\n")),
            ("header", LONG.replace(b"source=x", b"source=\xc3\xa9")),
        ]
    },
    **{
        f"{command}: non-ASCII config": Row([command, *RUN], {"run.cfg": FAST_CONFIG.encode() + b"# caf\xc3\xa9\n"},
                                            5, "run.cfg: byte 0xc3 is not ASCII")
        for command in ("pipeline", "simulate")
    },
    # the report records paths under it
    "pipeline: non-ASCII out dir": Row(["pipeline", "--config", "run.cfg", "--out", "ûo"], cfg(FAST_CONFIG),
                                       5, "output directory 'ûo' is not ASCII"),
    **{
        f"test: a header with {what}": Row(["test", "bad.bits"], {"bad.bits": MAGIC + head + b"\n\xff"}, 5, message)
        for what, head, message in [
            ("bit_length=abc", b"# bit_length=abc\n", "bad.bits: header needs a bit_length count, got 'abc'"),
            ("bit_length=-5", b"# bit_length=-5\n", "bad.bits: header needs a bit_length count, got '-5'"),
            ("a byte outside ASCII", b"# bit_length=8\n# note=\xe9\n", "bad.bits: header line"),
            # a payload of one byte holds 8 bits only
            ("bit_length=9", b"# bit_length=9\n", "bad.bits: payload of 1 bytes cannot hold 9 bits"),
        ]
    },
    # 5: a hash seed that is not a seed
    "extract: raw file as seed": Row([*EXTRACT, "--seed-file", "seed.bits", "--out", "out.bits"],
                                     {"raw.bits": RAW, "seed.bits": RAW}, 5, "seed.bits has role=raw, expected seed"),
    "extract: a seed file naming no role": Row(
        ["extract", "r.bits", "--seed-file", "x.bits", "--h-rate", "0.9", "--block-n", "40", "--epsilon", "2^-1",
         "--out", "o2.bits"], {"r.bits": RAW, "x.bits": bits(None, 128)}, 5, "x.bits has no role, expected seed",
    ),
    "extract: seed too short": Row([*EXTRACT, "--seed-file", "seed.bits", "--out", "out.bits"],
                                   {"raw.bits": RAW, "seed.bits": bits("seed", 1000)},
                                   5, "seed.bits holds 1000 bits, the extractor needs 1641"),
    "extract: a seed file repeating role": Row(
        [*EXTRACT, "--seed-file", "twice.bits", "--out", "out.bits"],
        {"raw.bits": RAW, "twice.bits": SEED.replace(b"\n\n", b"\n# role=seed\n\n")}, 5, "header repeats key 'role'",
    ),
    # read as no seed file, a seed would be drawn in place of the named one
    "extract: --seed-file ''": Row([*EXTRACT, "--seed-file", "", "--out", "out.bits"], {"raw.bits": RAW},
                                   5, "bad value for seed_file: '' is empty"),
    # 5: two of a command's files are one file: it would write over what it
    # reads, or hash the data with itself
    **{
        f"extract: output is the seed file, {how}": Row(
            [*EXTRACT, "--seed-file", seed_file, "--out", "s.bits"], {"raw.bits": RAW, "s.bits": SEED, **link},
            5, f"seed_file {seed_file} and output s.bits are one file",
        )
        for how, seed_file, link in [("same name", "s.bits", {}), ("symlink", "link.bits", {"link.bits": "s.bits"})]
    },
    "extract: drawn seed path is the raw input": Row(
        ["extract", "r.seed.bits", "--h-rate", "0.9", "--block-n", "1000", "--out", "r.bits"], {"r.seed.bits": RAW},
        5, "raw_input r.seed.bits and drawn_seed r.seed.bits are one file",
    ),
    # a file with no role fails both role checks, but the files are compared first
    "extract: seed file is the raw input": Row(
        ["extract", "x.bits", "--seed-file", "x.bits", "--h-rate", "0.9", "--block-n", "1000", "--out", "o.bits"],
        {"x.bits": NO_ROLE}, 5, "raw_input x.bits and seed_file x.bits are one file",
    ),
    "extract: output is the raw input, a bits file": Row(
        ["extract", "r.bits", "--seed-file", "s.bits", "--h-rate", "0.9", "--block-n", "1000", "--out", "r.bits"],
        {"r.bits": RAW, "s.bits": SEED}, 5, "raw_input r.bits and output r.bits are one file",
    ),
    "extract: output is the raw input, an event log": Row(
        ["extract", "gen.log", "--h-rate", "0.9", "--block-n", "1000", "--out", "gen.log"],
        {"gen.log": z_log(4000)}, 5, "raw_input gen.log and output gen.log are one file",
    ),
    "generate: output is the input": Row(["generate", "gen.log", "--out", "gen.log"], {"gen.log": z_log(4000)},
                                         5, "generation_log gen.log and output gen.log are one file"),
    "calibrate: report is the input": Row(["calibrate", "cal.log", "--report", "cal.log"],
                                          {"cal.log": z_log(3000, bases="ZXY")},
                                          5, "calibration_log cal.log and report cal.log are one file"),
    "test: report is the input": Row(["test", "x.bits", "--tests", "monobit", "--report", "x.bits"],
                                     {"x.bits": bits("raw", 2000, (0, 1))},
                                     5, "bits_file x.bits and report x.bits are one file"),
    **{
        f"pipeline: seed_file is its {name}": Row(
            ["pipeline", *RUN], {f"o/{name}": SEED, **cfg(FAST_CONFIG + more + f"seed_file = o/{name}\n")},
            5, f"[seed] seed_file o/{name} and {label} o/{name} are one file",
        )
        for name, label, more in [("extracted.bits", "extracted_bits", ""), ("raw.bits", "generation_raw", ""),
                                  ("generation.log", "generation_raw", "gen_format = events\n"),
                                  ("calibration.log", "calibration_log", ""), ("report.txt", "report", "")]
    },
    **{
        f"{command}: --config is its {label}": Row(
            [command, "--config", f"o/{name}", "--out", "o"], {f"o/{name}": FAST_CONFIG.encode()},
            5, f"config o/{name} and {label} o/{name} are one file",
        )
        for command, name, label in [("pipeline", "report.txt", "report"), ("pipeline", "extracted.seed.bits", "hash_seed"),
                                     ("simulate", "raw.bits", "generation_raw")]
    },
    "pipeline: raw file as seed": Row(["pipeline", *RUN],
                                      {"seed.bits": RAW, **cfg(FAST_CONFIG + "seed_file = seed.bits\n")},
                                      5, "[seed] seed.bits has role=raw, expected seed"),
    # how many bits the hash needs follows from the certified rate
    "pipeline: seed too short": Row(
        ["pipeline", *RUN], {"seed.bits": bits("seed", 1000), **cfg(FAST_CONFIG + "seed_file = seed.bits\n")},
        5, "[extract] seed.bits holds 1000 bits, the extractor needs", (*CALIBRATED, "o/raw.bits", "seed.bits"),
    ),
    **{
        f"extract: {name} (role={role}) as raw input": Row(
            ["extract", name, "--h-rate", "0.9", "--out", "again.bits"], {name: bits(role, 4000)},
            5, f"{name} has role={role}, expected raw",
        )
        for name, role in [("extracted.bits", "extracted"), ("extracted.seed.bits", "seed")]
    },
    "extract: a raw input naming no role": Row(["extract", "x.bits", "--h-rate", "0.9", "--block-n", "1000",
                                                "--out", "o.bits"], {"x.bits": NO_ROLE},
                                               5, "x.bits has no role, expected raw"),
}


def listing():
    return sorted(path.as_posix() for path in Path().rglob("*"))


def check(row, invoke):
    """Make the row's inputs in the current directory, run its argv through
    ``invoke`` (argv -> exit code, stdout, all output) and check it."""
    for name, data in row.inputs.items():
        path = Path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        if data is None:
            path.mkdir()
        elif isinstance(data, str):
            path.symlink_to(data)
        else:
            path.write_bytes(data)
    inputs = listing()
    code, stdout, output = invoke(row.argv)
    assert code == row.code, output
    assert row.message in output
    assert (stdout == "") == (code != 1), stdout
    assert listing() == (inputs if row.left is None else sorted(row.left))
    for name, data in row.inputs.items():
        if data is None:
            assert Path(name).is_dir(), name
        elif isinstance(data, str):
            assert os.readlink(name) == data, name
        else:
            assert Path(name).read_bytes() == data, name


def in_process(argv):
    r = CliRunner().invoke(main, argv, catch_exceptions=False)
    return r.exit_code, r.stdout, r.output


def in_a_process(argv):
    src = str(Path(qrbg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "qrbg.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stdout + proc.stderr


@pytest.mark.parametrize("case", ROWS)
def test_rejection(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    check(ROWS[case], in_process)


# one row per exit code, and bare qrbg, in a process of their own: the
# interpreter's start, argv and exit status as a shell sees them
@pytest.mark.parametrize("case", [
    "test: a failed battery",
    "extract: epsilon 2^-1030",
    "calibrate: too few events",
    "calibrate LOGFILE: missing",
    "extract: drawn seed path is the raw input",
    "usage: bare qrbg",
])
def test_rejection_in_a_real_process(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    check(ROWS[case], in_a_process)
