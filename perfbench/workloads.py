"""The benchmark's workloads.

Each workload is one qrbg configuration.  The three use the same layers in
different proportions, so that a change to one layer moves one workload and
leaves another unchanged:

* ``scale_bits``: the ROADMAP reference run (acceptance criterion 10)
  through ``run_pipeline``.  The extractor does most of the work, then the
  calibration-log write and sampling.  It is the one workload whose peak
  RSS grows with the amount generated.
* ``staged_events``: the staged CLI path (simulate, calibrate, generate,
  extract, test) on ASCII event logs.  Writing and reading the logs does
  nearly all of the work and extraction about 1 %, so a faster extractor
  should leave it unchanged and faster event-log I/O should speed it up.
* ``adversarial_recal``: ``run_pipeline`` with an adversarial source and
  eight recalibration segments.  Sampling, the log write with its eve-label
  column, few large extractor blocks and the full battery share the time;
  it is the only workload where the battery, or calibration work that grows
  with the amount generated, matters.

The benchmark seed fixes every input: ``rng_seed`` and the hash-seed file
are derived from it, so no run draws system entropy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

# Functions a traced run must record spans for: the entry point of each
# layer the workload uses.  A layer that none of a workload's entry points
# belongs to must record no span at all.
_COMMON_SPANS = frozenset(
    {
        "sources.sample_events",
        "sources.save_event_log",
        "bits.write_bits_file",
        "bits.read_bits_file",
        "extractor.extract_stream",
        "tomography.reconstruct",
        "stat_tests.run_battery",
    }
)
PIPELINE_SPANS = _COMMON_SPANS | {"pipeline.run_pipeline"}
STAGED_SPANS = _COMMON_SPANS | {
    "pipeline.simulate_logs",
    "pipeline.load_raw_bits",
    "sources.load_event_log",
    "cli.simulate",
    "cli.calibrate",
    "cli.generate",
    "cli.extract",
    "cli.test",
}

ALL_TESTS = (
    "monobit",
    "block_frequency",
    "runs",
    "longest_run_of_ones",
    "cumulative_sums",
    "serial",
    "approximate_entropy",
)

# Certified-rate windows of acceptance criteria 02 and 03.
SINGLE_WINDOW = (0.94, 0.98)
ENTANGLED_WINDOW = (0.36, 0.40)


def closed_form_rate(s1: float, s2: float) -> float:
    """Worst-case min-entropy per raw bit for equatorial coherence |(s1, s2)|."""
    c = math.hypot(s1, s2)
    return -math.log2((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


_ADV_RATE = closed_form_rate(0.9, 0.3)


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "pipeline": run_pipeline; "staged": the CLI subcommands
    config: dict[str, str]
    smoke: dict[str, str]  # overrides for the reduced-size smoke check
    rate_window: tuple[float, float]
    spans: frozenset[str]
    epsilon: str = "2^-64"
    tests: tuple[str, ...] = ALL_TESTS

    def settings(self, smoke: bool) -> dict[str, str]:
        return {**self.config, **self.smoke} if smoke else dict(self.config)

    def config_text(self, seed: int, seed_file: str, smoke: bool) -> str:
        lines = [f"{k} = {v}" for k, v in self.settings(smoke).items()]
        lines += [
            f"epsilon = {self.epsilon}",
            f"tests = {','.join(self.tests)}",
            f"rng_seed = {derived_int(self.name, seed, 'rng_seed')}",
            f"seed_file = {seed_file}",
        ]
        return "\n".join(lines) + "\n"

    def hash_seed_bits(self, smoke: bool) -> int:
        # n + m - 1 < 2n bits always cover the extractor's seed
        return 2 * int(self.settings(smoke)["block_n"])


def derived_int(workload: str, seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"qrbg-bench:{workload}:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def derived_bytes(workload: str, seed: int, purpose: str, size: int) -> bytes:
    return hashlib.shake_256(f"qrbg-bench:{workload}:{seed}:{purpose}".encode()).digest(size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scale_bits",
            entry="pipeline",
            config={
                "mode": "single",
                "state": "0.9996, 0, 0",
                "tomography_events": "3000000",
                "generation_bits": "105000000",
                "block_n": "100000",
            },
            smoke={"tomography_events": "300000", "generation_bits": "1050000"},
            rate_window=SINGLE_WINDOW,
            spans=PIPELINE_SPANS,
            tests=("monobit", "runs"),
        ),
        Workload(
            name="staged_events",
            entry="staged",
            config={
                "mode": "entangled",
                "coherence": "0.88",
                "accidental_fraction": "0.0409",
                "tomography_events": "3000000",
                # not a multiple of block_n: the extractor drops a 5000-bit tail
                "generation_bits": "3005000",
                "gen_format": "events",
                "block_n": "10000",
            },
            smoke={"tomography_events": "300000", "generation_bits": "35000"},
            rate_window=ENTANGLED_WINDOW,
            spans=STAGED_SPANS,
        ),
        Workload(
            name="adversarial_recal",
            entry="pipeline",
            config={
                "mode": "adversarial",
                "adv_target": "0.9, 0.3, 0.1",
                "tomography_events": "3000000",
                "generation_bits": "20000000",
                "recalibrate_every": "2500000",
                "block_n": "1000000",
            },
            smoke={
                "tomography_events": "300000",
                "generation_bits": "2000000",
                "recalibrate_every": "250000",
            },
            rate_window=(_ADV_RATE - 0.02, _ADV_RATE + 0.02),
            spans=PIPELINE_SPANS,
        ),
    )
}
