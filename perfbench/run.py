"""qrbg benchmark: end-to-end workloads, each run in fresh interpreters.

    python3 perfbench/run.py --workload scale_bits --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn
    python3 perfbench/run.py --smoke                     # reduced sizes, about 10 s

Load model: a closed loop with one client.  A run starts only after the
previous one has finished, as when the tool runs as a batch job.  Runs
repeat while the next one is expected to end within ``--seconds``, with at
least two (one with ``--smoke``); each is a fresh ``child.py`` process, so
peak RSS is that of one run.  The BLAS/OpenMP
thread variables are pinned to at most two threads and ``scipy.fft`` keeps
its single default worker.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
``setup_s`` is the median over fifteen set-up-only processes, started in
batches of five before, between and after the runs, so that they sample
the whole invocation.  With ``--trace 1`` every run is traced: the package's
functions are wrapped from outside (tracing.py) and give the per-layer
metrics.  A per-layer metric reads 0 only when the workload does not use
that layer and the trace confirmed it recorded no span there; a layer the
workload uses that records no span fails the run as missing
instrumentation.

Every run's outputs are checked (checks.py); a run fails if it raises,
exits non-zero, fails a check, or extracts a file whose sha256 differs from
the other runs of the same invocation.  The last line printed is one JSON
object with the keys correct, attempted, failed and metrics.  Results and
spans are kept under .perfbench-work/ in the checkout; a changed sha256
against an earlier result for the same workload and seed is reported as
information only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from checks import write_seed_file
from tracing import median_metrics
from workloads import WORKLOADS, derived_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 15  # set-up-only processes per --trace 0 invocation
SETUP_BATCH = 5  # probes started before each run
TIME_LIMIT_S = 170.0  # one workload's invocation ends within this
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The checkout cannot run the benchmark."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(2, os.cpu_count() or 1))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env: dict[str, str], seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
    }


def spawn(args: list[str], log: Path, env: dict[str, str], timeout: float) -> tuple[int, float]:
    """Run child.py to completion; returns (exit code, perf_counter at spawn)."""
    with open(log, "w") as fh:
        spawned_at = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return -1, spawned_at
    return proc.returncode, spawned_at


def _tail(path: Path, lines: int = 5) -> str:
    return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])


def bench_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Every run of one workload; returns its JSON metrics and report lines."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    wl = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seed_file = work / "seed.bits"
    bits = wl.hash_seed_bits(smoke)
    write_seed_file(seed_file, bits, derived_bytes(name, seed, "hash_seed", (bits + 7) // 8))
    cfg = work / "run.cfg"
    cfg.write_text(wl.config_text(seed, str(seed_file), smoke), encoding="ascii")
    env = child_env()
    base = ["--workload", name, "--config", str(cfg), "--seed", str(seed)]

    setups: list[float] = []

    def probe(count: int) -> None:
        """Start set-up-only processes; each adds one set-up time."""
        for _ in range(count):
            i = len(setups)
            result, log = work / f"setup-{i}.json", work / f"setup-{i}.log"
            code, spawned_at = spawn(
                [*base, "--out", str(work / "out"), "--result", str(result), "--setup-only"],
                log, env, deadline - time.perf_counter(),
            )
            if code != 0:
                raise BenchError(f"set-up probe exited with {code}: {_tail(log)}")
            setups.append(json.loads(result.read_text())["ready_at"] - spawned_at)

    probes = 0 if trace else (1 if smoke else SETUP_PROBES)
    runs: list[dict] = []
    started = time.perf_counter()
    longest = 0.0
    min_runs = 1 if smoke else 2
    while True:
        # set-up probes are spread over the invocation, a batch before each run
        probe(min(SETUP_BATCH, probes - len(setups)))
        remaining = deadline - time.perf_counter()
        if runs and remaining < 1.5 * longest:
            break
        i = len(runs)
        result, log = work / f"run-{i}.json", work / f"run-{i}.log"
        args = [*base, "--out", str(work / "out"), "--result", str(result)]
        t0 = time.perf_counter()
        code, _ = spawn(args + (["--trace"] if trace else []), log, env, remaining)
        longest = max(longest, time.perf_counter() - t0)
        shutil.rmtree(work / "out", ignore_errors=True)
        if result.exists() and code in (0, 1):
            run = json.loads(result.read_text())
        else:
            run = {"errors": [f"run exited with {code}: {_tail(log)}"]}
        runs.append(run)
        # stop before a run that would end after --seconds, once the minimum is done
        if len(runs) >= min_runs and time.perf_counter() - started + longest > seconds:
            break
    probe(probes - len(setups))

    passed = [r for r in runs if not r["errors"]]
    sha = passed[0]["extracted_sha256"] if passed else None
    for r in passed:
        if r["extracted_sha256"] != sha:
            r["errors"].append("extracted.bits sha256 differs from the first passing run")
    passed = [r for r in passed if not r["errors"]]
    lines = [f"== {name} seed={seed} trace={int(trace)}{' smoke' if smoke else ''}: "
             f"{len(runs)} runs, {len(runs) - len(passed)} failed =="]
    env_record = environment(env, seed)
    lines.append("env " + json.dumps(env_record))
    for i, r in enumerate(runs):
        for err in r["errors"]:
            lines.append(f"FAIL run {i}: {err}")

    values: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    if passed and not trace:
        samples = {
            "wall_s": [r["wall_s"] for r in passed],
            "output_bits_per_s": [r["output_bits"] / r["wall_s"] for r in passed],
            "output_yield": [r["output_bits"] / r["raw_bits"] for r in passed],
            "peak_rss_mb": [r["peak_rss_mb"] for r in passed],
            "setup_s": setups,
        }
        values = {k: median(v) for k, v in samples.items()}
    if passed and trace:
        traces = [r["trace"] for r in passed]
        values = median_metrics(traces)
        samples = {k: [t["metrics"][k] for t in traces] for k in values}
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {}
    if values:
        missing = set(units) ^ set(values)
        if missing:
            raise BenchError(f"metrics {sorted(missing)} differ from BENCHMARK.json {kind}")
        for metric, unit in units.items():
            metrics[metric] = {"value": values[metric], "unit": unit}
            vals = ", ".join(f"{v:.6g}" for v in samples[metric])
            lines.append(f"{metric} = {values[metric]:.6g} {unit}  (median of {len(samples[metric])}: {vals})")
    failed = len(runs) - len(passed)
    lines.append(f"failed_fraction = {failed / len(runs):.6g} ({failed} of {len(runs)} runs)")
    if trace and passed:
        lines += _self_time_table(passed)
    if sha:
        lines.append(f"extracted_sha256 = {sha} (same in {len(passed)} passing runs)")
    lines += _record_result(name, seed, smoke, sha, env_record, values)
    return {"attempted": len(runs), "failed": failed, "metrics": metrics, "lines": lines}


def _self_time_table(traced_runs: list[dict]) -> list[str]:
    """Median self time of every layer; with the unaccounted rest they sum to wall_s."""
    wall = median(r["wall_s"] for r in traced_runs)
    layers = sorted({layer for r in traced_runs for layer in r["trace"]["self_time"]})
    lines = [f"traced wall_s = {wall:.4f} s; self time by layer:"]
    total = 0.0
    for layer in layers:
        t = median(r["trace"]["self_time"].get(layer, 0.0) for r in traced_runs)
        total += t
        lines.append(f"  {layer:<18} {t:9.4f} s  {100 * t / wall:5.1f} %")
    lines.append(f"  {'(sum of layers)':<18} {total:9.4f} s  {100 * total / wall:5.1f} %")
    return lines


def _record_result(name: str, seed: int, smoke: bool, sha: str | None, env_record: dict, values: dict) -> list[str]:
    """Keep this result; a changed sha256 for the same seed is information, not a failure."""
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}{'-smoke' if smoke else ''}.json"
    lines = []
    if path.exists():
        before = json.loads(path.read_text()).get("extracted_sha256")
        if sha and before and before != sha:
            lines.append(f"info: extracted sha256 changed since the previous result ({before})")
    path.write_text(json.dumps({"extracted_sha256": sha, "env": env_record, "metrics": values}, indent=1))
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="qrbg end-to-end benchmark")
    p.add_argument("--workload", default="all", help="a workload name, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, one run per trace mode")
    args = p.parse_args(argv)

    try:
        if not (ROOT / "src" / "qrbg" / "__init__.py").is_file():
            raise BenchError(f"no qrbg sources under {ROOT / 'src'}")
        if "CLOCK_MONOTONIC" not in time.get_clock_info("perf_counter").implementation:
            raise BenchError("perf_counter is not the system-wide monotonic clock")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        selected = names if args.workload == "all" else [args.workload]
        if args.smoke:
            plan = [(n, t) for n in selected for t in (False, True)]
            seconds = 0.0
        else:
            plan = [(n, bool(args.trace)) for n in selected]
        outcomes = []
        for name, trace in plan:
            out = bench_workload(spec, name, args.seed, seconds, trace, args.smoke)
            print("\n".join(out["lines"]), flush=True)
            outcomes.append((name, out))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(outcomes) == 1:
        metrics = outcomes[0][1]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, out in outcomes for k, v in out["metrics"].items()}
    attempted = sum(out["attempted"] for _, out in outcomes)
    failed = sum(out["failed"] for _, out in outcomes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if all(out["metrics"] for _, out in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
