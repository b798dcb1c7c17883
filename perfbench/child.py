"""One run of one workload, in a fresh interpreter.

run.py starts this script once per run and reads the JSON result it
writes.  Set-up (interpreter start, ``import qrbg`` and the config parse)
ends at ``ready_at``; ``wall_s`` then spans the calls into qrbg, and the
output checks run after the clock has stopped.

    python3 perfbench/child.py --workload NAME --config RUN.cfg --out DIR \
        --result RESULT.json [--seed N] [--trace] [--setup-only]

Exit code 0 when the run and its checks passed.  A failed check exits 1
after writing the result with its errors; a run that breaks exits
non-zero without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class RunFailed(Exception):
    pass


def _cli(qrbg, *argv) -> tuple[int, str]:
    """One CLI subcommand in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            qrbg.cli.main([str(a) for a in argv], standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _must(qrbg, *argv) -> str:
    code, out = _cli(qrbg, *argv)
    if code != 0:
        raise RunFailed(f"qrbg {argv[0]} exited with {code}")
    return out


def run_staged(qrbg, wl, cfg, cfg_path: Path, out: Path, seed_file: Path) -> dict:
    """simulate -> calibrate -> generate -> extract -> test, as a user types them."""
    _must(qrbg, "simulate", "--config", cfg_path, "--out", out)
    _must(qrbg, "calibrate", out / "calibration.log", "--alpha", cfg.alpha,
          "--report", out / "state.txt")
    state = (out / "state.txt").read_text(encoding="ascii").splitlines()
    rate = float(next(line.split("=", 1)[1] for line in state if line.startswith("minentropy_rate=")))
    _must(qrbg, "generate", out / "generation.log", "--out", out / "raw.bits")
    extract_out = _must(
        qrbg, "extract", out / "raw.bits", "--h-rate", repr(rate),
        "--block-n", cfg.block_n, "--epsilon", wl.epsilon,
        "--seed-file", seed_file, "--out", out / "extracted.bits",
    )
    test_code, _ = _cli(qrbg, "test", out / "extracted.bits", "--tests", ",".join(wl.tests),
                        "--significance", cfg.significance, "--report", out / "tests.txt")
    return {"rate": rate, "extract": extract_out, "test_code": test_code}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import qrbg

    if wl.entry == "staged":
        import qrbg.cli
    if not Path(qrbg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported qrbg from {qrbg.__file__}, not from {SRC}")
    cfg = qrbg.pipeline.load_config(str(args.config))
    ready_at = time.perf_counter()
    result: dict = {"ready_at": ready_at}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    # imported only now, so that set-up covers the interpreter and qrbg alone
    import checks
    from tracing import Tracer, layer_of, span_cost

    seed_file = Path(cfg.seed_file)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(qrbg)

    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if wl.entry == "staged":
        staged = run_staged(qrbg, wl, cfg, args.config, args.out, seed_file)
    else:
        qrbg.pipeline.run_pipeline(cfg, str(args.out))
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if wl.entry == "staged":
        errors, output_bits = checks.check_staged(wl, cfg, args.out, seed_file, args.seed, staged)
    else:
        errors, output_bits = checks.check_pipeline(wl, cfg, args.out, seed_file, args.seed)
    if tracer is not None:
        trace = tracer.summary(wall_s, span_cost())
        tracer.dump(args.result.with_suffix(".spans.json"))
        for name in sorted(wl.spans):
            if not trace["calls"].get(name):
                errors.append(f"missing instrumentation: {name} recorded no span")
        # every layer some workload uses; a workload records no span in the others
        checked = {layer_of(name) for w in WORKLOADS.values() for name in w.spans}
        for layer in sorted(checked - {layer_of(name) for name in wl.spans}):
            if trace["span_count"].get(layer):
                errors.append(f"layer {layer} recorded spans but is not on this workload's path")
        result["trace"] = trace
    result.update(
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        output_bits=output_bits,
        raw_bits=cfg.generation_bits,
        extracted_sha256=checks.sha256_file(args.out / "extracted.bits"),
        errors=errors,
    )
    args.result.write_text(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
