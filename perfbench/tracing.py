"""Span tracing of the qrbg package from outside.

``Tracer.install`` wraps every public module-level function of each qrbg
module, and the callback of each CLI subcommand, then rebinds each wrapper
wherever the package holds the original, including names bound by
``from .x import y`` in ``qrbg.pipeline`` and ``qrbg.cli``.  Spans
(name, start, end, parent) stay in memory until ``dump`` writes them out.
A few wrapped functions also feed counters (blocks hashed, bytes written,
events sampled...), read from their arguments and results.

The cost of tracing is measured, not inferred from two noisy wall times:
``span_cost`` times a wrapped no-op against a bare one, and
``trace.overhead_s`` is that cost per span times the spans of the run, plus
the time the counters took.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

# Functions of qrbg.sources and qrbg.bits that belong to an I/O layer rather
# than to their module's main layer.
_FUNCTION_LAYERS = {
    ("sources", "write_event_log"): "sources.log_write",
    ("sources", "save_event_log"): "sources.log_write",
    ("sources", "read_event_log"): "sources.log_read",
    ("sources", "load_event_log"): "sources.log_read",
    ("bits", "write_bits_file"): "bits.write",
    ("bits", "pack_bits"): "bits.write",
    ("bits", "read_bits_file"): "bits.read",
    ("bits", "unpack_bits"): "bits.read",
}

CLI_COMMANDS = ("simulate", "calibrate", "generate", "extract", "test")


def layer_of(span_name: str) -> str:
    module, _, function = span_name.partition(".")
    if module == "sources":
        return _FUNCTION_LAYERS.get((module, function), "sources.sample")
    return _FUNCTION_LAYERS.get((module, function), module)


def _bits_len(bits) -> int:
    return len(getattr(bits, "bits", bits))


def _count_extract(c, a, result):
    n = a["params"].n
    c["extractor.blocks"] += result.blocks
    c["extractor.hashed_bits"] += result.blocks * n
    c["extractor.tail_bits"] += _bits_len(a["raw"]) - result.blocks * n


def _count_battery(c, a, result):
    c["stat_tests.bits_tested"] += _bits_len(a["bits"])
    c["stat_tests.tests_failed"] += sum(not r.passed for r in result)


def _count_reconstruct(c, a, result):
    c["tomography.segments"] += 1
    rate = float(result[1])
    c["minentropy.certified_rate"] = min(c.get("minentropy.certified_rate", rate), rate)


def _adder(key: str, amount):
    def count(c, a, result):
        c[key] += amount(a)

    return count


# counter hooks: span name -> fn(counters, bound arguments, result)
_COUNTERS = {
    "extractor.extract_stream": _count_extract,
    "stat_tests.run_battery": _count_battery,
    "tomography.reconstruct": _count_reconstruct,
    "sources.sample_events": _adder("sources.sample_events", lambda a: a["n"]),
    "sources.save_event_log": _adder("sources.log_bytes", lambda a: os.path.getsize(a["path"])),
    "sources.load_event_log": _adder("sources.log_bytes", lambda a: os.path.getsize(a["path"])),
    "bits.write_bits_file": _adder("bits.bytes", lambda a: os.path.getsize(a["path"])),
    "bits.read_bits_file": _adder("bits.bytes", lambda a: os.path.getsize(a["path"])),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: defaultdict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self.counter_s = 0.0  # time spent in counter hooks

    def wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if counter:
                t = time.perf_counter()
                counter(self.counters, signature.bind(*args, **kwargs).arguments, result)
                self.counter_s += time.perf_counter() - t
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions and CLI subcommands in place."""
        wrappers = {}
        for info in pkgutil.iter_modules(package.__path__):
            module = sys.modules.get(f"{package.__name__}.{info.name}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self.wrap(value, f"{info.name}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        cli = sys.modules.get(f"{package.__name__}.cli")
        if cli is not None:
            for cmd_name, command in cli.main.commands.items():
                command.callback = self.wrap(command.callback, f"cli.{cmd_name}")

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))

    def summary(self, wall_s: float, span_cost_s: float) -> dict:
        """Self time per layer and the per-layer metrics of one traced run."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        span_count: defaultdict[str, int] = defaultdict(int)
        calls: defaultdict[str, int] = defaultdict(int)
        durations: defaultdict[str, float] = defaultdict(float)
        top_level = 0.0
        for (name, start, end, parent), inner in zip(self.spans, covered):
            layer = layer_of(name)
            self_time[layer] += end - start - inner
            span_count[layer] += 1
            calls[name] += 1
            durations[name] += end - start
            if parent < 0:
                top_level += end - start
        c = self.counters
        extract_s = durations["extractor.extract_stream"]
        metrics = {
            "extractor.extract_s": self_time["extractor"],
            "extractor.raw_bits_per_s": c["extractor.hashed_bits"] / extract_s if extract_s else 0.0,
            "extractor.blocks": c["extractor.blocks"],
            "extractor.tail_bits": c["extractor.tail_bits"],
            "sources.log_write_s": self_time["sources.log_write"],
            "sources.log_read_s": self_time["sources.log_read"],
            "sources.log_bytes": c["sources.log_bytes"],
            "sources.sample_s": self_time["sources.sample"],
            "sources.sample_events": c["sources.sample_events"],
            "bits.write_s": self_time["bits.write"],
            "bits.read_s": self_time["bits.read"],
            "bits.bytes": c["bits.bytes"],
            "stat_tests.battery_s": self_time["stat_tests"],
            "stat_tests.bits_tested": c["stat_tests.bits_tested"],
            "stat_tests.tests_failed": c["stat_tests.tests_failed"],
            "tomography.reconstruct_s": self_time["tomography"],
            "tomography.segments": c["tomography.segments"],
            "minentropy.certified_rate": c.get("minentropy.certified_rate", 0.0),
            "pipeline.self_s": self_time["pipeline"],
            "trace.unaccounted_s": wall_s - top_level,
            "trace.overhead_s": len(self.spans) * span_cost_s + self.counter_s,
        }
        for cmd in CLI_COMMANDS:
            metrics[f"cli.{cmd}_s"] = durations[f"cli.{cmd}"]
        return {
            "metrics": metrics,
            "self_time": dict(self_time),
            "span_count": dict(span_count),
            "calls": dict(calls),
        }


def _noop():
    return None


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one."""
    wrapped = Tracer().wrap(_noop, "trace.noop")
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            _noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter() - t0 - bare) / calls)
    return max(best, 0.0)


def median_metrics(summaries: list[dict]) -> dict[str, float]:
    names = summaries[0]["metrics"]
    return {k: median(s["metrics"][k] for s in summaries) for k in names}
