"""Command-line front end.

Exit codes: 0 success, 1 a failed statistical test (``qrbg test``),
2 insufficient entropy, 3 insufficient data, 4 a missing or unreadable
input or an unwritable output, 5 a malformed command line, configuration
or input, or a failed internal check.  A package error exits with its
class's ``exit_code``; the command group maps every failure, once.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .bits import _committed, open_bits_file, write_bits_file
from .errors import QrbgError
from .extractor import ExtractorParams
from .pipeline import (
    PipelineConfig,
    _distinct,
    _run_files,
    calibrate as calibrate_log,
    extract as extract_raw,
    load_config,
    load_raw_bits,
    run_pipeline,
    simulate_logs,
)
from .sources import load_event_log
from .stat_tests import battery_report, run_battery


@contextmanager
def _exit_codes():
    """Exit with the code of any failure raised inside."""
    try:
        yield
    except click.UsageError as exc:
        exc.show()
        sys.exit(5)
    except (OSError, QrbgError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4 if isinstance(exc, OSError) else exc.exit_code)


class _Main(click.Group):
    """The command group, mapping every failure to its exit code: the
    group's own arguments are parsed in ``make_context``, a subcommand's
    and its run in ``invoke``."""

    def make_context(self, *args, **kwargs) -> click.Context:
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _exit_codes():
            return super().invoke(ctx)


# the config table's defaults, as --help shows them
_DEFAULTS = dict(PipelineConfig().echo())


def _config(**keys) -> PipelineConfig:
    """Set config keys from command-line options through the config table;
    an option left as None is not given."""
    cfg = PipelineConfig()
    for key, value in keys.items():
        if value is not None:
            cfg.set(key, str(value))
    return cfg


def _run_config(config_path: str, out_dir: str) -> PipelineConfig:
    """The configuration at ``config_path``, rejected if it is one of the
    files a run into ``out_dir`` writes."""
    cfg = load_config(config_path)
    _distinct(config=config_path, **_run_files(cfg, Path(out_dir)))
    return cfg


def _write_block(block: str, report_path: str | None) -> None:
    click.echo(block, nl=False)
    if report_path:
        with _committed(report_path, "w", "ascii") as fh:
            fh.write(block)


@click.group(cls=_Main)
def main() -> None:
    """Simulated quantum random-bit generator with certified extraction."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def simulate(config_path, out_dir) -> None:
    """Write a calibration event log and a generation log/raw-bit file."""
    calib, gen, master = simulate_logs(_run_config(config_path, out_dir), out_dir)
    click.echo(f"master_seed={master}")
    click.echo(f"calibration={calib}")
    click.echo(f"generation={gen}")


@main.command()
@click.argument("logfile", type=click.Path())
@click.option("--alpha", type=float, default=None, show_default=_DEFAULTS["alpha"])
@click.option("--conservative", is_flag=True, help="certify the deflated lower bound")
@click.option("--report", "report_path", type=click.Path(), default=None)
def calibrate(logfile, alpha, conservative, report_path) -> None:
    """Reconstruct the state from a calibration log and certify a rate."""
    _distinct(calibration_log=logfile, report=report_path)
    cfg = _config(alpha=alpha, conservative=conservative)
    _write_block(calibrate_log(load_event_log(logfile), cfg).render(), report_path)


@main.command()
@click.argument("genlog", type=click.Path())
@click.option("--out", "out_path", type=click.Path(), required=True)
def generate(genlog, out_path) -> None:
    """Pack the outcomes of a generation event log into a raw-bit file."""
    _distinct(generation_log=genlog, output=out_path)
    raw = load_raw_bits(genlog)
    write_bits_file(out_path, raw, raw.meta)
    click.echo(f"raw_bits={len(raw)}")
    click.echo(f"path={out_path}")


@main.command()
@click.argument("rawfile", type=click.Path())
@click.option("--h-rate", type=float, required=True, help="certified min-entropy per raw bit, in [0, 1]")
@click.option("--block-n", type=int, default=None, show_default=_DEFAULTS["block_n"])
@click.option("--epsilon", default=None, show_default=_DEFAULTS["epsilon"])
@click.option("--seed-file", type=click.Path(), default=None)
@click.option("--out", "out_path", type=click.Path(), required=True)
def extract(rawfile, h_rate, block_n, epsilon, seed_file, out_path) -> None:
    """Extract near-uniform bits from a raw-bit file or generation log."""
    if not Path(out_path).name:
        raise click.BadParameter(f"{out_path!r} names no file", param_hint="'--out'")
    cfg = _config(block_n=block_n, epsilon=epsilon, seed_file=seed_file)
    params = ExtractorParams(cfg.block_n, cfg.epsilon, h_rate)
    result = extract_raw(rawfile, params, cfg.seed_file, Path(out_path))
    click.echo(result.render(), nl=False)
    click.echo(f"path={out_path}")


@main.command("test")
@click.argument("bitsfile", type=click.Path())
@click.option("--tests", "test_list", default=None, show_default="all")
@click.option("--significance", type=float, default=None, show_default=_DEFAULTS["significance"])
@click.option("--report", "report_path", type=click.Path(), default=None)
def test_cmd(bitsfile, test_list, significance, report_path) -> None:
    """Run the statistical battery on a packed bit file."""
    _distinct(bits_file=bitsfile, report=report_path)
    cfg = _config(tests=test_list, significance=significance)
    if not cfg.tests:
        raise click.BadParameter("selects no test", param_hint="'--tests'")
    results = run_battery(open_bits_file(bitsfile), cfg.tests, cfg.significance)
    _write_block(battery_report(results), report_path)
    if any(not r.passed for r in results):
        sys.exit(1)


@main.command("pipeline")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def pipeline_cmd(config_path, out_dir) -> None:
    """Run simulate, calibrate, certify, generate, extract and test; the
    report is written into OUT, beside the files it lists."""
    click.echo(run_pipeline(_run_config(config_path, out_dir), out_dir).render(), nl=False)


if __name__ == "__main__":
    main()
