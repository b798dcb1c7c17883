import ast
import importlib
import inspect
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import qrbg
from qrbg.bits import BitStream, write_bits_file
from qrbg.cli import main
from qrbg.pipeline import PipelineConfig, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def entry_point_block() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Library entry points\n.*?```python\n(.*?)```", text, re.S).group(1)


def test_readme_import_block_runs():
    namespace: dict = {}
    exec(entry_point_block(), namespace)
    assert namespace["run_pipeline"] is qrbg.run_pipeline


def test_readme_config_example_names_every_key_and_parses():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Configuration file\n.*?```\n(.*?)```", text, re.S).group(1)
    # a key line, commented out or not; prose comments hold no '='
    keys = [m.group(1) for m in re.finditer(r"^#?\s*(\w+)\s*=", block, re.M)]
    assert keys == [spec.name for spec in fields(PipelineConfig)]
    parse_config_text(block)


def test_readme_extract_example_is_what_extract_prints(tmp_path, monkeypatch):
    # every line in order; a <placeholder> value stands for any value
    text = README.read_text(encoding="utf-8")
    options, example = re.search(r"for a 20000-bit raw file with `(.*?)`:\n\n```\n(.*?)```", text, re.S).groups()
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(20000)
    write_bits_file("raw.bits", BitStream(rng.integers(0, 2, 20000, dtype=np.uint8)), {"role": "raw"})
    write_bits_file("seed.bits", BitStream(rng.integers(0, 2, 4000, dtype=np.uint8)), {"role": "seed"})
    result = CliRunner().invoke(main, ["extract", "raw.bits", *options.split()])
    assert result.exit_code == 0, result.output
    printed, want = result.output.splitlines(), example.splitlines()
    assert [line.split("=")[0] for line in printed] == [line.split("=")[0] for line in want]
    for got, line in zip(printed, want):
        if not re.search(r"=<.*>$", line):
            assert got == line


def referenced(path: Path) -> set[str]:
    """The names a module imports from another or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def public_members(cls) -> list[str]:
    """The methods and properties a class defines itself, dunders and
    underscore names left out."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (property, staticmethod, classmethod)))
    ]


def test_every_public_name_is_used_documented_or_an_oracle():
    # The reference oracles live in tests/oracles.py, so no public name of
    # the package is exempt.
    # A module-level name must be referenced from another module; a method
    # or property of a public class may be read in its own module too.  A
    # click command is an instance, neither function nor class, so exempt.
    package = Path(qrbg.__file__).parent
    documented = set(re.findall(r"\w+", entry_point_block()))
    everywhere = set().union(*(referenced(p) for p in package.glob("*.py")))
    unused = []
    for info in pkgutil.iter_modules(qrbg.__path__):
        module = importlib.import_module(f"qrbg.{info.name}")
        elsewhere = set().union(*(referenced(p) for p in package.glob("*.py") if p.stem != info.name))
        for name, value in vars(module).items():
            own = (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == module.__name__
            if not own or name.startswith("_"):
                continue
            if name not in elsewhere | documented:
                unused.append(f"{info.name}.{name}")
            if inspect.isclass(value):
                unused += [
                    f"{info.name}.{name}.{member}"
                    for member in public_members(value)
                    if member not in everywhere | documented
                ]
    assert unused == []
