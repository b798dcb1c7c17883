import ast
import importlib
import inspect
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import qrbg
from qrbg.pipeline import PipelineConfig, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"

# Public names kept as reference oracles and test seams, which nothing in
# the package calls.
ORACLES = {"toeplitz_extract", "universality_check", "minentropy_decomposition", "mix"}


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
            if name not in elsewhere | documented | ORACLES:
                unused.append(f"{info.name}.{name}")
            if inspect.isclass(value):
                unused += [
                    f"{info.name}.{name}.{member}"
                    for member in public_members(value)
                    if member not in everywhere | documented | ORACLES
                ]
    assert unused == []
