import re
from dataclasses import fields
from pathlib import Path

import qrbg
from qrbg.pipeline import PipelineConfig, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_import_block_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library entry points\n.*?```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["run_pipeline"] is qrbg.run_pipeline


def test_readme_config_example_names_every_key_and_parses():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Configuration file\n.*?```\n(.*?)```", text, re.S).group(1)
    # a key line, commented out or not; prose comments hold no '='
    keys = [m.group(1) for m in re.finditer(r"^#?\s*(\w+)\s*=", block, re.M)]
    assert keys == [spec.name for spec in fields(PipelineConfig)]
    parse_config_text(block)
