import re
from pathlib import Path

import qrbg

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_import_block_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library entry points\n.*?```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["run_pipeline"] is qrbg.run_pipeline
