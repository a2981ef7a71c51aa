"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), {})
