"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    assert blocks
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {})
    capsys.readouterr()
