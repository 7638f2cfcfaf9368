"""The README's Python examples run, and its command lines parse, against
the package as it is."""

import re
import shlex
from pathlib import Path

from mddtest import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    assert blocks
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {})
    capsys.readouterr()


def test_every_readme_command_line_parses():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    lines = [
        line.split("#")[0]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("mddtest")
    ]
    assert lines
    for line in lines:
        cli._build_parser().parse_args(shlex.split(line)[1:])
