"""The README's Python examples run, its command lines parse and the names it
lists are exported, against the package as it is."""

import re
import shlex
from pathlib import Path

import mddtest
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


def test_the_public_names_resolve_and_cover_the_readme_entry_points():
    assert all(getattr(mddtest, name) is not None for name in mddtest.__all__)
    paragraph = re.search(r"^Other entry points:.*?\n\n", README.read_text("utf-8"), re.M | re.S)
    assert set(re.findall(r"`([A-Za-z_]\w*)", paragraph.group())) <= set(mddtest.__all__)
