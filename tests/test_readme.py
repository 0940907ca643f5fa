"""Every ```python block of README.md runs as written, and so does every `altbd` line of its
```sh blocks, so its examples keep up with the API and the command line."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from altbd import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
    for line in block.splitlines()
    if line.startswith("altbd ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_cli_lines():
    assert COMMANDS


@pytest.mark.parametrize("args", COMMANDS, ids=[args[0] for args in COMMANDS])
def test_cli_line_exits_0(args):
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, result.output
