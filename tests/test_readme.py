"""The README's examples run as written against the package in src/: its
Python blocks, and each `cavitycp ...` line of its shell blocks through
cli.main, so a change to the documented API or CLI cannot leave them
behind."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cavitycp.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
COMMANDS = [shlex.split(line)[1:]
            for block in re.findall(r"^```sh\n(.*?)^```", README,
                                    re.DOTALL | re.MULTILINE)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("cavitycp ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_example_runs(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                          code], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[
    f"cli{i}-{argv[0]}" for i, argv in enumerate(COMMANDS)])
def test_readme_cli_example_runs(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out  # a table, which -rP need not repeat
