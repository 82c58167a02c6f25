"""The README's Python examples run as written against the package in src/,
so a change to the documented API cannot leave them behind."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.DOTALL | re.MULTILINE)


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
