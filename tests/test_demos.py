"""Every narrative script under demos/, and every Python block of the
README, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def test_demos_are_found():
    assert DEMOS
    assert README_BLOCKS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda b: b.splitlines()[0])
def test_readme_python_block_runs(block):
    # each block in a fresh namespace, as a reader would paste it
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
