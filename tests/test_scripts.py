"""Smoke test of the experiment scripts: each runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmdual

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["run_widder.py"],
    ["run_sd_equiv.py", "--markets", "5"],
    ["run_cex2.py", "--n-states", "20"],
    ["run_cex1.py", "--max-trunc", "10000"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cmdual.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
