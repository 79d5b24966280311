import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuchsian

SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["octagon_demo.py", "--genus", "2"], "maximal (|tau| = 2g-2 = 2): True"),
        (["toledo_sweep.py", "--genus", "2", "--count", "5"], "0 violations"),
    ],
    ids=["octagon_demo", "toledo_sweep"],
)
def test_script_runs(argv, line):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["octagon_demo.py", "--genus", "1"], "--genus 1 is outside 2..150"),
        (["octagon_demo.py", "--genus", "151"], "--genus 151 is outside 2..150"),
        (["toledo_sweep.py", "--genus", "0"], "--genus 0 is outside 1..150"),
        (["toledo_sweep.py", "--count", "-3"], "--count -3 is negative"),
        (["toledo_sweep.py", "--seed-start", "-1"], "--seed-start -1 is negative"),
    ],
)
def test_script_refuses_bad_argument(argv, message):
    # argparse's usage, then one error line, exit 2 and no traceback
    proc = _run(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.splitlines()[-1] == f"{argv[0]}: error: {message}"
    assert "Traceback" not in proc.stderr


def _run(argv):
    src = str(Path(fuchsian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
