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
    src = str(Path(fuchsian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout
