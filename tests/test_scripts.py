"""The scripts under ``scripts/``, run in a subprocess as from the command line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sectoria

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = str(Path(sectoria.__file__).resolve().parents[1])


def run_sharpness_search(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / "sharpness_search.py"), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize("bad", ["0", "1.57"])
def test_sharpness_search_rejects_an_angle_outside_the_open_range(bad):
    proc = run_sharpness_search("--n", "3", "--trials", "5", "--alphas", "0.5", bad)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"--alphas must lie in (0, 1.560796), got {float(bad)!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sharpness_search_runs_at_a_valid_angle():
    proc = run_sharpness_search("--n", "3", "--trials", "20", "--alphas", "0.5")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header == "n=3 trials=20 proven exponents: det 7, loewner 2"
    assert row.startswith("alpha=0.5000  max needed det exponent")
