"""The scripts under ``scripts/``, run in a subprocess as from the command line."""

import os
import re
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


ROW = re.compile(r"alpha=\S+  max needed det exponent +(\S+) \(proven (\d+)\)"
                 r"  max needed loewner exponent +(\S+) \(proven (\d+)\)")


# n = 40 is past linalg._ELIMINATION_BLOCK, so the leading minors split at a
# Schur complement.
@pytest.mark.parametrize("n, trials", [(4, 50), (40, 30)])
def test_sharpness_search_runs_at_the_default_angles(n, trials):
    proc = run_sharpness_search("--n", str(n), "--trials", str(trials))
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == f"n={n} trials={trials} proven exponents: det {3 * n - 2}, loewner 2"
    assert len(rows) == 3
    for row in rows:
        det, det_proven, loewner, loewner_proven = ROW.fullmatch(row).groups()
        assert float(det) <= int(det_proven) and float(loewner) <= int(loewner_proven), row
