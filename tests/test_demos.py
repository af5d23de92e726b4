"""The narrative demos run to completion and print their tables.

Demo 03 is the slowest, about 8-11 s on two cores: about 7 s of it is
sampling H at n = 256 (von Mises alone about 4 s), not its KS fits.
Demo 04 also runs with --simulate, its one simulation over five models
(about 1 s).
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script",
    [
        "01_phase_error_moments.py",
        "02_equivalent_channel.py",
        "03_snr_distribution.py",
        "04_ber_curves.py",
        "04_ber_curves.py --simulate",
        "05_reflector_planning.py",
    ],
)
def test_demo_runs(script):
    name, *args = script.split()
    res = subprocess.run(
        [sys.executable, os.path.join("demos", name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
