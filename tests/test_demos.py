"""The narrative demos run to completion and print their tables.

Demo 03 is the slowest, about 8-11 s on two cores: about 7 s of it is
sampling H at n = 256 (von Mises alone about 4 s), not its KS fits.
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
        "05_reflector_planning.py",
    ],
)
def test_demo_runs(script):
    res = subprocess.run(
        [sys.executable, os.path.join("demos", script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
