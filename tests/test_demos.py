"""The narrative demos run to completion and print their tables.

Demo 03 is left out: its incomplete-gamma loop takes about 10 s, and the
same path runs in ``validate snr-fit`` through the acceptance suite.
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
