"""The narrative demos run to completion and print their tables.

Demo 03 is the slowest, about 8-11 s on two cores: about 7 s of it is
sampling H at n = 256 (von Mises alone about 4 s), not its KS fits.
Demo 04 also runs with --simulate, its one simulation over five models
(about 1 s), and prints the dB penalties that ``validate gaps`` checks.
"""

import os
import subprocess
import sys

import pytest

from rislab.validate import check_headline_gaps

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


def test_ber_demo_prints_the_checked_headline_gaps():
    # the penalties are those `validate gaps` bisects, not a second
    # interpolation of the demo's 1-dB grid (which read 0.62 dB for
    # kappa = 8 and 4.51 dB for one bit against 0.605 and 4.494)
    res = subprocess.run(
        [sys.executable, os.path.join("demos", "04_ber_curves.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr
    penalties = res.stdout.split("penalty against the ideal curve at BER 1e-3:")[1].split("\n")
    printed = {line.split()[0]: float(line.split()[1]) for line in penalties if line.strip()}
    gaps = check_headline_gaps().details["gaps_db"]
    assert printed.keys() == gaps.keys()
    for name, gap in gaps.items():
        assert printed[name] == pytest.approx(gap, abs=0.005)
