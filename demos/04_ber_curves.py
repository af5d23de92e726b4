"""BPSK error-rate curves under estimation and quantization errors.

For a 32-reflector surface this script sweeps the single-reflector SNR
and evaluates the analytic error probability of the equivalent channel
for several phase-error models, overlaying variance-reduced simulation
points.  It then reports the dB penalty of each model against the
error-free curve at BER 1e-3, as ``validate gaps`` bisects it: even
coarse phase control (2-bit quantization, moderate estimation accuracy)
stays within about one dB of ideal.

Run with --plot for the log-scale figure; --simulate adds Monte Carlo
markers (a few seconds).
"""

import sys

import numpy as np

from rislab import (
    LrsScenario,
    NoError,
    Quantizer,
    Rayleigh,
    Rician,
    VonMises,
    ber_bpsk,
    derive,
    simulate_ber,
)
from rislab.validate import check_headline_gaps

N = 32
sweep_db = np.arange(-24.0, -9.9, 1.0)
models = {
    "ideal": NoError(),
    "von Mises kappa=2": VonMises(2.0),
    "von Mises kappa=8": VonMises(8.0),
    "quantizer 1 bit": Quantizer(1),
    "quantizer 2 bits": Quantizer(2),
}


def scenario(pe, g0):
    return LrsScenario(N, g0, Rician(1.0), Rayleigh(), pe)


curves = {}
for name, pe in models.items():
    channels = [derive(scenario(pe, 10 ** (g / 10))) for g in sweep_db]
    curves[name] = np.array([ber_bpsk(ch.m, ch.gamma_bar) for ch in channels])

sim_points = {}
if "--simulate" in sys.argv:
    # one run for every model: the hop magnitudes are drawn once and shared
    sim_db = sweep_db[::3]
    points = [scenario(pe, 10 ** (g / 10)) for pe in models.values() for g in sim_db]
    res = simulate_ber(points, trials=10**5, master_seed=4)
    for i, name in enumerate(models):
        sim_points[name] = (sim_db, np.array(res.ber[i * len(sim_db) : (i + 1) * len(sim_db)]))

print(f"{'gamma0 (dB)':>12s}  " + "  ".join(f"{k:>18s}" for k in models))
for i, g in enumerate(sweep_db):
    print(f"{g:12.1f}  " + "  ".join(f"{curves[k][i]:18.3e}" for k in models))

print("\npenalty against the ideal curve at BER 1e-3:")
for name, gap in check_headline_gaps().details["gaps_db"].items():
    print(f"  {name:20s} {gap:6.3f} dB")

if "--plot" in sys.argv:
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib not installed; pip install rislab[plot]")
    plt.figure()
    for name in models:
        plt.semilogy(sweep_db, curves[name], label=name)
        if name in sim_points:
            plt.semilogy(*sim_points[name], "k.", ms=8)
    plt.ylim(1e-6, 1)
    plt.xlabel("single-reflector SNR gamma0 (dB)")
    plt.ylabel("BER")
    plt.grid(True, which="both", ls=":")
    plt.legend()
    plt.title(f"BPSK over an n={N} reflecting surface")
    plt.show()
