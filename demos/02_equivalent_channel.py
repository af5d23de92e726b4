"""From a physical scenario to its equivalent point-to-point channel.

A surface with n reflectors, independent fading on both hops of every
reflector and random phase errors collapses, for large n, into a single
Nakagami-fading link.  This script derives those parameters for a
32-reflector example, then draws the composite coefficient many times
and compares the magnitude histogram with the analytic density.

Run with --plot to display the comparison (requires matplotlib).
"""

import sys

import numpy as np

from rislab import LrsScenario, Rayleigh, Rician, VonMises, derive
from rislab.equiv_channel import nakagami_pdf
from rislab.montecarlo import draw_h_batch

scenario = LrsScenario(
    n=32,
    gamma0=10.0 ** (-16.0 / 10.0),
    fading_sr=Rician(1.0),
    fading_rd=Rayleigh(),
    phase_error=VonMises(8.0),
)
ch = derive(scenario)

print("equivalent channel for n=32, Rician K=1 / Rayleigh, von Mises kappa=8:")
print(f"  mean of Re(H)        mu       = {ch.mu:.6f}")
print(f"  variance of Re(H)    sigma_U2 = {ch.sigma_u2:.3e}")
print(f"  variance of Im(H)    sigma_V2 = {ch.sigma_v2:.3e}")
print(f"  fading shape         m        = {ch.m:.4f}")
print(f"  magnitude spread     omega    = {ch.omega:.6f}")
print(f"  average SNR          gamma_bar= {10*np.log10(ch.gamma_bar):.2f} dB")

rng = np.random.default_rng(2)
mags = np.abs(draw_h_batch(scenario, rng, 10**5))
print(f"\n10^5 draws of |H|: mean {mags.mean():.5f}, second moment {np.mean(mags**2):.5f}")
print(f"analytic second moment (omega): {ch.omega:.5f}")

edges = np.linspace(0.0, mags.max() * 1.05, 60)
hist, _ = np.histogram(mags, bins=edges, density=True)
centers = 0.5 * (edges[:-1] + edges[1:])
pdf = nakagami_pdf(ch.m, ch.omega, centers)
worst = np.max(np.abs(hist - pdf))
print(f"max |histogram - density| over 60 bins: {worst:.3f} (density peak {pdf.max():.3f})")

if "--plot" in sys.argv:
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib not installed; pip install rislab[plot]")
    plt.figure()
    plt.bar(centers, hist, width=edges[1] - edges[0], alpha=0.4, label="simulated |H|")
    plt.plot(centers, pdf, "r-", lw=2, label="Nakagami density")
    plt.xlabel("|H|")
    plt.ylabel("density")
    plt.legend()
    plt.title(f"n={scenario.n}, m={ch.m:.2f}")
    plt.show()
