"""Distribution of the instantaneous SNR, small vs large surfaces.

The received SNR n^2 gamma0 |H|^2 follows a gamma law whose shape grows
linearly with the number of reflectors: a 16-element surface still shows
visible fading spread, a 256-element one concentrates hard around its
mean.  This script overlays simulated histograms on the analytic density
for both sizes and quantifies the fit with a KS test.

Run with --plot for the two-panel figure (requires matplotlib).
"""

import sys

import numpy as np

from rislab import LrsScenario, Rayleigh, Rician, VonMises, derive, sample_snr
from rislab.equiv_channel import snr_cdf, snr_pdf
from rislab.stats import ks_test

panels = {}
for n in (16, 256):
    scenario = LrsScenario(n, 1.0, Rician(1.0), Rayleigh(), VonMises(8.0))
    ch = derive(scenario)
    upper = ch.gamma_bar * (1.0 + 12.0 / np.sqrt(ch.m))
    edges = np.linspace(0.0, upper, 61)
    trials = 10**5
    smp = sample_snr(scenario, trials, master_seed=33, bin_edges=edges)
    density = smp.histogram / (trials * (edges[1] - edges[0]))
    centers = 0.5 * (edges[:-1] + edges[1:])
    fit = ks_test(
        smp.values, lambda g: snr_cdf(ch.m, ch.gamma_bar, g), threshold=0.05 if n == 16 else 0.03
    )
    panels[n] = (centers, density, snr_pdf(ch.m, ch.gamma_bar, centers), ch)
    print(
        f"n={n:4d}: shape m={ch.m:8.3f}  mean={ch.gamma_bar:9.2f}"
        f"  KS distance={fit.statistic:.4f} (threshold {fit.threshold})"
        f"  {'ok' if fit.passed else 'off'}"
    )

print("\nthe fit tightens as n grows; the density also narrows relative to its")
print("mean (standard deviation / mean = 1/sqrt(m)):")
for n, (_, _, _, ch) in panels.items():
    print(f"  n={n:4d}: relative spread {1.0/np.sqrt(ch.m):.3f}")

if "--plot" in sys.argv:
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib not installed; pip install rislab[plot]")
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    for ax, (n, (centers, density, pdf, ch)) in zip(axes, panels.items()):
        ax.bar(centers, density, width=centers[1] - centers[0], alpha=0.4, label="simulated")
        ax.plot(centers, pdf, "r-", lw=2, label="gamma density")
        ax.set_title(f"n={n} (m={ch.m:.1f})")
        ax.set_xlabel("instantaneous SNR")
        ax.legend()
    axes[0].set_ylabel("density")
    fig.tight_layout()
    plt.show()
