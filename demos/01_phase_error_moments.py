"""Circular moments of the supported phase-error models.

The whole equivalent-channel theory consumes a phase-error distribution
through just two numbers, the first and second trigonometric moments.
This script prints them for the built-in models (closed form next to
the numerical-integration cross-check) and shows how a combined
estimation + quantization error simply multiplies the moments.
"""

import numpy as np

from rislab import phase_models as pm

models = {
    "ideal (no error)": pm.NoError(),
    "von Mises, kappa=2": pm.VonMises(2.0),
    "von Mises, kappa=8": pm.VonMises(8.0),
    "quantizer, 1 bit": pm.Quantizer(1),
    "quantizer, 2 bits": pm.Quantizer(2),
    "quantizer, 3 bits": pm.Quantizer(3),
    "uniform (no knowledge)": pm.UniformCircle(),
    "kappa=8 plus 2-bit quantizer": pm.Product((pm.VonMises(8.0), pm.Quantizer(2))),
}

print(f"{'model':32s} {'phi_1':>10s} {'phi_2':>10s} {'phi_1 (quad)':>14s}")
for name, model in models.items():
    phi1 = model.trig_moment(1)
    phi2 = model.trig_moment(2)
    if not isinstance(model, pm.NoError):
        quad = pm.moment_by_integration(model, 1)
        print(f"{name:32s} {phi1:10.6f} {phi2:10.6f} {quad:14.10f}")
    else:
        print(f"{name:32s} {phi1:10.6f} {phi2:10.6f} {'(degenerate)':>14s}")

# sampling agrees with the moments: empirical mean of cos(Theta), the
# real part of the sampled phasors exp(j Theta)
print("\nempirical first moments from 10^5 draws:")
rng = np.random.default_rng(1)
for name in ("von Mises, kappa=8", "quantizer, 1 bit", "kappa=8 plus 2-bit quantizer"):
    model = models[name]
    z = model.sample(rng, 10**5)
    print(f"{name:32s} {z.real.mean():10.6f}  (closed {model.trig_moment(1):.6f})")
