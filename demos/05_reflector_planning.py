"""Sizing a surface for a diversity or coding-gain target.

The equivalent channel's diversity order grows linearly with the number
of reflectors and the coding gain roughly linearly too (past the small
sizes), so both targets can be inverted for the minimum element count.
The script sizes surfaces for several targets under different
phase-error assumptions and shows the cost of sloppier phase control.
"""

from rislab import NoError, Quantizer, Rayleigh, Rician, VonMises, gains
from rislab.equiv_channel import LrsScenario
from rislab.performance import reflectors_for_coding_gain, reflectors_for_diversity

a2 = Rician(1.0).magnitude_moment(1) * Rayleigh().magnitude_moment(1)  # a^2 = a_1 a_2
models = {
    "ideal": NoError(),
    "von Mises kappa=8": VonMises(8.0),
    "quantizer 2 bits": Quantizer(2),
    "von Mises kappa=2": VonMises(2.0),
}

for target, planner, what in (
    (20.0, reflectors_for_diversity, "a diversity order of 20"),
    (2000.0, reflectors_for_coding_gain, "a coding gain of 2000 (33 dB)"),
):
    print(f"reflectors needed for {what}:")
    for name, pe in models.items():
        n = planner(target, a2, pe.trig_moment(1), pe.trig_moment(2))
        g = gains(LrsScenario(n, 1.0, Rician(1.0), Rayleigh(), pe))
        print(f"  {name:20s} n={n:4d}  (achieved G_d={g.diversity_gain:.2f}, G_c={g.coding_gain:.1f})")
    print()

print("both planners search every count up to 2^53; a coding gain of 1e12 (120 dB):")
n = reflectors_for_coding_gain(1e12, 0.8 * 0.8, 0.9, 0.7)
print(f"  a^2=0.64, phi_1=0.9, phi_2=0.7: n={n}")
