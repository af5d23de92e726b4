"""rislab: analytics and Monte Carlo simulation of communication links
assisted by a large reflecting surface with random phase errors.

The composite channel through n imperfect reflectors is statistically
equivalent to a point-to-point Nakagami fading link whose parameters
follow from the first two trigonometric moments of the phase-error
distribution and the mean magnitudes of the constituent hops.  This
package derives those parameters, evaluates the resulting BPSK error
probability and its high-SNR gains, plans reflector counts, and checks
everything against a faithful, reproducibly parallel simulation of the
physical system.
"""

from .equiv_channel import EquivChannel, LrsScenario, derive
from .fading import Rayleigh, Rician
from .montecarlo import SimResult, sample_snr, simulate_ber
from .performance import ber_bpsk, ber_high_snr, gains
from .phase_models import NoError, Product, Quantizer, UniformCircle, VonMises

__version__ = "0.1.0"

__all__ = [
    "EquivChannel",
    "LrsScenario",
    "NoError",
    "Product",
    "Quantizer",
    "Rayleigh",
    "Rician",
    "SimResult",
    "UniformCircle",
    "VonMises",
    "__version__",
    "ber_bpsk",
    "ber_high_snr",
    "derive",
    "gains",
    "sample_snr",
    "simulate_ber",
]
