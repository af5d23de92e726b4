"""Equivalent scalar-channel analytics for a large reflecting surface.

For a surface of n reflectors, the normalized composite coefficient

    H = (1/n) sum_i |H_i1| |H_i2| exp(j Theta_i)

converges (central limit theorem) to a complex normal whose real and
imaginary parts are independent Gaussians:

    E[Re H]   = mu       = phi_1 a^2
    Var[Re H] = sigma_U2 = (1 + phi_2 - 2 phi_1^2 a^4) / (2n)
    Var[Im H] = sigma_V2 = (1 - phi_2) / (2n)

with a^2 = a_1 a_2 the product of the two hop mean magnitudes and phi_p
the trigonometric moments of the phase error.  When phi_1 > 0, |H| is
Nakagami with shape m = mu^2 / (4 sigma_U2) and spread mu^2, so the
instantaneous SNR n^2 gamma0 |H|^2 is gamma distributed with shape m and
mean gamma_bar = n^2 gamma0 phi_1^2 a^4.  The cumulant generating
function of |H|^2 and its single-gamma approximation are exposed so the
quality of that reduction can be measured directly.

At finite n the law of H is not Gaussian, but its cumulants are exact:
H is the mean of n i.i.d. reflector terms, so kappa_pq(Re H, Im H) =
n^(1-p-q) kappa_pq(R cos Theta, R sin Theta).  ``control_moments``
turns them into the exact means of the simulator's control variates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics
from .fading import FadingModel
from .phase_models import PhaseErrorModel

# counts above 2^53 are not distinct doubles
MAX_REFLECTORS = 2**53

__all__ = [
    "EquivChannel",
    "LrsScenario",
    "MAX_REFLECTORS",
    "cgf_exact",
    "cgf_gamma_approx",
    "channel_from_moments",
    "control_moments",
    "derive",
    "nakagami_pdf",
    "snr_cdf",
    "snr_pdf",
]


@dataclass(frozen=True)
class LrsScenario:
    """Full description of one link through the surface.

    ``gamma0`` is the average SNR that a single reflector alone would
    deliver, in linear scale; dB conversions belong to the CLI boundary.
    ``n`` stops at ``MAX_REFLECTORS``.
    """

    n: int
    gamma0: float
    fading_sr: FadingModel
    fading_rd: FadingModel
    phase_error: PhaseErrorModel

    def __post_init__(self):
        object.__setattr__(self, "n", numerics.check_count(self.n, "n", 1, MAX_REFLECTORS))
        object.__setattr__(self, "gamma0", numerics.check_real(self.gamma0, "gamma0", strict=True))

    @property
    def a_squared(self) -> float:
        """a^2 = a_1 a_2, the product of the hop mean magnitudes."""
        return self.fading_sr.magnitude_moment(1) * self.fading_rd.magnitude_moment(1)


@dataclass(frozen=True)
class EquivChannel:
    """Derived parameters of the equivalent point-to-point channel.

    ``rayleigh_equivalent`` marks the phi_1 = 0 regime (no usable phase
    alignment), where H is a mean-zero circular Gaussian: the magnitude
    is then Rayleigh, reported as the m = 1 case with omega = E[|H|^2]
    = 1/n and gamma_bar = n gamma0 instead of the mu^2-based spread.
    """

    mu: float
    sigma_u2: float
    sigma_v2: float
    m: float
    omega: float
    gamma_bar: float
    n: int
    gamma0: float
    rayleigh_equivalent: bool = False

    def to_dict(self) -> dict:
        return {**asdict(self), "gamma_bar_db": 10.0 * math.log10(self.gamma_bar)}


def channel_from_moments(n: int, gamma0: float, a_squared: float, phi1: float, phi2: float) -> EquivChannel:
    """The equivalent channel of n reflectors from the scalars it depends
    on: the single-reflector SNR gamma0, a^2 = a_1 a_2 in (0, 1] and the
    moments phi_1 in [0, 1] (a symmetric zero-mean error), phi_2 in [-1, 1]."""
    n = numerics.check_count(n, "n", 1, MAX_REFLECTORS)
    gamma0 = numerics.check_real(gamma0, "gamma0", strict=True)
    a_squared = numerics.check_real(a_squared, "a^2", strict=True)
    phi1 = numerics.check_real(phi1, "phi_1")
    phi2 = numerics.check_real(phi2, "phi_2", -1.0)
    if max(a_squared, phi1, phi2) > 1.0:
        raise numerics.DomainError(f"a^2, phi_1 and phi_2 must be <= 1, got {a_squared!r}, {phi1!r}, {phi2!r}")
    a4 = a_squared * a_squared
    sigma_u2 = (1.0 + phi2 - 2.0 * phi1 * phi1 * a4) / (2.0 * n)
    sigma_v2 = (1.0 - phi2) / (2.0 * n)

    if phi1 == 0.0:
        # no alignment at all: mean-zero circular Gaussian, Rayleigh magnitude
        return EquivChannel(
            mu=0.0,
            sigma_u2=sigma_u2,
            sigma_v2=sigma_v2,
            m=1.0,
            omega=1.0 / n,
            gamma_bar=n * gamma0,
            n=n,
            gamma0=gamma0,
            rayleigh_equivalent=True,
        )

    mu = phi1 * a_squared
    if not sigma_u2 > 0.0:
        raise numerics.DomainError("sigma_U^2 must be positive")
    m = mu * mu / (4.0 * sigma_u2)
    return EquivChannel(
        mu=mu,
        sigma_u2=sigma_u2,
        sigma_v2=sigma_v2,
        m=m,
        omega=mu * mu,
        gamma_bar=n * n * gamma0 * phi1 * phi1 * a4,
        n=n,
        gamma0=gamma0,
    )


def derive(scenario: LrsScenario) -> EquivChannel:
    """Map a scenario to its equivalent-channel parameters."""
    phi = scenario.phase_error.trig_moment
    return channel_from_moments(scenario.n, scenario.gamma0, scenario.a_squared, phi(1), phi(2))


# the powers (p, q) of the monomials u^p v^q of the standardized parts of
# H that serve the simulator as control variates, in the order of its
# nested fits on the first 3, 5 or all 8 of them
CONTROL_POWERS = ((1, 0), (2, 0), (0, 2), (3, 0), (1, 2), (4, 0), (2, 2), (0, 4))
# E[cos^p Theta sin^q Theta] of a symmetric Theta by the powers above, as
# weights of phi_0 .. phi_4 (products of cosines and sines expanded)
_TRIG = np.array(
    [
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0, 0.0],
        [0.5, 0.0, -0.5, 0.0, 0.0],
        [0.0, 0.75, 0.0, 0.25, 0.0],
        [0.0, 0.25, 0.0, -0.25, 0.0],
        [0.375, 0.0, 0.5, 0.0, 0.125],
        [0.125, 0.0, 0.0, 0.0, -0.125],
        [0.375, 0.0, -0.5, 0.0, 0.125],
    ]
)
# E[u^p v^q] of a Gaussian (u, v) of independent standard parts
_GAUSSIAN_MEANS = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 3.0, 1.0, 3.0])
# relative error of the inputs (a few ulps each) and of the arithmetic
# that combines them, per unit of the sum of the magnitudes of all terms
_ROUNDING = 1e-14
# a control mean whose rounding bound exceeds this is reported as nan: an
# error delta in the mean of a standardized control shifts the estimate
# by about beta delta, beta of the order of the standard deviation of p,
# which stays under a tenth of the standard error while trials times the
# variance ratio stay below 10^10
CONTROL_MEAN_TOL = 1e-6


def _reflector_cumulants(raw: dict, m: float, s: float) -> np.ndarray:
    """By ``CONTROL_POWERS``: m, then kappa_pq of A = R cos Theta - m and
    B = R sin Theta, from the raw moments ``raw[p, q]`` of (R cos Theta,
    R sin Theta).  s = -1 gives their values; s = +1, with magnitudes in
    place of the inputs, the sum of the magnitudes of all terms."""
    a2 = raw[2, 0] + s * m * m
    b2 = raw[0, 2]
    return np.array(
        [
            m,
            a2,
            b2,
            raw[3, 0] + s * 3.0 * m * raw[2, 0] + 2.0 * m**3,
            raw[1, 2] + s * m * b2,
            raw[4, 0] + s * 4.0 * m * raw[3, 0] + 6.0 * m * m * raw[2, 0] + s * 3.0 * m**4 + s * 3.0 * a2 * a2,
            raw[2, 2] + s * 2.0 * m * raw[1, 2] + m * m * b2 + s * a2 * b2,
            raw[0, 4] + s * 3.0 * b2 * b2,
        ]
    )


def _control_means(scenario: LrsScenario) -> tuple[EquivChannel, np.ndarray, np.ndarray]:
    """``derive(scenario)``, the exact means of the monomials of
    ``CONTROL_POWERS`` and a bound on the rounding of each."""
    ch = derive(scenario)
    phi = np.array([scenario.phase_error.trig_moment(p) for p in range(5)])
    hops = [scenario.fading_sr.magnitude_moment(k) * scenario.fading_rd.magnitude_moment(k) for k in range(5)]
    raw, size = {}, {}
    for pq, t, t_abs in zip(CONTROL_POWERS, _TRIG @ phi, np.abs(_TRIG) @ np.abs(phi)):
        raw[pq], size[pq] = hops[sum(pq)] * t, hops[sum(pq)] * t_abs
    m = hops[1] * phi[1]
    kappa = _reflector_cumulants(raw, m, -1.0)
    magnitude = _reflector_cumulants(size, abs(m), 1.0)

    p, q = np.array(CONTROL_POWERS, dtype=float).T
    sigma_u, sigma_v = math.sqrt(ch.sigma_u2), math.sqrt(ch.sigma_v2)
    means, bound = np.zeros(len(p)), np.zeros(len(p))
    live = (q == 0) | (sigma_v > 0.0)  # v = 0 where sigma_V = 0
    p, q, kappa, magnitude = p[live], q[live], kappa[live], magnitude[live]
    scale = scenario.n ** (1.0 - p - q) / (sigma_u**p * sigma_v**q)
    excess = np.where(p + q > 2, kappa, 0.0)
    means[live] = _GAUSSIAN_MEANS[live] + excess * scale
    # the scales' relative errors enter with the powers of the parts
    rel = p * magnitude[1] / (2.0 * kappa[1])
    if sigma_v > 0.0:
        rel += q * magnitude[2] / (2.0 * kappa[2])
    bound[live] = _ROUNDING * scale * (magnitude + np.abs(excess) * rel)
    return ch, means, bound


def control_moments(scenario: LrsScenario) -> tuple[float, float, float, np.ndarray]:
    """``(mu, sigma_U, sigma_V, means)``: the centre and scales of the
    standardized parts u = (Re H - mu) / sigma_U and v = Im H / sigma_V
    (from ``derive``; v = 0 where sigma_V = 0), and the exact finite-n
    means of the monomials u^p v^q of ``CONTROL_POWERS``.

    Per reflector, A = R cos Theta - mu and B = R sin Theta have raw
    moments E R^(p+q) E[cos^p Theta sin^q Theta], from the hop moments
    E|H_1|^k E|H_2|^k and phi_1 .. phi_4; their cumulants scale to those
    of H as n^(1-p-q) kappa_pq.  E[u^3] = kappa_30 / (n^2 sigma_U^3), E[u^4]
    = 3 + kappa_40 / (n^3 sigma_U^4) and so on; kappa_11 = 0 by symmetry.

    Where the moments cancel (near-deterministic hops without phase
    errors, or nearly exact phases, whose 1 - phi_p are a few ulps of
    phi_p), a mean can lose its digits.  Each mean's rounding is bounded
    by ``_ROUNDING`` times the sum of the magnitudes of the terms that
    form it, scaled like the mean; a mean whose bound exceeds
    ``CONTROL_MEAN_TOL`` is returned as nan, and the simulator leaves
    that control out.
    """
    ch, means, bound = _control_means(scenario)
    means[bound > CONTROL_MEAN_TOL] = math.nan
    return ch.mu, math.sqrt(ch.sigma_u2), math.sqrt(ch.sigma_v2), means


# ---------------------------------------------------------------------------
# densities of the magnitude and of the instantaneous SNR
# ---------------------------------------------------------------------------


def _shape_mean_points(m: float, mean: float, mean_name: str, points, point_name: str):
    """Checked shape m > 0, mean > 0 and points >= 0 of a gamma or
    Nakagami law, the points as a float array."""
    m = numerics.check_real(m, "m", strict=True)
    mean = numerics.check_real(mean, mean_name, strict=True)
    arr = np.asarray(points, dtype=float)
    if not np.all(arr >= 0.0):
        raise numerics.DomainError(f"{point_name} must be >= 0")
    return m, mean, arr


def _log_mode_factor(m: float) -> float:
    """ln(m^m e^-m / Gamma(m)) = (1/2) ln(m / 2 pi) - R(m), R the remainder of
    Stirling's formula, from its series from m = 10 on so that terms of
    size m ln m never meet."""
    if m < 10.0:
        return m * math.log(m) - m - numerics.ln_gamma(m)
    return 0.5 * math.log(m / (2.0 * math.pi)) - numerics.stirling_remainder(m)


def _gamma_kernel(m: float, mean: float, x: np.ndarray, square: bool):
    """(m t)^m exp(-m t) / (Gamma(m) x), t = g / mean, g = x^2 if ``square``
    else x, elementwise and without warnings: the gamma density of g, or
    half the Nakagami density of x.  Its log, -m (t - 1 - ln t) - ln x +
    ln(m^m e^-m / Gamma(m)), forms no term of size m.  Where |t - 1| < 1/4
    the series u (d - 2 sum_{j>=1} u^(2j) / (2j + 1)), d = t - 1 (exact
    through Veltkamp's split of x), u = d / (2 + d), gives t - 1 - ln t
    to 2^-53 in ten terms; elsewhere ln t comes from x / sqrt(mean) or
    x / mean, as g underflows below x ~ 1e-162.  At x = 0 the result is
    the limit of x^power, power = 2m - 1 or m - 1, and at x = inf it is 0.
    """
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        if square:
            g = x * x
            c = 134217729.0 * x  # 2^27 + 1: x = hi + lo, each with an exact square
            hi = c - (c - x)
            lo = x - hi
            d = ((g - mean) + (((hi * hi - g) + 2.0 * hi * lo) + lo * lo)) / mean
            ln_t = 2.0 * np.log(x / math.sqrt(mean))
        else:
            g = x
            d = (x - mean) / mean
            ln_t = np.log(x / mean)
        u = d / (2.0 + d)
        s = np.zeros_like(u)
        for j in range(10, 0, -1):
            s = (s + 1.0 / (2 * j + 1)) * (u * u)
        spread = np.where(np.abs(d) < 0.25, u * (d - 2.0 * s), (g / mean - 1.0) - ln_t)
        power = (2.0 * m if square else m) - 1.0
        at_zero = m * (1.0 - math.log(mean)) if power == 0.0 else math.copysign(math.inf, -power)
        log_pdf = np.where(x > 0.0, -m * spread - np.log(x), at_zero) + _log_mode_factor(m)
        out = np.where(x < math.inf, np.exp(log_pdf), 0.0)
    return float(out) if out.ndim == 0 else out


def nakagami_pdf(m: float, omega: float, x):
    """Density of |H|: 2 m^m x^(2m-1) exp(-m x^2 / omega) / (Gamma(m) omega^m),
    the law of the root of a gamma variable with shape m and mean omega.
    At x = 0 it is inf for m < 1/2, sqrt(2 / (pi omega)) at m = 1/2 and 0
    above."""
    m, omega, arr = _shape_mean_points(m, omega, "omega", x, "magnitude")
    return 2.0 * _gamma_kernel(m, omega, arr, square=True)


def snr_pdf(m: float, gamma_bar: float, gamma):
    """Gamma density with shape m and mean gamma_bar: the law of the
    instantaneous SNR.  At gamma = 0 it is inf for m < 1, 1/gamma_bar at
    m = 1 and 0 above."""
    m, gamma_bar, arr = _shape_mean_points(m, gamma_bar, "gamma_bar", gamma, "snr")
    return _gamma_kernel(m, gamma_bar, arr, square=False)


def snr_cdf(m: float, gamma_bar: float, gamma):
    """Distribution function of the gamma law with shape m and mean gamma_bar."""
    m, gamma_bar, arr = _shape_mean_points(m, gamma_bar, "gamma_bar", gamma, "snr")
    return numerics.regularized_gamma_p(m, arr * (m / gamma_bar))


# ---------------------------------------------------------------------------
# cumulant generating function of |H|^2 and its gamma reduction
# ---------------------------------------------------------------------------


def _require_aligned(ch: EquivChannel, op: str) -> None:
    if ch.rayleigh_equivalent:
        raise numerics.DomainError(f"{op} needs a channel with phi_1 > 0")


def cgf_exact(ch: EquivChannel, t: float) -> float:
    """Exact CGF of |H|^2 under the Gaussian model of (Re H, Im H):

        mu^2 t / (1 - 2 sigma_U2 t)
        - (1/2) ln(1 - 2 sigma_U2 t) - (1/2) ln(1 - 2 sigma_V2 t)

    Domain: t < 1/(4 sigma_U2) and t < 1/(2 sigma_V2), matching the
    stricter requirement of the gamma reduction so both are comparable.
    """
    _require_aligned(ch, "cgf_exact")
    t = numerics.check_real(t, "t", -math.inf)
    if 4.0 * ch.sigma_u2 * t >= 1.0 or 2.0 * ch.sigma_v2 * t >= 1.0:
        raise numerics.DomainError(f"t = {t!r} outside the CGF domain")
    return (
        ch.mu * ch.mu * t / (1.0 - 2.0 * ch.sigma_u2 * t)
        - 0.5 * math.log1p(-2.0 * ch.sigma_u2 * t)
        - 0.5 * math.log1p(-2.0 * ch.sigma_v2 * t)
    )


def cgf_gamma_approx(ch: EquivChannel, t: float) -> float:
    """Single-gamma approximation of the CGF:

        -(mu^2 / (4 sigma_U2)) ln(1 - 4 sigma_U2 t)

    i.e. a gamma law with shape m and scale 4 sigma_U2.  The dropped
    terms shrink like 1/n at fixed t, which the tests verify by doubling
    n at matched t.
    """
    _require_aligned(ch, "cgf_gamma_approx")
    t = numerics.check_real(t, "t", -math.inf)
    if 4.0 * ch.sigma_u2 * t >= 1.0:
        raise numerics.DomainError(f"t = {t!r} outside the CGF domain")
    return -ch.m * math.log1p(-4.0 * ch.sigma_u2 * t)
