"""Error-probability analytics for BPSK over the equivalent channel.

The exact average error probability under the gamma SNR law uses the
single-integral moment-generating-function form

    P_e = (1/pi) int_0^{pi/2} (1 + gamma_bar / (m sin^2 theta))^(-m) dtheta

which is valid for any real m > 0.  At high average SNR it collapses to
the power law

    P_e ~ m^(m-1) Gamma(m + 1/2) / (2 sqrt(pi) Gamma(m)) * gamma_bar^(-m)

from which the diversity gain G_d = m and the coding gain G_c (relative
to the single-reflector SNR) follow.  The planners invert those
relations for the smallest reflector count meeting a gain target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .equiv_channel import MAX_REFLECTORS, LrsScenario, channel_from_moments, derive

__all__ = [
    "GainDecomposition",
    "ber_bpsk",
    "ber_high_snr",
    "gains",
    "reflectors_for_coding_gain",
    "reflectors_for_diversity",
]

# relative slack of a diversity target: sixteen units of roundoff
_DIVERSITY_SLACK = 16.0 * 2.0**-53


@dataclass(frozen=True)
class GainDecomposition:
    """High-SNR asymptote split as P_e = (G_c * gamma0) ** (-G_d)."""

    diversity_gain: float
    coding_gain: float


def ber_bpsk(m: float, gamma_bar: float) -> float:
    """Exact average BPSK error probability over a Nakagami-``m`` link with
    average SNR ``gamma_bar`` (the ``m`` and ``gamma_bar`` of an
    :class:`EquivChannel`)."""
    m = numerics.check_real(m, "m", strict=True)
    gamma_bar = numerics.check_real(gamma_bar, "gamma_bar")
    if gamma_bar == 0.0:
        return 0.5

    def integrand(theta):
        s = np.sin(theta)
        with np.errstate(divide="ignore", under="ignore"):
            return np.exp(-m * np.log1p(gamma_bar / (m * s * s)))

    return numerics.integrate(integrand, 0.0, 0.5 * math.pi) / math.pi


_LOG_TWO_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))


def _log_scaled_bracket(m: float) -> float:
    """K(m) = ln(Gamma(m + 1/2) / (2 sqrt(pi) m Gamma(m))), the log of the
    asymptote's bracket less m ln m; from m = 10 on through the Stirling
    remainder R, so that no terms of size m ln m meet."""
    if m < 10.0:
        return numerics.ln_gamma(m + 0.5) - numerics.ln_gamma(m) - math.log(m) - _LOG_TWO_SQRT_PI
    dr = numerics.stirling_remainder(m + 0.5) - numerics.stirling_remainder(m)
    return -0.5 * math.log(m) + (m * math.log1p(0.5 / m) - 0.5) + dr - _LOG_TWO_SQRT_PI


def ber_high_snr(m: float, gamma_bar: float) -> float:
    """High-SNR power-law asymptote of :func:`ber_bpsk`.

    It is an upper bound on the exact BER, with relative error
    ``≈ m^2 (2m+1) / ((2m+2) gamma_bar)``: the first-order term of
    ``(1 + gamma_bar/(m sin^2 theta))^(-m)`` averaged over the integrand.
    Its log is K(m) - m ln(gamma_bar / m), through a log1p of the exact
    gamma_bar - m near m, so its error stays near roundoff at any m.
    """
    m = numerics.check_real(m, "m", strict=True)
    gamma_bar = numerics.check_real(gamma_bar, "gamma_bar", strict=True)
    near = 0.5 * m <= gamma_bar <= 2.0 * m  # then gamma_bar - m is exact
    log_ratio = math.log1p((gamma_bar - m) / m) if near else math.log(gamma_bar) - math.log(m)
    try:
        return math.exp(_log_scaled_bracket(m) - m * log_ratio)
    except OverflowError:  # an upper bound past the double range
        return math.inf


def _coding_gain(m: float, gamma_bar: float) -> float:
    """G_c = (gamma_bar / m) exp(-K(m)/m) of a channel at gamma0 = 1, K
    the scaled log bracket."""
    try:
        gc = gamma_bar / m * math.exp(-_log_scaled_bracket(m) / m)
    except OverflowError:  # -K(m)/m ~ ln 2 / m passes 709.78 once m < ~1e-3
        gc = math.inf
    if gc == math.inf:
        raise numerics.RangeError(f"coding gain at m={m!r} exceeds the double range")
    return gc


def gains(scenario: LrsScenario) -> GainDecomposition:
    """Diversity and coding gains relative to the single-reflector SNR."""
    ch = derive(replace(scenario, gamma0=1.0))
    if ch.rayleigh_equivalent:
        raise numerics.DomainError(
            "gains are undefined when the first trigonometric moment is zero"
        )
    return GainDecomposition(diversity_gain=ch.m, coding_gain=_coding_gain(ch.m, ch.gamma_bar))


# ---------------------------------------------------------------------------
# reflector-count planners
# ---------------------------------------------------------------------------


def _smallest_n(meets) -> int | None:
    """Smallest n <= ``MAX_REFLECTORS`` with ``meets(n)``, or None.

    The counts that meet the target must form a tail: once ``meets(n)``
    holds it holds for every larger n.  ``hi`` doubles from 1 until it
    meets or reaches ``MAX_REFLECTORS``, then the last step (lo, hi] is
    bisected: at most 106 evaluations.
    """
    lo, hi = 0, 1
    while not meets(hi):
        if hi == MAX_REFLECTORS:
            return None
        lo, hi = hi, min(2 * hi, MAX_REFLECTORS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def reflectors_for_diversity(target_gd: float, a_squared: float, phi1: float, phi2: float) -> int:
    """Smallest n <= 2^53 whose shape parameter reaches ``target_gd``.

    The shape parameter is n times the per-reflector shape, so it grows
    with n in floating point too.  The target is relaxed by sixteen units
    of roundoff, 16 * 2^-53, so that a target taken from an exact integer-n
    value is met despite the few ulps by which the computed m misses it
    (7 ulps below the exact m of the ideal 32-reflector example), while
    huge targets stop within a few reflectors: on the README channel a
    target of 1e15 stops four short of m >= 1e15, where a slack of 1e-12
    would stop 2258 short.  A target that no count up to 2^53 meets
    raises :class:`numerics.RangeError`.
    """
    target_gd = numerics.check_real(target_gd, "target diversity gain", strict=True)
    phi1 = numerics.check_real(phi1, "planner phi_1", strict=True)
    floor = target_gd * (1.0 - _DIVERSITY_SLACK)
    n = _smallest_n(lambda n: channel_from_moments(n, 1.0, a_squared, phi1, phi2).m >= floor)
    if n is None:
        raise numerics.RangeError(f"target diversity gain {target_gd!r} needs over 2^53 reflectors")
    return n


def reflectors_for_coding_gain(target_gc: float, a_squared: float, phi1: float, phi2: float) -> int:
    """Smallest n <= 2^53 whose coding gain reaches ``target_gc``.

    G_c depends on n only through m = n m_1, as (x / m_1^2) m exp(-K(m)/m),
    K the scaled log bracket: it falls until m = 1 and rises from there.
    A target above G_c(1) is therefore met by a tail of counts, and one at
    or below it by n = 1, so bisection finds the smallest n.  G_c was seen
    to rise steadily up to n = 2^50; beyond, its relative rise per count,
    1/n, drops below the few roundings in gamma_bar / m and makes it
    jitter, so a huge target may stop a few counts from the smallest one.
    A target that no count up to 2^53 meets raises
    :class:`numerics.RangeError`.
    """
    target_gc = numerics.check_real(target_gc, "target coding gain", strict=True)
    phi1 = numerics.check_real(phi1, "planner phi_1", strict=True)

    def gc(n: int) -> float:
        ch = channel_from_moments(n, 1.0, a_squared, phi1, phi2)
        return _coding_gain(ch.m, ch.gamma_bar)

    n = _smallest_n(lambda n: gc(n) >= target_gc)
    if n is None:
        raise numerics.RangeError(
            f"target coding gain {target_gc!r} needs over 2^53 reflectors: G_c(2^53) = {gc(MAX_REFLECTORS)!r}"
        )
    return n
