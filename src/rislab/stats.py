"""Goodness-of-fit and curve-comparison utilities.

These turn qualitative agreement claims into numbers: a one-sample
Kolmogorov-Smirnov test against an analytic CDF and a log-log slope fit
that extracts the empirical diversity order of a curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics

__all__ = ["FitReport", "KS_MIN_SAMPLES", "ks_test", "slope_fit"]

KS_MIN_SAMPLES = 100
# sorted samples per tile: the cdf and the two maxima run on pieces of
# this size, so the fit's temporaries do not grow with the sample
_KS_TILE = 1 << 14


@dataclass(frozen=True)
class FitReport:
    statistic: float
    sample_count: int
    p_value: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "ks_distance": self.statistic,
            "sample_count": self.sample_count,
            "p_value": self.p_value,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def _kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function 2 sum (-1)^(k-1) exp(-2 k^2 lam^2)."""
    if lam < 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-16:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_test(samples, cdf: Callable, threshold: float | None = None) -> FitReport:
    """One-sample KS test of ``samples`` against the distribution ``cdf``.

    ``cdf`` must map an array of points to probabilities; it is called
    on consecutive pieces of the sorted samples.  Samples already in
    ascending order are read in place; others are sorted into a copy,
    so the input is never modified.  The p-value
    uses the asymptotic Kolmogorov law with the small-sample size
    correction; at least ``KS_MIN_SAMPLES`` samples are required.  When
    ``threshold`` is omitted the 99% critical distance 1.6276/sqrt(N) is
    used.
    """
    threshold = None if threshold is None else numerics.check_real(threshold, "threshold", strict=True)
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size < KS_MIN_SAMPLES:
        raise numerics.DomainError(f"ks_test needs >= {KS_MIN_SAMPLES} samples, got {xs.size}")
    if not np.all(xs[1:] >= xs[:-1]):  # also false next to a NaN
        xs = np.sort(xs)
    if np.isnan(xs[-1]):  # NaN sorts last
        raise numerics.DomainError("ks_test rejects NaN samples")
    n = xs.size
    d_plus = d_minus = -math.inf
    for start in range(0, n, _KS_TILE):
        part = xs[start : start + _KS_TILE]
        f = np.asarray(cdf(part), dtype=float)
        if f.shape != part.shape or not np.all((f >= -1e-12) & (f <= 1.0 + 1e-12)):
            raise numerics.DomainError("cdf must map the samples into [0, 1]")
        f = np.clip(f, 0.0, 1.0)
        grid = np.arange(start + 1, start + part.size + 1) / n
        d_plus = max(d_plus, float(np.max(grid - f)))
        d_minus = max(d_minus, float(np.max(f - (grid - 1.0 / n))))
    d = max(d_plus, d_minus)

    sqrt_n = math.sqrt(n)
    p = _kolmogorov_sf((sqrt_n + 0.12 + 0.11 / sqrt_n) * d)
    if threshold is None:
        threshold = 1.6276 / sqrt_n
    return FitReport(
        statistic=d, sample_count=n, p_value=p, threshold=threshold, passed=d < threshold
    )


def slope_fit(gamma_bar, ber) -> float:
    """Diversity order of a BER-vs-average-SNR table.

    Least-squares slope of ln(BER) against ln(gamma_bar), negated.
    """
    g = np.asarray(gamma_bar, dtype=float)
    p = np.asarray(ber, dtype=float)
    if g.size < 3:
        raise numerics.DomainError("slope fit needs at least 3 points")
    if not (np.all((p > 0.0) & (p < math.inf)) and np.all((g > 0.0) & (g < math.inf))):
        raise numerics.DomainError("slope fit needs finite positive BER and SNR values")
    lx = np.log(g)
    lx -= lx.mean()  # centering keeps the normal equations well conditioned
    ly = np.log(p)
    slope = float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
    return -slope
