"""Self-contained special functions and quadrature.

Every analytic formula in the package reduces to a handful of kernels:
the exponentially scaled modified Bessel function exp(-x) I_p(x), the
log-gamma function, the Gaussian tail probability Q (on ascending
arguments, as the Monte Carlo engine holds each block's sorted
magnitudes), the Stirling remainder of ln Gamma, the regularized lower
incomplete gamma P (one array path: a scalar is a 0-d array), the
Laguerre function L_{1/2} of the Rician mean magnitude, the
Gauss-Legendre rule, and an adaptive integrator built on it with the one
fixed error target the BER integral needs.  They are implemented on
plain numpy so the analytic modules carry no further math dependency and
can be tested in isolation against independent oracles.  Two argument
checks, ``check_count`` and ``check_real``, define a valid count and a
valid real for every module of the package.

Accuracy targets (relative unless stated otherwise):

* ``bessel_i_scaled``     1e-12 on 0 <= x <= 700; finite for any x once p*p < x
* ``ln_gamma``            1e-13 on x > 0
* ``gauss_q``             1e-12 on 0 <= x <= 37, where Q >= 6e-300; exact 1/2 at 0, 0 at inf
* ``regularized_gamma_p`` 1e-12 absolute on 0.3 <= m <= 250, exact at x = 0 and inf
* ``laguerre_half``       1e-11 on 0 <= k <= 20, 1e-3 asymptote for large k
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable

import numpy as np

__all__ = [
    "AccuracyError",
    "DomainError",
    "NumericsError",
    "RangeError",
    "bessel_i_scaled",
    "check_count",
    "check_real",
    "gauss_legendre",
    "gauss_q",
    "integrate",
    "laguerre_half",
    "ln_gamma",
    "regularized_gamma_p",
    "stirling_remainder",
]


class NumericsError(Exception):
    """Base class for numeric-kernel failures."""


class DomainError(NumericsError, ValueError):
    """An argument lies outside the mathematical domain of the routine."""


class RangeError(NumericsError, ValueError):
    """An argument lies outside the supported numerical range."""


class AccuracyError(NumericsError, RuntimeError):
    """The requested tolerance could not be certified.

    The best available estimate is kept in :attr:`estimate`.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


# ---------------------------------------------------------------------------
# argument checks: the one definition of a valid count and a valid real
# ---------------------------------------------------------------------------


def check_count(value, name: str, low: int = 0, high: float = math.inf) -> int:
    """``value`` as an int in [low, high].  An int, a numpy integer or an
    integral float passes; a bool, NaN, an infinity, a fraction or a
    non-number raises :class:`DomainError`."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral or not low <= int(value) <= high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_real(value, name: str, low: float = 0.0, strict: bool = False) -> float:
    """``value`` as a finite float >= low, or > low when ``strict``.  An
    int, a float or a numpy real passes; a bool, a string, a non-finite
    value or one below the bound raises :class:`DomainError`."""
    x = math.nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the double range
            pass
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        raise DomainError(f"{name} must be finite and {'>' if strict else '>='} {low}, got {value!r}")
    return x


# ---------------------------------------------------------------------------
# log-gamma (Lanczos, g = 7, 9 coefficients)
# ---------------------------------------------------------------------------

_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for finite x > 0."""
    x = check_real(x, "ln_gamma argument", strict=True)
    if x < 0.5:
        # reflection keeps the Lanczos series in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEF[i] / (z + i)
    t = z + 7.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of ln Gamma(m) in 1/m
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def stirling_remainder(m: float) -> float:
    """R(m) = ln Gamma(m) - (m - 1/2) ln m + m - (1/2) ln(2 pi) by its
    series, for m >= 10, where the eighth term is below 3e-17."""
    w = 1.0 / (m * m)
    return sum(c * w**k for k, c in enumerate(_STIRLING)) / m


# ---------------------------------------------------------------------------
# modified Bessel function of the first kind, integer order
# ---------------------------------------------------------------------------

_BESSEL_X_MAX = 700.0  # exp(x) stays below the double-precision ceiling
_SERIES_EPS = 1e-17
# 2 pi x stays finite up to here; an 8 k x that overflows above it only
# turns a vanishing series term into 0
_BESSEL_ASYM_WIDE = 2.0**1020


def _bessel_series(p: int, x: float) -> float:
    """All-positive power series; no cancellation, valid on the full range."""
    half = 0.5 * x
    if p == 0:
        term = 1.0
    else:
        term = math.exp(p * math.log(half) - ln_gamma(p + 1.0))
    total = term
    q = half * half
    for k in range(1, 20000):
        term *= q / (k * (k + p))
        total += term
        if term <= total * _SERIES_EPS:
            break
    return total


def _bessel_asym_scaled(p: int, x: float) -> float:
    """exp(-x) * I_p(x) by the large-argument expansion; needs p*p < x.

    Above ``_BESSEL_ASYM_WIDE`` the product 2 pi x would overflow, so
    there sqrt(x) is divided out on its own."""
    mu = 4.0 * p * p
    total = 1.0
    term = 1.0
    for k in range(1, 60):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        total += term
        if abs(term) < _SERIES_EPS * abs(total):
            break
    if x > _BESSEL_ASYM_WIDE:
        return total / math.sqrt(2.0 * math.pi) / math.sqrt(x)
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i_scaled(p: int, x: float) -> float:
    """exp(-x) * I_p(x), stable for arbitrarily large x.

    This is the form needed for Bessel ratios such as I_p(x)/I_0(x), which
    stay well defined long after I_p itself overflows.
    """
    p = check_count(p, "order")
    x = check_real(x, "argument")
    if 0.5 * x == 0.0:  # also the smallest subnormal, whose half underflows
        return 1.0 if p == 0 else 0.0
    if x >= 50.0 and p * p < x:
        return _bessel_asym_scaled(p, x)
    if x > _BESSEL_X_MAX:
        # only reachable for p >= 27, far above any order used here
        raise RangeError(f"scaled series unavailable for p={p}, x={x!r}")
    return _bessel_series(p, x) * math.exp(-x)


# ---------------------------------------------------------------------------
# the Gaussian tail Q through the complementary error function
# ---------------------------------------------------------------------------
#
# Rational approximations of W. J. Cody (netlib CALERF), three regimes,
# relative error around 1e-16.  Vectorized because the Monte Carlo engine
# evaluates Q over millions of samples at once: on ascending arguments
# each regime is one contiguous slice, evaluated in place.

_CODY_A = (
    3.16112374387056560e0,
    1.13864154151050156e2,
    3.77485237685302021e2,
    3.20937758913846947e3,
    1.85777706184603153e-1,
)
_CODY_B = (
    2.36012909523441209e1,
    2.44024637934444173e2,
    1.28261652607737228e3,
    2.84423683343917062e3,
)
_CODY_C = (
    5.64188496988670089e-1,
    8.88314979438837594e0,
    6.61191906371416295e1,
    2.98635138197400131e2,
    8.81952221241769090e2,
    1.71204761263407058e3,
    2.05107837782607147e3,
    1.23033935479799725e3,
    2.15311535474403846e-8,
)
_CODY_D = (
    1.57449261107098347e1,
    1.17693950891312499e2,
    5.37181101862009858e2,
    1.62138957456669019e3,
    3.29079923573345963e3,
    4.36261909014324716e3,
    3.43936767414372164e3,
    1.23033935480374942e3,
)
_CODY_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_CODY_Q = (
    2.56852019228982242e0,
    1.87295284992346047e0,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_HALF = math.sqrt(0.5)
# Cody's range bounds, and a last one past which erfc(y) < exp(-y^2) is
# below the smallest subnormal (from y = 27.3 on), so erfc is 0
_CODY_BOUNDS = (0.46875, 4.0, 32.0)


def _rational(v, lead, top, bottom, num, den) -> None:
    """Horner steps of Cody's rational functions in place:
    num = (..((lead v + top[0]) v + top[1]) v ..) v and
    den = (..((v + bottom[0]) v + bottom[1]) v ..) v."""
    np.multiply(v, lead, out=num)
    den[:] = v
    for c_top, c_bottom in zip(top, bottom):
        num += c_top
        num *= v
        den += c_bottom
        den *= v


def _scaled_exp(y, res, out, a, b) -> None:
    """out = exp(-y^2) res, with y^2 split at y rounded down to 1/16 so
    that no digits of the exponent are lost; ``a`` and ``b`` are scratch."""
    ysq = np.multiply(y, 16.0, out=a)
    np.trunc(ysq, out=ysq)
    ysq /= 16.0
    np.negative(ysq, out=out)
    out *= ysq
    np.exp(out, out=out)
    np.subtract(y, ysq, out=b)
    np.negative(b, out=b)
    ysq += y
    b *= ysq
    np.exp(b, out=b)
    out *= b
    out *= res


def gauss_q(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Gaussian tail probability Q(x) = P[N(0,1) > x] into ``out``, which
    is returned, for an ascending array x >= 0 with any NaN at the end.

    Each of Cody's three ranges is a contiguous slice of the ascending
    arguments, found by bisection and evaluated in place, so the call
    allocates no array of the size of x: ``out`` has the size of x and
    ``work`` is scratch of shape ``(4, m)`` with m >= x.size.  Q(0) = 1/2,
    Q(inf) = 0 and Q(nan) is nan.
    """
    y = np.multiply(x, _SQRT_HALF, out=work[3, : x.size])
    i, j, k = np.searchsorted(y, _CODY_BOUNDS, side="right")

    # y <= 0.46875: erfc = 1 - y R(y^2)
    ys = y[:i]
    z, num, den = (w[:i] for w in work[:3])
    np.multiply(ys, ys, out=z)
    _rational(z, _CODY_A[4], _CODY_A[:3], _CODY_B[:3], num, den)
    num += _CODY_A[3]
    num *= ys
    den += _CODY_B[3]
    num /= den
    np.subtract(1.0, num, out=out[:i])

    # 0.46875 < y <= 4: erfc = exp(-y^2) R(y)
    ym = y[i:j]
    num, den, c = (w[: j - i] for w in work[:3])
    _rational(ym, _CODY_C[8], _CODY_C[:7], _CODY_D[:7], num, den)
    num += _CODY_C[7]
    den += _CODY_D[7]
    num /= den
    _scaled_exp(ym, num, out[i:j], den, c)

    # 4 < y <= 32: erfc = exp(-y^2) (1/sqrt(pi) - z R(z)) / y with z = 1/y^2
    yb = y[j:k]
    z, num, den = (w[: k - j] for w in work[:3])
    np.multiply(yb, yb, out=z)
    np.divide(1.0, z, out=z)
    _rational(z, _CODY_P[5], _CODY_P[:4], _CODY_Q[:4], num, den)
    num += _CODY_P[4]
    num *= z
    den += _CODY_Q[4]
    num /= den
    np.subtract(_INV_SQRT_PI, num, out=num)
    num /= yb
    with np.errstate(under="ignore"):
        _scaled_exp(yb, num, out[j:k], z, den)

    # y > 32, inf included: erfc = 0; NaN, sorted last, stays NaN
    np.minimum(y[k:], 0.0, out=out[k:])
    out *= 0.5
    return out


# ---------------------------------------------------------------------------
# regularized lower incomplete gamma P(m, x)
# ---------------------------------------------------------------------------


def _gamma_p_series(m: float, x: np.ndarray) -> np.ndarray:
    """Series of P(m, x) / prefactor for x < m + 1; each element stops at
    its own last term, when it leaves the shrinking index set ``live``."""
    out = np.empty_like(x)
    live = np.arange(x.size)
    term = np.full_like(x, 1.0 / m)
    total = term.copy()
    k = 0
    while live.size:
        k += 1
        term *= x / (m + k)
        total += term
        done = (term < total * 1e-17) | (k > 10000)
        if done.any():
            out[live[done]] = total[done]
            keep = ~done
            live, x, term, total = live[keep], x[keep], term[keep], total[keep]
    return out


def _gamma_q_cf(m: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction (modified Lentz) of Q(m, x) / prefactor for
    x >= m + 1, where b starts at 2 or more; stops per element likewise."""
    tiny = 1e-300
    out = np.empty_like(x)
    live = np.arange(x.size)
    b = x + 1.0 - m
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while live.size:
        i += 1
        an = -i * (i - m)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = (np.abs(delta - 1.0) < 1e-16) | (i >= 999)
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
    return out


def regularized_gamma_p(m: float, x):
    """Regularized lower incomplete gamma P(m, x) for m > 0, x >= 0.

    One numpy path; a scalar comes back as a float.  The series gives P
    below m + 1, the continued fraction 1 - P from there on, both times
    exp(-x + m log x - ln Gamma(m)).  P(m, inf) = 1; nan raises.
    """
    m = check_real(m, "shape", strict=True)
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):
        raise DomainError("x must be >= 0")
    prefactor = lambda v: np.exp(-v + m * np.log(v) - ln_gamma(m))
    flat = arr.ravel()
    out = np.where(flat == np.inf, 1.0, 0.0)
    low = (flat > 0.0) & (flat < m + 1.0)
    high = (flat >= m + 1.0) & (flat < np.inf)
    x_low, x_high = flat[low], flat[high]
    out[low] = np.minimum(1.0, _gamma_p_series(m, x_low) * prefactor(x_low))
    out[high] = np.maximum(0.0, 1.0 - prefactor(x_high) * _gamma_q_cf(m, x_high))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# the confluent hypergeometric function of the Rician mean magnitude
# ---------------------------------------------------------------------------


def laguerre_half(k: float) -> float:
    """Laguerre function L_{1/2}(-k) = exp(-k) * 1F1(3/2; 1; k) for k >= 0.

    Evaluated through scaled Bessel functions,
    L_{1/2}(-k) = exp(-k/2) [ (1+k) I_0(k/2) + k I_1(k/2) ],
    which stays bounded for any k.  It appears in the mean magnitude of
    a Rician channel; the direct alternating series would lose all
    precision already around k = 25.
    """
    k = check_real(k, "argument")
    half = 0.5 * k
    return (1.0 + k) * bessel_i_scaled(0, half) + k * bessel_i_scaled(1, half)


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


# settings of the adaptive integrator: the error target is the larger of
# the absolute and the relative one; each panel is an order-point rule
_QUAD_TOL = 1e-12
_QUAD_REL_TOL = 1e-11
_QUAD_MAX_SPLITS = 4000
_QUAD_ORDER = 24


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on
    [-1, 1], computed on first use; callers must not modify them."""
    return np.polynomial.legendre.leggauss(order)


def _panel(f: Callable, a: float, b: float) -> float:
    nodes, weights = gauss_legendre(_QUAD_ORDER)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * nodes), dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError(f"integrand not finite on [{a}, {b}]")
    return half * float(weights @ y)


def _refined(f: Callable, a: float, b: float) -> tuple[float, float]:
    """Bisected estimate of the panel integral and its error estimate."""
    coarse = _panel(f, a, b)
    mid = 0.5 * (a + b)
    fine = _panel(f, a, mid) + _panel(f, mid, b)
    return fine, abs(fine - coarse)


def integrate(f: Callable, a: float, b: float) -> float:
    """Integrate ``f`` over [a, b] to an error below ``_QUAD_TOL``, or
    ``_QUAD_REL_TOL`` times the integral where that is larger.

    ``f`` must accept a numpy array of abscissae and return the integrand
    values elementwise.  Raises :class:`AccuracyError` (carrying the best
    estimate) when the error cannot be brought below the target within
    ``_QUAD_MAX_SPLITS`` bisections.
    """
    a = check_real(a, "lower limit", -math.inf)
    b = check_real(b, "upper limit", -math.inf)
    if not a < b:
        raise DomainError(f"integration interval must satisfy a < b, got [{a}, {b}]")

    value, err = _refined(f, a, b)
    # heap of (-error, counter, a, b, value, error); counter breaks ties
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total = value
    total_err = err
    splits = 0
    while total_err > max(_QUAD_TOL, _QUAD_REL_TOL * abs(total)):
        splits += 1
        if splits > _QUAD_MAX_SPLITS:
            raise AccuracyError(
                f"adaptive quadrature did not converge in {_QUAD_MAX_SPLITS} "
                f"subdivisions (err ~ {total_err:.3e})",
                total,
            )
        _, _, pa, pb, pv, pe = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        lv, le = _refined(f, pa, mid)
        rv, re = _refined(f, mid, pb)
        total += lv + rv - pv
        total_err += le + re - pe
        counter += 1
        heapq.heappush(heap, (-le, counter, pa, mid, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, mid, pb, rv, re))
    return total
